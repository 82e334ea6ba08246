"""sparsepool benchmark: one command per workload run.

    python3 perfbench/run.py --workload proteins --seed 1 --seconds 20 --trace 0

Run it from the repository root; it measures the package in ``src/``. It
writes the workload's seeded input files once per seed under
``.perfbench/`` (untimed), then runs the workload in a child process with
BLAS pinned to one thread, so ``peak_rss_mb`` belongs to that workload alone
and two cores are never oversubscribed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``),
named and unit-tagged as in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="sparsepool benchmark")
    parser.add_argument("--workload", required=True, choices=("proteins", "collab", "bench_mem"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sparsepool" / "__init__.py").is_file():
        print(f"error: no sparsepool package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(src))
    import gen  # imports sparsepool from src/

    state = root / ".perfbench"
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(state / f"work-{os.getpid()}"),
        "--spans", str(state / f"spans-{args.workload}-s{args.seed}.jsonl"),
        "--result", str(state / f"result-{os.getpid()}.json"),
    ]
    if args.workload in gen.MAKERS:
        _, data_dir = gen.ensure_dataset(args.workload, args.seed, state / "data")
        cmd += ["--data", str(data_dir)]
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result_path = Path(cmd[cmd.index("--result") + 1])
    try:
        # run() kills the child on timeout and waits for it to end
        child = subprocess.run(
            cmd, env=env, timeout=max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - started))
        )
        if child.returncode != 0:
            print(f"error: workload process exited {child.returncode}", file=sys.stderr)
            return child.returncode if child.returncode > 0 else 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 1
    finally:
        result_path.unlink(missing_ok=True)
        shutil.rmtree(state / f"work-{os.getpid()}", ignore_errors=True)

    got = result["metrics"]
    if set(got) != set(units):
        print(f"error: metric set mismatch: missing {sorted(set(units) - set(got))}, "
              f"unexpected {sorted(set(got) - set(units))}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name:<28} {got[name]:>14.6g} {units[name]}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} operations)")
    result["metrics"] = {name: {"value": got[name], "unit": units[name]} for name in units}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
