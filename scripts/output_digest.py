#!/usr/bin/env python3
"""Digest the deterministic outputs of sparsepool on one TU dataset directory.

Usage: python scripts/output_digest.py DATA_DIR NAME [--src SRC]
       [--against SRC] [--work DIR] [config flags...]

Runs ``sparsepool train`` on fold 0, then ``export-summaries`` of the test
split twice (summaries, and logits with ``--post-head``) from the saved
model, then ``sparsepool cv``, then ``sparsepool bench-mem --sizes
500,1000,2000 --seed 0`` (its own flags; the config flags do not apply to
it), and prints the sha256 of ``train/model.params``,
``train/metrics.csv``, ``export/summaries.csv``, ``export/logits.csv``,
``cv/metrics.csv`` and ``bench-mem/membench.csv``, one ``<sha256>  <file>``
line each, named relative to the work directory. The sparse column of
``membench.csv`` is the exact tracked peak at each size, so equal lines
also mean equal tracked bytes. The commands run as
``python -m sparsepool.cli`` on the package under ``SRC`` (default: this
checkout's ``src``), so the same script digests another checkout's
outputs: equal lines mean byte-identical outputs.

With ``--against SRC`` both package trees are digested with the same
flags (under ``src/`` and ``against/`` of the work directory), both sets
of lines are printed, each after a ``== <tree>`` line, and the exit status
is 1 when any hash differs, each differing file named on standard error;
0 means the two trees' outputs are byte-identical.

Any further flags go to every command (they must agree on the config);
they come after the defaults ``--hidden 16 --lr 0.01 --epochs 2``, so they
win over them. ``dataset_argvs`` and ``bench_mem_argv`` give the commands,
which ``scripts/census.py`` runs as well.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_FLAGS = ["--hidden", "16", "--lr", "0.01", "--epochs", "2"]
DIGESTED = ("train/model.params", "train/metrics.csv", "export/summaries.csv",
            "export/logits.csv", "cv/metrics.csv", "bench-mem/membench.csv")


def dataset_argvs(config: list[str], work: Path) -> list[list[str]]:
    """The dataset commands, in order, with ``config`` (the dataset and
    config flags) and their outputs under ``work``."""
    model = str(work / "train" / "model.params")
    return [["train", *config, "--out", str(work / "train")],
            ["export-summaries", *config, "--model", model, "--out", str(work / "export")],
            ["export-summaries", *config, "--model", model, "--post-head",
             "--out", str(work / "export")],
            ["cv", *config, "--out", str(work / "cv")]]


def bench_mem_argv(work: Path) -> list[str]:
    """``bench-mem`` with its own flags, its outputs under ``work``."""
    return ["bench-mem", "--sizes", "500,1000,2000", "--seed", "0",
            "--out", str(work / "bench-mem")]


def run(src: Path, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "sparsepool.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"sparsepool {argv[0]} exited {done.returncode}: {done.stderr.strip()}")


def digests(data_dir: Path, name: str, src: Path, work: Path, flags: list[str]) -> list[str]:
    """``<sha256>  <file>`` lines of the six outputs, written under ``work``."""
    config = ["--dataset", name, "--data-dir", str(data_dir), *DEFAULT_FLAGS, *flags]
    for argv in [*dataset_argvs(config, work), bench_mem_argv(work)]:
        run(src, argv)
    return [f"{hashlib.sha256((work / f).read_bytes()).hexdigest()}  {f}" for f in DIGESTED]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data_dir", type=Path, help="directory holding NAME_A.txt etc.")
    parser.add_argument("name", help="dataset name (file prefix)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to run")
    parser.add_argument("--against", type=Path, default=None,
                        help="also digest this src directory and compare the two")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the outputs here (default: a temporary directory)")
    args, flags = parser.parse_known_args(argv)
    data_dir = args.data_dir.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        if args.against is None:
            for line in digests(data_dir, args.name, args.src.resolve(), work, flags):
                print(line)
            return 0
        runs = []
        for label, src in (("src", args.src), ("against", args.against)):
            lines = digests(data_dir, args.name, src.resolve(), work / label, flags)
            print(f"== {src}", *lines, sep="\n")
            runs.append(lines)
    differ = [a.split("  ", 1)[1] for a, b in zip(*runs) if a != b]
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
