#!/usr/bin/env python3
"""Count the size of the sparsepool package: a simplicity census.

Usage: python scripts/census.py [--src SRC] [--against SRC]

Prints one row per module of the package tree under SRC (default: this
checkout's ``src``) and a total row, then the public ``Tape`` methods and
the tape records of one training step. The static columns, all read with
the stdlib ``ast`` module:

- ``lines``: physical lines of the file;
- ``defs``: ``def`` functions and methods (lambdas are not counted here);
- ``params``: parameters of every ``def`` and lambda, ``*args`` and
  ``**kwargs`` included, leaving out those named ``self`` and ``cls``;
- ``defaulted``: those of them with a default value;
- ``fields``: annotated fields of ``@dataclass`` classes;
- ``field_defaults``: those fields with a default, a plain value or a
  ``field(...)`` with ``default`` or ``default_factory``;
- ``branches``: branch points, one for each ``if`` and ``elif``, ternary,
  ``for`` and ``while`` loop, comprehension ``for`` and comprehension
  ``if``, and one for each ``and``/``or`` operand after the first.

``Tape methods`` counts the methods of the ``Tape`` class whose names do
not start with an underscore. ``public names`` counts the names a package
``__init__.py`` re-exports: those its module-level imports bind, leaving
out names that start with an underscore (the submodules an import binds as
package attributes are not counted).

``unreached`` counts the statements that no traffic runs. One child
process imports the package from SRC under ``sys.settrace``, installed
before ``import sparsepool`` so module-level code counts too, and runs the
traffic in a temporary directory: on TOY24, the seed-1 ``PROTEINS_SYN`` and
``COLLAB_SYN`` sets of ``perfbench/gen.py`` and TOY24's graphs with seeded
5-wide Gaussian node attributes, it calls ``cli.main`` for the
dataset commands of ``scripts/output_digest.py`` in both readout positions,
``export-summaries --split train`` and ``--split all --post-head``, and
``cv --jobs 2 --no-stratify``; then once each ``train --max-degree``, ``cv
--show-defaults`` and the digest's ``bench-mem`` with and without
``--budget``. Last, for each workload of ``perfbench/bench.py`` (imported
unchanged) at seed 1 it calls what one end-to-end benchmark run does:
``setup``, one ``rep`` and its ``check``, ``cli_check``,
``peak_tracked_bytes`` and ``stats``. A statement is reached when a line of its own span (its
header, for a compound statement) fires a trace event. ``raise``
statements, everything inside an ``except`` body, docstrings and
``global``/``nonlocal`` declarations are not counted. ``records per step``
counts the tape's records when the first ``backward`` of the traffic
(TOY24's post-pool ``train``) starts.

Every function holding unreached statements needs a ``REASONS`` entry
with their count and why they stay; the census exits 1, naming each
function, when one has no entry or a different count.

With ``--against SRC`` the second tree is counted too: its totals and the
deltas (first tree minus second) are printed after the table.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOY24 = ROOT / "tests" / "fixtures" / "TOY24"
STATIC = ("lines", "defs", "params", "defaulted", "fields", "field_defaults", "branches")
COLUMNS = STATIC + ("unreached",)
# the child process: imports this script, which runs the traffic
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import census; census.traffic(*sys.argv[2:])"

# each owner (module name and qualname) of unreached statements: (their count, why they stay)
MALFORMED = "diagnoses malformed dataset files; the traffic reads only well-formed ones"
CHECKED = ("the checked public constructor; the package builds through the unchecked "
           "_trusted path, and tests pin the checks")
MARGIN = "the margin hook's probe; no command's tape has a hook with margin"
REASONS: dict[str, tuple[int, str]] = {
    "sparsepool.cli.<module>": (1, "the __main__ guard; the traffic calls cli.main in-process"),
    "sparsepool.cli.console_main": (1, "the console-script entry; the traffic calls cli.main"),
    "sparsepool.datasets.DatasetFormatError.__init__": (4, MALFORMED),
    "sparsepool.datasets._check_edges": (14, MALFORMED),
    "sparsepool.datasets._line_of_row": (3, MALFORMED),
    "sparsepool.datasets._read_lines": (5, MALFORMED + ", after the one-call table load"),
    "sparsepool.datasets._read_table": (18, MALFORMED + ", after the one-call table load"),
    "sparsepool.datasets.degree_feature_bound": (1, "the bound of graphs with no nodes at all"),
    "sparsepool.datasets.parse_tu_dataset": (3, MALFORMED),
    "sparsepool.engine.Tape.mlp_head": (1, MARGIN),
    "sparsepool.engine.Tape.mpconv": (1, MARGIN),
    "sparsepool.engine.Tape.mpconv.<locals>.bw": (
        4, "X's gradient through a non-square theta: block 0's input has no gradient "
           "and later thetas are square; the conv's finite-difference and dense-oracle "
           "tests read it"),
    "sparsepool.engine.Tape.segment_readout": (4, MARGIN),
    "sparsepool.engine._pin_mmap_threshold": (1, "the return of a C library with no mallopt, "
                                             "or one that refuses it; glibc pins"),
    "sparsepool.engine.finite_diff_check": (16, "the finite-difference oracle of the tests"),
    "sparsepool.graphs.LabeledGraph.__post_init__": (2, CHECKED),
    "sparsepool.graphs.SparseGraph.__post_init__": (3, CHECKED),
    "sparsepool.graphs.SparseGraph.to_dense": (4, "the dense oracle of the tests"),
    "sparsepool.graphs._validate_csr": (19, CHECKED),
    "sparsepool.graphs.batch_graphs": (3, "picks the error of a bad batch; commands batch "
                                          "graphs of one parsed dataset"),
    "sparsepool.layers._select_topk": (7, MARGIN),
    "sparsepool.layers.topk_pool": (3, "the per-graph pooling oracle of the tests"),
    "sparsepool.training._param_norms": (1, "formats a numeric blow-up's message"),
    "sparsepool.training._run_worker_fold": (1, "runs in a forked cv worker, whose trace is lost"),
    "sparsepool.training._share_dataset": (1, "runs in a forked cv worker, whose trace is lost"),
    "sparsepool.training.forward_batches": (1, "the 0 x 0 result of no graphs, which a test pins"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_has_default(value: ast.expr | None) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def count_source(text: str) -> dict[str, int]:
    """The ``STATIC`` counts of one module's source text."""
    counts = dict.fromkeys(STATIC, 0)
    counts["lines"] = len(text.splitlines())
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            counts["defs"] += not isinstance(node, ast.Lambda)
            counts["params"] += sum(name not in ("self", "cls") for name in names)
            counts["defaulted"] += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    counts["fields"] += 1
                    counts["field_defaults"] += _field_has_default(stmt.value)
        elif isinstance(node, (ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While)):
            counts["branches"] += 1
        elif isinstance(node, ast.comprehension):
            counts["branches"] += 1 + len(node.ifs)
        elif isinstance(node, ast.BoolOp):
            counts["branches"] += len(node.values) - 1
    return counts


def tape_methods(text: str) -> int:
    """Public methods of the ``Tape`` class defined in a module, or 0."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef) and node.name == "Tape":
            return sum(isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not s.name.startswith("_") for s in node.body)
    return 0


def public_names(text: str) -> int:
    """Names a package ``__init__`` binds by its module-level imports,
    leaving out those that start with an underscore."""
    return sum(not (alias.asname or alias.name.split(".")[0]).startswith("_")
               for node in ast.parse(text).body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names)


def static_census(src: Path) -> tuple[list[tuple[str, dict[str, int]]], dict[str, int]]:
    """Per-module counts of every ``.py`` file under ``src``, and their sum
    with the public ``Tape`` methods and the names the packages re-export."""
    rows = []
    total = dict.fromkeys(STATIC + ("tape_methods", "public_names"), 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        counts = count_source(text)
        rows.append((path.relative_to(src).as_posix(), counts))
        for key, value in counts.items():
            total[key] += value
        total["tape_methods"] += tape_methods(text)
        if path.name == "__init__.py":
            total["public_names"] += public_names(text)
    return rows, total


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _counted(body: list[ast.stmt], owner: str, prefix: str, found: list, scope: bool) -> None:
    for index, stmt in enumerate(body):
        if (scope and index == 0 and _is_docstring(stmt)) or isinstance(
                stmt, (ast.Raise, ast.Global, ast.Nonlocal)):
            continue
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        inner = getattr(stmt, "body", None)
        last = stmt.end_lineno if inner is None else max(first, inner[0].lineno - 1)
        found.append((owner, range(first, last + 1)))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + stmt.name
            dot = ".<locals>." if not isinstance(stmt, ast.ClassDef) else "."
            _counted(stmt.body, name, name + dot, found, True)
            continue
        for field in ("body", "orelse", "finalbody"):  # never an except handler's body
            _counted(getattr(stmt, field, []), owner, prefix, found, False)
        for case in getattr(stmt, "cases", ()):
            _counted(case.body, owner, prefix, found, False)


def counted_statements(text: str) -> list[tuple[str, range]]:
    """The statements the reach census counts in one module's source, in
    source order: the qualname of the function or class owning each
    (``<module>`` at module level) and the lines of its own span, where a
    trace event means it ran."""
    found: list[tuple[str, range]] = []
    _counted(ast.parse(text).body, "<module>", "", found, True)
    return found


def _module_name(relative: Path) -> str:
    parts = relative.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def traffic(src: str, result: str) -> None:
    """The census's child process: trace the traffic of the package under
    ``src`` (first on ``sys.path``) and write the lines each of its files
    ran, and the records per step, to ``result`` as JSON."""
    prefix = str(Path(src).resolve()) + os.sep
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def lines_of(added):
        def local(frame, event, arg):
            if event == "line":
                added(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = (lines_of(hits.setdefault(name, set()).add)
                             if name.startswith(prefix) else None)
        return tracers[name]

    sys.settrace(tracer)
    import numpy as np

    from sparsepool import cli
    from sparsepool.datasets import Dataset, parse_tu_dataset, write_tu_dataset
    from sparsepool.engine import Tape
    from sparsepool.graphs import LabeledGraph

    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench  # with gen and spans, unchanged
    import gen
    import output_digest as digest  # scripts/ is on sys.path too
    records: list[int] = []
    backward = Tape.backward

    def counted(self, loss):
        records.append(len(self._nodes))
        return backward(self, loss)

    Tape.backward = counted
    work = Path(result).parent
    toy = parse_tu_dataset(TOY24, "TOY24")
    rng = np.random.default_rng(0)
    write_tu_dataset(Dataset("TOY24_ATTR", [
        LabeledGraph(g.graph, rng.standard_normal((g.graph.num_nodes, 5)), g.label)
        for g in toy.graphs], toy.num_classes, "node_attributes"), work / "TOY24_ATTR")
    perf = [gen.ensure_dataset(w, 1, work / "perfbench") for w in ("proteins", "collab")]
    sets = [(TOY24, "TOY24"), *((path, shape.name) for shape, path in perf),
            (work / "TOY24_ATTR", "TOY24_ATTR")]

    def run(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"sparsepool {' '.join(map(str, argv))} exited {code}")

    for data_dir, name in sets:
        config = ["--dataset", name, "--data-dir", str(data_dir), *digest.DEFAULT_FLAGS]
        for position in ("post_pool", "pre_pool"):
            for argv in digest.dataset_argvs([*config, "--readout-position", position],
                                             work / name / position):
                run(*argv)
        model = work / name / "post_pool" / "train" / "model.params"
        out = work / name / "more"
        run("export-summaries", *config, "--model", model, "--split", "train",
            "--out", out / "train-split")
        run("export-summaries", *config, "--model", model, "--split", "all",
            "--post-head", "--out", out / "all-split")
        run("cv", *config, "--jobs", "2", "--no-stratify", "--out", out / "cv-jobs")
    run("train", "--dataset", "TOY24", "--data-dir", TOY24, *digest.DEFAULT_FLAGS,
        "--max-degree", "3", "--out", work / "max-degree")
    run("cv", "--dataset", "TOY24", "--show-defaults")
    run(*digest.bench_mem_argv(work / "plain"))
    run(*digest.bench_mem_argv(work / "budget"), "--budget", "1MiB")
    workloads = [bench.DatasetWorkload(1, work / "bench" / shape.name, shape, path)
                 for shape, path in perf]
    workloads.append(bench.BenchMemWorkload(1, work / "bench" / "bench_mem"))
    for w in workloads:  # what one end-to-end benchmark run calls
        w.out_dir.mkdir(parents=True)
        w.setup()
        rep = w.rep(bench._direct)
        bad = w.check(rep) + w.cli_check(rep)
        w.peak_tracked_bytes()
        w.stats()
        if bad:
            raise SystemExit(f"perfbench {type(w).__name__}: {'; '.join(bad)}")
    sys.settrace(None)
    Path(result).write_text(json.dumps({
        "records_per_step": records[0],
        "hits": {name: sorted(lines) for name, lines in hits.items()},
    }))


def _traced(src: Path) -> dict:
    """Run the traffic on the package under ``src`` in a child process: the
    lines each of its files ran (``hits``) and ``records_per_step``."""
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "reach.json"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).parent),
                               str(src), str(result)], env=env, cwd=tmp,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"the traffic under {src} failed: {done.stderr.strip()}")
        return json.loads(result.read_text())


def census(src: Path):
    """Per-module and total counts, and the first line of each unreached
    statement by owner (``<module name>.<qualname>``)."""
    rows, total = static_census(src)
    traced = _traced(src)
    total["records_per_step"] = traced["records_per_step"]
    total["unreached"] = 0
    unreached: dict[str, list[int]] = {}
    for name, counts in rows:
        path = src / name
        ran = set(traced["hits"].get(str(path), ()))
        missed = [(owner, span.start) for owner, span in counted_statements(path.read_text())
                  if ran.isdisjoint(span)]
        counts["unreached"] = len(missed)
        total["unreached"] += len(missed)
        for owner, line in missed:
            unreached.setdefault(f"{_module_name(Path(name))}.{owner}", []).append(line)
    return rows, total, unreached


def unexplained(unreached: dict[str, list[int]]) -> list[str]:
    """One line for each owner whose unreached count ``REASONS`` does not state."""
    lines = []
    for owner in sorted(set(unreached) | set(REASONS)):
        found = unreached.get(owner, [])
        listed = REASONS.get(owner, (0, ""))[0]
        if len(found) != listed:
            where = ", ".join(map(str, found)) or "none"
            lines.append(f"{owner}: {len(found)} unreached (lines {where}), REASONS lists {listed}")
    return lines

def _row(name: str, counts: dict) -> str:
    return f"{name:<26}" + "".join(f"{counts[k]:>{len(k) + 2}}" for k in COLUMNS)


def _tape_lines(total: dict) -> list[str]:
    return [f"Tape methods: {total['tape_methods']}",
            f"public names: {total['public_names']}",
            f"records per step: {total['records_per_step']}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to count (default: this checkout's)")
    parser.add_argument("--against", type=Path, default=None,
                        help="also count this src directory and print the deltas")
    args = parser.parse_args(argv)
    rows, total, unreached = census(args.src.resolve())
    print(_row("module", {k: k for k in COLUMNS}))
    for name, counts in rows:
        print(_row(name, counts))
    print(_row("total", total), *_tape_lines(total), sep="\n")
    if args.against is not None:
        _, other, _ = census(args.against.resolve())
        delta = {k: f"{total[k] - other[k]:+d}" for k in total}
        print(f"== {args.against}", _row("total", other), *_tape_lines(other), sep="\n")
        print("== delta", _row("total", delta), *_tape_lines(delta), sep="\n")
    missing = unexplained(unreached)
    for line in missing:
        print(f"no matching reason: {line}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
