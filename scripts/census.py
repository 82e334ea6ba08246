#!/usr/bin/env python3
"""Count the size of the sparsepool package: a simplicity census.

Usage: python scripts/census.py [--src SRC] [--against SRC]

Prints one row per module of the package tree under SRC (default: this
checkout's ``src``) and a total row, then the public ``Tape`` methods and
the tape records of one training step. The columns, all read with the
stdlib ``ast`` module:

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
not start with an underscore. ``records per step`` runs one training step
on the TOY24 fixture (one batch of all 24 graphs, hidden width 8, default
model shape) in a child process that imports the package from SRC, and
counts the tape's records when ``backward`` starts.

With ``--against SRC`` the second tree is counted too: its totals and the
deltas (first tree minus second) are printed after the table.
"""
from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOY24 = ROOT / "tests" / "fixtures" / "TOY24"
STATIC = ("lines", "defs", "params", "defaulted", "fields", "field_defaults", "branches")

# one training step of the default model; prints the tape's record count
STEP = """
import sys
from sparsepool.datasets import parse_tu_dataset
from sparsepool.engine import Tape
from sparsepool.training import TrainConfig, train_one

records = []
backward = Tape.backward

def counted(self, loss):
    records.append(len(self._nodes))
    return backward(self, loss)

Tape.backward = counted
ds = parse_tu_dataset(sys.argv[1], "TOY24")
config = TrainConfig(hidden_dim=8, lr=0.01, epochs=1, batch_size=len(ds.graphs))
train_one(ds.graphs, ds.num_classes, config)
assert len(records) == 1, records
print(records[0])
"""


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


def static_census(src: Path) -> tuple[list[tuple[str, dict[str, int]]], dict[str, int]]:
    """Per-module counts of every ``.py`` file under ``src``, and their sum
    with the public ``Tape`` methods."""
    rows = []
    total = dict.fromkeys(STATIC + ("tape_methods",), 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        counts = count_source(text)
        rows.append((path.relative_to(src).as_posix(), counts))
        for key, value in counts.items():
            total[key] += value
        total["tape_methods"] += tape_methods(text)
    return rows, total


def records_per_step(src: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", STEP, str(TOY24)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"training step under {src} failed: {done.stderr.strip()}")
    return int(done.stdout)


def census(src: Path):
    rows, total = static_census(src)
    total["records_per_step"] = records_per_step(src)
    return rows, total


def _row(name: str, counts: dict) -> str:
    return f"{name:<26}" + "".join(f"{counts[k]:>{len(k) + 2}}" for k in STATIC)


def _tape_lines(total: dict) -> list[str]:
    return [f"Tape methods: {total['tape_methods']}",
            f"records per step: {total['records_per_step']}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to count (default: this checkout's)")
    parser.add_argument("--against", type=Path, default=None,
                        help="also count this src directory and print the deltas")
    args = parser.parse_args(argv)
    rows, total = census(args.src.resolve())
    print(_row("module", {k: k for k in STATIC}))
    for name, counts in rows:
        print(_row(name, counts))
    print(_row("total", total), *_tape_lines(total), sep="\n")
    if args.against is not None:
        _, other = census(args.against.resolve())
        delta = {k: f"{total[k] - other[k]:+d}" for k in total}
        print(f"== {args.against}", _row("total", other), *_tape_lines(other), sep="\n")
        print("== delta", _row("total", delta), *_tape_lines(delta), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
