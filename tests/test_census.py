"""The counts of scripts/census.py: static counts on an inline module and on
src/, the reach classifier on inline source, and the REASONS table."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("census", ROOT / "scripts" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

SOURCE = '''\
from dataclasses import dataclass, field


@dataclass
class Config:
    width: int
    depth: int = 3
    tags: list = field(default_factory=list)
    total: int = field(init=False)


class Walker:
    def step(self, a, b=1, *rest, key=None, **extra):
        if a and b or key:
            return [x for x in rest if x if b]
        elif a:
            return a if b else b
        for x in rest:
            while x:
                x -= 1
        return lambda y, z=2: y + z


class Tape:
    def backward(self, loss):
        pass

    def _push(self):
        pass
'''


def test_counts_each_kind_once():
    assert census.count_source(SOURCE) == {
        "lines": 29,
        "defs": 3,  # step, backward, _push; the lambda is no def
        "params": 8,  # a, b, rest, key, extra; y, z; loss (no self)
        "defaulted": 3,  # b, key, z
        "fields": 4,
        "field_defaults": 2,  # depth, tags; field(init=False) gives none
        # if: the if, its and, its or; the comprehension, its two ifs; the
        # elif; the ternary; the for; the while
        "branches": 10,
    }
    assert census.tape_methods(SOURCE) == 1
    assert census.public_names(SOURCE) == 2  # dataclass, field


INIT_SOURCE = '''\
"""A package."""
from .graphs import (
    SparseGraph,
    batch_graphs as batch,
    _check_index,
)
from .engine import Tape as _Tape, Var
from numpy import ndarray
import os.path

__all__ = [name for name in dir() if not name.startswith("_")]


def later():
    from .layers import build_model
'''


def test_public_names_counts_the_module_level_imports():
    # SparseGraph, batch, Var, ndarray, os; not the private names or the
    # import inside a function
    assert census.public_names(INIT_SOURCE) == 5


def test_src_totals_are_the_sum_of_the_module_rows():
    rows, total = census.static_census(ROOT / "src")
    names = [name for name, _ in rows]
    assert names == sorted(f"sparsepool/{p.name}" for p in (ROOT / "src" / "sparsepool").glob("*.py"))
    for key in census.STATIC:
        assert total[key] == sum(counts[key] for _, counts in rows)
    assert total["tape_methods"] >= 1
    init = (ROOT / "src" / "sparsepool" / "__init__.py").read_text()
    assert total["public_names"] == census.public_names(init) >= 1


REACH_SOURCE = '''\
"""A module docstring is not counted."""
LIMIT = 3


def outer(x):
    """Nor is a function's."""
    count = 0

    def inner():
        nonlocal count
        count += 1

    try:
        inner()
    except ValueError:
        count = -1
        raise
    if x > LIMIT:
        raise ValueError(
            "too big")
    total = (count +
             x)
    return total


class Box:
    size = 1

    def grow(self):
        return self.size + 1
'''


def test_the_reach_classifier_counts_statements_by_owner():
    assert census.counted_statements(REACH_SOURCE) == [
        ("<module>", range(2, 3)),
        ("<module>", range(5, 6)),  # the def runs at import; its span ends at the body
        ("outer", range(7, 8)),
        ("outer", range(9, 10)),  # defining inner is outer's statement
        ("outer.<locals>.inner", range(11, 12)),  # the nonlocal is not counted
        ("outer", range(13, 14)),  # try
        ("outer", range(14, 15)),  # the except body and both raises are not counted
        ("outer", range(18, 19)),
        ("outer", range(21, 23)),  # every line of a multi-line statement
        ("outer", range(23, 24)),
        ("<module>", range(26, 27)),
        ("Box", range(27, 28)),
        ("Box", range(29, 30)),
        ("Box.grow", range(30, 31)),
    ]


def test_every_reason_names_a_function_of_src_with_a_count_and_a_reason():
    counted = {}
    for path in (ROOT / "src").rglob("*.py"):
        module = census._module_name(path.relative_to(ROOT / "src"))
        for owner, _ in census.counted_statements(path.read_text()):
            key = f"{module}.{owner}"
            counted[key] = counted.get(key, 0) + 1
    assert census.REASONS
    for key, (count, reason) in census.REASONS.items():
        assert key in counted, key
        assert 0 < count <= counted[key], key
        assert isinstance(reason, str) and reason.strip(), key


def test_an_unreached_statement_needs_a_reason_with_its_count():
    matching = {key: [1] * count for key, (count, _) in census.REASONS.items()}
    assert census.unexplained(matching) == []
    key = next(iter(census.REASONS))
    extra = dict(matching, **{key: matching[key] + [99], "pkg.mod.f": [4, 7]})
    assert census.unexplained(extra) == sorted([
        f"{key}: {census.REASONS[key][0] + 1} unreached (lines "
        f"{', '.join(map(str, extra[key]))}), REASONS lists {census.REASONS[key][0]}",
        "pkg.mod.f: 2 unreached (lines 4, 7), REASONS lists 0",
    ])
    gone = dict(matching)
    del gone[key]
    assert census.unexplained(gone) == [
        f"{key}: 0 unreached (lines none), REASONS lists {census.REASONS[key][0]}"]
