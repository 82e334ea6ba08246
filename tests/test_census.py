"""The static counts of scripts/census.py, on an inline module and on src/."""
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


def test_src_totals_are_the_sum_of_the_module_rows():
    rows, total = census.static_census(ROOT / "src")
    names = [name for name, _ in rows]
    assert names == sorted(f"sparsepool/{p.name}" for p in (ROOT / "src" / "sparsepool").glob("*.py"))
    for key in census.STATIC:
        assert total[key] == sum(counts[key] for _, counts in rows)
    assert total["tape_methods"] >= 1
