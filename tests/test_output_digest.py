"""Smoke test of scripts/output_digest.py on the TOY24 fixture."""
from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
SRC = ROOT / "src"
DIGESTED = ("train/model.params", "train/metrics.csv", "export/summaries.csv",
            "export/logits.csv", "cv/metrics.csv", "bench-mem/membench.csv")


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One run of the script on TOY24: (its stdout lines, its work directory)."""
    work = tmp_path_factory.mktemp("digest")
    argv = [sys.executable, str(SCRIPT), str(FIXTURES / "TOY24"), "TOY24",
            "--work", str(work), "--epochs", "1", "--seed", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines(), work


def digest_lines(work, *files):
    return [f"{hashlib.sha256((work / f).read_bytes()).hexdigest()}  {f}" for f in files]


def test_digests_the_four_outputs(digest_run):
    # train's parameters and metrics, then the exported summaries and logits
    lines, work = digest_run
    assert lines[:4] == digest_lines(work, "train/model.params", "train/metrics.csv",
                                     "export/summaries.csv", "export/logits.csv")
    assert "config.epochs = 1" in (work / "train" / "manifest.txt").read_text()
    assert "post_head = True" in (work / "export" / "manifest.txt").read_text()


def test_digests_the_cv_metrics(digest_run):
    lines, work = digest_run
    assert lines[4:5] == digest_lines(work, "cv/metrics.csv")
    manifest = (work / "cv" / "manifest.txt").read_text()
    assert "command = cv" in manifest and "config.seed = 2" in manifest


def test_digests_the_bench_mem_sweep(digest_run):
    # bench-mem runs with its own flags: the config flags do not reach it
    lines, work = digest_run
    assert lines[5:] == digest_lines(work, "bench-mem/membench.csv")
    csv = (work / "bench-mem" / "membench.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in csv[1:]] == ["500", "1000", "2000"]
    assert "seed = 0" in (work / "bench-mem" / "manifest.txt").read_text().splitlines()


def test_a_failing_command_is_reported(tmp_path):
    argv = [sys.executable, str(SCRIPT), str(tmp_path), "NOPE", "--work", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "sparsepool train exited 2" in done.stderr and "NOPE" in done.stderr


def run_against(src, other, work):
    argv = [sys.executable, str(SCRIPT), str(FIXTURES / "TOY24"), "TOY24", "--src", str(src),
            "--against", str(other), "--work", str(work), "--epochs", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=240)


def test_the_checkout_against_itself_exits_0(tmp_path):
    done = run_against(SRC, SRC, tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == lines[7] == f"== {SRC}"
    assert lines[1:7] == lines[8:] == digest_lines(tmp_path / "src", *DIGESTED)
    assert "differs" not in done.stderr


def test_an_edited_tree_exits_1_naming_the_differing_files(tmp_path):
    edited = tmp_path / "edited"
    shutil.copytree(SRC, edited, ignore=shutil.ignore_patterns("__pycache__"))
    layers = edited / "sparsepool" / "layers.py"
    text = layers.read_text()
    assert "POOL_RATIO = 0.8\n" in text
    layers.write_text(text.replace("POOL_RATIO = 0.8\n", "POOL_RATIO = 0.5\n"))
    done = run_against(SRC, edited, tmp_path / "work")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"== {SRC}" and lines[7] == f"== {edited}"
    differ = [a.split("  ")[1] for a, b in zip(lines[1:7], lines[8:]) if a != b]
    assert differ  # a different pool ratio changes what the model computes
    assert done.stderr.splitlines() == [f"differs: {name}" for name in differ]
