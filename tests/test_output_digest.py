"""Smoke test of scripts/output_digest.py on the TOY24 fixture."""
from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


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
    assert lines[4:] == digest_lines(work, "cv/metrics.csv")
    manifest = (work / "cv" / "manifest.txt").read_text()
    assert "command = cv" in manifest and "config.seed = 2" in manifest


def test_a_failing_command_is_reported(tmp_path):
    argv = [sys.executable, str(SCRIPT), str(tmp_path), "NOPE", "--work", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "sparsepool train exited 2" in done.stderr and "NOPE" in done.stderr
