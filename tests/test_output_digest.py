"""Smoke test of scripts/output_digest.py on the TOY24 fixture."""
from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def test_digests_the_four_outputs(tmp_path):
    argv = [sys.executable, str(SCRIPT), str(FIXTURES / "TOY24"), "TOY24",
            "--work", str(tmp_path), "--epochs", "1", "--seed", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    files = [tmp_path / "train" / "model.params", tmp_path / "train" / "metrics.csv",
             tmp_path / "export" / "summaries.csv", tmp_path / "export" / "logits.csv"]
    assert lines == [f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}" for f in files]
    assert "config.epochs = 1" in (tmp_path / "train" / "manifest.txt").read_text()
    assert "post_head = True" in (tmp_path / "export" / "manifest.txt").read_text()


def test_a_failing_command_is_reported(tmp_path):
    argv = [sys.executable, str(SCRIPT), str(tmp_path), "NOPE", "--work", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "sparsepool train exited 2" in done.stderr and "NOPE" in done.stderr
