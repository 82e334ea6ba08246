#!/usr/bin/env python3
"""Digest the deterministic outputs of sparsepool on one TU dataset directory.

Usage: python scripts/output_digest.py DATA_DIR NAME [--src SRC] [--work DIR]
       [config flags...]

Runs ``sparsepool train`` on fold 0, then ``export-summaries`` of the test
split twice (summaries, and logits with ``--post-head``) from the saved
model, then ``sparsepool cv``, and prints the sha256 of
``train/model.params``, ``train/metrics.csv``, ``export/summaries.csv``,
``export/logits.csv`` and ``cv/metrics.csv``, one ``<sha256>  <file>`` line
each, named relative to the work directory. The commands run as
``python -m sparsepool.cli`` on the package under ``SRC`` (default: this
checkout's ``src``), so the same script digests another checkout's
outputs: equal lines mean byte-identical outputs.

Any further flags go to every command (they must agree on the config);
they come after the defaults ``--hidden 16 --lr 0.01 --epochs 2``, so they
win over them.
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
            "export/logits.csv", "cv/metrics.csv")


def run(src: Path, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "sparsepool.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"sparsepool {argv[0]} exited {done.returncode}: {done.stderr.strip()}")


def digests(data_dir: Path, name: str, src: Path, work: Path, flags: list[str]) -> list[str]:
    """``<sha256>  <file>`` lines of the five outputs, written under ``work``."""
    common = ["--dataset", name, "--data-dir", str(data_dir), *DEFAULT_FLAGS, *flags]
    run(src, ["train", *common, "--out", str(work / "train")])
    model = str(work / "train" / "model.params")
    run(src, ["export-summaries", *common, "--model", model, "--out", str(work / "export")])
    run(src, ["export-summaries", *common, "--model", model, "--post-head",
              "--out", str(work / "export")])
    run(src, ["cv", *common, "--out", str(work / "cv")])
    return [f"{hashlib.sha256((work / f).read_bytes()).hexdigest()}  {f}" for f in DIGESTED]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data_dir", type=Path, help="directory holding NAME_A.txt etc.")
    parser.add_argument("name", help="dataset name (file prefix)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to run")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the outputs here (default: a temporary directory)")
    args, flags = parser.parse_known_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for line in digests(args.data_dir.resolve(), args.name, args.src.resolve(), work, flags):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
