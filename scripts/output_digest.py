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
also mean equal tracked bytes, but only at the sweep's ratio 1.0. A last
line, ``<bytes>  train-step/peak_tracked_bytes``, is the exact tracked
peak of one recorded training step (:data:`PEAK_STEP`) on fold 0's
largest training batch at the config's ratio, so a change to what a
pooled batch holds shows too. The commands run as
``python -m sparsepool.cli`` (the step as ``python -c``) on the package
under ``SRC`` (default: this checkout's ``src``), so the same script
digests another checkout's outputs: equal lines mean byte-identical
outputs and tracked bytes.

With ``--against SRC`` both package trees are digested with the same
flags (under ``src/`` and ``against/`` of the work directory), both sets
of lines are printed, each after a ``== <tree>`` line, and the exit status
is 1 when any line differs, each differing file named on standard error;
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
PEAK_NAME = "train-step/peak_tracked_bytes"

# One recorded training step on fold 0's largest training batch (the
# batch_size graphs with the most nodes), the config resolved as `train`
# resolves it from the same flags. The tracker is told of the batch's CSR
# and features and of every parameter's value, gradient and Adam moments
# before the step; the program prints its exact tracked peak.
PEAK_STEP = """\
import sys
import numpy as np
from sparsepool import cli, datasets, engine, graphs, membench, training
args = cli.build_parser().parse_args(sys.argv[1:])
config = cli._resolve_config(args)
dataset = datasets.parse_tu_dataset(args.data_dir, args.dataset)
train, _, _ = training.prepare_fold(dataset, training.make_folds(dataset, config)[0], config)
order = np.argsort([-g.graph.num_nodes for g in train], kind="stable")
batch = graphs.batch_graphs([train[i] for i in order[: config.batch_size]])
model = training.new_model(config, batch.features.shape[1], dataset.num_classes)
tracker = membench.MemoryTracker()
for arr in (batch.graph.row_offsets, batch.graph.col_indices, batch.features):
    tracker.note(arr, "inputs")
for p in model.parameters():
    for arr in (p.value, p.grad, p.adam_m, p.adam_v):
        tracker.note(arr, "params")
tape = engine.Tape(tracker=tracker)
tape.backward(tape.softmax_xent(training.model_forward(tape, batch, model), batch.labels))
print(tracker.peak)
"""


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


def run(src: Path, argv: list[str], program: str | None = None) -> str:
    """Standard output of ``sparsepool argv`` (of ``python -c program
    argv`` when ``program`` is given) on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    head = ["-c", program] if program else ["-m", "sparsepool.cli"]
    done = subprocess.run([sys.executable, *head, *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"sparsepool {argv[0]} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def digests(data_dir: Path, name: str, src: Path, work: Path, flags: list[str]) -> list[str]:
    """``<sha256>  <file>`` lines of the six outputs, written under ``work``,
    then the ``<bytes>  train-step/peak_tracked_bytes`` line."""
    config = ["--dataset", name, "--data-dir", str(data_dir), *DEFAULT_FLAGS, *flags]
    for argv in [*dataset_argvs(config, work), bench_mem_argv(work)]:
        run(src, argv)
    peak = int(run(src, ["train", *config], PEAK_STEP))
    return [*(f"{hashlib.sha256((work / f).read_bytes()).hexdigest()}  {f}" for f in DIGESTED),
            f"{peak}  {PEAK_NAME}"]


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
