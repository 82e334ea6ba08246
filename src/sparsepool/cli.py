"""Command-line interface binding all modules into reproducible experiments.

Exit codes: 0 success, 2 argument/validation/data errors (running out of
memory and a dead ``cv`` worker included, with the sizing flags named), 3
numeric failures during training. Every command writes a run manifest
that captures each resolved setting, the seeds, and dataset file
checksums.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import DatasetFormatError, file_checksum, parse_tu_dataset
from .engine import load_parameters, save_parameters
from .fileio import atomic_open
from .layers import forward_summaries, model_forward
from .membench import scaling_sweep
from .training import (
    DATASET_DEFAULTS,
    NonFiniteLossError,
    TrainConfig,
    cross_validate,
    default_config,
    evaluate,
    format_metrics,
    format_report,
    forward_batches,
    make_folds,
    new_model,
    prepare_fold,
    train_one,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_DATA_FILES = ("_A.txt", "_graph_indicator.txt", "_graph_labels.txt",
               "_node_labels.txt", "_node_attributes.txt")


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then reject a value failing ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse says "invalid float value" on a bad token
    return parse


_LR = _checked(float, lambda v: np.isfinite(v) and v >= 0, "a finite number >= 0")
_SEED = _checked(int, lambda v: v >= 0, ">= 0")
_JOBS = _checked(int, lambda v: v >= 1, ">= 1")

_BYTE_UNITS = {"KB": 10**3, "MB": 10**6, "GB": 10**9,
               "KIB": 2**10, "MIB": 2**20, "GIB": 2**30, "B": 1}


def _budget(text: str) -> int:
    """An argparse type: a finite byte count >= 0, e.g. ``1GiB`` or ``536870912``."""
    number, scale = text.strip().upper().replace(" ", ""), 1
    for unit in sorted(_BYTE_UNITS, key=len, reverse=True):
        if number.endswith(unit):
            number, scale = number[: -len(unit)], _BYTE_UNITS[unit]
            break
    try:
        value = float(number) * scale
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite byte count >= 0 with an optional unit "
            f"(B, KB, MB, GB, KiB, MiB, GiB), got {text!r}"
        )
    return int(value)


def _sizes(text: str) -> list[int]:
    """An argparse type: comma-separated node counts, each >= 1."""
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers >= 1, got {text!r}"
        )
    return sizes


class _DefaultsHelpFormatter(argparse.HelpFormatter):
    """Appends an option's default to its help unless the default is None
    or the help already states one."""

    def _get_help_string(self, action) -> str:
        text = action.help or ""
        if (action.option_strings and action.default not in (None, argparse.SUPPRESS)
                and "(default:" not in text):
            text += " (default: %(default)s)"
        return text


def _add_dataset_args(p: argparse.ArgumentParser) -> argparse.Action:
    dataset = p.add_argument("--dataset", required=True, help="dataset name (directory prefix)")
    p.add_argument("--data-dir", default="data", help="directory holding the dataset files")
    return dataset


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """Flags storing into the ``TrainConfig`` field ``dest``, defaulting to the
    field's default, or to None for a field set per dataset."""
    default = {f.name: None if f.default is MISSING else f.default for f in fields(TrainConfig)}

    def add(flag: str, dest: str, **kwargs) -> None:
        p.add_argument(flag, dest=dest, default=default[dest], **kwargs)

    add("--hidden", "hidden_dim", metavar="HIDDEN", type=int,
        help="hidden width (default: per-dataset)")
    add("--ratio", "pool_ratio", metavar="RATIO", type=float, help="pool ratio k")
    add("--lr", "lr", metavar="LR", type=_LR, help="learning rate (default: per-dataset)")
    add("--epochs", "epochs", metavar="EPOCHS", type=int, help="epochs (default: per-dataset)")
    add("--batch-size", "batch_size", metavar="BATCH_SIZE", type=int, help="mini-batch size")
    add("--seed", "seed", metavar="SEED", type=_SEED, help="base RNG seed")
    add("--blocks", "num_blocks", metavar="BLOCKS", type=int, help="number of conv-pool blocks")
    add("--max-degree", "max_degree", metavar="MAX_DEGREE", type=int,
        help="degree-feature cap (default: 95th percentile of training degrees)")
    # absent unless given; the help shows the flag's own default, not the field's
    p.add_argument("--no-stratify", dest="stratified", action="store_false",
                   default=argparse.SUPPRESS,
                   help="use plain instead of stratified folds (default: False)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsepool",
        description="Sparse hierarchical graph classification experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: argparse.ArgumentParser(
            formatter_class=_DefaultsHelpFormatter, **kw
        ),
    )

    p_train = sub.add_parser("train", help="train on a single stratified split")
    _add_dataset_args(p_train)
    _add_config_args(p_train)
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(fn=cmd_train, sizing="--hidden, --batch-size, --blocks")

    p_cv = sub.add_parser("cv", help="10-fold cross-validation")
    _add_dataset_args(p_cv).required = False  # --show-defaults reads none; cmd_cv checks
    _add_config_args(p_cv)
    p_cv.add_argument(
        "--jobs", type=_JOBS, default=1,
        help="parallel fold workers (at most one per fold)",
    )
    p_cv.add_argument("--out", default=None, help="output directory")
    p_cv.add_argument(
        "--show-defaults", action="store_true", help="print per-dataset defaults and exit"
    )
    p_cv.set_defaults(fn=cmd_cv, sizing="--hidden, --batch-size, --blocks, --jobs")

    p_mem = sub.add_parser("bench-mem", help="memory-scaling benchmark")
    p_mem.add_argument(
        "--sizes", type=_sizes, default="2000,4000,8000,16000", help="comma-separated node counts"
    )
    p_mem.add_argument(
        "--budget", type=_budget, default=None, help="memory budget, e.g. 1GiB or 536870912"
    )
    p_mem.add_argument("--seed", type=_SEED, default=0)
    p_mem.add_argument("--out", default=None, help="output directory")
    p_mem.set_defaults(fn=cmd_bench_mem, sizing="--sizes")

    p_exp = sub.add_parser("export-summaries", help="export per-graph summary vectors")
    _add_dataset_args(p_exp)
    _add_config_args(p_exp)
    p_exp.add_argument("--model", required=True, help="parameter file from `train`")
    p_exp.add_argument("--fold", type=int, default=0, help="fold index of the split")
    p_exp.add_argument("--split", choices=("test", "train", "all"), default="test")
    p_exp.add_argument(
        "--post-head", action="store_true", help="export logits instead of summaries"
    )
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.set_defaults(fn=cmd_export_summaries, sizing="--hidden, --blocks")
    return parser


def _resolve_config(args) -> TrainConfig:
    config = default_config(args.dataset, **{
        f.name: getattr(args, f.name)
        for f in fields(TrainConfig)
        if getattr(args, f.name, None) is not None
    })
    config.validate()
    return config


def _dataset_checksums(data_dir: str, name: str) -> dict[str, str]:
    sums = {}
    for suffix in _DATA_FILES:
        path = Path(data_dir) / f"{name}{suffix}"
        if path.is_file():
            sums[f"checksum.{path.name}"] = file_checksum(path)
    return sums


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` whole with ``text``; a failed write leaves the old file."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(out_dir: Path, command: str, entries: dict) -> None:
    lines = [f"command = {command}"]
    for key in sorted(entries):
        lines.append(f"{key} = {entries[key]}")
    lines.append(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.append(f"version = {__version__}")
    _write_text(out_dir / "manifest.txt", "\n".join(lines) + "\n")


def _manifest_entries(args, config: TrainConfig) -> dict:
    entries = {f"config.{k}": v for k, v in asdict(config).items()}
    entries["dataset"] = args.dataset
    entries["data_dir"] = args.data_dir
    entries.update(_dataset_checksums(args.data_dir, args.dataset))
    return entries


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if args.out else Path(default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    config = _resolve_config(args)
    dataset = parse_tu_dataset(args.data_dir, args.dataset)
    splits = make_folds(dataset, config)
    train, test, bound = prepare_fold(dataset, splits[0], config)
    model, losses = train_one(train, dataset.num_classes, config)
    train_acc = evaluate(model, train)
    test_acc = evaluate(model, test)

    out = _out_dir(args, f"runs/train_{args.dataset}")
    save_parameters(model.parameters(), out / "model.params")
    metrics = (
        "metric,value\n"
        f"train_accuracy,{train_acc!r}\n"
        f"test_accuracy,{test_acc!r}\n"
        f"final_loss,{losses[-1]!r}\n"
    )
    _write_text(out / "metrics.csv", metrics)
    entries = _manifest_entries(args, config)
    entries["resolved.degree_bound"] = bound
    entries["resolved.fold"] = 0
    _write_manifest(out, "train", entries)
    print(f"train accuracy {train_acc:.4f}, test accuracy {test_acc:.4f}")
    print(f"wrote {out / 'model.params'}")
    return EXIT_OK


def cmd_cv(args) -> int:
    if args.show_defaults:
        print("dataset   hidden  lr      epochs  ratio  blocks  batch")
        for name in DATASET_DEFAULTS:
            c = default_config(name)
            print(f"{name:<9} {c.hidden_dim:<7} {c.lr:<7} {c.epochs:<7} "
                  f"{c.pool_ratio:<6} {c.num_blocks:<7} {c.batch_size}")
        return EXIT_OK
    if args.dataset is None:
        raise ValueError("cv needs --dataset (only --show-defaults runs without one)")
    config = _resolve_config(args)
    dataset = parse_tu_dataset(args.data_dir, args.dataset)
    result = cross_validate(dataset, config, jobs=args.jobs)

    out = _out_dir(args, f"runs/cv_{args.dataset}")
    _write_text(out / "metrics.csv", format_metrics(result))
    _write_text(out / "report.txt", format_report(result))
    entries = _manifest_entries(args, config)
    entries["resolved.degree_bounds"] = result.resolved["degree_bounds"]
    entries["jobs"] = args.jobs
    _write_manifest(out, "cv", entries)
    print(format_report(result))
    return EXIT_OK


def cmd_bench_mem(args) -> int:
    result = scaling_sweep(args.sizes, budget_bytes=args.budget, seed=args.seed)
    out = _out_dir(args, "runs/membench")
    _write_text(out / "membench.csv", result.to_csv())
    largest = result.sparse[-1]
    entries = {
        "sizes": ",".join(map(str, args.sizes)),
        "budget_bytes": args.budget,
        "seed": args.seed,
        "slope_sparse": result.slope_sparse,
        "slope_dense": result.slope_dense,
        "dense_model_note": (
            "footprint model counts the minimal buffers any dense "
            "soft-assignment pooling variant must hold"
        ),
        "sparse_peak.n": largest.graph_size,
        "sparse_peak.bytes": largest.peak_bytes,
    }
    entries.update({f"sparse_peak.{tag}": nbytes for tag, nbytes in largest.breakdown})
    _write_manifest(out, "bench-mem", entries)
    print(result.to_csv(), end="")
    print(f"log-log slope sparse: {result.slope_sparse:.3f}")
    print(f"log-log slope dense:  {result.slope_dense:.3f}")
    print(f"sparse peak at n = {largest.graph_size}: {largest.peak_bytes} bytes")
    for tag, nbytes in largest.breakdown:
        print(f"  {tag:<10} {nbytes:>12}")
    return EXIT_OK


def cmd_export_summaries(args) -> int:
    config = _resolve_config(args)
    dataset = parse_tu_dataset(args.data_dir, args.dataset)
    splits = make_folds(dataset, config)
    if not 0 <= args.fold < len(splits):
        raise ValueError(f"fold must be in 0..{len(splits) - 1}")
    split = splits[args.fold]
    train, test, bound = prepare_fold(dataset, split, config)
    graphs, ids = {
        "test": (test, split.test_indices),
        "train": (train, split.train_indices),
        "all": (train + test, np.concatenate([split.train_indices, split.test_indices])),
    }[args.split]

    # a fold's train and test slices are never empty (n >= folds, and so is each class)
    model = new_model(config, graphs[0].features.shape[1], dataset.num_classes)
    model.load_state(load_parameters(args.model))

    forward, name = ((model_forward, "logits.csv") if args.post_head
                     else (forward_summaries, "summaries.csv"))
    vectors = forward_batches(forward, model, graphs)

    path = _out_dir(args, f"runs/summaries_{args.dataset}") / name
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for gid, graph, row in zip(ids, graphs, vectors):
            values = ",".join(repr(float(v)) for v in row)
            fh.write(f"{int(gid)},{graph.label},{values}\n")
    entries = _manifest_entries(args, config)
    entries["model"] = args.model
    entries["fold"] = args.fold
    entries["split"] = args.split
    entries["post_head"] = args.post_head
    entries["resolved.degree_bound"] = bound
    entries["rows"] = len(graphs)
    _write_manifest(path.parent, "export-summaries", entries)
    print(f"wrote {len(graphs)} rows to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        # a blow-up ends in the loss and gradient checks' one error line, not
        # numpy's warnings; forked cv workers inherit the setting
        with np.errstate(all="ignore"):
            return args.fn(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = str(exc) or "no detail"
        print(f"error: out of memory ({detail}); lower {args.sizing}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenProcessPool as exc:  # a cv worker died, most often killed for memory
        print(f"error: a worker process died ({exc}); if it ran out of memory, "
              f"lower {args.sizing}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
