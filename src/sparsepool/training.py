"""Training loop, evaluation, and the 10-fold cross-validation driver."""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .datasets import (
    Dataset,
    FoldSplit,
    degree_feature_bound,
    plain_kfold,
    stratified_kfold,
    with_degree_features,
)
from .engine import NonFiniteGradientError, Tape, adam_step
from .graphs import batch_graphs
from .layers import (
    NUM_BLOCKS,
    POOL_RATIO,
    HierarchicalModel,
    build_model,
    model_forward,
)

__all__ = [
    "TrainConfig",
    "RunResult",
    "NonFiniteLossError",
    "DATASET_DEFAULTS",
    "default_config",
    "new_model",
    "train_one",
    "evaluate",
    "predict_logits",
    "forward_batches",
    "cross_validate",
    "make_folds",
    "prepare_fold",
    "format_report",
    "format_metrics",
]

# Per-dataset benchmark settings: hidden width, learning rate, epochs.
# All datasets share TrainConfig's other defaults and Adam.
DATASET_DEFAULTS: dict[str, dict] = {
    "ENZYMES": {"hidden_dim": 128, "lr": 0.0005, "epochs": 100},
    "PROTEINS": {"hidden_dim": 64, "lr": 0.005, "epochs": 40},
    "DD": {"hidden_dim": 64, "lr": 0.0005, "epochs": 20},
    "COLLAB": {"hidden_dim": 128, "lr": 0.0005, "epochs": 30},
}

_NAME_ALIASES = {"D&D": "DD"}

# graphs per forward-only batch (on average; see forward_batches)
EVAL_BATCH_SIZE = 256


class NonFiniteLossError(RuntimeError):
    """Training hit a NaN/inf loss; message carries epoch, batch, param norms."""


@dataclass
class TrainConfig:
    hidden_dim: int
    lr: float
    epochs: int
    pool_ratio: float = POOL_RATIO
    num_blocks: int = NUM_BLOCKS
    batch_size: int = 64
    seed: int = 0
    folds: int = 10
    stratified: bool = True
    max_degree: int | None = None

    def validate(self) -> None:
        if not 0.0 < self.pool_ratio <= 1.0:
            raise ValueError(f"pool_ratio must be in (0, 1], got {self.pool_ratio}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.hidden_dim < 1 or self.num_blocks < 1 or self.batch_size < 1:
            raise ValueError("hidden_dim, num_blocks and batch_size must be >= 1")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")


def default_config(dataset_name: str, **overrides) -> TrainConfig:
    """Benchmark defaults for a known dataset, with explicit overrides on top.

    Any dataset name is accepted when the overrides give hidden_dim, lr and
    epochs.
    """
    key = _NAME_ALIASES.get(dataset_name.upper(), dataset_name.upper())
    settings = {**DATASET_DEFAULTS.get(key, {}), **overrides}
    if not {"hidden_dim", "lr", "epochs"} <= settings.keys():
        raise ValueError(
            f"no default configuration for dataset {dataset_name!r}; "
            "pass hidden_dim, lr and epochs explicitly (--hidden, --lr and --epochs)"
        )
    return TrainConfig(**settings)


@dataclass
class RunResult:
    """Cross-validation outcome; the mean is recomputable from the folds."""

    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    fold_epoch_losses: list[list[float]]
    fold_seconds: list[float]
    wall_seconds: float
    config: TrainConfig
    resolved: dict


def _param_norms(model: HierarchicalModel) -> str:
    return ", ".join(
        f"{p.name}={float(np.linalg.norm(p.value)):.3g}" for p in model.parameters()
    )


def new_model(config: TrainConfig, in_dim: int, num_classes: int) -> HierarchicalModel:
    """A freshly initialized model of ``config``'s shape, seeded with ``config.seed``."""
    return build_model(
        in_dim=in_dim,
        hidden_dim=config.hidden_dim,
        num_classes=num_classes,
        pool_ratio=config.pool_ratio,
        num_blocks=config.num_blocks,
        seed=config.seed,
    )


def train_one(graphs, num_classes: int, config: TrainConfig):
    """Train a fresh model on the given graphs.

    Returns ``(model, epoch_losses)`` where the losses are per-epoch means of
    the batch cross-entropies. Mini-batches come from a seeded shuffle each
    epoch; one Adam step per batch. Deterministic per seed.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("training slice is empty")
    config.validate()
    model = new_model(config, graphs[0].features.shape[1], num_classes)
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(graphs))
        total = 0.0
        for batch_no, start in enumerate(range(0, len(graphs), config.batch_size)):
            chunk = [graphs[i] for i in order[start : start + config.batch_size]]
            batch = batch_graphs(chunk)
            tape = Tape()
            logits = model_forward(tape, batch, model)
            loss = tape.softmax_xent(logits, batch.labels)
            value = float(loss.value)
            if not np.isfinite(value):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}; "
                    f"parameter norms: {_param_norms(model)}"
                )
            tape.backward(loss)
            try:
                adam_step(params, config.lr)
            except NonFiniteGradientError as exc:
                raise NonFiniteLossError(
                    f"{exc} at epoch {epoch}, batch {batch_no}; "
                    f"parameter norms: {_param_norms(model)}"
                ) from exc
            total += value * len(chunk)
        epoch_losses.append(total / len(graphs))
    return model, epoch_losses


def forward_batches(forward, model: HierarchicalModel, graphs):
    """``forward(tape, batch, model)`` over batches in node-count order; one
    row per graph, in input order.

    The graphs are stably sorted by node count and cut into at most
    ``ceil(len(graphs) / EVAL_BATCH_SIZE)`` batches (the module constant,
    256) where the running node total crosses equal shares of the whole, so
    no batch holds more than ``ceil(total / count)`` nodes plus its largest
    graph; empty parts are dropped. Neighbouring graphs then share sizes, and the per-graph
    kernels run one stacked call per run of equal sizes (see
    :meth:`Tape.segment_readout`). Each batch runs on a non-recording tape,
    and batched rows equal per-graph rows, so the order changes no byte.
    No graphs give a 0 x 0 array.
    """
    graphs = list(graphs)
    if not graphs:
        return np.zeros((0, 0))
    sizes = np.array([g.graph.num_nodes for g in graphs], dtype=np.int64)
    order = np.argsort(sizes, kind="stable")
    parts = -(-len(graphs) // EVAL_BATCH_SIZE)
    # part j ends after the last graph whose running total stays within j/parts
    # of all nodes; integers, so no share is rounded
    running = np.cumsum(sizes[order]) * parts
    cuts = np.searchsorted(running, np.arange(1, parts) * int(sizes.sum()), side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(graphs)]]))
    rows = np.concatenate([
        forward(Tape(record=False), batch_graphs([graphs[i] for i in order[lo:hi]]), model).value
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ])
    out = np.empty_like(rows)
    out[order] = rows
    return out


def predict_logits(model: HierarchicalModel, graphs) -> np.ndarray:
    """Logits for each graph, stacked (num_graphs x C)."""
    # model_forward is looked up here at call time, so a wrapper installed on
    # this module's global sees every evaluation forward pass
    return forward_batches(model_forward, model, graphs)


def evaluate(model: HierarchicalModel, graphs) -> float:
    """Accuracy of argmax predictions; logit ties go to the lower class index."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot evaluate on an empty graph list")
    predictions = np.argmax(predict_logits(model, graphs), axis=1)
    labels = np.array([g.label for g in graphs])
    return float(np.mean(predictions == labels))


def make_folds(dataset: Dataset, config: TrainConfig) -> list[FoldSplit]:
    """The evaluation splits a config implies (stratified unless disabled)."""
    if config.stratified:
        return stratified_kfold(dataset.labels(), config.folds, config.seed)
    return plain_kfold(len(dataset.graphs), config.folds, config.seed)


def prepare_fold(dataset: Dataset, split: FoldSplit, config: TrainConfig):
    """Materialize train/test graphs for one fold.

    Degree-featurized datasets get their features rebuilt with a bound
    resolved on the training portion only (95th-percentile policy unless the
    config pins ``max_degree``). A pinned ``max_degree`` above the dataset's
    largest degree (or 1, when no node has an edge) is rejected before any
    feature is built: its columns past that degree would always be zero.
    Returns (train, test, resolved_bound).
    """
    if np.intersect1d(split.train_indices, split.test_indices).size:
        raise AssertionError("train/test overlap in fold split")
    train = [dataset.graphs[i] for i in split.train_indices]
    test = [dataset.graphs[i] for i in split.test_indices]
    bound = None
    if dataset.feature_kind == "degree_onehot":
        if config.max_degree is not None:
            largest = max([1] + [int(g.graph.degrees.max(initial=0)) for g in dataset.graphs])
            if config.max_degree > largest:
                raise ValueError(
                    f"max_degree {config.max_degree} exceeds {largest}, the largest degree "
                    f"in dataset {dataset.name!r}; the columns above it would always be zero"
                )
            bound = int(config.max_degree)
        else:
            bound = degree_feature_bound([g.graph for g in train])
        train = with_degree_features(train, bound)
        test = with_degree_features(test, bound)
    return train, test, bound


def _run_fold(dataset: Dataset, split: FoldSplit, config: TrainConfig):
    start = time.perf_counter()
    train, test, bound = prepare_fold(dataset, split, config)
    fold_config = replace(config, seed=config.seed + split.fold_index)
    model, losses = train_one(train, dataset.num_classes, fold_config)
    accuracy = evaluate(model, test)
    return accuracy, losses, time.perf_counter() - start, bound


_worker_dataset: Dataset | None = None  # set once in each cv worker process


def _share_dataset(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_worker_fold(task):
    return _run_fold(_worker_dataset, *task)


def cross_validate(dataset: Dataset, config: TrainConfig, jobs: int = 1) -> RunResult:
    """Ten independent train/evaluate runs with per-fold re-initialization.

    Fold f trains with seed ``config.seed + f`` and never sees its own test
    graphs. Folds are independent, so ``jobs > 1`` runs them in parallel
    (at most one worker per fold) without changing any result. Each worker
    receives the dataset once, when it starts, and each fold task carries
    only its split and the config.
    """
    config.validate()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    wall_start = time.perf_counter()
    splits = make_folds(dataset, config)
    tasks = [(split, config) for split in splits]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_share_dataset, initargs=(dataset,)
        ) as pool:
            outcomes = list(pool.map(_run_worker_fold, tasks))
    else:
        outcomes = [_run_fold(dataset, *task) for task in tasks]
    accuracies = [o[0] for o in outcomes]
    bounds = [o[3] for o in outcomes]
    return RunResult(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        fold_epoch_losses=[o[1] for o in outcomes],
        fold_seconds=[o[2] for o in outcomes],
        wall_seconds=time.perf_counter() - wall_start,
        config=config,
        resolved={
            "dataset": dataset.name,
            "num_classes": dataset.num_classes,
            "feature_kind": dataset.feature_kind,
            "degree_bounds": bounds,
        },
    )


def format_metrics(result: RunResult) -> str:
    """Machine-readable per-fold metrics. Deterministic: no timing columns."""
    lines = ["fold,accuracy,epochs"]
    for fold, acc in enumerate(result.fold_accuracies):
        lines.append(f"{fold},{acc!r},{result.config.epochs}")
    return "\n".join(lines) + "\n"


def format_report(result: RunResult) -> str:
    """Human-readable per-fold table with summary statistics and timing."""
    lines = [
        f"dataset: {result.resolved.get('dataset', '?')}",
        f"config: {asdict(result.config)}",
        f"resolved: {result.resolved}",
        "",
        "fold  accuracy  seconds",
    ]
    for fold, (acc, sec) in enumerate(zip(result.fold_accuracies, result.fold_seconds)):
        lines.append(f"{fold:>4}  {acc:8.4f}  {sec:7.1f}")
    lines += [
        "",
        f"mean accuracy: {result.mean_accuracy:.4f}",
        f"std accuracy:  {result.std_accuracy:.4f}",
        f"wall seconds:  {result.wall_seconds:.1f}",
    ]
    return "\n".join(lines) + "\n"
