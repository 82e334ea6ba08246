"""Model layers: mean-aggregation convolution, gated top-k pooling, mean/max
readout, and their composition into the stacked classifier."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Parameter, Tape, Var, glorot_init
from .graphs import GraphBatch, SparseGraph, induced_subgraph

__all__ = [
    "MPConvLayer",
    "TopKPoolLayer",
    "MLPHead",
    "HierarchicalModel",
    "build_model",
    "kept_count",
    "mpconv_forward",
    "topk_pool",
    "forward_summaries",
    "model_forward",
    "READOUT_POSITIONS",
]

READOUT_POSITIONS = ("pre_pool", "post_pool")

# the paper's model shape; TrainConfig's defaults read these too
POOL_RATIO = 0.8
NUM_BLOCKS = 3
READOUT_POSITION = "post_pool"


@dataclass(eq=False)
class MPConvLayer:
    """Mean-aggregation convolution with a skip projection (two F x F' maps)."""

    theta: Parameter
    theta_skip: Parameter

    def __post_init__(self) -> None:
        if self.theta.value.shape != self.theta_skip.value.shape:
            raise ValueError("theta and theta_skip must share one shape")

    @property
    def in_dim(self) -> int:
        return self.theta.value.shape[0]

    @property
    def out_dim(self) -> int:
        return self.theta.value.shape[1]


@dataclass(eq=False)
class TopKPoolLayer:
    """Projection-score pooling that keeps the top ceil(ratio * N) nodes."""

    p_vec: Parameter
    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"pool ratio must be in (0, 1], got {self.ratio}")
        if self.p_vec.value.ndim != 1:
            raise ValueError("p_vec must be 1-D")


@dataclass(eq=False)
class MLPHead:
    """Two-layer classifier head: 2F' -> F' (ReLU) -> C, with biases."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter


class HierarchicalModel:
    """Stack of conv-pool blocks with per-block readout and an MLP head.

    All blocks share one hidden width so the per-block summaries can be
    summed into a single fixed-size vector.
    """

    def __init__(self, blocks, head: MLPHead, readout_position: str = READOUT_POSITION):
        if readout_position not in READOUT_POSITIONS:
            raise ValueError(f"readout_position must be one of {READOUT_POSITIONS}")
        blocks = list(blocks)
        if not blocks:
            raise ValueError("model needs at least one conv-pool block")
        hidden = blocks[0][0].out_dim
        for conv, pool in blocks:
            if conv.out_dim != hidden:
                raise ValueError("all blocks must share one hidden width")
            if pool.p_vec.value.shape != (hidden,):
                raise ValueError("pool projection length must equal the hidden width")
        self.blocks = blocks
        self.head = head
        self.readout_position = readout_position

    @property
    def in_dim(self) -> int:
        return self.blocks[0][0].in_dim

    @property
    def hidden_dim(self) -> int:
        return self.blocks[0][0].out_dim

    @property
    def num_classes(self) -> int:
        return self.head.w2.value.shape[1]

    def parameters(self) -> list[Parameter]:
        out = []
        for conv, pool in self.blocks:
            out.extend([conv.theta, conv.theta_skip, pool.p_vec])
        out.extend([self.head.w1, self.head.b1, self.head.w2, self.head.b2])
        return out

    def load_state(self, entries) -> None:
        """Assign named parameter values (e.g. from a parameter file)."""
        params = {p.name: p for p in self.parameters()}
        seen = set()
        for name, value in entries:
            p = params.get(name)
            if p is None:
                raise ValueError(f"unknown parameter {name!r}")
            if value.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: file {value.shape}, model {p.value.shape}"
                )
            p.value[...] = value
            seen.add(name)
        missing = set(params) - seen
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")


def build_model(
    in_dim: int,
    hidden_dim: int,
    num_classes: int,
    pool_ratio: float = POOL_RATIO,
    num_blocks: int = NUM_BLOCKS,
    seed: int = 0,
    readout_position: str = READOUT_POSITION,
) -> HierarchicalModel:
    """Glorot-initialized model; biases start at zero. Deterministic per seed."""
    seeds = iter(np.random.SeedSequence(seed).generate_state(3 * num_blocks + 2))
    blocks = []
    for i in range(num_blocks):
        fin = in_dim if i == 0 else hidden_dim
        conv = MPConvLayer(
            Parameter(f"block{i}.theta", glorot_init(fin, hidden_dim, int(next(seeds)))),
            Parameter(f"block{i}.theta_skip", glorot_init(fin, hidden_dim, int(next(seeds)))),
        )
        pool = TopKPoolLayer(
            Parameter(f"block{i}.p", glorot_init(hidden_dim, 1, int(next(seeds))).ravel()),
            pool_ratio,
        )
        blocks.append((conv, pool))
    head = MLPHead(
        Parameter("head.w1", glorot_init(2 * hidden_dim, hidden_dim, int(next(seeds)))),
        Parameter("head.b1", np.zeros((1, hidden_dim))),
        Parameter("head.w2", glorot_init(hidden_dim, num_classes, int(next(seeds)))),
        Parameter("head.b2", np.zeros((1, num_classes))),
    )
    return HierarchicalModel(blocks, head, readout_position)


def kept_count(n: int, ratio: float) -> int:
    """ceil(ratio * n), clamped to [1, n], for n >= 1; see :func:`_kept_counts`."""
    return int(_kept_counts(np.array([n], dtype=np.int64), ratio)[0])


def _kept_counts(counts: np.ndarray, ratio: float) -> np.ndarray:
    """:func:`kept_count` of every entry of an int64 array of positive counts.

    The tiny backoff keeps float noise just above an integer (e.g.
    0.8 * 5 -> 4.0000000000000002) from inflating the count.
    """
    return np.clip(np.ceil(ratio * counts - 1e-9), 1, counts).astype(np.int64)


def mpconv_forward(
    tape: Tape, graph: SparseGraph, x: Var, layer: MPConvLayer, segments=None
) -> Var:
    """ReLU(mean_aggregate(X) @ theta + X @ theta_skip), one tape record.

    The record (:meth:`Tape.mpconv`) aggregates on the narrower side of
    theta and saves X (or, when X is a pool output, the pool's way to
    rebuild it), the ReLU output and, when ``in_dim < out_dim``,
    mean_aggregate(X). ``segments`` (per-graph node counts of a
    block-diagonal batch) keeps the products bit-identical with per-graph
    runs. An X of :class:`graphs.LabelCodes` has its products taken as row
    gathers and its aggregation counted, with the bytes of the one-hot
    matrix's dense path, and nothing N x ``in_dim`` is saved.
    """
    return tape.mpconv(graph, x, tape.param(layer.theta), tape.param(layer.theta_skip), segments)


def _select_topk(scores: np.ndarray, counts, ratio: float, margin):
    """Per-segment top-k indices (ties: lower index), re-sorted ascending.

    One stable lexsort orders every segment by descending score; a row is
    kept when its rank inside its segment is below that segment's k.
    ``margin`` (a tape hook's ``margin`` callable, or None) is handed the
    smallest gap between a segment's last kept and first dropped score
    ("score_boundary_gap") and between any two scores of one segment
    ("score_min_gap"), where there is one.
    """
    counts = np.asarray(counts, dtype=np.int64)
    k = _kept_counts(counts, ratio)
    if margin is None and np.array_equal(k, counts):
        return np.arange(scores.size), k  # every row is kept: nothing to rank
    order = np.lexsort((-scores, np.repeat(np.arange(counts.size), counts)))
    starts = np.cumsum(counts) - counts
    rank = np.arange(scores.size) - np.repeat(starts, counts)
    selected = np.sort(order[rank < np.repeat(k, counts)])
    if margin is not None:
        ranked = scores[order]
        gaps = ranked[:-1] - ranked[1:]  # non-negative inside a segment
        boundary = gaps[(starts + k - 1)[k < counts]]  # last kept vs first dropped
        within = gaps[rank[1:] > 0]
        for key, vals in (("score_boundary_gap", boundary), ("score_min_gap", within)):
            if vals.size:
                margin(key, float(np.min(vals)))
    return selected, k


def _topk_pool_segments(tape, x, layer, counts):
    """Gated kept rows, their indices and the kept count of each segment."""
    return tape.topk_gate(
        x,
        tape.param(layer.p_vec),
        counts,
        lambda scores, margin: _select_topk(scores, counts, layer.ratio, margin),
    )


def _pooled_graph(tape, graph, idx):
    """The subgraph on the kept nodes ``idx``, its CSR noted to the tape's
    hook when it is new."""
    sub = induced_subgraph(graph, idx)
    # a graph kept whole is already accounted for
    if sub is not graph and tape.tracker is not None:
        tape.tracker.note(sub.row_offsets, "graph/csr")
        tape.tracker.note(sub.col_indices, "graph/csr")
    return sub


def topk_pool(tape: Tape, graph: SparseGraph, x: Var, layer: TopKPoolLayer):
    """Score, gate and slice one graph; returns (graph', X', kept indices).

    Scores are X p / ||p||; kept rows are gated by tanh(score) so the
    projection vector receives gradient. Gradient flows into retained rows
    of X only. One record (:meth:`Tape.topk_gate`) gates only the kept
    rows, so no full-size gated copy of X is made. It saves X and the gates
    and raw scores of the kept rows. X' is not saved: the next conv
    rebuilds its rows from those saves in backward.
    """
    if graph.num_nodes == 0:
        raise ValueError("cannot pool an empty graph")
    pooled_x, idx, _ = _topk_pool_segments(tape, x, layer, np.array([graph.num_nodes]))
    return _pooled_graph(tape, graph, idx), pooled_x, idx


def forward_summaries(tape: Tape, batch: GraphBatch, model: HierarchicalModel) -> Var:
    """Per-graph summary vectors (num_graphs x 2F'), summed over all blocks.

    Each block's readout adds into the running sum of the earlier blocks'
    readouts (:meth:`Tape.segment_readout`). Features held as
    :class:`graphs.LabelCodes` (node labels, degrees) go to block 0 as they
    are; its outputs are the bytes the dense one-hot matrix would give. The
    pooled graph is sliced only when another block reads it, and with
    pre-pool readouts the last block is not pooled at all. A pool output is
    dropped once the next conv has read it (that conv rebuilds its rows in
    backward), and a conv output once it has been pooled, so a forward-only
    pass holds neither past its last reader.
    """
    if batch.features.shape[1] != model.in_dim:
        raise ValueError(
            f"batch feature dim {batch.features.shape[1]} does not match "
            f"model input dim {model.in_dim}"
        )
    graph = batch.graph
    counts = np.asarray(batch.node_counts, dtype=np.int64)
    x = tape.leaf(batch.features)
    summary = None
    last = len(model.blocks) - 1
    for i, (conv, pool) in enumerate(model.blocks):
        if i:
            graph = _pooled_graph(tape, graph, idx)
        h = mpconv_forward(tape, graph, x, conv, counts)
        x = None  # read by nothing else
        if model.readout_position == "pre_pool":
            summary = tape.segment_readout(h, counts, summary)
            if i == last:
                break  # nothing reads the last pool's output
        x, idx, counts = _topk_pool_segments(tape, h, pool, counts)
        h = None  # a recording tape keeps what its backward reads
        if model.readout_position == "post_pool":
            summary = tape.segment_readout(x, counts, summary)
    return summary


def model_forward(tape: Tape, batch: GraphBatch, model: HierarchicalModel) -> Var:
    """Logits (num_graphs x C) for a batch; bit-equal to per-graph runs stacked."""
    head = model.head
    return tape.mlp_head(
        forward_summaries(tape, batch, model),
        *(tape.param(p) for p in (head.w1, head.b1, head.w2, head.b2)),
    )
