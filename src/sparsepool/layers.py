"""The model and its forward pass: mean-aggregation convolution, gated top-k
pooling and mean/max readout. :class:`HierarchicalModel` holds one ``(theta,
theta_skip, p)`` tuple of :class:`engine.Parameter` per conv-pool block and the
head's ``(w1, b1, w2, b2)``; ``parameters()``, and so a parameter file, lists
them in that order."""
from __future__ import annotations

import numpy as np

from .engine import Parameter, Tape, Var, glorot_init
from .graphs import GraphBatch, SparseGraph, induced_subgraph

__all__ = [
    "HierarchicalModel",
    "build_model",
    "kept_count",
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


class HierarchicalModel:
    """Stack of conv-pool blocks with per-block readout and an MLP head.

    ``blocks`` holds one ``(theta, theta_skip, p)`` tuple per block: the
    conv's two F x F' maps (aggregated and skip) and the pool's projection
    vector of length F'. ``head`` is ``(w1, b1, w2, b2)``, the 2F' -> F'
    (ReLU) -> C classifier. Every block pools with the one ``pool_ratio``.
    All blocks share one hidden width F' so the per-block summaries can be
    summed into a single fixed-size vector.
    """

    def __init__(self, blocks, head, pool_ratio: float, readout_position: str):
        if not 0.0 < pool_ratio <= 1.0:
            raise ValueError(f"pool ratio must be in (0, 1], got {pool_ratio}")
        if readout_position not in READOUT_POSITIONS:
            raise ValueError(f"readout_position must be one of {READOUT_POSITIONS}")
        blocks = list(blocks)
        if not blocks:
            raise ValueError("model needs at least one conv-pool block")
        hidden = blocks[0][0].value.shape[1]
        for theta, theta_skip, p in blocks:
            if theta.value.shape != theta_skip.value.shape:
                raise ValueError("theta and theta_skip must share one shape")
            if theta.value.shape[1] != hidden:
                raise ValueError("all blocks must share one hidden width")
            if p.value.shape != (hidden,):
                raise ValueError("pool projection length must equal the hidden width")
        self.blocks = blocks
        self.head = tuple(head)
        self.pool_ratio = pool_ratio
        self.readout_position = readout_position

    def parameters(self) -> list[Parameter]:
        """Each block's theta, theta_skip and p, then the head's w1, b1, w2, b2."""
        return [p for block in self.blocks for p in block] + list(self.head)

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
    *,
    seed: int,
    readout_position: str = READOUT_POSITION,
) -> HierarchicalModel:
    """Glorot-initialized model; biases start at zero. Deterministic per seed."""
    seeds = iter(np.random.SeedSequence(seed).generate_state(3 * num_blocks + 2))
    blocks = []
    for i in range(num_blocks):
        fin = in_dim if i == 0 else hidden_dim
        blocks.append((
            Parameter(f"block{i}.theta", glorot_init(fin, hidden_dim, int(next(seeds)))),
            Parameter(f"block{i}.theta_skip", glorot_init(fin, hidden_dim, int(next(seeds)))),
            Parameter(f"block{i}.p", glorot_init(hidden_dim, 1, int(next(seeds))).ravel()),
        ))
    head = (
        Parameter("head.w1", glorot_init(2 * hidden_dim, hidden_dim, int(next(seeds)))),
        Parameter("head.b1", np.zeros((1, hidden_dim))),
        Parameter("head.w2", glorot_init(hidden_dim, num_classes, int(next(seeds)))),
        Parameter("head.b2", np.zeros((1, num_classes))),
    )
    return HierarchicalModel(blocks, head, pool_ratio, readout_position)


def kept_count(n: int, ratio: float) -> int:
    """ceil(ratio * n), clamped to [1, n], for n >= 1; see :func:`_kept_counts`."""
    return int(_kept_counts(np.array([n], dtype=np.int64), ratio)[0])


def _kept_counts(counts: np.ndarray, ratio: float) -> np.ndarray:
    """:func:`kept_count` of every entry of an int64 array of positive counts.

    The tiny backoff keeps float noise just above an integer (e.g.
    0.8 * 5 -> 4.0000000000000002) from inflating the count.
    """
    return np.clip(np.ceil(ratio * counts - 1e-9), 1, counts).astype(np.int64)


def _select_topk(scores: np.ndarray, counts, ratio: float, margin):
    """Per-segment top-k indices (ties: lower index), re-sorted ascending.

    The negated scores are laid out as a table with one row per segment,
    as wide as the largest segment, its padding NaN. One stable argsort
    along the rows ranks every segment by descending score, and a score is
    kept when its rank in its row is below its segment's k. NaN sorts after
    every number and a stable sort keeps ties in index order, so the
    padding ranks after every real score, NaN scores included: NaN and
    +-inf scores rank as in a per-segment stable argsort, NaN last. (A
    +inf fill would rank ahead of a segment's NaN scores and be kept.)

    ``margin`` (a tape hook's ``margin`` callable, or None) is handed the
    smallest gap between a segment's last kept and first dropped score
    ("score_boundary_gap") and between any two scores of one segment
    ("score_min_gap"), where there is one, read off the sorted rows' real
    entries. The table (8 bytes a cell), its argsort (8) and the gathered
    kept indices (at most 8) are transients no tracker is told about: about
    24 bytes x segments x the largest segment, and 16 more a cell with
    ``margin``, for the sorted rows and their gaps.
    """
    counts = np.asarray(counts, dtype=np.int64)
    k = _kept_counts(counts, ratio)
    if margin is None and np.array_equal(k, counts):
        return np.arange(scores.size), k  # every row is kept: nothing to rank
    rank = np.arange(counts.max(initial=0))
    real = rank < counts[:, None]
    table = np.full(real.shape, np.nan)
    table[real] = -scores
    order = np.argsort(table, axis=1, kind="stable")
    if margin is not None:
        # negated and ascending, so each gap is a score minus the next lower one
        gaps = np.diff(np.take_along_axis(table, order, axis=1), axis=1)
        cut = k < counts
        boundary = gaps[cut, k[cut] - 1]  # last kept vs first dropped
        within = gaps[real[:, 1:]]
        for key, vals in (("score_boundary_gap", boundary), ("score_min_gap", within)):
            if vals.size:
                margin(key, float(np.min(vals)))
    order += (np.cumsum(counts) - counts)[:, None]  # row positions to batch indices
    return np.sort(order[rank < k[:, None]]), k


def _topk_pool_segments(tape, x, p, ratio, counts):
    """Gated kept rows, their indices and the kept count of each segment."""
    return tape.topk_gate(x, tape.param(p), counts,
                          lambda scores, margin: _select_topk(scores, counts, ratio, margin))


def _pooled_graph(tape, graph, idx):
    """The subgraph on the kept nodes ``idx``, its CSR noted to the tape's
    hook when it is new."""
    sub = induced_subgraph(graph, idx)
    if sub is not graph:  # a graph kept whole is already accounted for
        tape._noted(sub.row_offsets, "graph/csr")
        tape._noted(sub.col_indices, "graph/csr")
    return sub


def topk_pool(tape: Tape, graph: SparseGraph, x: Var, p: Parameter, ratio: float):
    """Score, gate and slice one graph; returns (graph', X', kept indices).

    Scores are X p / ||p||, and the top ceil(ratio * N) rows are kept (ties:
    lower index). Kept rows are gated by tanh(score) so the projection
    vector receives gradient. Gradient flows into retained rows of X only.
    One record (:meth:`Tape.topk_gate`) gates only the kept rows, so no
    full-size gated copy of X is made. It saves X and the gates and raw
    scores of the kept rows. X' is not saved: the next conv rebuilds its
    rows from those saves in backward.
    """
    if graph.num_nodes == 0:
        raise ValueError("cannot pool an empty graph")
    pooled_x, idx, _ = _topk_pool_segments(tape, x, p, ratio, np.array([graph.num_nodes]))
    return _pooled_graph(tape, graph, idx), pooled_x, idx


def forward_summaries(tape: Tape, batch: GraphBatch, model: HierarchicalModel) -> Var:
    """Per-graph summary vectors (num_graphs x 2F'), summed over all blocks.

    A block is one :meth:`Tape.mpconv` record on its theta and theta_skip
    and one :meth:`Tape.topk_gate` record on its p. Each block's readout
    adds into the running sum of the earlier blocks' readouts
    (:meth:`Tape.segment_readout`). Features held as
    :class:`graphs.LabelCodes` (node labels, degrees) go to block 0 as they
    are; its outputs are the bytes the dense one-hot matrix would give. The
    pooled graph is sliced only when another block reads it, and with
    pre-pool readouts the last block is not pooled at all. A pool output is
    dropped once the next conv has read it (that conv rebuilds its rows in
    backward), and a conv output once it has been pooled, so a forward-only
    pass holds neither past its last reader.
    """
    graph = batch.graph
    counts = np.asarray(batch.node_counts, dtype=np.int64)
    x = tape.leaf(batch.features)
    summary = None
    last = len(model.blocks) - 1
    for i, (theta, theta_skip, p) in enumerate(model.blocks):
        if i:
            graph = _pooled_graph(tape, graph, idx)
        h = tape.mpconv(graph, x, tape.param(theta), tape.param(theta_skip), counts)
        x = None  # read by nothing else
        if model.readout_position == "pre_pool":
            summary = tape.segment_readout(h, counts, summary)
            if i == last:
                break  # nothing reads the last pool's output
        x, idx, counts = _topk_pool_segments(tape, h, p, model.pool_ratio, counts)
        h = None  # a recording tape keeps what its backward reads
        if model.readout_position == "post_pool":
            summary = tape.segment_readout(x, counts, summary)
    return summary


def model_forward(tape: Tape, batch: GraphBatch, model: HierarchicalModel) -> Var:
    """Logits (num_graphs x C) for a batch; bit-equal to per-graph runs stacked."""
    return tape.mlp_head(forward_summaries(tape, batch, model),
                         *(tape.param(p) for p in model.head))
