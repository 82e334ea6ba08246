"""Byte-exact memory accounting: sparse top-k model vs a dense-assignment baseline.

Memory is measured as exact accounting of declared numeric buffers (CSR
arrays, features, activations, tape saves, gradients, optimizer state), not
process RSS: portable, deterministic, and it captures exactly the quantity
the scaling comparison is about. Absolute numbers are not comparable to GPU
readings; only the growth rates are claimed.

The module constants ``FIG_FEATURES``, ``FIG_BLOCKS``, ``SPARSE_RATIO`` and
``DENSE_RATIO`` fix the benchmark's shape; no function takes it as a
parameter.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .engine import Tape
from .graphs import GraphBatch, erdos_renyi
from .layers import build_model, kept_count, model_forward

__all__ = [
    "MemoryReport",
    "MemoryTracker",
    "SweepResult",
    "measure_sparse",
    "measure_dense_assignment",
    "scaling_sweep",
    "FIG_FEATURES",
    "FIG_BLOCKS",
]

# Benchmark configuration: 128 input and hidden features, three conv-pool
# blocks (three assignment levels for the dense baseline); the sparse model
# runs with ratio 1.0 (nothing dropped), the dense baseline with assignment
# ratio 0.25.
FIG_FEATURES = 128
FIG_BLOCKS = 3
SPARSE_RATIO = 1.0
DENSE_RATIO = 0.25


class MemoryTracker:
    """Live-byte ledger for explicitly registered buffers.

    Registration adds a buffer's bytes to the current total; a weakref
    finalizer subtracts them when the array is collected, so under CPython's
    reference counting the running total tracks the live set exactly. The
    peak snapshot keeps a per-tag breakdown.
    """

    def __init__(self):
        self.current = 0
        self.peak = 0
        self.total_allocated = 0
        self.max_buffer = 0
        self.max_buffer_tag = ""
        self._by_tag: dict[str, int] = {}
        self._peak_by_tag: dict[str, int] = {}

    def note(self, arr: np.ndarray, tag: str) -> None:
        nbytes = int(arr.nbytes)
        weakref.finalize(arr, self._release, tag, nbytes)
        self.current += nbytes
        self.total_allocated += nbytes
        self._by_tag[tag] = self._by_tag.get(tag, 0) + nbytes
        if self.current > self.peak:
            self.peak = self.current
            self._peak_by_tag = dict(self._by_tag)
        if nbytes > self.max_buffer:
            self.max_buffer = nbytes
            self.max_buffer_tag = tag

    def _release(self, tag: str, nbytes: int) -> None:
        self.current -= nbytes
        self._by_tag[tag] -= nbytes

    def peak_breakdown(self) -> list[tuple[str, int]]:
        return sorted(self._peak_by_tag.items())


@dataclass(frozen=True)
class MemoryReport:
    """Peak byte count of one measured forward/backward (or footprint model).

    ``feasible`` is False when the accounted peak exceeds the configured
    budget, modeling an out-of-memory condition; accounting always continues
    past the budget so the report still carries the full footprint.
    """

    graph_size: int
    edge_count: int
    peak_bytes: int
    breakdown: list[tuple[str, int]]
    feasible: bool
    max_buffer_bytes: int = 0
    max_buffer_tag: str = ""
    total_allocated_bytes: int = 0


def measure_sparse(n: int, *, budget_bytes: int | None = None, seed: int = 0) -> MemoryReport:
    """Run one real forward+backward of the sparse model on G(n, 2n).

    The model is ``FIG_FEATURES`` wide, with ``FIG_BLOCKS`` blocks and pool
    ratio ``SPARSE_RATIO``. Every live buffer is registered with the
    tracker: the CSR arrays, the feature matrix, every activation and tape
    save, every gradient, and the parameter/optimizer state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tracker = MemoryTracker()
    # |E| = 2|V| per the benchmark setup; degenerate sizes get what fits
    graph = erdos_renyi(n, min(2 * n, n * (n - 1) // 2), seed)
    tracker.note(graph.row_offsets, "graph/csr")
    tracker.note(graph.col_indices, "graph/csr")
    features = np.random.default_rng(seed).standard_normal((n, FIG_FEATURES))
    tracker.note(features, "features")
    model = build_model(
        in_dim=FIG_FEATURES,
        hidden_dim=FIG_FEATURES,
        num_classes=2,
        pool_ratio=SPARSE_RATIO,
        num_blocks=FIG_BLOCKS,
        seed=seed,
    )
    for p in model.parameters():
        tracker.note(p.value, "params")
        tracker.note(p.grad, "grads")
        tracker.note(p.adam_m, "optimizer")
        tracker.note(p.adam_v, "optimizer")
    batch = GraphBatch(
        graph=graph,
        features=features,
        node_counts=np.array([n], dtype=np.int64),
        labels=np.zeros(1, dtype=np.int64),
    )
    tape = Tape(tracker=tracker)
    loss = tape.softmax_xent(model_forward(tape, batch, model), batch.labels)
    tape.backward(loss)
    return MemoryReport(
        graph_size=n,
        edge_count=graph.num_edges,
        peak_bytes=tracker.peak,
        breakdown=tracker.peak_breakdown(),
        feasible=budget_bytes is None or tracker.peak <= budget_bytes,
        max_buffer_bytes=tracker.max_buffer,
        max_buffer_tag=tracker.max_buffer_tag,
        total_allocated_bytes=tracker.total_allocated,
    )


def _dense_plan(n: int):
    """Buffer inventory of a dense soft-assignment pipeline during training.

    Per level l of ``FIG_BLOCKS``, with N_{l+1} = ceil(``DENSE_RATIO`` * N_l): the
    assignment matrix S(l) in R^{N_l x N_{l+1}} and its gradient, the dense
    coarsened adjacency N_{l+1} x N_{l+1}, and the embedding activations
    N_l x F (F = ``FIG_FEATURES``) with their gradients. The level-1
    adjacency stays sparse (the input is sparse). This counts the minimal
    buffers any such variant must hold.
    """
    plan: list[tuple[str, int]] = [
        ("input_csr/row_offsets", (n + 1) * 8),
        ("input_csr/col_indices", 4 * n * 8),
    ]
    size = n
    for level in range(1, FIG_BLOCKS + 1):
        pooled = kept_count(size, DENSE_RATIO)
        plan.append((f"level{level}/embeddings", size * FIG_FEATURES * 8))
        plan.append((f"level{level}/embeddings_grad", size * FIG_FEATURES * 8))
        plan.append((f"level{level}/assignment", size * pooled * 8))
        plan.append((f"level{level}/assignment_grad", size * pooled * 8))
        plan.append((f"level{level}/coarse_adjacency", pooled * pooled * 8))
        size = pooled
    return plan


def measure_dense_assignment(n: int, *, budget_bytes: int | None = None) -> MemoryReport:
    """Footprint of a dense soft-assignment (cluster-pooling) baseline.

    Computed from the buffer plan alone, with no allocation: every buffer is
    held at once, so the peak is the plan's sum, and the report is infeasible
    when that sum exceeds the budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    plan = _dense_plan(n)
    total = sum(nbytes for _, nbytes in plan)
    largest_tag, largest = max(plan, key=lambda entry: entry[1])  # first of equal sizes
    return MemoryReport(
        graph_size=n,
        edge_count=2 * n,
        peak_bytes=total,
        breakdown=sorted(plan),
        feasible=budget_bytes is None or total <= budget_bytes,
        max_buffer_bytes=largest,
        max_buffer_tag=largest_tag,
        total_allocated_bytes=total,
    )


@dataclass
class SweepResult:
    """Per-size report pairs plus fitted log-log growth slopes."""

    sizes: list[int]
    sparse: list[MemoryReport]
    dense: list[MemoryReport]
    slope_sparse: float = field(init=False)
    slope_dense: float = field(init=False)

    def __post_init__(self) -> None:
        logs = np.log(np.asarray(self.sizes, dtype=np.float64))
        self.slope_sparse = float(
            np.polyfit(logs, np.log([r.peak_bytes for r in self.sparse]), 1)[0]
        )
        self.slope_dense = float(
            np.polyfit(logs, np.log([r.peak_bytes for r in self.dense]), 1)[0]
        )

    def to_csv(self) -> str:
        lines = ["n,sparse_bytes,dense_bytes,dense_feasible"]
        for n, s, d in zip(self.sizes, self.sparse, self.dense):
            lines.append(f"{n},{s.peak_bytes},{d.peak_bytes},{str(d.feasible).lower()}")
        return "\n".join(lines) + "\n"


def scaling_sweep(sizes, budget_bytes: int | None = None, *, seed: int = 0) -> SweepResult:
    """Measure both methods at each size and fit log-log scaling slopes."""
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ValueError(f"a slope fit needs at least two sizes, got {len(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    sparse = [measure_sparse(n, budget_bytes=budget_bytes, seed=seed) for n in sizes]
    dense = [measure_dense_assignment(n, budget_bytes=budget_bytes) for n in sizes]
    return SweepResult(sizes=sizes, sparse=sparse, dense=dense)
