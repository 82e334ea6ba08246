"""Shared oracles, generators, and fixtures for the test suite."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sparsepool.engine import Tape
from sparsepool.graphs import LabelCodes, LabeledGraph, SparseGraph, degree_onehot, from_edge_list
from sparsepool.layers import build_model, model_forward

# The suite draws the same inputs on every run. `pytest --hypothesis-profile=explore`
# draws 400 fresh random examples a property instead, to search for failures.
settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.register_profile("explore", max_examples=400, deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def as_dense(features) -> np.ndarray:
    """Node features as a float64 array; label codes become their one-hot matrix."""
    if isinstance(features, LabelCodes):
        return features.rows(0, features.shape[0])
    return features


# ----------------------------------------------------------------------
# independent dense oracles
# ----------------------------------------------------------------------
def dense_spmm_oracle(adjacency: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean-aggregation via explicit dense matrices: inv(D) (A + I) X."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    d_inv = 1.0 / a_hat.sum(axis=1)
    return d_inv[:, None] * (a_hat @ x)


def dense_topk_oracle(adjacency, x, p, ratio):
    """Brute-force gated top-k on dense matrices.

    Returns (kept indices, gated features, pooled dense adjacency). Ties are
    broken toward the lower original index; kept indices are re-sorted.
    """
    y = (x @ p) / max(np.linalg.norm(p), 1e-12)
    k = max(1, min(len(y), int(math.ceil(ratio * len(y) - 1e-9))))
    idx = np.sort(np.argsort(-y, kind="stable")[:k])
    gated = (x * np.tanh(y)[:, None])[idx]
    return idx, gated, adjacency[np.ix_(idx, idx)]


# ----------------------------------------------------------------------
# graph generators
# ----------------------------------------------------------------------
def random_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.4) -> SparseGraph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    return from_edge_list(n, pairs)


def cycle_graph(n: int) -> SparseGraph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> SparseGraph:
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def validated_graph(n: int, pairs) -> SparseGraph:
    """The graph of ``pairs`` taken as they are (neither mirrored nor
    de-duplicated), sorted into a CSR and built by the validating constructor."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    codes = np.sort(pairs @ np.array([n, 1]))
    offsets = np.searchsorted(codes // max(n, 1), np.arange(n + 1))
    return SparseGraph(n, offsets, codes % max(n, 1))


def permute_graph(graph: SparseGraph, x: np.ndarray, sigma: np.ndarray):
    """Relabel node u as sigma[u]; returns the permuted graph and features."""
    row_ids = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    pairs = np.stack([sigma[row_ids], sigma[graph.col_indices]], axis=1)
    permuted = validated_graph(graph.num_nodes, pairs)
    x_new = np.empty_like(x)
    x_new[sigma] = x
    return permuted, x_new


def make_cycle_star_task(bound: int = 6, reps: int = 30):
    """Separable synthetic task: cycles (class 0) vs stars (class 1).

    Degree histograms alone separate the classes (cycles are 2-regular,
    stars have one hub and leaves of degree 1).
    """
    graphs = []
    for i in range(reps):
        n = 6 + (i % 10)
        g = cycle_graph(n)
        graphs.append(LabeledGraph(g, degree_onehot(g, bound), 0))
        h = star_graph(n)
        graphs.append(LabeledGraph(h, degree_onehot(h, bound), 1))
    return graphs


# ----------------------------------------------------------------------
# margin-stable model instances for gradient / invariance tests
# ----------------------------------------------------------------------
class Margins(dict):
    """A tape hook (``Tape(tracker=Margins())``) that keeps the smallest
    value of each stability margin the pass meets; it notes no buffers."""

    def note(self, arr, tag) -> None:
        pass

    def margin(self, key: str, value: float) -> None:
        self[key] = min(self.get(key, value), value)


MARGINS = {"relu_margin": 1e-3, "rowmax_gap": 1e-3,
           "score_boundary_gap": 1e-3, "score_min_gap": 1e-6}


def stable_instance(
    seed: int,
    n_range=(4, 12),
    f_range=(2, 8),
    hidden: int = 6,
    num_classes: int = 3,
    ratio: float = 0.8,
    margins: dict | None = None,
    max_tries: int = 500,
):
    """Sample (batch, model) whose forward pass stays clear of every
    non-differentiable switch (ReLU kinks, max ties, top-k boundary ties).

    Resamples until all tracked margins exceed their thresholds, so finite
    differences and permutations cannot flip a selection.
    """
    margins = dict(MARGINS if margins is None else margins)
    rng = np.random.default_rng(seed)
    from sparsepool.graphs import batch_graphs

    for attempt in range(max_tries):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        f = int(rng.integers(f_range[0], f_range[1] + 1))
        graph = random_graph(rng, n)
        x = rng.standard_normal((n, f))
        batch = batch_graphs([LabeledGraph(graph, x, int(rng.integers(num_classes)))])
        model = build_model(
            in_dim=f,
            hidden_dim=hidden,
            num_classes=num_classes,
            pool_ratio=ratio,
            seed=int(rng.integers(2**31)),
        )
        seen = Margins()
        model_forward(Tape(tracker=seen), batch, model)
        if all(seen.get(key, np.inf) > threshold for key, threshold in margins.items()):
            return batch, model
    raise RuntimeError(f"no margin-stable instance found in {max_tries} tries")


def model_loss_fn(batch, model, param):
    """Closure for finite_diff_check: loss value and tape gradient w.r.t. one
    parameter."""

    def fn(x):
        param.value[...] = x
        tape = Tape()
        loss = tape.softmax_xent(model_forward(tape, batch, model), batch.labels)
        tape.backward(loss)
        grad = param.grad.copy()
        for p in model.parameters():
            p.grad[...] = 0.0
        return float(loss.value), grad

    return fn
