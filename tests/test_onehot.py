"""Block 0 on one-hot features: label codes, counted aggregation, row gathers.

Every check here is byte for byte against the dense path, which the codes
path must reproduce exactly.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparsepool import layers
from sparsepool.engine import Tape, finite_diff_check
from sparsepool.graphs import (
    LabeledGraph,
    _dense_pieces,
    batch_graphs,
    degree_onehot,
    erdos_renyi,
    from_edge_list,
    neighbor_code_count,
    neighbor_sum,
    onehot_codes,
    spmm_mean,
)
from sparsepool.layers import build_model, model_forward

from conftest import random_graph

# (F_in, F_out): aggregate first, theta first with a wide input, square theta
CONV_ORDERS = [(2, 5), (5, 3), (4, 4)]


@st.composite
def labeled_graphs(draw, max_nodes=12):
    """A graph with isolated nodes allowed (and no edges at all), plus codes."""
    n = draw(st.integers(1, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    graph = from_edge_list(n, [(u, v) for u, v in pairs if u != v])
    width = draw(st.integers(1, 6))
    codes = np.array(draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n)))
    return graph, codes, width


def onehot(codes, width):
    return np.eye(width)[codes]


def dense_case(n=40, width=5, seed=3):
    """A 90%-dense graph: one dense piece, aggregated by a BLAS product."""
    graph = erdos_renyi(n, int(0.9 * n * (n - 1) / 2), seed)
    return graph, np.random.default_rng(seed).integers(0, width, size=n), width


def mixed_case():
    """A dense graph batched between a sparse graph and an isolated node."""
    dense, codes, width = dense_case(25, 4)
    parts = [from_edge_list(4, [(0, 1), (2, 3)]), dense, from_edge_list(1, [])]
    batch = batch_graphs([LabeledGraph(g, np.zeros((g.num_nodes, 1)), 0) for g in parts])
    return batch.graph, np.concatenate([[0, 1, 3, 3], codes, [2]]), width


class TestOnehotCodes:
    def test_reads_each_rows_column(self):
        x = onehot(np.array([2, 0, 1, 2]), 3)
        assert np.array_equal(onehot_codes(x), [2, 0, 1, 2])

    def test_single_column_of_ones(self):
        assert np.array_equal(onehot_codes(np.ones((4, 1))), np.zeros(4))

    def test_degree_features_are_one_hot(self):
        g = random_graph(np.random.default_rng(0), 9)
        x = degree_onehot(g, 4)
        assert np.array_equal(onehot_codes(x), np.minimum(g.degrees, 4))

    @pytest.mark.parametrize("row", [
        [0.5, 0.0, 0.0],   # an entry that is not 0 or 1
        [1.0, 1.0, 0.0],   # two ones in a row
        [0.0, 0.0, 0.0],   # an all-zero row
        [1.0, -1.0, 0.0],  # a one beside a nonzero
        [np.nan, 0.0, 0.0],
        [2.0, 0.0, 0.0],
    ])
    @pytest.mark.parametrize("at", [0, 3])
    def test_any_bad_row_gives_none(self, row, at):
        x = onehot(np.array([0, 1, 2, 1, 0]), 3)
        x[at] = row
        assert onehot_codes(x) is None

    def test_no_rows_gives_none(self):
        assert onehot_codes(np.zeros((0, 3))) is None

    def test_dense_features_stop_at_the_first_row(self, monkeypatch):
        # the whole-matrix pass starts with an argmax; a first row that is
        # not one-hot must decide before it
        def whole_matrix_pass(*args, **kwargs):
            raise AssertionError("scanned past the first row")

        x = np.random.default_rng(1).standard_normal((50, 8))
        monkeypatch.setattr(np, "argmax", whole_matrix_pass)
        assert onehot_codes(x) is None


class TestCountedAggregation:
    @given(labeled_graphs())
    @example(dense_case())
    @example(mixed_case())
    def test_counts_equal_neighbor_sum_bytes(self, case):
        graph, codes, width = case
        x = onehot(codes, width)
        counted = neighbor_code_count(graph, codes, width)
        assert counted.dtype == np.float64 and counted.flags.c_contiguous
        assert counted.tobytes() == neighbor_sum(graph, x).tobytes()

    @given(labeled_graphs())
    @example(dense_case())
    @example(mixed_case())
    def test_mean_equals_spmm_mean_bytes(self, case):
        graph, codes, width = case
        x = onehot(codes, width)
        assert spmm_mean(graph, x, codes).tobytes() == spmm_mean(graph, x).tobytes()

    def test_the_dense_cases_take_the_dense_path(self):
        assert _dense_pieces(dense_case()[0])[1].tolist() == [True]
        assert _dense_pieces(mixed_case()[0])[1].tolist() == [False, False, True, False]

    def test_no_edges(self):
        graph = from_edge_list(4, [])
        codes = np.array([1, 0, 1, 1])
        assert np.array_equal(neighbor_code_count(graph, codes, 2), np.zeros((4, 2)))
        assert spmm_mean(graph, onehot(codes, 2), codes).tobytes() == onehot(codes, 2).tobytes()


def conv_case(seed, fin, fout, n=9):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n)
    codes = rng.integers(0, fin, size=n)
    theta = rng.standard_normal((fin, fout))
    skip = rng.standard_normal((fin, fout))
    labels = rng.integers(0, fout, size=n)
    return graph, codes, theta, skip, labels


def run_conv(graph, x, theta, skip, labels, segments=None, codes=None):
    """mpconv values and the theta, theta_skip gradients under a softmax loss."""
    tape = Tape()
    t = tape.leaf(theta, needs_grad=True)
    s = tape.leaf(skip, needs_grad=True)
    out = tape.mpconv(graph, tape.leaf(x), t, s, segments, codes)
    tape.backward(tape.softmax_xent(out, labels))
    return out.value, t.slot.grad, s.slot.grad


class TestConvWithCodes:
    @pytest.mark.parametrize("fin,fout", CONV_ORDERS)
    @pytest.mark.parametrize("seed", range(4))
    def test_values_and_gradients_equal_the_dense_path(self, fin, fout, seed):
        graph, codes, theta, skip, labels = conv_case(seed, fin, fout)
        x = onehot(codes, fin)
        for segments in (None, [4, 5]):
            dense = run_conv(graph, x, theta, skip, labels, segments)
            coded = run_conv(graph, x, theta, skip, labels, segments, codes)
            for a, b in zip(dense, coded):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fin,fout", CONV_ORDERS)
    def test_finite_differences_through_codes(self, fin, fout):
        graph, codes, theta, skip, labels = conv_case(7, fin, fout)
        x = onehot(codes, fin)
        for which in (1, 2):
            def fn(value):
                args = [x, theta, skip]
                args[which] = value
                _, *grads = run_conv(graph, *args, labels, codes=codes)
                tape = Tape(record=False)
                out = tape.mpconv(graph, *(tape.leaf(a) for a in args), None, codes)
                return float(tape.softmax_xent(out, labels).value), grads[which - 1]

            assert finite_diff_check(fn, [theta, skip][which - 1].copy()) < 1e-6

    def test_codes_must_cover_every_row(self):
        graph, codes, theta, skip, _ = conv_case(0, 2, 5)
        tape = Tape()
        with pytest.raises(ValueError, match="codes"):
            tape.mpconv(graph, tape.leaf(onehot(codes, 2)), tape.leaf(theta),
                        tape.leaf(skip), None, codes[:-1])


def onehot_batch(seed, width=4, graphs=5):
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(graphs):
        g = random_graph(rng, int(rng.integers(3, 10)))
        members.append(LabeledGraph(g, onehot(rng.integers(0, width, g.num_nodes), width),
                                    int(rng.integers(2))))
    return batch_graphs(members)


def forward_and_grads(batch, model):
    tape = Tape()
    logits = model_forward(tape, batch, model)
    tape.backward(tape.softmax_xent(logits, batch.labels))
    grads = [p.grad.copy() for p in model.parameters()]
    for p in model.parameters():
        p.grad[...] = 0.0
    return logits.value, grads


class TestModelOnCodes:
    @pytest.mark.parametrize("width,hidden", [(4, 8), (12, 6)])
    @pytest.mark.parametrize("position", ["pre_pool", "post_pool"])
    def test_logits_and_gradients_equal_the_dense_path(self, monkeypatch, width, hidden, position):
        batch = onehot_batch(3, width)
        model = build_model(width, hidden, 2, readout_position=position, seed=4)
        coded = forward_and_grads(batch, model)
        monkeypatch.setattr(layers, "onehot_codes", lambda x: None)
        dense = forward_and_grads(batch, model)
        assert coded[0].tobytes() == dense[0].tobytes()
        for a, b in zip(coded[1], dense[1]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", ["half", "two_ones", "zero_row"])
    def test_features_that_are_not_one_hot_take_the_dense_path(self, monkeypatch, bad):
        batch = onehot_batch(5)
        features = batch.features.copy()
        if bad == "half":
            features[3, np.argmax(features[3])] = 0.5
        elif bad == "two_ones":
            features[3] = 0.0
            features[3, :2] = 1.0
        else:
            features[3] = 0.0
        batch = type(batch)(batch.graph, features, batch.node_counts, batch.labels)
        seen = []
        orig = Tape.mpconv

        def spy(self, *args):
            seen.append(args[5] if len(args) > 5 else None)
            return orig(self, *args)

        monkeypatch.setattr(Tape, "mpconv", spy)
        model_forward(Tape(record=False), batch, build_model(4, 8, 2))
        assert seen == [None, None, None]

    def test_one_hot_features_reach_block_0_only(self, monkeypatch):
        batch = onehot_batch(6)
        seen = []
        orig = Tape.mpconv

        def spy(self, *args):
            seen.append(args[5])
            return orig(self, *args)

        monkeypatch.setattr(Tape, "mpconv", spy)
        model_forward(Tape(record=False), batch, build_model(4, 8, 2))
        assert np.array_equal(seen[0], np.argmax(batch.features, axis=1))
        assert seen[1:] == [None, None]
