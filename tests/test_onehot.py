"""Block 0 on one-hot features held as label codes: counted aggregation,
row gathers, and no one-hot matrix built outside block 0's backward.

Every value check here is byte for byte against the dense path on the
one-hot matrix, which the codes path must reproduce exactly.
"""
from __future__ import annotations

import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sparsepool.datasets import parse_tu_dataset
from sparsepool.engine import Tape, finite_diff_check
from sparsepool.graphs import (
    GraphBatch,
    LabelCodes,
    LabeledGraph,
    _dense_pieces,
    batch_graphs,
    degree_onehot,
    erdos_renyi,
    from_edge_list,
    neighbor_code_count,
    neighbor_sum,
    spmm_mean,
)
from sparsepool.layers import build_model, model_forward
from sparsepool.membench import MemoryTracker

from conftest import as_dense, random_graph

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


class TestLabelCodes:
    def test_reads_like_the_one_hot_matrix(self):
        codes = np.array([2, 0, 1, 2])
        features = LabelCodes(codes, 3)
        assert features.shape == (4, 3) and features.nbytes == 4 * 4
        assert features.rows(0, 4).tobytes() == onehot(codes, 3).tobytes()
        assert features.rows(1, 3).tobytes() == onehot(codes, 3)[1:3].tobytes()
        assert features.rows(0, 4).flags.c_contiguous

    def test_pickles_and_takes_weak_references(self, fixtures_dir):
        features = LabelCodes(np.array([1, 0, 1], dtype=np.int32), 2)
        ref = weakref.ref(features)
        assert ref() is features
        copy = pickle.loads(pickle.dumps(features))
        assert copy.width == 2 and copy.codes.dtype == np.int32
        assert np.array_equal(copy.codes, [1, 0, 1])
        dataset = parse_tu_dataset(fixtures_dir / "TOY24", "TOY24")
        revived = pickle.loads(pickle.dumps(dataset))
        for a, b in zip(dataset.graphs, revived.graphs):
            assert isinstance(b.features, LabelCodes) and b.features.width == a.features.width
            assert b.features.codes.tobytes() == a.features.codes.tobytes()

    @pytest.mark.parametrize("codes,width,match", [
        (np.array([0, 3, 1]), 3, "lie in"),                  # a code past the width
        (np.array([0, -1, 1]), 3, "lie in"),                 # a negative code
        (np.array([0.0, 1.0, 1.0]), 3, "integer"),           # not integers
        (np.array([True, False, True]), 3, "integer"),
        (np.array([[0, 1, 1]]), 3, "1-D"),
        (np.array([0, 1, 1]), 0, "width"),
        (np.array([0, 1, 1]), 2.0, "width"),
        (np.array([0, 1]), 3, "2 label codes for 3 nodes"),  # wrong length
        (np.array([0, 1, 1, 0]), 3, "4 label codes for 3 nodes"),
    ])
    def test_labeled_graph_rejects_bad_codes(self, codes, width, match):
        with pytest.raises(ValueError, match=match):
            LabeledGraph(from_edge_list(3, [(0, 1)]), LabelCodes(codes, width), 0)

    def test_a_batch_concatenates_codes(self):
        parts = [from_edge_list(3, [(0, 1), (1, 2)]), from_edge_list(2, [(0, 1)])]
        members = [LabeledGraph(g, degree_onehot(g, 2), 0) for g in parts]
        batch = batch_graphs(members)
        assert isinstance(batch.features, LabelCodes) and batch.features.width == 3
        assert np.array_equal(batch.features.codes, [1, 2, 1, 1, 1])
        dense = LabeledGraph(parts[1], np.ones((2, 3)), 0)
        with pytest.raises(ValueError, match="graph 1 holds dense features"):
            batch_graphs([members[0], dense])
        with pytest.raises(ValueError, match="graph 1 holds label codes"):
            batch_graphs([dense, members[0]])

    def test_codes_take_no_gradient(self):
        with pytest.raises(ValueError, match="no gradient"):
            Tape().leaf(LabelCodes(np.array([0, 1]), 2), needs_grad=True)


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
        coded = spmm_mean(graph, LabelCodes(codes, width))
        assert coded.tobytes() == spmm_mean(graph, x).tobytes()

    def test_the_dense_cases_take_the_dense_path(self):
        assert _dense_pieces(dense_case()[0])[1].tolist() == [True]
        assert _dense_pieces(mixed_case()[0])[1].tolist() == [False, False, True, False]

    def test_no_edges(self):
        graph = from_edge_list(4, [])
        codes = np.array([1, 0, 1, 1])
        assert np.array_equal(neighbor_code_count(graph, codes, 2), np.zeros((4, 2)))
        assert spmm_mean(graph, LabelCodes(codes, 2)).tobytes() == onehot(codes, 2).tobytes()


def conv_case(seed, fin, fout, n=9):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n)
    codes = rng.integers(0, fin, size=n)
    theta = rng.standard_normal((fin, fout))
    skip = rng.standard_normal((fin, fout))
    labels = rng.integers(0, fout, size=n)
    return graph, codes, theta, skip, labels


def run_conv(graph, x, theta, skip, labels, segments):
    """mpconv values and the theta, theta_skip gradients under a softmax loss;
    ``x`` is a dense array or label codes."""
    tape = Tape()
    t = tape.leaf(theta, needs_grad=True)
    s = tape.leaf(skip, needs_grad=True)
    out = tape.mpconv(graph, tape.leaf(x), t, s, segments)
    tape.backward(tape.softmax_xent(out, labels))
    return out.value, t.slot.grad, s.slot.grad


class TestConvWithCodes:
    @pytest.mark.parametrize("fin,fout", CONV_ORDERS)
    @pytest.mark.parametrize("seed", range(4))
    def test_values_and_gradients_equal_the_dense_path(self, fin, fout, seed):
        graph, codes, theta, skip, labels = conv_case(seed, fin, fout)
        for segments in ([9], [4, 5]):
            dense = run_conv(graph, onehot(codes, fin), theta, skip, labels, segments)
            coded = run_conv(graph, LabelCodes(codes, fin), theta, skip, labels, segments)
            for a, b in zip(dense, coded):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fin,fout", CONV_ORDERS)
    def test_finite_differences_through_codes(self, fin, fout):
        graph, codes, theta, skip, labels = conv_case(7, fin, fout)
        x = LabelCodes(codes, fin)
        for which in (1, 2):
            def fn(value):
                args = [x, theta, skip]
                args[which] = value
                _, *grads = run_conv(graph, *args, labels, [9])
                tape = Tape(record=False)
                out = tape.mpconv(graph, *(tape.leaf(a) for a in args), [9])
                return float(tape.softmax_xent(out, labels).value), grads[which - 1]

            assert finite_diff_check(fn, [theta, skip][which - 1].copy()) < 1e-6

    def test_codes_must_cover_every_row(self):
        graph, codes, theta, skip, _ = conv_case(0, 2, 5)
        tape = Tape()
        with pytest.raises(ValueError, match="label codes"):
            tape.mpconv(graph, tape.leaf(LabelCodes(codes[:-1], 2)), tape.leaf(theta),
                        tape.leaf(skip), [9])


def onehot_batch(seed, width=4, graphs=5):
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(graphs):
        g = random_graph(rng, int(rng.integers(3, 10)))
        members.append(LabeledGraph(g, LabelCodes(rng.integers(0, width, g.num_nodes), width),
                                    int(rng.integers(2))))
    return batch_graphs(members)


def dense_twin(batch):
    """The batch with its label codes as the dense one-hot matrix."""
    return GraphBatch(batch.graph, as_dense(batch.features), batch.node_counts, batch.labels)


def forward_and_grads(batch, model):
    tape = Tape()
    logits = model_forward(tape, batch, model)
    tape.backward(tape.softmax_xent(logits, batch.labels))
    grads = [p.grad.copy() for p in model.parameters()]
    for p in model.parameters():
        p.grad[...] = 0.0
    return logits.value, grads


def spy_block_inputs(monkeypatch):
    """The X of every mpconv call, in call order."""
    seen = []
    orig = Tape.mpconv

    def spy(self, graph, x, *args):
        seen.append(x.value)
        return orig(self, graph, x, *args)

    monkeypatch.setattr(Tape, "mpconv", spy)
    return seen


class TestModelOnCodes:
    @pytest.mark.parametrize("width,hidden", [(4, 8), (12, 6)])
    @pytest.mark.parametrize("position", ["pre_pool", "post_pool"])
    def test_logits_and_gradients_equal_the_dense_path(self, width, hidden, position):
        batch = onehot_batch(3, width)
        model = build_model(width, hidden, 2, readout_position=position, seed=4)
        coded = forward_and_grads(batch, model)
        dense = forward_and_grads(dense_twin(batch), model)
        assert coded[0].tobytes() == dense[0].tobytes()
        for a, b in zip(coded[1], dense[1]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", ["half", "two_ones", "zero_row"])
    def test_features_that_are_not_one_hot_take_the_dense_path(self, monkeypatch, bad):
        batch = dense_twin(onehot_batch(5))
        features = batch.features.copy()
        if bad == "half":
            features[3, np.argmax(features[3])] = 0.5
        elif bad == "two_ones":
            features[3] = 0.0
            features[3, :2] = 1.0
        else:
            features[3] = 0.0
        batch = type(batch)(batch.graph, features, batch.node_counts, batch.labels)
        seen = spy_block_inputs(monkeypatch)
        model_forward(Tape(record=False), batch, build_model(4, 8, 2, seed=0))
        assert [type(x) for x in seen] == [np.ndarray] * 3
        assert seen[0] is batch.features

    def test_one_hot_features_reach_block_0_only(self, monkeypatch):
        batch = onehot_batch(6)
        seen = spy_block_inputs(monkeypatch)
        model_forward(Tape(record=False), batch, build_model(4, 8, 2, seed=0))
        assert seen[0] is batch.features
        assert [type(x) for x in seen[1:]] == [np.ndarray] * 2


class NotingTracker(MemoryTracker):
    """A tracker that also lists what it is told about: (tag, shape, weakref)."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def note(self, arr, tag):
        super().note(arr, tag)
        self.seen.append((tag, arr.shape, weakref.ref(arr)))


class TestCodesStayCodes:
    """Degree features stay codes on the model path: nothing N x width is
    built in the forward (other than the theta-last order's counted
    aggregate, which is dropped at once) or kept for backward."""

    @pytest.mark.parametrize("width,hidden", [(12, 6), (5, 8)])
    def test_model_path_builds_no_one_hot_matrix(self, width, hidden):
        rng = np.random.default_rng(8)
        members = []
        for _ in range(6):
            g = random_graph(rng, int(rng.integers(5, 14)))
            members.append(LabeledGraph(g, degree_onehot(g, width - 1), int(rng.integers(2))))
        batch = batch_graphs(members)
        n = batch.graph.num_nodes
        assert batch.features.shape == (n, width)
        tracker = NotingTracker()
        tracker.note(batch.features, "features")
        assert dict(tracker.peak_breakdown())["features"] == n * np.dtype(np.int32).itemsize
        model = build_model(width, hidden, 2, seed=2)
        tape = Tape(tracker=tracker)
        logits = model_forward(tape, batch, model)
        wide = [(tag, ref) for tag, shape, ref in tracker.seen if shape == (n, width)]
        features = wide.pop(0)
        assert features[0] == "features"
        if width < hidden:  # aggregate first: the counted aggregate, dropped after its product
            assert [tag for tag, _ in wide] == ["acts"]
        else:
            assert wide == []
        assert all(ref() is None for _, ref in wide)
        record = tape._nodes[0][1]
        kept = [cell.cell_contents for cell in record.__closure__]
        assert not any(isinstance(v, np.ndarray) and v.shape == (n, width) for v in kept)
        forward_notes = len(tracker.seen)
        tape.backward(tape.softmax_xent(logits, batch.labels))
        transient = [ref for _, shape, ref in tracker.seen[forward_notes:] if shape == (n, width)]
        assert len(transient) == (2 if width < hidden else 1)  # recount and one-hot block
        assert all(ref() is None for ref in transient)
