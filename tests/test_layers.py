"""Layer and model-composition tests."""
from __future__ import annotations

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    Margins,
    dense_spmm_oracle,
    dense_topk_oracle,
    model_loss_fn,
    permute_graph,
    random_graph,
    stable_instance,
)
from sparsepool.engine import Parameter, Tape, finite_diff_check
from sparsepool import graphs as graphs_module
from sparsepool.graphs import (
    LabelCodes,
    LabeledGraph,
    _dense_pieces,
    batch_graphs,
    erdos_renyi,
    from_edge_list,
    induced_subgraph,
)
from sparsepool.layers import (
    HierarchicalModel,
    _kept_counts,
    _select_topk,
    build_model,
    forward_summaries,
    kept_count,
    model_forward,
    topk_pool,
)
from sparsepool.membench import MemoryTracker


def var(tape, x):
    return tape.leaf(np.asarray(x, dtype=np.float64))


class TestKeptCount:
    @pytest.mark.parametrize(
        "n,ratio,expected",
        [
            (3, 0.5, 2),   # ceil(1.5)
            (5, 0.8, 4),   # 0.8 * 5 is 4.0000000000000002 in floats; must stay 4
            (1, 0.1, 1),   # at least one node survives
            (10, 1.0, 10),
            (7, 0.25, 2),
            (4, 0.8, 4),   # ceil(3.2)
        ],
    )
    def test_values(self, n, ratio, expected):
        assert kept_count(n, ratio) == expected

    # 0.07 and 0.55 times some n land just above an integer in floats
    @pytest.mark.parametrize("ratio", [0.05, 1 / 3, 0.5, 0.8, 0.999999, 1.0, 0.07, 0.55])
    def test_vector_form_matches_kept_count(self, ratio):
        counts = np.arange(1, 20001, dtype=np.int64)
        # the scalar formula in Python floats, as an oracle
        expected = [max(1, min(n, math.ceil(ratio * n - 1e-9))) for n in counts.tolist()]
        assert np.array_equal(_kept_counts(counts, ratio), expected)
        assert [kept_count(n, ratio) for n in range(1, 2001)] == expected[:2000]


class TestMPConv:
    def test_identity_theta_single_node(self):
        tape = Tape()
        theta, skip = Parameter("t", [[1.0]]), Parameter("s", [[0.0]])
        graph, x = from_edge_list(1, []), var(tape, [[5.0]])
        out = tape.mpconv(graph, x, tape.param(theta), tape.param(skip), [1])
        assert np.array_equal(out.value, [[5.0]])

    def test_pure_skip_path_is_relu(self):
        tape = Tape()
        eye = np.eye(2)
        theta, skip = Parameter("t", np.zeros((2, 2))), Parameter("s", eye)
        x = np.array([[1.5, -2.0], [-0.5, 3.0]])
        graph = from_edge_list(2, [(0, 1)])
        out = tape.mpconv(graph, var(tape, x), tape.param(theta), tape.param(skip), [2])
        assert np.array_equal(out.value, np.maximum(x, 0.0))

    def test_k2_hand_value(self):
        tape = Tape()
        theta, skip = Parameter("t", [[1.0]]), Parameter("s", [[1.0]])
        graph, x = from_edge_list(2, [(0, 1)]), var(tape, [[2.0], [4.0]])
        out = tape.mpconv(graph, x, tape.param(theta), tape.param(skip), [2])
        assert np.array_equal(out.value, [[5.0], [7.0]])

    def test_rejects_wrong_width(self):
        tape = Tape()
        theta, skip = Parameter("t", np.zeros((3, 2))), Parameter("s", np.zeros((3, 2)))
        graph, x = from_edge_list(1, []), var(tape, [[1.0]])
        with pytest.raises(ValueError, match="mpconv shape mismatch"):
            tape.mpconv(graph, x, tape.param(theta), tape.param(skip), [1])

    # (in_dim, out_dim, widths of the N-row activations a block keeps): with
    # in_dim >= out_dim the aggregation runs after theta and only the ReLU
    # output is kept; otherwise mean_aggregate(X) is kept for theta's gradient
    ORDERS = [(2, 5, [5, 2]), (5, 3, [3]), (4, 4, [4])]

    @staticmethod
    def conv_case(f_in, f_out):
        rng = np.random.default_rng(10 * f_in + f_out)
        graph = random_graph(rng, 6)
        x = rng.standard_normal((6, f_in))
        theta = Parameter("t", rng.standard_normal((f_in, f_out)))
        skip = Parameter("s", rng.standard_normal((f_in, f_out)))
        return graph, x, (theta, skip), rng.integers(f_out, size=6)

    @pytest.mark.parametrize("f_in,f_out,kept", ORDERS)
    def test_both_orders_match_the_dense_oracle(self, f_in, f_out, kept):
        graph, x, (theta, skip), _ = self.conv_case(f_in, f_out)
        tape = Tape()
        out = tape.mpconv(graph, tape.leaf(x), tape.param(theta), tape.param(skip), [6])
        aggregated = dense_spmm_oracle(graph.to_dense(), x)
        expected = np.maximum(aggregated @ theta.value + x @ skip.value, 0.0)
        assert np.allclose(out.value, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("f_in,f_out,kept", ORDERS)
    def test_both_orders_match_finite_differences(self, f_in, f_out, kept):
        self.check_finite_differences(*self.conv_case(f_in, f_out))

    @pytest.mark.parametrize("f_in,f_out,kept", ORDERS)
    def test_finite_differences_on_a_dense_graph(self, f_in, f_out, kept):
        # 13 of 15 possible edges: one dense piece, aggregated by a BLAS product
        _, x, params, labels = self.conv_case(f_in, f_out)
        graph = erdos_renyi(6, 13, seed=f_in + f_out)
        assert _dense_pieces(graph)[1].tolist() == [True]
        self.check_finite_differences(graph, x, params, labels)

    @staticmethod
    def check_finite_differences(graph, x, params, labels):
        theta, skip = params
        seen = Margins()
        probe = Tape(tracker=seen)
        probe.mpconv(graph, Tape().leaf(x), probe.param(theta), probe.param(skip), [6])
        assert seen["relu_margin"] > 1e-3  # finite differences cannot cross a kink

        def loss_and_grads(x_value, needs_grad):
            tape = Tape()
            xv = tape.leaf(x_value, needs_grad=needs_grad)
            out = tape.mpconv(graph, xv, tape.param(theta), tape.param(skip), [6])
            loss = tape.softmax_xent(out, labels)
            tape.backward(loss)
            theta_grad = theta.grad.copy()
            for p in (theta, skip):
                p.grad[...] = 0.0
            return float(loss.value), (xv.slot.grad if needs_grad else None), theta_grad

        def wrt_x(v):
            value, grad, _ = loss_and_grads(v, True)
            return value, grad

        def wrt_theta(t):
            theta.value[...] = t
            value, _, grad = loss_and_grads(x, False)  # X without a gradient slot
            return value, grad

        assert finite_diff_check(wrt_x, x.copy()) < 1e-6
        assert finite_diff_check(wrt_theta, theta.value.copy()) < 1e-6

    @pytest.mark.parametrize("f_in,f_out,kept", ORDERS)
    def test_records_keep_only_what_backward_reads(self, f_in, f_out, kept):
        graph, x, (theta, skip), _ = self.conv_case(f_in, f_out)
        tracker = MemoryTracker()
        tape = Tape(tracker=tracker)
        xv = tape.leaf(x, needs_grad=True)
        out = tape.mpconv(graph, xv, tape.param(theta), tape.param(skip), [6])
        assert out.value.shape == (6, f_out)
        assert tracker.current == 6 * 8 * sum(kept)


class TestTopKPool:
    def test_hand_example(self):
        tape = Tape()
        graph = from_edge_list(3, [(0, 1), (1, 2)])
        x = var(tape, [[1.0], [2.0], [3.0]])
        sub, pooled, idx = topk_pool(tape, graph, x, Parameter("p", [2.0]), 0.5)
        assert np.array_equal(idx, [1, 2])
        assert np.allclose(pooled.value, [[2 * np.tanh(2.0)], [3 * np.tanh(3.0)]])
        assert np.array_equal(sub.to_dense(), [[0, 1], [1, 0]])

    def test_ratio_one_keeps_graph(self):
        tape = Tape()
        rng = np.random.default_rng(5)
        graph = random_graph(rng, 7)
        x = rng.standard_normal((7, 3))
        p = Parameter("p", rng.standard_normal(3))
        sub, pooled, idx = topk_pool(tape, graph, var(tape, x), p, 1.0)
        assert np.array_equal(idx, np.arange(7))
        assert np.array_equal(sub.row_offsets, graph.row_offsets)
        assert np.array_equal(sub.col_indices, graph.col_indices)
        y = (x @ p.value) / np.linalg.norm(p.value)
        assert np.array_equal(pooled.value, x * np.tanh(y)[:, None])

    def test_single_node_always_kept(self):
        tape = Tape()
        sub, pooled, idx = topk_pool(tape, from_edge_list(1, []), var(tape, [[3.0, 1.0]]),
                                     Parameter("p", [1.0, 0.0]), 0.1)
        assert np.array_equal(idx, [0]) and sub.num_nodes == 1

    def test_rejects_empty_graph(self):
        tape = Tape()
        with pytest.raises(ValueError, match="cannot pool an empty graph"):
            topk_pool(tape, from_edge_list(0, []), var(tape, np.zeros((0, 1))),
                      Parameter("p", [1.0]), 0.5)

    def test_rejects_wrong_width(self):
        tape = Tape()
        with pytest.raises(ValueError, match="topk_gate shape mismatch"):
            topk_pool(tape, from_edge_list(1, []), var(tape, [[1.0]]),
                      Parameter("p", [1.0, 0.0]), 0.5)

    def test_tie_goes_to_lower_index(self):
        tape = Tape()
        graph = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        x = np.array([[2.0], [2.0], [2.0], [2.0]])
        _, _, idx = topk_pool(tape, graph, var(tape, x), Parameter("p", [1.0]), 0.5)
        assert np.array_equal(idx, [0, 1])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 21))
        graph = random_graph(rng, n)
        x = rng.standard_normal((n, int(rng.integers(1, 6))))
        p = rng.standard_normal(x.shape[1])
        ratio = float(rng.uniform(0.05, 1.0))
        tape = Tape()
        sub, pooled, idx = topk_pool(tape, graph, var(tape, x), Parameter("p", p), ratio)
        o_idx, o_feats, o_adj = dense_topk_oracle(graph.to_dense(), x, p, ratio)
        assert np.array_equal(idx, o_idx)
        assert np.array_equal(pooled.value, o_feats)  # bit-exact
        assert np.array_equal(sub.to_dense(), o_adj)

    @pytest.mark.parametrize("guarded", [False, True], ids=["live_norm", "guarded_norm"])
    def test_record_keeps_only_what_backward_reads(self, guarded):
        # the pooled rows, the gates of the kept rows and, unless the norm
        # guard holds ||p|| constant, their raw scores for the norm's part of
        # p's gradient; no N-row array stays alive
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 5))
        tracker = MemoryTracker()
        tape = Tape(tracker=tracker)
        p = tape.leaf(rng.standard_normal(5) * (1e-14 if guarded else 1.0), needs_grad=True)
        out, idx, kept = tape.topk_gate(
            tape.leaf(x, needs_grad=True), p, [4, 5], lambda s, margin: _select_topk(s, [4, 5], 0.5, margin)
        )
        assert np.array_equal(kept, [2, 3]) and out.value.shape == (5, 5)
        assert tracker.current == 8 * (5 * 5 + 5 * (1 if guarded else 2))

    def test_gradient_flows_to_retained_rows_only(self):
        rng = np.random.default_rng(8)
        graph = from_edge_list(4, [(0, 1), (2, 3)])
        x = np.array([[4.0, 0.1], [3.0, -0.2], [2.0, 0.3], [1.0, 0.4]])
        p = Parameter("p", np.array([1.0, 0.0]))
        tape = Tape()
        xv = tape.leaf(x, needs_grad=True)
        sub, pooled, idx = topk_pool(tape, graph, xv, p, 0.5)
        loss = tape.softmax_xent(pooled, [0, 1])
        tape.backward(loss)
        assert np.array_equal(idx, [0, 1])
        assert np.any(xv.slot.grad[:2] != 0.0)
        assert np.all(xv.slot.grad[2:] == 0.0)
        assert np.any(p.grad != 0.0)  # gating keeps p differentiable


def reference_topk(scores, counts, ratio):
    """Per-segment stable argsort: kept indices, kept counts and the smallest
    of each margin."""
    idx, kept, smallest = [], [], {}
    start = 0
    for n in counts:
        seg = scores[start : start + n]
        k = kept_count(n, ratio)
        order = np.argsort(-seg, kind="stable")
        idx.extend(start + np.sort(order[:k]))
        kept.append(k)
        margins = {}
        if k < n:
            margins["score_boundary_gap"] = float(seg[order[k - 1]] - seg[order[k]])
        if n > 1:
            margins["score_min_gap"] = float(np.min(np.diff(np.sort(seg))))
        for key, gap in margins.items():
            smallest[key] = min(smallest.get(key, gap), gap)
        start += n
    return np.array(idx, dtype=np.int64), np.array(kept, dtype=np.int64), smallest


class TestSelectTopK:
    @given(
        counts=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        big=st.booleans(),
        decimals=st.integers(0, 3),
        special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0]), max_size=12),
        ratio=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**16),
    )
    # all-NaN segments shorter than the widest: a table padded with +inf
    # ranks its padding ahead of their scores, where NaN must rank last
    @example(counts=[1, 2], big=False, decimals=0, special=[np.nan] * 3, ratio=1.0, seed=0)
    @example(counts=[2, 4], big=False, decimals=0, special=[np.nan] * 6, ratio=0.5, seed=0)
    def test_matches_per_segment_reference(self, counts, big, decimals, special, ratio, seed):
        # rounding to few decimals and the special values make ties common
        if big:
            counts = counts + [30 * max(counts)]  # one segment 30x the rest
        rng = np.random.default_rng(seed)
        scores = np.round(rng.standard_normal(sum(counts)), decimals)
        at = rng.choice(scores.size, size=min(len(special), scores.size), replace=False)
        scores[at] = special[: at.size]
        seen = Margins()
        with np.errstate(invalid="ignore"):  # inf - inf in the margins
            idx, kept = _select_topk(scores, np.array(counts), ratio, seen.margin)
            ref_idx, ref_kept, ref_margins = reference_topk(scores, counts, ratio)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(kept, ref_kept)
        assert np.array_equal(_select_topk(scores, counts, ratio, None)[0], ref_idx)
        if np.all(np.isfinite(scores)):
            assert seen == ref_margins

    @pytest.mark.parametrize("ratio,counts", [(1.0, [3, 1, 4]), (0.2, [1, 1, 1]), (0.9, [5, 2])])
    def test_every_row_kept_with_and_without_probe(self, ratio, counts):
        scores = np.round(np.random.default_rng(0).standard_normal(sum(counts)), 1)
        seen = Margins()
        ref_idx, ref_kept, ref_margins = reference_topk(scores, counts, ratio)
        for margin in (seen.margin, None):
            idx, kept = _select_topk(scores, np.array(counts), ratio, margin)
            assert np.array_equal(idx, ref_idx) and np.array_equal(kept, ref_kept)
        assert seen == ref_margins


class TestReadout:
    def test_hand_example(self):
        tape = Tape()
        out = tape.segment_readout(var(tape, [[1.0, 2.0], [3.0, 0.0]]), [2])
        assert np.array_equal(out.value, [[2.0, 1.0, 3.0, 2.0]])

    def test_single_node(self):
        tape = Tape()
        out = tape.segment_readout(var(tape, [[1.5, -2.0]]), [1])
        assert np.array_equal(out.value, [[1.5, -2.0, 1.5, -2.0]])

    def test_identical_rows(self):
        tape = Tape()
        row = np.array([0.5, 2.5, -1.0])
        out = tape.segment_readout(var(tape, np.tile(row, (4, 1))), [4])
        assert np.array_equal(out.value, np.concatenate([row, row])[None, :])

    def test_rejects_empty(self):
        tape = Tape()
        with pytest.raises(ValueError):
            tape.segment_readout(var(tape, np.zeros((0, 3))), [0])


def summed_readouts(tape, blocks):
    """Readouts of one-row inputs, each added into the sum of the ones before."""
    summary = None
    for x in blocks:
        summary = tape.segment_readout(var(tape, x), [len(x)], summary)
    return summary


class TestAggregateSummaries:
    def test_zero_inputs_sum_to_zero(self):
        zeros = [np.zeros((1, 2)) for _ in range(3)]
        assert np.array_equal(summed_readouts(Tape(), zeros).value, np.zeros((1, 4)))

    def test_elementwise_sum(self):
        blocks = [[[1.0, 1.0]], [[2.0, 2.0]], [[3.0, 3.0]]]
        assert np.array_equal(summed_readouts(Tape(), blocks).value, [[6.0, 6.0, 6.0, 6.0]])

    def test_single_block_is_identity(self):
        tape = Tape()
        x = np.array([[0.5, -1.0], [1.5, -3.0]])
        expected = tape.segment_readout(var(tape, x), [2]).value
        assert np.array_equal(summed_readouts(tape, [x]).value, expected)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="summary of shape"):
            summed_readouts(Tape(), [np.zeros((1, 2)), np.zeros((1, 3))])

    def test_sum_matches_adding_the_readouts_in_block_order(self):
        # the running sum is r0 + r1 + r2, added left to right in one buffer
        rng = np.random.default_rng(7)
        blocks = [rng.standard_normal((3, 4)) for _ in range(3)]
        tape = Tape()
        r = [tape.segment_readout(var(tape, x), [3]).value for x in blocks]
        out = summed_readouts(tape, blocks)
        assert out.value.tobytes() == ((r[0] + r[1]) + r[2]).tobytes()


class MarginTracker(MemoryTracker):
    """A tracker hook that also keeps the smallest value of each margin."""

    def __init__(self):
        super().__init__()
        self.margins = Margins()

    def margin(self, key, value):
        self.margins.margin(key, value)


class TestTapeHook:
    """One hook on the tape: ``note`` always, ``margin`` only if it has one."""

    @staticmethod
    def train_pass(batch, model, hook):
        tape = Tape(tracker=hook)
        logits = model_forward(tape, batch, model)
        tape.backward(tape.softmax_xent(logits, batch.labels))
        grads = [p.grad.copy() for p in model.parameters()]
        for p in model.parameters():
            p.grad[...] = 0.0
        return logits.value, grads

    @pytest.mark.parametrize("seed", range(3))
    def test_a_note_only_hook_runs_forward_and_backward(self, seed):
        batch, model = stable_instance(seed)
        logits, grads = self.train_pass(batch, model, None)
        tracker, both, margins = MemoryTracker(), MarginTracker(), Margins()
        for hook in (tracker, both, margins):
            got_logits, got_grads = self.train_pass(batch, model, hook)
            assert got_logits.tobytes() == logits.tobytes()
            assert all(g.tobytes() == h.tobytes() for g, h in zip(got_grads, grads))
        assert tracker.peak > 0
        # the margins are what a margin-only hook sees, and cost no tracked byte
        assert {"relu_margin", "rowmax_gap", "score_min_gap"} <= set(margins)
        assert both.margins == margins
        assert (both.peak, both.total_allocated) == (tracker.peak, tracker.total_allocated)


class TestModelForward:
    def test_single_node_graph_degenerates(self):
        batch = batch_graphs([LabeledGraph(from_edge_list(1, []), np.array([[1.0, 2.0]]), 0)])
        model = build_model(2, 4, 3, pool_ratio=0.8, seed=0)
        logits = model_forward(Tape(), batch, model)
        assert logits.value.shape == (1, 3)
        assert np.all(np.isfinite(logits.value))

    @pytest.mark.parametrize("seed", range(20))
    def test_permutation_invariance(self, seed):
        batch, model = stable_instance(seed, hidden=5, num_classes=2)
        base = model_forward(Tape(), batch, model).value
        rng = np.random.default_rng(seed + 10_000)
        graph = batch.graph
        sigma = rng.permutation(graph.num_nodes)
        pg, px = permute_graph(graph, batch.features, sigma)
        pbatch = batch_graphs([LabeledGraph(pg, px, int(batch.labels[0]))])
        permuted = model_forward(Tape(), pbatch, model).value
        assert np.max(np.abs(permuted - base)) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_batching_equivalence_is_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        graphs = []
        for _ in range(int(rng.integers(2, 5))):
            n = int(rng.integers(1, 9))
            graphs.append(
                LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 4)), int(rng.integers(2)))
            )
        model = build_model(4, 6, 2, pool_ratio=0.7, seed=seed)
        stacked = model_forward(Tape(), batch_graphs(graphs), model).value
        single = np.concatenate(
            [model_forward(Tape(), batch_graphs([g]), model).value for g in graphs]
        )
        assert np.array_equal(stacked, single)

    @given(
        kinds=st.lists(st.booleans(), min_size=1, max_size=4).map(lambda k: [True] + k),
        order=st.randoms(use_true_random=False),
        width=st.integers(2, 9),
        seed=st.integers(0, 10_000),
    )
    def test_mixed_dense_and_sparse_batches_are_bit_identical(self, kinds, order, width, seed):
        # dense graphs (20-60 nodes, edge density >= 0.6) take the BLAS path,
        # sparse ones the CSR product; logits equal per-graph runs, and the
        # parameter gradients equal those of a pass whose every aggregation
        # is done graph by graph
        rng = np.random.default_rng(seed)
        order.shuffle(kinds)
        graphs = []
        for dense in kinds:
            if dense:
                n = int(rng.integers(20, 61))
                m = int(np.ceil(rng.uniform(0.6, 1.0) * n * (n - 1) / 2))
                g = erdos_renyi(n, m, int(rng.integers(2**31)))
            else:
                n = int(rng.integers(1, 20))
                g = random_graph(rng, n, 0.15)
            graphs.append(LabeledGraph(g, rng.standard_normal((n, width)), int(rng.integers(3))))
        batch = batch_graphs(graphs)
        assert _dense_pieces(batch.graph)[1].any()
        model = build_model(width, 6, 3, pool_ratio=0.7, seed=seed)

        single = [model_forward(Tape(), batch_graphs([g]), model).value for g in graphs]
        logits, grads = self.logits_and_gradients(batch, model)
        assert logits.tobytes() == np.concatenate(single).tobytes()

        segments_of = {}  # id(graph) -> per-graph node counts, seen by each conv
        real_mpconv, real_sum = Tape.mpconv, graphs_module.neighbor_sum

        def mpconv(self, graph, x, theta, theta_skip, segments):
            segments_of[id(graph)] = segments
            return real_mpconv(self, graph, x, theta, theta_skip, segments)

        def per_graph_sum(graph, x):
            bounds = np.concatenate([[0], np.cumsum(segments_of[id(graph)])])
            return np.concatenate([
                real_sum(induced_subgraph(graph, np.arange(a, b)), x[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Tape, "mpconv", mpconv)
            mp.setattr(graphs_module, "neighbor_sum", per_graph_sum)
            ref_logits, ref_grads = self.logits_and_gradients(batch, model)
        assert len(segments_of) == len(model.blocks)
        assert ref_logits.tobytes() == logits.tobytes()
        for got, want in zip(grads, ref_grads):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def logits_and_gradients(batch, model):
        tape = Tape()
        logits = model_forward(tape, batch, model)
        tape.backward(tape.softmax_xent(logits, batch.labels))
        grads = [p.grad.copy() for p in model.parameters()]
        for p in model.parameters():
            p.grad[...] = 0.0
        return logits.value, grads

    def test_forward_only_tape_matches_and_holds_less(self):
        rng = np.random.default_rng(0)
        graphs = [
            LabeledGraph(random_graph(rng, n, 0.2), rng.standard_normal((n, 8)), n % 2)
            for n in (30, 45, 60)
        ]
        batch = batch_graphs(graphs)
        model = build_model(8, 16, 2, pool_ratio=0.8, seed=0)
        peaks, logits = [], []
        for record in (True, False):
            tracker = MemoryTracker()
            logits.append(model_forward(Tape(tracker=tracker, record=record), batch, model).value)
            peaks.append(tracker.peak)
        assert np.array_equal(logits[0], logits[1])
        assert peaks[1] < peaks[0]

    @pytest.mark.parametrize("record", [True, False])
    # post-pool is the model's one readout position; the id keeps the case's name
    @pytest.mark.parametrize("position", ["post_pool"])
    def test_panels_are_dropped_after_their_last_reader(self, monkeypatch, record, position):
        # a pool output is dead once the next conv has read it; on a
        # forward-only tape a conv output is dead once it has been pooled
        rng = np.random.default_rng(3)
        batch = batch_graphs([
            LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 4)), 0) for n in (9, 7)
        ])
        model = build_model(4, 6, 2, pool_ratio=0.8, seed=1)
        pooled, convolved, live = [], [], []
        real_mpconv, real_topk_gate = Tape.mpconv, Tape.topk_gate

        def mpconv(tape, *args):
            out = real_mpconv(tape, *args)
            live.append(("conv", [ref() is not None for ref in convolved]))
            convolved.append(weakref.ref(out.value))
            return out

        def topk_gate(tape, *args):
            out, idx, kept = real_topk_gate(tape, *args)
            live.append(("pool", [ref() is not None for ref in pooled]))
            pooled.append(weakref.ref(out.value))
            return out, idx, kept

        monkeypatch.setattr(Tape, "mpconv", mpconv)
        monkeypatch.setattr(Tape, "topk_gate", topk_gate)
        model_forward(Tape(record=record), batch, model)
        assert [kind for kind, _ in live] == ["conv", "pool"] * 3
        assert all(not any(alive) for kind, alive in live if kind == "pool")
        if not record:
            assert all(not any(alive) for kind, alive in live if kind == "conv")

    # post-pool is the model's one readout position; the id keeps the case's name
    @pytest.mark.parametrize("position", ["post_pool"])
    def test_ratio_one_pools_onto_the_same_graph(self, monkeypatch, position):
        # every node kept: each level's graph is the input graph itself, its
        # CSR is noted once, and the logits equal those of rebuilt copies;
        # the graph after the last pool is read by nothing, so it is not sliced
        from sparsepool import layers
        from sparsepool.graphs import SparseGraph, induced_subgraph

        rng = np.random.default_rng(8)
        batch = batch_graphs([
            LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 3)), n % 2)
            for n in (6, 9, 4)
        ])
        model = build_model(3, 5, 2, pool_ratio=1.0, seed=2)
        subgraphs = []

        def spy(graph, keep):
            sub = induced_subgraph(graph, keep)
            subgraphs.append((graph, sub))
            return sub

        monkeypatch.setattr(layers, "induced_subgraph", spy)
        tracker = MemoryTracker()
        logits = model_forward(Tape(tracker=tracker), batch, model).value
        assert [sub is graph for graph, sub in subgraphs] == [True, True]
        assert "graph/csr" not in dict(tracker.peak_breakdown())

        def rebuilt(graph, keep):
            return SparseGraph(graph.num_nodes, graph.row_offsets.copy(),
                               graph.col_indices.copy())

        monkeypatch.setattr(layers, "induced_subgraph", rebuilt)
        assert model_forward(Tape(), batch, model).value.tobytes() == logits.tobytes()

    # post-pool is the model's one readout position; the id keeps the case's name
    @pytest.mark.parametrize("position", ["post_pool"])
    def test_tape_records_do_not_grow_with_batch_size(self, position):
        rng = np.random.default_rng(6)
        graphs = [
            LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 3)), 0)
            for n in (5, 9, 2, 7, 11, 4, 6, 8)
        ]
        model = build_model(3, 4, 2, pool_ratio=0.6, seed=0)
        records = []
        for size in (1, 2, 8):
            tape = Tape()
            model_forward(tape, batch_graphs(graphs[:size]), model)
            records.append(len(tape._nodes))
        assert records[0] == records[1] == records[2]

    # post-pool is the model's one readout position; the id keeps the case's name
    @pytest.mark.parametrize("position,records", [("post_pool", 11)])
    def test_a_training_pass_has_one_record_per_stage(self, position, records):
        # per block one conv, one pool and one readout record, then the head
        # and the loss
        rng = np.random.default_rng(3)
        graphs = [
            LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 3)), n % 2)
            for n in (5, 9, 7)
        ]
        batch = batch_graphs(graphs)
        model = build_model(3, 4, 2, pool_ratio=0.6, seed=0)
        tape = Tape()
        tape.softmax_xent(model_forward(tape, batch, model), batch.labels)
        assert len(tape._nodes) == records

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_nesting_and_exact_pool_sizes(self, seed):
        from sparsepool.layers import _pooled_graph, _topk_pool_segments

        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 15))
        graph = random_graph(rng, n)
        x = rng.standard_normal((n, 3))
        model = build_model(3, 4, 2, pool_ratio=0.6, seed=seed)
        tape = Tape()
        xv = tape.leaf(x)
        counts = np.array([n])
        g = graph
        sizes = [n]
        for theta, theta_skip, p in model.blocks:
            h = tape.mpconv(g, xv, tape.param(theta), tape.param(theta_skip), counts)
            xv, idx, counts = _topk_pool_segments(tape, h, p, model.pool_ratio, counts)
            g = _pooled_graph(tape, g, idx)
            assert counts[0] == kept_count(sizes[-1], 0.6)
            assert idx.size == counts[0]
            assert idx.max() < sizes[-1]  # indices reference the previous level
            sizes.append(int(counts[0]))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_rejects_feature_dim_mismatch(self):
        # block 0's conv checks the width; the layers add no check of their own
        model = build_model(3, 4, 2, seed=0)
        for features in (np.zeros((3, 5)), LabelCodes(np.array([0, 4, 1]), 5)):
            batch = batch_graphs([LabeledGraph(from_edge_list(3, [(0, 1)]), features, 0)])
            for forward in (forward_summaries, model_forward):
                with pytest.raises(ValueError, match="mpconv shape mismatch"):
                    forward(Tape(), batch, model)

    def test_summaries_have_double_hidden_width(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6)
        batch = batch_graphs([LabeledGraph(g, rng.standard_normal((6, 3)), 0)] * 3)
        model = build_model(3, 5, 2, seed=3)
        s = forward_summaries(Tape(), batch, model)
        assert s.value.shape == (3, 10)

    @pytest.mark.parametrize("seed", range(3))
    def test_full_model_gradients(self, seed):
        batch, model = stable_instance(seed + 500, hidden=5, num_classes=2)
        worst = 0.0
        for p in model.parameters():
            worst = max(worst, finite_diff_check(model_loss_fn(batch, model, p), p.value.copy()))
        assert worst < 1e-4

    def test_state_round_trip(self, tmp_path):
        from sparsepool.engine import load_parameters, save_parameters

        rng = np.random.default_rng(1)
        g = random_graph(rng, 6)
        batch = batch_graphs([LabeledGraph(g, rng.standard_normal((6, 3)), 0)])
        model = build_model(3, 4, 2, seed=7)
        before = model_forward(Tape(), batch, model).value
        save_parameters(model.parameters(), tmp_path / "m.params")
        clone = build_model(3, 4, 2, seed=8)
        clone.load_state(load_parameters(tmp_path / "m.params"))
        after = model_forward(Tape(), batch, clone).value
        assert np.array_equal(before, after)

    def test_load_state_rejects_mismatch(self, tmp_path):
        from sparsepool.engine import load_parameters, save_parameters

        model = build_model(3, 4, 2, seed=0)
        save_parameters(model.parameters(), tmp_path / "m.params")
        other = build_model(3, 5, 2, seed=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            other.load_state(load_parameters(tmp_path / "m.params"))


class TestModelValidation:
    @staticmethod
    def block(fin, fout, p_len=None):
        return (Parameter("t", np.zeros((fin, fout))), Parameter("s", np.zeros((fin, fout))),
                Parameter("p", np.zeros(fout if p_len is None else p_len)))

    def test_rejects_mixed_hidden_widths(self):
        head = build_model(3, 4, 2, seed=0).head
        with pytest.raises(ValueError, match="hidden width"):
            HierarchicalModel([self.block(3, 4), self.block(4, 5)], head, 0.8)

    def test_rejects_theta_and_skip_of_different_shapes(self):
        theta, _, p = self.block(3, 4)
        skip = Parameter("s", np.zeros((3, 5)))
        head = build_model(3, 4, 2, seed=0).head
        with pytest.raises(ValueError, match="theta and theta_skip must share one shape"):
            HierarchicalModel([(theta, skip, p)], head, 0.8)

    @pytest.mark.parametrize("p_len", [3, 5])
    def test_rejects_a_pool_vector_off_the_hidden_width(self, p_len):
        head = build_model(3, 4, 2, seed=0).head
        with pytest.raises(ValueError, match="pool projection length"):
            HierarchicalModel([self.block(3, 4, p_len)], head, 0.8)

    def test_rejects_no_blocks(self):
        head = build_model(3, 4, 2, seed=0).head
        with pytest.raises(ValueError, match="at least one conv-pool block"):
            HierarchicalModel([], head, 0.8)

    def test_rejects_bad_ratio(self):
        for ratio in (0.0, 1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match="pool ratio must be in"):
                build_model(3, 4, 2, pool_ratio=ratio, seed=0)

    def test_parameter_order(self):
        # a parameter file's bytes follow this order
        assert [p.name for p in build_model(3, 4, 2, seed=0).parameters()] == [
            "block0.theta", "block0.theta_skip", "block0.p",
            "block1.theta", "block1.theta_skip", "block1.p",
            "block2.theta", "block2.theta_skip", "block2.p",
            "head.w1", "head.b1", "head.w2", "head.b2",
        ]
