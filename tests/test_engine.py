"""Engine tests: per-primitive gradients, Adam, init, serialization."""
from __future__ import annotations

import inspect
import itertools
import math
import os
import platform
import struct
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsepool
from conftest import Margins
from sparsepool import engine
from sparsepool.engine import (
    NonFiniteGradientError,
    Parameter,
    Tape,
    adam_step,
    finite_diff_check,
    glorot_init,
    load_parameters,
    save_parameters,
)
from sparsepool.engine import _MAGIC, _segmented_matmul
from sparsepool.graphs import LabelCodes, from_edge_list
from sparsepool.layers import _select_topk

PRIMITIVE_TOL = 1e-6


def header(count, version=1):
    return _MAGIC + struct.pack("<II", version, count)


def record(name: bytes, dims, data=b""):
    """One parameter record as ``save_parameters`` lays it out."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + data)


VALID_PARAMETER_FILE = (
    header(2) + record(b"w", (2, 3), b"\x3f" * 48) + record(b"b", (3,), b"\0" * 24)
)


@st.composite
def garbage_parameter_files(draw):
    """(kind, bytes): random blobs, byte-flipped valid files, bad magic, and
    valid headers with absurd counts, ranks, dimensions or non-UTF-8 names."""
    kind = draw(st.sampled_from(["blob", "flipped", "magic", "header"]))
    if kind == "blob":
        return kind, draw(st.binary(max_size=120))
    if kind == "flipped":
        blob = bytearray(VALID_PARAMETER_FILE)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(blob) - 1))
            blob[at] ^= draw(st.integers(1, 255))
        return kind, bytes(blob)
    if kind == "magic":
        magic = draw(st.binary(min_size=8, max_size=8).filter(lambda m: m != _MAGIC))
        return kind, magic + VALID_PARAMETER_FILE[8:]
    u32 = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))
    u64 = st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1))
    name = st.one_of(st.binary(max_size=6), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    body = b""
    for _ in range(draw(st.integers(0, 3))):
        choice = draw(st.integers(0, 2))
        if choice == 0:  # a name length with no name behind it
            body += struct.pack("<I", draw(u32))
            break
        n = draw(name)
        if choice == 1:  # a rank with too few dimensions behind it
            body += struct.pack("<I", len(n)) + n + struct.pack("<I", draw(u32))
            break
        dims = draw(st.lists(u64, max_size=4))
        body += record(n, dims, draw(st.binary(max_size=40)))
    return kind, header(draw(u32), draw(st.sampled_from([1, 1, 0, 2, 2**32 - 1]))) + body


def leaf_fn(build):
    """Wrap a tape-building function into the (value, grad) form
    finite_diff_check expects; ``build(tape, var)`` must return a scalar Var."""

    def fn(x):
        tape = Tape()
        var = tape.leaf(x, needs_grad=True)
        loss = build(tape, var)
        tape.backward(loss)
        return float(loss.value), var.slot.grad

    return fn


def check_primitive(build, x, tol=PRIMITIVE_TOL, h=1e-5):
    err = finite_diff_check(leaf_fn(build), x, h=h)
    assert err < tol, f"gradient mismatch: {err}"


def keep_rows(idx):
    """A ``topk_gate`` selector that keeps fixed rows, whatever the scores;
    ``topk_gate`` hands the kept count back unread."""
    idx = np.asarray(idx, dtype=np.int64)
    return lambda scores, margin: (idx, np.array([idx.size]))


def gated(t, x, p, idx=None, counts=None):
    """``topk_gate`` output keeping rows ``idx`` (all rows by default)."""
    n = x.value.shape[0]
    idx = np.arange(n) if idx is None else idx
    return t.topk_gate(x, p, [n] if counts is None else counts, keep_rows(idx))[0]


def softmax_upstream(logits, labels):
    """d(mean softmax cross-entropy)/d(logits)."""
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return (probs - np.eye(logits.shape[1])[labels]) / len(labels)


def mean_aggregation_matrix(graph):
    """Dense D^-1 (A + I), the oracle of mean aggregation."""
    a_hat = graph.to_dense() + np.eye(graph.num_nodes)
    return a_hat / a_hat.sum(axis=1, keepdims=True)


# (F_in, F_out): aggregate first, theta first with a wide input, square theta
CONV_ORDERS = [(2, 5), (5, 3), (4, 4)]

# the kept rows of a 7-row input holding graphs of [3, 1, 3] rows, and the
# edges of the pooled graph on them
POOL_CASES = {
    "every": (np.arange(7), [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)]),
    "dropped": (np.array([0, 2, 3, 4, 6]), [(0, 1), (3, 4)]),
}
POOL_COUNTS = [3, 1, 3]


def two_row_blocks(width):
    """Rebuild a pooled input of this width two rows at a time, so block
    boundaries fall inside graphs."""
    return patch.object(engine, "_ROW_BLOCK", 2 * width)


class TestPrimitiveGradients:
    """Every primitive's backward matches central finite differences.

    ``topk_gate`` runs the steps of a pool block in one record; the tests
    named after those steps (``vecdot`` for the segmented scores,
    ``div_by_norm`` for the norm, ``tanh`` for the gate, ``gate_rows`` for
    the gathered rows) check it through each of them. ``spmm_mean`` names
    the aggregation inside ``mpconv``. Likewise ``matmul``, ``add`` and
    ``relu`` name the steps of ``mlp_head``, and ``sum_tensors`` the running
    summary that ``segment_readout`` adds into.
    """

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def weights(self, *shape):
        # keep magnitudes O(1) and away from relu/max switch points
        return self.rng.uniform(0.2, 1.0, size=shape) * self.rng.choice([-1, 1], size=shape)

    def head_case(self, rows=2):
        """(s, w1, b1, w2, b2) of a 4 -> 3 -> 3 head on ``rows`` summaries.

        Summaries in quarters, first-layer weights in halves and biases of
        +-1/16 put every hidden pre-activation on an odd multiple of 1/16, at
        least 1/16 from the ReLU kink, with units on both sides of it.
        """
        s = np.resize([[0.5, -0.25, 0.75, 1.0], [-0.5, 1.0, 0.25, -0.75]], (rows, 4))
        w1 = np.array([[0.5, -0.5, 1.0], [0.5, 1.0, -0.5], [-1.0, 0.5, 0.5], [0.5, 1.0, 0.5]])
        b1 = np.array([[0.0625, -0.0625, 0.0625]])
        return s, w1, b1, self.weights(3, 3), self.weights(1, 3)

    def head(self, t, arrays, v, i, labels=(1, 0)):
        """Loss of ``mlp_head`` with input ``i`` replaced by ``v``."""
        s, w1, b1, w2, b2 = (v if j == i else t.leaf(a) for j, a in enumerate(arrays))
        return t.softmax_xent(t.mlp_head(s, w1, b1, w2, b2), list(labels))

    def test_matmul_left(self):
        # the summaries, the left operand of the first product
        arrays = self.head_case()
        check_primitive(lambda t, v: self.head(t, arrays, v, 0), arrays[0].copy())

    def test_matmul_right(self):
        # the weights, the right operands of both products
        arrays = self.head_case()
        for i in (1, 3):
            check_primitive(lambda t, v: self.head(t, arrays, v, i), arrays[i].copy())

    def test_add(self):
        # one summary row: each bias has the shape of the row it is added to
        arrays = self.head_case(rows=1)
        for i in (2, 4):
            check_primitive(lambda t, v: self.head(t, arrays, v, i, [2]), arrays[i].copy())

    def test_add_broadcast_bias(self):
        arrays = self.head_case(rows=3)
        for i in (2, 4):
            check_primitive(lambda t, v: self.head(t, arrays, v, i, [0, 2, 1]), arrays[i].copy())

    def test_relu(self):
        # the hidden layer has units on both sides of the kink
        s, w1, b1, w2, b2 = self.head_case()
        pre = s @ w1 + b1
        assert (pre > 0).any() and (pre < 0).any()
        check_primitive(lambda t, v: self.head(t, (s, w1, b1, w2, b2), v, 2), b1.copy())

    def test_relu_passes_zero_below_kink(self):
        tape = Tape()
        w1 = tape.leaf(np.array([[-1.0, 2.0]]), needs_grad=True)
        b1 = tape.leaf(np.zeros((1, 2)), needs_grad=True)
        w2, b2 = tape.leaf(np.array([[1.0, -1.0], [0.5, 2.0]])), tape.leaf(np.zeros((1, 2)))
        loss = tape.softmax_xent(tape.mlp_head(tape.leaf([[1.0]]), w1, b1, w2, b2), [0])
        tape.backward(loss)
        for grad in (w1.slot.grad, b1.slot.grad):
            assert grad[0, 0] == 0.0
            assert grad[0, 1] != 0.0

    def test_mlp_head_matches_dense_oracle(self):
        s, w1, b1, w2, b2 = self.head_case(rows=5)
        labels = [1, 0, 2, 2, 0]
        tape = Tape()
        vs = [tape.leaf(a, needs_grad=True) for a in (s, w1, b1, w2, b2)]
        out = tape.mlp_head(*vs)
        pre = s @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        close = dict(rtol=0.0, atol=1e-14)
        assert np.allclose(out.value, hidden @ w2 + b2, **close)
        tape.backward(tape.softmax_xent(out, labels))
        up = softmax_upstream(out.value, labels)
        d_pre = (up @ w2.T) * (pre > 0.0)
        expected = (d_pre @ w1.T, s.T @ d_pre, d_pre.sum(axis=0, keepdims=True),
                    hidden.T @ up, up.sum(axis=0, keepdims=True))
        for v, grad in zip(vs, expected):
            assert np.allclose(v.slot.grad, grad, **close)

    def test_tanh(self):
        # scores of magnitude 1.5-3 sit on tanh's flat shoulders
        x = 3.0 * self.weights(4, 2)
        check_primitive(
            lambda t, v: t.softmax_xent(gated(t, t.leaf(x), v), [1, 0, 1, 0]),
            np.array([0.9, -0.7]),
        )

    def test_gate_rows_both_inputs(self):
        p = self.weights(2)
        check_primitive(
            lambda t, v: t.softmax_xent(gated(t, v, t.leaf(p)), [1, 0, 1]),
            self.weights(3, 2),
        )
        feats = self.weights(3, 2)
        check_primitive(
            lambda t, v: t.softmax_xent(gated(t, t.leaf(feats), v), [1, 0, 1]),
            self.weights(2),
        )

    def conv_case(self, f_in, f_out):
        graph = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        return graph, self.weights(5, f_in), self.weights(f_in, f_out), self.weights(f_in, f_out)

    def test_mpconv_each_input_in_both_orders(self):
        for f_in, f_out in CONV_ORDERS:
            graph, x, theta, skip = self.conv_case(f_in, f_out)
            labels = np.arange(5) % f_out

            def conv(t, xv, tv, sv):
                return t.softmax_xent(t.mpconv(graph, xv, tv, sv, [5]), labels)

            check_primitive(lambda t, v: conv(t, v, t.leaf(theta), t.leaf(skip)), x.copy())
            check_primitive(lambda t, v: conv(t, t.leaf(x), v, t.leaf(skip)), theta.copy())
            check_primitive(lambda t, v: conv(t, t.leaf(x), t.leaf(theta), v), skip.copy())

    def test_mpconv_matches_dense_oracle(self):
        for f_in, f_out in CONV_ORDERS:
            graph, x, theta, skip = self.conv_case(f_in, f_out)
            labels = np.arange(5) % f_out
            tape = Tape()
            xv, tv, sv = (tape.leaf(a, needs_grad=True) for a in (x, theta, skip))
            out = tape.mpconv(graph, xv, tv, sv, [5])
            mean = mean_aggregation_matrix(graph)
            pre = mean @ x @ theta + x @ skip
            assert np.allclose(out.value, np.maximum(pre, 0.0), rtol=0.0, atol=1e-14)
            tape.backward(tape.softmax_xent(out, labels))
            up = softmax_upstream(np.maximum(pre, 0.0), labels) * (pre > 0.0)
            close = dict(rtol=0.0, atol=1e-14)
            assert np.allclose(sv.slot.grad, x.T @ up, **close)
            assert np.allclose(tv.slot.grad, (mean @ x).T @ up, **close)
            assert np.allclose(xv.slot.grad, up @ skip.T + mean.T @ up @ theta.T, **close)

    def pool_conv_case(self, f_in, f_out, name):
        """Kept rows, pooled graph, kept counts and (X, p, theta, theta_skip)."""
        idx, edges = POOL_CASES[name]
        kept = np.diff(np.searchsorted(idx, np.cumsum([0] + POOL_COUNTS)))
        arrays = (self.weights(7, f_in), self.weights(f_in),
                  self.weights(f_in, f_out), self.weights(f_in, f_out))
        return idx, from_edge_list(idx.size, edges), kept, arrays

    def test_mpconv_of_a_pooled_input(self):
        # the conv saves no copy of its pooled input and rebuilds it in
        # backward; every input of the pool-conv pair, in both conv orders,
        # with every row kept or some dropped, and with the pool output also
        # read by a readout (its gradient is then added, not handed over)
        cases = itertools.product(CONV_ORDERS, sorted(POOL_CASES), (False, True), range(4))
        for (f_in, f_out), name, readout, i in cases:
            idx, graph, kept, arrays = self.pool_conv_case(f_in, f_out, name)
            head = (self.weights(2 * f_in, 3), self.weights(1, 3),
                    self.weights(3, 2 * f_out), self.weights(1, 2 * f_out))

            def build(t, v):
                # every input needs a gradient, so the pool is recorded
                x, p, theta, skip = (
                    v if j == i else t.leaf(a, needs_grad=True) for j, a in enumerate(arrays)
                )
                pooled = gated(t, x, p, idx, POOL_COUNTS)
                h = t.mpconv(graph, pooled, theta, skip, kept)
                summary = None
                if readout:  # a head maps the pooled readout to the conv's width
                    summary = t.mlp_head(t.segment_readout(pooled, kept), *map(t.leaf, head))
                return t.softmax_xent(t.segment_readout(h, kept, summary), [0, 1, 2])

            with two_row_blocks(f_in):
                check_primitive(build, arrays[i].copy())

    def test_mpconv_of_a_pooled_input_matches_dense_oracle(self):
        for f_in, f_out in CONV_ORDERS:
            for name in POOL_CASES:
                idx, graph, kept, (x, p, theta, skip) = self.pool_conv_case(f_in, f_out, name)
                labels = np.arange(idx.size) % f_out
                tape = Tape()
                xv, pv, tv, sv = (tape.leaf(a, needs_grad=True) for a in (x, p, theta, skip))
                with two_row_blocks(f_in):
                    h = tape.mpconv(graph, gated(tape, xv, pv, idx, POOL_COUNTS), tv, sv, kept)
                    tape.backward(tape.softmax_xent(h, labels))
                # dense oracle: pooled = S diag(tanh(X p / |p|)) X with the 0/1 row selector S
                norm = np.linalg.norm(p)
                gate = np.tanh(x @ p / norm)
                select = np.eye(7)[idx]
                pooled = select @ (x * gate[:, None])
                mean = mean_aggregation_matrix(graph)
                pre = mean @ pooled @ theta + pooled @ skip
                close = dict(rtol=0.0, atol=1e-14)
                assert np.allclose(h.value, np.maximum(pre, 0.0), **close)
                up = softmax_upstream(np.maximum(pre, 0.0), labels) * (pre > 0.0)
                assert np.allclose(sv.slot.grad, pooled.T @ up, **close)
                assert np.allclose(tv.slot.grad, (mean @ pooled).T @ up, **close)
                back = select.T @ (up @ skip.T + mean.T @ up @ theta.T)
                d_score = (back * x).sum(axis=1) * (1.0 - gate**2)
                d_x = gate[:, None] * back + np.outer(d_score, p) / norm
                d_p = x.T @ d_score / norm - (d_score @ (x @ p)) * p / norm**3
                assert np.allclose(xv.slot.grad, d_x, **close)
                assert np.allclose(pv.slot.grad, d_p, **close)

    def test_gate_rows_backward_scatters_to_kept_rows(self):
        tape = Tape()
        v = tape.leaf(np.array([[0.3, 0.4], [0.5, -0.2], [0.7, 0.1]]), needs_grad=True)
        p = tape.leaf(np.array([0.9, -0.6]), needs_grad=True)
        out, idx, _ = tape.topk_gate(v, p, [3], keep_rows([0, 2]))
        tape.backward(tape.softmax_xent(out, [1, 0]))
        assert np.array_equal(idx, [0, 2])
        assert np.all(v.slot.grad[1] == 0.0) and not np.signbit(v.slot.grad[1]).any()
        assert np.all(v.slot.grad[[0, 2]] != 0.0)
        assert np.all(p.slot.grad != 0.0)

    def test_gate_rows_matches_dense_oracle(self):
        counts = [4, 1, 5]
        x = self.rng.standard_normal((10, 3))
        p = self.rng.standard_normal(3)
        labels = [2, 0, 1, 1, 0, 2]
        tape = Tape()
        xv = tape.leaf(x, needs_grad=True)
        pv = tape.leaf(p, needs_grad=True)
        out, idx, kept = tape.topk_gate(
            xv, pv, counts, lambda s, margin: _select_topk(s, counts, 0.5, margin)
        )
        assert np.array_equal(kept, [2, 1, 3]) and idx.size == len(labels)
        norm = np.linalg.norm(p)
        gate = np.tanh(x @ p / norm)
        assert np.allclose(out.value, (x * gate[:, None])[idx], rtol=0.0, atol=1e-15)
        tape.backward(tape.softmax_xent(out, labels))
        # dense oracle: out = S diag(tanh(X p / |p|)) X with the 0/1 row selector S
        select = np.eye(10)[idx]
        back = select.T @ softmax_upstream(out.value, labels)
        d_score = (back * x).sum(axis=1) * (1.0 - gate**2)
        d_x = gate[:, None] * back + np.outer(d_score, p) / norm
        d_p = x.T @ d_score / norm - (d_score @ (x @ p)) * p / norm**3
        assert np.allclose(xv.slot.grad, d_x, rtol=0.0, atol=1e-14)
        assert np.allclose(pv.slot.grad, d_p, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "idx", [[2, 0], [1, 1], [0, 1, 1], [0, 3], [-1, 0], [3]],
        ids=["unsorted", "duplicate", "trailing_duplicate", "past_end", "negative", "only_past_end"],
    )
    def test_gate_rows_rejects_bad_indices(self, idx):
        tape = Tape()
        with pytest.raises(ValueError, match="strictly increasing"):
            tape.topk_gate(tape.leaf(np.ones((3, 2))), tape.leaf(np.ones(2)), [3], keep_rows(idx))

    def test_vecdot(self):
        # segmented scores: three graphs, one row dropped from two of them
        p = self.weights(3)
        idx = [0, 2, 3, 4, 6]
        check_primitive(
            lambda t, v: t.softmax_xent(
                t.segment_readout(gated(t, v, t.leaf(p), idx, [3, 1, 3]), [2, 1, 2]), [1, 0, 3]
            ),
            self.weights(7, 3),
        )

    def test_gate_rows_scatter(self):
        p = self.weights(2)
        check_primitive(
            lambda t, v: t.softmax_xent(gated(t, v, t.leaf(p), [0, 2]), [1, 0]),
            self.weights(4, 2),
        )
        feats = self.weights(4, 2)
        check_primitive(
            lambda t, v: t.softmax_xent(gated(t, t.leaf(feats), v, [1, 3]), [1, 0]),
            self.weights(2),
        )

    def test_segment_readout_single_segment(self):
        check_primitive(
            lambda t, v: t.softmax_xent(t.segment_readout(v, [4]), [1]), self.weights(4, 3)
        )

    def test_segment_readout_several_segments(self):
        check_primitive(
            lambda t, v: t.softmax_xent(t.segment_readout(v, [2, 1, 4]), [0, 3, 5]),
            self.weights(7, 3),
        )

    def test_segment_readout_routes_to_first_argmax(self):
        tape = Tape()
        v = tape.leaf(np.array([[2.0], [2.0], [1.0], [3.0], [3.0]]), needs_grad=True)
        tape.backward(tape.softmax_xent(tape.segment_readout(v, [3, 2]), [0, 0]))
        grad = v.slot.grad.ravel()
        mean_part = grad[2]  # row 2 gets only the mean share of segment 0
        assert grad[0] != mean_part and grad[1] == mean_part
        assert grad[3] != grad[4]

    def test_segment_readout_matches_dense_oracle(self):
        counts = [3, 1, 5, 2]
        x = self.rng.standard_normal((11, 4))
        x[1, 2] = x[0, 2]  # a tie inside a segment
        seen = Margins()
        tape = Tape(tracker=seen)
        out = tape.segment_readout(tape.leaf(x), counts).value
        bounds = np.cumsum([0] + counts)
        gaps = []
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert np.array_equal(out[i, :4], np.mean(x[lo:hi], axis=0))
            assert np.array_equal(out[i, 4:], np.max(x[lo:hi], axis=0))
            if hi - lo > 1:
                ranked = -np.sort(-x[lo:hi], axis=0)
                gaps.append(np.min(ranked[0] - ranked[1]))
        assert seen["rowmax_gap"] == min(gaps)

    @pytest.mark.parametrize("counts", [[], [0, 3], [2, 0, 1], [2, 2], [1, 1, 2], [-1, 4]])
    def test_segment_readout_rejects_counts_that_do_not_tile(self, counts):
        tape = Tape()
        with pytest.raises(ValueError, match="segment"):
            tape.segment_readout(tape.leaf(np.ones((3, 2))), counts)

    def test_sum_tensors(self):
        # the same input read as the summary's source and as the input, and
        # a constant input in between
        b = self.weights(4, 3)

        def build(t, v):
            summary = t.segment_readout(t.leaf(b), [1, 3], t.segment_readout(v, [2, 2]))
            return t.softmax_xent(t.segment_readout(v, [3, 1], summary), [0, 5])

        check_primitive(build, self.weights(4, 3))

    def test_div_by_norm_wrt_vector(self):
        x = self.weights(5, 3)
        check_primitive(
            lambda t, v: t.softmax_xent(t.segment_readout(gated(t, t.leaf(x), v, [0, 1, 3]), [3]), [2]),
            self.weights(3),
        )

    def test_div_by_norm_wrt_numerator(self):
        # X feeds the scores, the gated rows and a second consumer
        p = self.weights(4)

        def build(t, v):
            pooled = t.segment_readout(gated(t, v, t.leaf(p), [1, 2]), [2])
            return t.softmax_xent(t.segment_readout(v, [3], pooled), [1])

        check_primitive(build, self.weights(3, 4))

    def test_div_by_norm_guard_treats_norm_as_constant(self):
        # |p| < 1e-12: the norm is the guard itself, a constant, for p and
        # for steps of 1e-17 around it
        x = self.weights(4, 3)
        p = 4e-13 * np.array([0.8, -0.5, 0.6])
        tape = Tape()
        out = gated(tape, tape.leaf(x), tape.leaf(p))
        assert np.array_equal(out.value, x * np.tanh(x @ p / 1e-12)[:, None])

        def build(t, v):
            return t.softmax_xent(gated(t, t.leaf(x), v, [0, 2, 3]), [2, 0, 1])

        check_primitive(build, p.copy(), h=1e-17)
        check_primitive(
            lambda t, v: t.softmax_xent(gated(t, v, t.leaf(p), [0, 2, 3]), [2, 0, 1]),
            x.copy(),
        )

    def test_spmm_mean(self):
        # the aggregate-first order: mean_aggregate(X) @ theta
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        theta, skip = self.weights(3, 5), self.weights(3, 5)

        def build(t, v):
            h = t.mpconv(g, v, t.leaf(theta), t.leaf(skip), [4])
            return t.softmax_xent(t.segment_readout(h, [4]), [1])

        check_primitive(build, self.weights(4, 3))

    def test_softmax_xent_uniform_is_log2(self):
        tape = Tape()
        loss = tape.softmax_xent(tape.leaf(np.array([[0.0, 0.0]])), [0])
        assert abs(float(loss.value) - math.log(2.0)) < 1e-15

    def test_softmax_xent_gradient(self):
        check_primitive(
            lambda t, v: t.softmax_xent(v, [1, 0, 2]), self.weights(3, 4), tol=1e-7
        )

    def test_softmax_xent_rejects_bad_label(self):
        tape = Tape()
        with pytest.raises(ValueError, match="label"):
            tape.softmax_xent(tape.leaf(np.zeros((1, 3))), [3])

    def test_shape_mismatches_raise(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        head = [np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((4, 2)), np.zeros((1, 2))]
        for i, bad in enumerate([np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((3, 2)),
                                 np.zeros(2)]):
            with pytest.raises(ValueError, match="mlp_head shape mismatch"):
                tape.mlp_head(a, *(tape.leaf(bad if j == i else w) for j, w in enumerate(head)))
        with pytest.raises(ValueError, match="mlp_head shape mismatch"):
            tape.mlp_head(tape.leaf(np.zeros(3)), *(tape.leaf(w) for w in head))
        with pytest.raises(ValueError, match=r"summary of shape \(1, 6\), expected \(2, 6\)"):
            tape.segment_readout(a, [1, 1], tape.leaf(np.zeros((1, 6))))
        with pytest.raises(ValueError):
            tape.topk_gate(a, tape.leaf(np.zeros(4)), [2], keep_rows([0]))
        graph = from_edge_list(2, [(0, 1)])
        with pytest.raises(ValueError):
            tape.mpconv(graph, a, tape.leaf(np.zeros((3, 2))), tape.leaf(np.zeros((3, 3))), [2])
        with pytest.raises(ValueError):
            tape.mpconv(graph, a, tape.leaf(np.zeros((2, 2))), tape.leaf(np.zeros((2, 2))), [2])
        with pytest.raises(ValueError, match="logits must be 2-D"):
            tape.softmax_xent(tape.leaf(np.zeros(3)), [0])
        with pytest.raises(ValueError, match="segments sum"):
            tape.topk_gate(a, tape.leaf(np.ones(3)), [1], keep_rows([0]))

    def test_multiple_consumers_accumulate(self):
        # v is read by three readouts, each adding into the one before
        def build(t, v):
            summary = t.segment_readout(v, [1, 2], t.segment_readout(v, [2, 1]))
            return t.softmax_xent(t.segment_readout(v, [1, 2], summary), [1, 4])

        check_primitive(build, self.weights(3, 3))


class TestGradientHandOver:
    """Backward rules overwrite or adopt their incoming gradient; an input
    that is also read elsewhere must still get the exact sum. Three readouts
    of one input are covered by ``test_multiple_consumers_accumulate``."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.uniform(0.2, 1.0, size=(4, 3)) * rng.choice([-1, 1], size=(4, 3))
        self.w = rng.uniform(-1.0, 1.0, size=(3, 3))
        self.graph = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 2)])

    def test_sum_tensors_of_one_input_twice_and_another(self):
        # the readout sum reads v twice and a conv output of v once
        def build(t, v):
            summary = t.segment_readout(v, [1, 3], t.segment_readout(v, [2, 2]))
            h = self.conv(t, v, self.w, self.w.T)
            return t.softmax_xent(t.segment_readout(h, [3, 1], summary), [1, 4])

        check_primitive(build, self.x)

    def head(self, t, s):
        """A 3 -> 3 -> 3 head on s, as the model applies it to its summaries."""
        return t.mlp_head(s, t.leaf(self.w), t.leaf(np.full((1, 3), 0.1)),
                          t.leaf(self.w.T), t.leaf(np.zeros((1, 3))))

    def test_mlp_head_input_consumed_twice(self):
        # the head reads its input, and so does a readout whose gradient is
        # then added into the head's
        def build(t, v):
            summary = t.segment_readout(v, [3, 1])
            return t.softmax_xent(t.segment_readout(self.head(t, v), [2, 2], summary), [1, 5])

        check_primitive(build, self.x)

    def test_a_var_read_by_two_records_gets_the_exact_sum(self):
        # the head's gradient of v plus the readout's, bit for bit
        def grad(head_reads, readout_reads):
            tape = Tape()
            v = tape.leaf(self.x, needs_grad=True)
            c = tape.leaf(self.x)
            summary = tape.segment_readout(v if readout_reads else c, [3, 1])
            h = self.head(tape, v if head_reads else c)
            tape.backward(tape.softmax_xent(tape.segment_readout(h, [2, 2], summary), [1, 5]))
            return v.slot.grad

        expected = grad(True, False) + grad(False, True)
        assert grad(True, True).tobytes() == expected.tobytes()

    def conv(self, t, v, theta, skip):
        return t.mpconv(self.graph, v, t.leaf(theta), t.leaf(skip), [4])

    def test_spmm_mean_input_also_read_by_the_skip_product(self):
        # mpconv reads X in its aggregation and its skip product, in both orders
        wide = np.hstack([self.w, self.w[:, :2]])
        for theta, skip in ((self.w, self.w.T), (wide, wide[::-1])):
            def build(t, v):
                return t.softmax_xent(self.conv(t, v, theta, skip), [1, 0, 2, 1])

            check_primitive(build, self.x)

    def test_spmm_mean_output_added_to_its_own_input(self):
        # X already has a gradient when the conv record runs, which then adds
        # its skip term and (square theta) its theta term from the owned buffer
        def build(t, v):
            h = self.conv(t, v, self.w, self.w.T)
            return t.softmax_xent(t.segment_readout(h, [4], t.segment_readout(v, [4])), [1])

        check_primitive(build, self.x)

    @pytest.mark.parametrize("f_out", [5, 2, 3])  # aggregate first, theta first, square
    def test_a_conv_of_constant_leaves_gives_them_no_gradient(self, f_out):
        # the record is kept and runs; its gradients for inputs without a
        # slot are dropped, and a constant X leaves theta's gradient unchanged
        rng = np.random.default_rng(f_out)
        theta, skip = rng.uniform(-1.0, 1.0, size=(2, 3, f_out))

        def grads(x_needs_grad, theta_needs_grad):
            tape = Tape()
            x = tape.leaf(self.x, needs_grad=x_needs_grad)
            t = tape.leaf(theta, needs_grad=theta_needs_grad)
            s = tape.leaf(skip, needs_grad=theta_needs_grad)
            h = tape.mpconv(self.graph, x, t, s, [4])
            tape.backward(tape.softmax_xent(h, [1, 0, 1, 1]))
            return x, t, s

        x, t, s = grads(False, False)
        assert x.slot is None and t.slot is None and s.slot is None
        _, t_const, s_const = grads(False, True)
        x, t_live, s_live = grads(True, True)
        assert x.slot.grad.shape == self.x.shape
        assert t_const.slot.grad.tobytes() == t_live.slot.grad.tobytes()
        assert s_const.slot.grad.tobytes() == s_live.slot.grad.tobytes()

    def test_mpconv_output_consumed_twice(self):
        # a pre-pool readout and the pool both read the conv output
        p = np.array([0.6, -0.8, 0.3])

        def build(t, v):
            h = self.conv(t, v, self.w, self.w.T)
            summary = t.segment_readout(h, [4])
            pooled = t.segment_readout(gated(t, h, t.leaf(p), [0, 1, 3]), [3], summary)
            return t.softmax_xent(pooled, [4])

        check_primitive(build, self.x)

    def test_topk_gate_hands_over_or_adds_its_gradient(self):
        # every row kept: the gradient is handed over when the input has
        # none yet and added when another reader ran first; with a dropped
        # row it is scattered either way
        p = np.array([0.6, -0.8, 0.3])
        for idx in (None, [0, 2, 3]):
            for read_first in (False, True):
                def build(t, v):
                    other = t.segment_readout(v, [4]) if read_first else None
                    pooled = gated(t, v, t.leaf(p), idx)
                    if other is None:
                        other = t.segment_readout(v, [4])
                    summary = t.segment_readout(pooled, [4 if idx is None else 3], other)
                    return t.softmax_xent(summary, [2])

                check_primitive(build, self.x)


def loop_segmented_matmul(a, b, counts):
    """Reference: one product per row block."""
    bounds = np.cumsum([0] + list(counts))
    return np.concatenate([a[lo:hi] @ b for lo, hi in zip(bounds[:-1], bounds[1:])])


def loop_readout(x, counts):
    """Reference: per-segment mean, max and first argmax of the max."""
    value, first, start = [], [], 0
    for n in counts:
        blk = x[start : start + n]
        top = blk.max(axis=0)
        value.append(np.concatenate([blk.mean(axis=0), top]))
        first.append(start + np.argmax(blk == top, axis=0))
        start += n
    return np.array(value), np.array(first)


def loop_rowmax_gap(x, counts):
    """Reference ``rowmax_gap`` margin: the smallest gap between a column's
    largest and second-largest value in a segment of two or more rows,
    skipping exact zero-zero ties; None when there is none."""
    gaps, start = [], 0
    for n in counts:
        blk = np.sort(x[start : start + n], axis=0)
        start += n
        if n > 1:
            live = ~((blk[-1] == 0.0) & (blk[-2] == 0.0))
            gaps.extend((blk[-1] - blk[-2])[live].tolist())
    return min(gaps) if gaps else None


# segment counts made of runs of equal sizes, single segments and 1-row
# segments, in any order (neighbouring runs of one size merge)
run_counts = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=1, max_size=8
).map(lambda runs: [n for n, k in runs for _ in range(k)])


class TestBatchedKernels:
    """Batch-wide kernels equal the per-segment loops they replace, bit for bit."""

    @given(counts=run_counts, inner=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_runs_of_equal_segments_match_the_loop(self, counts, inner, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((sum(counts), inner))
        for b in [rng.standard_normal((inner, w)) for w in (1, 2, 3, 64, 128)] + [
            rng.standard_normal(inner)
        ]:
            got = _segmented_matmul(a, b, counts)
            assert got.tobytes() == loop_segmented_matmul(a, b, counts).tobytes()

    @given(counts=run_counts, width=st.sampled_from([1, 2, 5, 64]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_readout_runs_match_the_loop(self, counts, width, seed):
        rng = np.random.default_rng(seed)
        # rounded and ReLU-clamped, so columns tie at zero and above it
        x = np.maximum(np.round(rng.standard_normal((sum(counts), width)), 1), 0.0)
        seen = Margins()
        tape = Tape(tracker=seen)
        xv = tape.leaf(x, needs_grad=True)
        out = tape.segment_readout(xv, counts)
        value, first = loop_readout(x, counts)
        assert out.value.tobytes() == value.tobytes()
        assert seen.get("rowmax_gap") == loop_rowmax_gap(x, counts)
        up = rng.standard_normal(value.shape)
        ((_, rule),) = tape._nodes
        rule(up.copy())  # the max share must reach the first row at each maximum
        expected = np.repeat(up[:, :width] / np.array(counts)[:, None], counts, axis=0)
        expected[first, np.arange(width)] += up[:, width:]
        assert xv.slot.grad.tobytes() == expected.tobytes()
        forward_only = Tape(record=False).segment_readout(Tape().leaf(x), counts)
        assert forward_only.value.tobytes() == value.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_segments_match_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        groups, rows, inner = (int(v) for v in rng.integers(1, 40, size=3))
        for width in (1, 2, 3, int(rng.integers(4, 130))):
            a = rng.standard_normal((groups * rows, inner))
            b = rng.standard_normal((inner, width))
            counts = [rows] * groups
            assert np.array_equal(_segmented_matmul(a, b, counts), loop_segmented_matmul(a, b, counts))
        vec = rng.standard_normal(inner)
        assert np.array_equal(_segmented_matmul(a, vec, counts), loop_segmented_matmul(a, vec, counts))

    def test_head_rows_match_the_loop(self):
        rng = np.random.default_rng(1)
        for width in (64, 2):
            a = rng.standard_normal((256, 128))
            b = rng.standard_normal((128, width))
            ones = [1] * 256
            assert np.array_equal(_segmented_matmul(a, b, ones), loop_segmented_matmul(a, b, ones))

    @pytest.mark.parametrize("segments,rows", [(64, 1400), (256, 5000), (1, 16000)])
    def test_segment_readout_matches_the_loop(self, segments, rows):
        rng = np.random.default_rng(segments)
        cuts = np.sort(rng.choice(np.arange(1, rows), size=segments - 1, replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [rows]])).tolist()
        x = np.maximum(rng.standard_normal((rows, 16)), 0.0)  # ReLU-style ties at zero
        tape = Tape()
        xv = tape.leaf(x, needs_grad=True)
        out = tape.segment_readout(xv, counts)
        value, first = loop_readout(x, counts)
        assert np.array_equal(out.value, value)
        up = rng.standard_normal(value.shape)
        ((_, rule),) = tape._nodes
        rule(up.copy())  # the backward rule, fed a chosen upstream gradient
        expected = np.repeat(up[:, :16] / np.array(counts)[:, None], counts, axis=0)
        expected[first, np.arange(16)] += up[:, 16:]
        assert np.array_equal(xv.slot.grad, expected)

    @pytest.mark.parametrize("segments,rows,width", [(64, 1400, 16), (3, 9000, 128), (1, 5, 1)])
    def test_segment_readout_adds_in_place_with_the_same_bytes(self, segments, rows, width):
        # an input that already holds a gradient gets its share added in row
        # blocks; the bytes equal adding the whole N x F contribution at once
        rng = np.random.default_rng(rows)
        cuts = np.sort(rng.choice(np.arange(1, rows), size=segments - 1, replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [rows]])).tolist()
        x = np.maximum(rng.standard_normal((rows, width)), 0.0)
        prior = rng.standard_normal((rows, width))
        tape = Tape()
        xv = tape.leaf(x, needs_grad=True)
        value, first = loop_readout(x, counts)
        tape.segment_readout(xv, counts)
        xv.slot.grad = held = prior.copy()
        up = rng.standard_normal(value.shape)
        ((_, rule),) = tape._nodes
        rule(up.copy())
        d = np.repeat(up[:, :width] / np.array(counts)[:, None], counts, axis=0)
        d[first, np.arange(width)] += up[:, width:]
        expected = prior.copy()
        expected += d
        assert xv.slot.grad is held
        assert xv.slot.grad.tobytes() == expected.tobytes()


class TestTapeLifecycle:
    def test_public_methods_are_the_primitives_and_the_plumbing(self):
        # perfbench/spans.py traces every other public Tape method as a
        # tape record, so a new public helper would change engine.tape_records
        public = {name for name, fn in vars(Tape).items()
                  if callable(fn) and not name.startswith("_")}
        assert public == {"mpconv", "topk_gate", "segment_readout", "mlp_head",
                          "softmax_xent", "leaf", "param", "backward"}
        assert list(inspect.signature(Tape).parameters) == ["tracker", "record"]

    def test_backward_needs_scalar(self):
        tape = Tape()
        v = tape.leaf(np.zeros((2, 2)), needs_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(tape.segment_readout(v, [2]))

    def test_backward_is_single_use(self):
        tape = Tape()
        v = tape.leaf(np.array([[0.5, -0.5]]), needs_grad=True)
        loss = tape.softmax_xent(tape.segment_readout(v, [1]), [0])
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(loss)

    def test_forward_only_tape_has_no_backward(self):
        def forward(tape):
            v = tape.leaf(np.array([[0.5, -0.5]]), needs_grad=True)
            return tape.softmax_xent(tape.segment_readout(v, [1]), [0])

        tape = Tape(record=False)
        loss = forward(tape)
        assert loss.value == forward(Tape()).value
        with pytest.raises(RuntimeError, match="record=False"):
            tape.backward(loss)

    @pytest.mark.parametrize("name", sorted(POOL_CASES))
    def test_a_conv_saves_no_copy_of_its_pooled_input(self, name):
        idx, edges = POOL_CASES[name]
        rng = np.random.default_rng(3)
        x, p = rng.standard_normal((7, 4)), rng.standard_normal(4)
        tape = Tape()
        pooled = gated(tape, tape.leaf(x, needs_grad=True), tape.leaf(p), idx, POOL_COUNTS)
        for step in (1, 2, 3, idx.size):
            blocks = [pooled.rebuild(start, start + step) for start in range(0, idx.size, step)]
            assert np.concatenate(blocks).tobytes() == pooled.value.tobytes()
        value = weakref.ref(pooled.value)
        theta = tape.leaf(rng.standard_normal((4, 4)), needs_grad=True)
        h = tape.mpconv(from_edge_list(idx.size, edges), pooled, theta, tape.leaf(np.eye(4)),
                        [idx.size])
        del pooled
        assert value() is None
        tape.backward(tape.softmax_xent(h, np.arange(idx.size) % 4))
        assert np.all(np.isfinite(theta.slot.grad))

    def test_every_primitive_keeps_one_record_with_an_output_slot(self):
        # on a recording tape, whether or not any input takes a gradient
        rng = np.random.default_rng(6)
        graph = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        tape = Tape()

        def leaf(*shape):
            return tape.leaf(rng.standard_normal(shape))

        x = leaf(4, 3)
        codes = tape.leaf(LabelCodes(np.array([0, 2, 1, 2]), 3))
        calls = [
            lambda: tape.mpconv(graph, x, leaf(3, 5), leaf(3, 5), [4]),  # aggregate first
            lambda: tape.mpconv(graph, x, leaf(3, 2), leaf(3, 2), [4]),  # theta first
            lambda: tape.mpconv(graph, codes, leaf(3, 5), leaf(3, 5), [4]),
            lambda: gated(tape, x, leaf(3), [0, 2]),
            lambda: tape.segment_readout(x, [1, 3]),
            lambda: tape.mlp_head(x, leaf(3, 2), leaf(1, 2), leaf(2, 2), leaf(1, 2)),
            lambda: tape.softmax_xent(x, [0, 1, 2, 0]),
        ]
        for kept, call in enumerate(calls, 1):
            out = call()
            assert out.slot is not None
            assert len(tape._nodes) == kept and tape._nodes[-1][0] is out.slot

    def test_a_forward_only_pool_output_has_no_rebuild(self):
        tape = Tape(record=False)
        out = gated(tape, tape.leaf(np.ones((3, 2)), needs_grad=True), tape.leaf(np.ones(2)))
        assert out.rebuild is None

    def test_leaf_without_grad_gets_none(self):
        tape = Tape()
        v = tape.leaf(np.array([[1.0, 2.0]]))
        loss = tape.softmax_xent(tape.segment_readout(v, [1]), [1])
        tape.backward(loss)
        assert v.slot is None


class TestFiniteDiffCheck:
    def test_sum_of_squares(self):
        def fn(x):
            return float(np.sum(x * x)), 2.0 * x

        assert finite_diff_check(fn, np.array([1.0, 2.0])) < 1e-8

    def test_constant_function(self):
        def fn(x):
            return 3.5, np.zeros_like(x)

        assert finite_diff_check(fn, np.array([0.3, -0.7])) == 0.0


class TestGlorotInit:
    def test_single_cell_bound(self):
        v = glorot_init(1, 1, seed=4)
        assert abs(v[0, 0]) <= math.sqrt(3.0)

    def test_three_by_three_bound(self):
        v = glorot_init(3, 3, seed=11)
        assert v.shape == (3, 3)
        assert np.all(np.abs(v) <= 1.0)

    def test_deterministic(self):
        assert np.array_equal(glorot_init(5, 7, seed=2), glorot_init(5, 7, seed=2))
        assert not np.array_equal(glorot_init(5, 7, seed=2), glorot_init(5, 7, seed=3))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            glorot_init(0, 3, seed=1)


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter("w", np.array([[1.0]]))
        p.grad[...] = 0.5
        adam_step([p], lr=0.001)
        # bias-corrected first step: -lr * g / (|g| + eps)
        assert abs(p.value[0, 0] - (1.0 - 0.001 * 0.5 / (0.5 + 1e-8))) < 1e-12
        assert p.step_count == 1
        assert np.all(p.grad == 0.0)

    def test_zero_gradient_keeps_value(self):
        p = Parameter("w", np.array([2.0, -1.0]))
        adam_step([p], lr=0.1)
        assert np.array_equal(p.value, [2.0, -1.0])
        assert p.step_count == 1

    def test_zero_lr_keeps_value(self):
        p = Parameter("w", np.array([2.0]))
        p.grad[...] = 3.0
        adam_step([p], lr=0.0)
        assert np.array_equal(p.value, [2.0])

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(17)
            p = Parameter("w", glorot_init(3, 3, seed=5))
            for _ in range(10):
                p.grad[...] = rng.standard_normal((3, 3))
                adam_step([p], lr=0.01)
            return p.value

        assert np.array_equal(run(), run())

    def test_rejects_non_finite_gradient(self):
        p = Parameter("w", np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(NonFiniteGradientError, match="w"):
            adam_step([p], lr=0.01)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = [
            Parameter("block0.theta", glorot_init(3, 4, seed=1)),
            Parameter("head.bias", np.zeros((1, 5))),
            Parameter("p", np.array([0.25, -1.5])),
        ]
        path = tmp_path / "model.params"
        save_parameters(params, path)
        loaded = load_parameters(path)
        assert [name for name, _ in loaded] == [p.name for p in params]
        for (_, value), p in zip(loaded, params):
            assert value.shape == p.value.shape
            assert np.array_equal(value, p.value)

    def test_every_truncation_is_a_value_error(self, tmp_path):
        params = [Parameter("w", glorot_init(2, 3, seed=0)), Parameter("b", np.zeros(3))]
        path = tmp_path / "model.params"
        save_parameters(params, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.params"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(ValueError, match=r"cut\.params: truncated at byte \d+"):
                load_parameters(cut)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.params"
        save_parameters([Parameter("w", np.ones(2))], path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="unexpected bytes"):
            load_parameters(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"not a parameter file")
        with pytest.raises(ValueError, match="magic"):
            load_parameters(path)

    @pytest.mark.parametrize("record,match", [
        (record(b"\xff\xfe", (1,), b"\0" * 8), "not UTF-8"),
        (record(b"w", (1,) * 65, b"\0" * 8), "rank 65"),
        (struct.pack("<I", 1) + b"w" + struct.pack("<I", 2**32 - 1), "rank 4294967295"),
        (record(b"w", (0, 2**63)), "shape numpy cannot hold"),
        (record(b"w", (2**64 - 1, 0)), "shape numpy cannot hold"),
        (struct.pack("<I", 2**32 - 1), "name needs 4294967295 bytes"),
        (record(b"w", (2**40, 2**40)), "values needs"),
    ])
    def test_absurd_headers_name_the_file(self, tmp_path, record, match):
        path = tmp_path / "absurd.params"
        path.write_bytes(header(1) + record)
        with pytest.raises(ValueError, match=match) as info:
            load_parameters(path)
        assert str(info.value).startswith(f"{path}: ")

    @given(garbage_parameter_files())
    def test_garbage_is_a_value_error(self, case):
        _, blob = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "garbage.params"
            path.write_bytes(blob)
            try:
                load_parameters(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")

    def test_a_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "model.params"
        save_parameters([Parameter("w", np.ones((2, 2)))], path)
        before = path.read_bytes()
        bad = Parameter("w", np.ones(2))
        bad.value = np.array(["not a number"], dtype=object)  # fails after the first record
        with pytest.raises(ValueError):
            save_parameters([Parameter("a", np.zeros(3)), bad], path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.params"]


# Allocates, fills and frees a 5 MiB float64 array twice after importing the
# package and prints the minor faults of the second round and the page count.
_REFILL = """
import resource
import numpy as np
import sparsepool

def fill():
    np.empty((5 << 20) // 8).fill(1.0)

fill()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fill()
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(after - before, (5 << 20) // resource.getpagesize())
"""


class TestMmapThreshold:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_a_freed_panel_is_reused(self):
        src = str(Path(sparsepool.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", _REFILL], env=env, capture_output=True, text=True, check=True
        )
        faults, pages = map(int, out.stdout.split())
        assert faults < 0.1 * pages
        assert engine._pin_mmap_threshold(engine._c_library()) is True

    def test_no_libc_is_left_alone(self):
        assert engine._pin_mmap_threshold(None) is False

    def test_a_libc_without_mallopt_is_left_alone(self):
        class NoMallopt:
            pass

        assert engine._pin_mmap_threshold(NoMallopt()) is False

    def test_a_refusing_mallopt_is_left_alone(self):
        calls = []

        class Refusing:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 0

        assert engine._pin_mmap_threshold(Refusing()) is False
        assert calls == [(engine._M_MMAP_THRESHOLD, 32 << 20)]

    def test_the_pair_set_is_glibcs_ceiling(self):
        calls = []

        class Accepting:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        assert engine._pin_mmap_threshold(Accepting()) is True
        assert calls == [(engine._M_MMAP_THRESHOLD, 32 << 20), (engine._M_TRIM_THRESHOLD, 64 << 20)]
