"""Engine tests: per-primitive gradients, Adam, init, serialization."""
from __future__ import annotations

import math

import numpy as np
import pytest

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
from sparsepool.graphs import from_edge_list

PRIMITIVE_TOL = 1e-6


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


def check_primitive(build, x, tol=PRIMITIVE_TOL):
    err = finite_diff_check(leaf_fn(build), x)
    assert err < tol, f"gradient mismatch: {err}"


class TestPrimitiveGradients:
    """Every primitive's backward matches central finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(99)

    def weights(self, *shape):
        # keep magnitudes O(1) and away from relu/max switch points
        return self.rng.uniform(0.2, 1.0, size=shape) * self.rng.choice([-1, 1], size=shape)

    def test_matmul_left(self):
        w = self.weights(4, 3)
        check_primitive(
            lambda t, v: t.softmax_xent(t.matmul(v, t.leaf(w)), [1, 0]),
            self.weights(2, 4),
        )

    def test_matmul_right(self):
        a = self.weights(3, 4)
        check_primitive(
            lambda t, v: t.softmax_xent(t.matmul(t.leaf(a), v), [1, 0, 2]),
            self.weights(4, 3),
        )

    def test_add(self):
        b = self.weights(2, 3)
        check_primitive(
            lambda t, v: t.softmax_xent(t.add(v, t.leaf(b)), [0, 2]), self.weights(2, 3)
        )

    def test_add_broadcast_bias(self):
        a = np.array([[0.5, -0.7, 0.3], [0.2, 0.9, -0.4]])
        check_primitive(
            lambda t, v: t.softmax_xent(t.add(t.leaf(a), v), [0, 2]),
            self.weights(1, 3),
        )

    def test_relu(self):
        check_primitive(
            lambda t, v: t.softmax_xent(t.relu(v), [1]), np.array([[0.8, -0.6, 0.4]])
        )

    def test_relu_passes_zero_below_kink(self):
        tape = Tape()
        v = tape.leaf(np.array([[-1.0, 2.0]]), needs_grad=True)
        out = tape.relu(v)
        loss = tape.softmax_xent(out, [0])
        tape.backward(loss)
        assert v.slot.grad[0, 0] == 0.0
        assert v.slot.grad[0, 1] != 0.0

    def test_tanh(self):
        check_primitive(
            lambda t, v: t.softmax_xent(t.tanh_elem(v), [2]), self.weights(1, 4)
        )

    def test_gate_rows_both_inputs(self):
        gate = self.weights(3)
        every_row = np.arange(3)
        check_primitive(
            lambda t, v: t.softmax_xent(t.gate_rows(v, t.leaf(gate), every_row), [1, 0, 1]),
            self.weights(3, 2),
        )
        feats = self.weights(3, 2)
        check_primitive(
            lambda t, v: t.softmax_xent(t.gate_rows(t.leaf(feats), v, every_row), [1, 0, 1]),
            self.weights(3),
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
        probe: dict = {}
        tape = Tape(probe=probe)
        out = tape.segment_readout(tape.leaf(x), counts).value
        bounds = np.cumsum([0] + counts)
        gaps = []
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert np.array_equal(out[i, :4], np.mean(x[lo:hi], axis=0))
            assert np.array_equal(out[i, 4:], np.max(x[lo:hi], axis=0))
            if hi - lo > 1:
                ranked = -np.sort(-x[lo:hi], axis=0)
                gaps.append(np.min(ranked[0] - ranked[1]))
        assert probe["rowmax_gap"] == min(gaps)

    @pytest.mark.parametrize("counts", [[], [0, 3], [2, 0, 1], [2, 2], [1, 1, 2], [-1, 4]])
    def test_segment_readout_rejects_counts_that_do_not_tile(self, counts):
        tape = Tape()
        with pytest.raises(ValueError, match="segment"):
            tape.segment_readout(tape.leaf(np.ones((3, 2))), counts)

    def test_sum_tensors(self):
        b = self.weights(2, 3)
        check_primitive(
            lambda t, v: t.softmax_xent(t.sum_tensors([v, t.leaf(b), v]), [0, 1]),
            self.weights(2, 3),
        )

    def test_gate_rows_scatter(self):
        gate = self.weights(4)
        check_primitive(
            lambda t, v: t.softmax_xent(t.gate_rows(v, t.leaf(gate), [0, 2]), [1, 0]),
            self.weights(4, 2),
        )
        feats = self.weights(4, 2)
        check_primitive(
            lambda t, v: t.softmax_xent(t.gate_rows(t.leaf(feats), v, [1, 3]), [1, 0]),
            self.weights(4),
        )

    def test_gate_rows_backward_scatters_to_kept_rows(self):
        tape = Tape()
        v = tape.leaf(np.array([[0.3, 0.4], [0.5, -0.2], [0.7, 0.1]]), needs_grad=True)
        gate = tape.leaf(np.array([0.9, -0.6, 0.4]), needs_grad=True)
        out = tape.gate_rows(v, gate, np.array([0, 2]))
        tape.backward(tape.softmax_xent(out, [1, 0]))
        assert np.all(v.slot.grad[1] == 0.0) and gate.slot.grad[1] == 0.0  # dropped row
        assert np.any(v.slot.grad[0] != 0.0) and np.any(v.slot.grad[2] != 0.0)
        assert gate.slot.grad[0] != 0.0 and gate.slot.grad[2] != 0.0

    def test_gate_rows_matches_dense_oracle(self):
        x = self.rng.standard_normal((6, 3))
        gate = np.tanh(self.rng.standard_normal(6))
        idx = np.array([1, 2, 4])
        labels = [2, 0, 1]
        tape = Tape()
        xv = tape.leaf(x, needs_grad=True)
        gv = tape.leaf(gate, needs_grad=True)
        out = tape.gate_rows(xv, gv, idx)
        assert np.array_equal(out.value, (x * gate[:, None])[idx])
        tape.backward(tape.softmax_xent(out, labels))
        # dense oracle: out = S diag(gate) X with the 0/1 row selector S
        select = np.eye(6)[idx]
        logits = select @ np.diag(gate) @ x
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        upstream = (probs - np.eye(3)[labels]) / len(labels)
        back = select.T @ upstream
        assert np.allclose(xv.slot.grad, np.diag(gate) @ back, rtol=0.0, atol=1e-14)
        assert np.allclose(gv.slot.grad, (back * x).sum(axis=1), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "idx", [[2, 0], [1, 1], [0, 1, 1], [0, 3], [-1, 0], [3]],
        ids=["unsorted", "duplicate", "trailing_duplicate", "past_end", "negative", "only_past_end"],
    )
    def test_gate_rows_rejects_bad_indices(self, idx):
        tape = Tape()
        with pytest.raises(ValueError, match="strictly increasing"):
            tape.gate_rows(tape.leaf(np.ones((3, 2))), tape.leaf(np.ones(3)), idx)

    def test_vecdot(self):
        p = self.weights(3)
        check_primitive(
            lambda t, v: t.softmax_xent(
                t.sum_tensors([
                    t.segment_readout(t.gate_rows(v, t.vecdot(v, t.leaf(p)), np.arange(4)), [4]),
                    t.segment_readout(v, [4]),
                ]),
                [1],
            ),
            self.weights(4, 3),
        )

    def test_div_by_norm_wrt_vector(self):
        x = self.weights(5, 3)

        def build(t, p):
            scores = t.div_by_norm(t.vecdot(t.leaf(x), p), p)
            gated = t.gate_rows(t.leaf(x), t.tanh_elem(scores), np.arange(5))
            return t.softmax_xent(t.segment_readout(gated, [5]), [2])

        check_primitive(build, self.weights(3))

    def test_div_by_norm_wrt_numerator(self):
        p = self.weights(4)

        def build(t, v):
            scores = t.div_by_norm(t.vecdot(v, t.leaf(p)), t.leaf(p))
            gated = t.gate_rows(v, t.tanh_elem(scores), np.arange(3))
            return t.softmax_xent(t.segment_readout(gated, [3]), [1])

        check_primitive(build, self.weights(3, 4))

    def test_div_by_norm_guard_treats_norm_as_constant(self):
        tape = Tape()
        p = tape.leaf(np.zeros(3), needs_grad=True)
        y = tape.leaf(np.array([1.0, 2.0]), needs_grad=True)
        out = tape.div_by_norm(y, p)
        assert np.allclose(out.value, np.array([1.0, 2.0]) / 1e-12)

    def test_spmm_mean(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

        def build(t, v):
            return t.softmax_xent(t.segment_readout(t.spmm_mean(g, v), [4]), [1])

        check_primitive(build, self.weights(4, 3))

    def test_softmax_xent_uniform_is_log2(self):
        tape = Tape()
        loss = tape.softmax_xent(tape.leaf(np.array([0.0, 0.0])), 0)
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
        b = tape.leaf(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tape.matmul(a, b)
        with pytest.raises(ValueError):
            tape.add(a, tape.leaf(np.zeros((3, 3))))
        with pytest.raises(ValueError):
            tape.gate_rows(a, tape.leaf(np.zeros(4)), [0])
        with pytest.raises(ValueError):
            tape.vecdot(a, tape.leaf(np.zeros(4)))

    def test_multiple_consumers_accumulate(self):
        def build(t, v):
            return t.softmax_xent(t.add(t.add(v, v), v), [1])

        check_primitive(build, self.weights(1, 3))


class TestGradientHandOver:
    """Backward rules overwrite or adopt their incoming gradient; an input
    that is also read elsewhere must still get the exact sum. ``add(v, v)``
    is covered by ``test_multiple_consumers_accumulate``."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.uniform(0.2, 1.0, size=(4, 3)) * rng.choice([-1, 1], size=(4, 3))
        self.w = rng.uniform(-1.0, 1.0, size=(3, 3))
        self.graph = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 2)])

    def test_sum_tensors_of_one_input_twice_and_another(self):
        def build(t, v):
            return t.softmax_xent(t.sum_tensors([v, v, t.matmul(v, t.leaf(self.w))]), [1, 0, 2, 1])

        check_primitive(build, self.x)

    def test_relu_output_consumed_twice(self):
        def build(t, v):
            h = t.relu(v)
            return t.softmax_xent(t.add(t.matmul(h, t.leaf(self.w)), t.add(h, h)), [1, 0, 2, 1])

        check_primitive(build, self.x)

    def test_spmm_mean_input_also_read_by_the_skip_product(self):
        def build(t, v):
            agg = t.matmul(t.spmm_mean(self.graph, v), t.leaf(self.w))
            return t.softmax_xent(t.add(agg, t.matmul(v, t.leaf(self.w.T))), [1, 0, 2, 1])

        check_primitive(build, self.x)

    def test_spmm_mean_output_added_to_its_own_input(self):
        def build(t, v):
            return t.softmax_xent(t.relu(t.add(t.spmm_mean(self.graph, v), v)), [1, 0, 2, 1])

        check_primitive(build, self.x)

    def test_spmm_mean_of_a_constant_input_has_no_gradient_slot(self):
        tape = Tape()
        agg = tape.spmm_mean(self.graph, tape.leaf(self.x))
        assert agg.slot is None
        theta = tape.leaf(self.w, needs_grad=True)
        tape.backward(tape.softmax_xent(tape.matmul(agg, theta), [1, 0, 2, 1]))
        assert theta.slot.grad.shape == self.w.shape


class TestTapeLifecycle:
    def test_backward_needs_scalar(self):
        tape = Tape()
        v = tape.leaf(np.zeros((2, 2)), needs_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(tape.relu(v))

    def test_backward_is_single_use(self):
        tape = Tape()
        v = tape.leaf(np.array([[0.5, -0.5]]), needs_grad=True)
        loss = tape.softmax_xent(tape.relu(v), [0])
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            tape.backward(loss)

    def test_forward_only_tape_has_no_backward(self):
        def forward(tape):
            v = tape.leaf(np.array([[0.5, -0.5]]), needs_grad=True)
            return tape.softmax_xent(tape.relu(v), [0])

        tape = Tape(record=False)
        loss = forward(tape)
        assert loss.value == forward(Tape()).value
        with pytest.raises(RuntimeError, match="record=False"):
            tape.backward(loss)

    def test_leaf_without_grad_gets_none(self):
        tape = Tape()
        v = tape.leaf(np.array([[1.0, 2.0]]))
        loss = tape.softmax_xent(tape.relu(v), [1])
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
