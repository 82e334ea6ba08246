"""Memory accounting tests: exact byte counts, scaling ratios, budgets."""
from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from sparsepool import membench
from sparsepool.engine import Tape
from sparsepool.graphs import (
    GraphBatch,
    LabelCodes,
    LabeledGraph,
    _dense_pieces,
    batch_graphs,
    erdos_renyi,
)
from sparsepool.layers import (
    READOUT_POSITIONS,
    build_model,
    forward_summaries,
    kept_count,
    model_forward,
)
from sparsepool.membench import (
    MemoryTracker,
    measure_dense_assignment,
    measure_sparse,
    scaling_sweep,
)

GIB = 2**30


def dense_expected_bytes(n: int, k: float = 0.25, feat: int = 128, levels: int = 3) -> int:
    """Independent recomputation of the dense baseline's footprint."""
    import math

    total = (n + 1) * 8 + 4 * n * 8  # input CSR
    size = n
    for _ in range(levels):
        pooled = max(1, min(size, int(math.ceil(k * size - 1e-9))))
        total += 2 * size * feat * 8  # embeddings + gradient
        total += 2 * size * pooled * 8  # assignment + gradient
        total += pooled * pooled * 8  # coarsened adjacency
        size = pooled
    return total


class TestSweepGraphs:
    @pytest.mark.parametrize("seed", [0, 11, 41])
    def test_no_dense_piece(self, seed):
        # every aggregation of the sweep takes the sparse CSR product, which
        # is what the memory slopes and tracked bytes are about
        for n in (2000, 4000, 8000, 16000):
            bounds, dense = _dense_pieces(erdos_renyi(n, 2 * n, seed))
            assert not dense.any(), (n, seed)


class TestMemoryTracker:
    def test_tracks_live_bytes_and_peak(self):
        tracker = MemoryTracker()
        a = np.zeros(1000)  # 8000 bytes
        tracker.note(a, "a")
        assert tracker.current == 8000 and tracker.peak == 8000
        b = np.zeros(500)
        tracker.note(b, "b")
        assert tracker.current == 12000 and tracker.peak == 12000
        del a
        assert tracker.current == 4000
        c = np.zeros(600)
        tracker.note(c, "c")
        assert tracker.current == 8800
        assert tracker.peak == 12000  # peak was before the release
        assert dict(tracker.peak_breakdown()) == {"a": 8000, "b": 4000}


class TestDenseAssignment:
    def test_exact_analytic_footprint(self):
        for n in (1000, 4000, 10000):
            report = measure_dense_assignment(n)
            assert report.peak_bytes == dense_expected_bytes(n)

    def test_first_assignment_matrix_size(self):
        # n=10000, k=0.25: the level-1 assignment alone is 10000*2500*8 = 200 MB
        report = measure_dense_assignment(10000)
        breakdown = dict(report.breakdown)
        assert breakdown["level1/assignment"] == 10000 * 2500 * 8 == 200_000_000

    def test_doubling_is_roughly_quadratic(self):
        a = measure_dense_assignment(5000)
        b = measure_dense_assignment(10000)
        assert 3.5 <= b.peak_bytes / a.peak_bytes <= 4.5

    def test_budget_marks_infeasible_but_keeps_accounting(self):
        unlimited = measure_dense_assignment(16000)
        capped = measure_dense_assignment(16000, budget_bytes=GIB)
        assert unlimited.feasible and not capped.feasible
        assert capped.peak_bytes == unlimited.peak_bytes

    def test_huge_size_is_computed_without_allocating(self):
        # the level-1 assignment alone is 2 TB here
        report = measure_dense_assignment(10**6)
        assert report.peak_bytes == report.total_allocated_bytes == dense_expected_bytes(10**6)
        assert report.max_buffer_tag == "level1/assignment"
        assert report.max_buffer_bytes == 10**6 * 250_000 * 8

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            measure_dense_assignment(0)


class TestSparse:
    def test_doubling_is_roughly_linear(self):
        a = measure_sparse(5000)
        b = measure_sparse(10000)
        assert 1.8 <= b.peak_bytes / a.peak_bytes <= 2.3

    def test_constant_floor_at_tiny_sizes(self):
        report = measure_sparse(1)
        breakdown = dict(report.breakdown)
        model_state = breakdown["params"] + breakdown["optimizer"] + breakdown["grads"]
        assert model_state > report.peak_bytes / 2

    def test_largest_buffer_grows_linearly_not_quadratically(self):
        reports = {n: measure_sparse(n) for n in (1000, 2000, 4000)}
        for n, rep in reports.items():
            assert rep.max_buffer_bytes <= 1100 * n  # an N x 128 float64 panel
            assert rep.max_buffer_bytes < 8 * n * n
        growth = reports[4000].max_buffer_bytes / reports[1000].max_buffer_bytes
        assert 3.5 <= growth <= 4.5  # linear in n across a 4x size step

    def test_deterministic(self):
        a = measure_sparse(2000, seed=3)
        b = measure_sparse(2000, seed=3)
        assert a.peak_bytes == b.peak_bytes
        assert a.breakdown == b.breakdown

    def test_buffers_are_released_during_the_pass(self):
        # the tape drops activations as backward consumes them, so the live
        # peak sits well below the total churn of one pass
        report = measure_sparse(4000)
        assert report.peak_bytes < 0.6 * report.total_allocated_bytes

    def test_activations_at_the_peak_stay_within_five_panels(self):
        # the peak falls in the last pool block's forward: the three conv
        # outputs, the pool output the last conv read and the one being
        # gated, plus score and gate vectors; no saved conv input. With the
        # features, that is all that grows with N: backward holds less
        n = 4000
        panel = n * 128 * 8
        report = measure_sparse(n)
        breakdown = dict(report.breakdown)
        assert breakdown["acts"] <= 5 * panel + 8 * (n * 8)
        model_state = 2 * breakdown["params"] + breakdown["optimizer"]  # values, grads, moments
        assert report.peak_bytes - model_state - breakdown["graph/csr"] <= 6 * panel + 8 * (n * 8)

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_a_recorded_forward_saves_no_pool_output(self, ratio):
        # after the forward, the tape holds each conv output (read by its
        # pool's backward), block 0's aggregated input (it is narrower than
        # its output, so it aggregates first), the kept gates and raw scores
        # of each pool, and the summed readout; a conv rebuilds its pooled
        # input in backward
        n, hidden = 1000, 16
        tracker = MemoryTracker()
        batch = GraphBatch(erdos_renyi(n, 2 * n, 0), np.random.default_rng(0).standard_normal((n, 8)),
                           np.array([n]), np.zeros(1, dtype=np.int64))
        model = build_model(8, hidden, 2, pool_ratio=ratio, num_blocks=3, seed=0)
        tape = Tape(tracker=tracker)
        summary = forward_summaries(tape, batch, model)
        rows = [n]
        for _ in range(3):
            rows.append(kept_count(rows[-1], ratio))
        saved = hidden * sum(rows[:3]) + 8 * n + 2 * sum(rows[1:]) + 2 * hidden
        assert tracker._by_tag["acts"] == 8 * saved
        tape.backward(tape.softmax_xent(summary, batch.labels))

    def test_untracked_temporaries_stay_under_half_a_panel(self):
        # tracemalloc sees every numpy buffer, registered or not; the pass
        # may hold less than half an N x 128 panel beyond what it registers
        n = 4000
        tracemalloc.start()
        try:
            report = measure_sparse(n)
            _, traced_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced_peak - report.peak_bytes < 0.5 * (n * 128 * 8)

    def test_no_panel_is_added_to_a_gradient_unnoted(self, monkeypatch):
        # a contribution added into an existing gradient is a temporary the
        # tracker never sees; none may be N x 128 (segment_readout adds its
        # share in bounded row blocks instead)
        n = 4000
        added = []
        orig = Tape._acc

        def spy(tape, slot, g):
            if slot is not None and slot.grad is not None:
                added.append(g.shape)
            return orig(tape, slot, g)

        monkeypatch.setattr(Tape, "_acc", spy)
        measure_sparse(n)
        assert (n, 128) not in added

    def test_a_graph_kept_whole_is_noted_once(self):
        # ratio 1.0 pools every level onto the input graph itself; G(n, 2n)
        # stores each of its 2n edges in both directions, as n + 1 int32
        # offsets and 2 * 2n int32 columns
        for n in (500, 3000):
            csr = dict(measure_sparse(n).breakdown)["graph/csr"]
            assert csr == (n + 1) * 4 + 2 * (2 * n) * 4

    def test_breakdown_sums_to_peak(self):
        for report in (measure_sparse(1500), measure_dense_assignment(1500)):
            assert sum(b for _, b in report.breakdown) >= report.peak_bytes


class OnceTracker(MemoryTracker):
    """A tracker that fails when it is handed an array it still holds alive.

    It keeps a weak reference to each noted array, keyed by ``id``; an id
    whose array has been collected may be reused by a new array."""

    def __init__(self):
        super().__init__()
        self._alive: dict[int, weakref.ref] = {}

    def note(self, arr, tag):
        held = self._alive.get(id(arr))
        assert held is None or held() is not arr, f"a {tag} array of {arr.nbytes} bytes noted twice"
        self._alive[id(arr)] = weakref.ref(arr)
        super().note(arr, tag)


class TestNotedOnce:
    def test_the_sweep_pass(self, monkeypatch):
        monkeypatch.setattr(membench, "MemoryTracker", OnceTracker)
        assert measure_sparse(2000).peak_bytes > 0

    @pytest.mark.parametrize("position", READOUT_POSITIONS)
    @pytest.mark.parametrize("coded", [False, True], ids=["dense", "codes"])
    def test_a_batch_at_ratio_one_half(self, position, coded):
        rng = np.random.default_rng(5)
        sizes = [9, 14, 9, 23, 6]
        features = [LabelCodes(rng.integers(0, 4, n), 4) if coded else rng.standard_normal((n, 4))
                    for n in sizes]
        batch = batch_graphs([LabeledGraph(erdos_renyi(n, 2 * n, i), f, i % 2)
                              for i, (n, f) in enumerate(zip(sizes, features))])
        model = build_model(4, 8, 2, pool_ratio=0.5, seed=0, readout_position=position)
        tracker = OnceTracker()
        tape = Tape(tracker=tracker)
        tape.backward(tape.softmax_xent(model_forward(tape, batch, model), batch.labels))
        assert dict(tracker.peak_breakdown())["grads"] > 0

    def test_a_second_note_fails(self):
        tracker = OnceTracker()
        a = np.zeros(3)
        tracker.note(a, "acts")
        with pytest.raises(AssertionError, match="noted twice"):
            tracker.note(a, "grads")


class TestSweep:
    def test_csv_format_and_slopes(self):
        result = scaling_sweep([500, 1000, 2000])
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "n,sparse_bytes,dense_bytes,dense_feasible"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "500" and first[3] in ("true", "false")
        assert 0.5 < result.slope_sparse < 1.5
        assert 1.3 < result.slope_dense < 2.5

    def test_sparse_beats_dense_at_scale(self):
        for n in (4000, 8000):
            s = measure_sparse(n)
            d = measure_dense_assignment(n)
            assert s.peak_bytes < d.peak_bytes

    def test_infeasible_entries_are_not_fatal(self):
        result = scaling_sweep([1000, 16000], budget_bytes=GIB)
        assert result.dense[0].feasible
        assert not result.dense[1].feasible
        assert all(r.feasible for r in result.sparse)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            scaling_sweep([])
        with pytest.raises(ValueError):
            scaling_sweep([2000, 1000])

    def test_rejects_a_single_size(self):
        with pytest.raises(ValueError, match="a slope fit needs at least two sizes"):
            scaling_sweep([50])

    @pytest.mark.parametrize("sizes,message", [
        ([16000, 3_000_000_000],
         "node count 3000000000 exceeds the int32 index limit 2147483647"),
        # a node count int32 holds, but 4n stored edges it does not
        ([16000, 600_000_000],
         "stored edge count 2400000000 exceeds the int32 index limit 2147483647"),
    ], ids=["nodes", "stored_edges"])
    def test_a_size_past_int32_is_rejected_before_any_pass(self, monkeypatch, sizes, message):
        passes = []
        monkeypatch.setattr(membench, "measure_sparse", lambda n, **_: passes.append(n))
        with pytest.raises(ValueError) as caught:
            scaling_sweep(sizes)
        assert str(caught.value) == message
        assert passes == []
        # the message erdos_renyi gives when the pass itself draws the graph
        with pytest.raises(ValueError) as drawn:
            erdos_renyi(sizes[-1], 2 * sizes[-1], seed=0)
        assert str(drawn.value) == message
