"""Dense-tensor reverse-mode engine with an explicit tape.

All values are 64-bit floats. A :class:`Tape` records one forward pass;
``backward`` replays the records in reverse and accumulates gradients into
leaf slots (parameters keep a persistent gradient buffer). Each record's
closure captures only the arrays its backward rule needs, and records are
released as soon as they have run, so activation buffers are freed at the
earliest point reference counting allows.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import graphs as _graphs

__all__ = [
    "Var",
    "Parameter",
    "Tape",
    "NonFiniteGradientError",
    "glorot_init",
    "adam_step",
    "finite_diff_check",
    "save_parameters",
    "load_parameters",
]

_NORM_GUARD = 1e-12


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient contained NaN or infinity."""


def _as_f64(value) -> np.ndarray:
    return np.ascontiguousarray(value, dtype=np.float64)


class Slot:
    """Gradient cell for one tensor; ``grad`` is lazily allocated."""

    __slots__ = ("grad",)

    def __init__(self, grad: np.ndarray | None = None):
        self.grad = grad


class Var:
    """A value on the tape plus the slot its gradient accumulates into."""

    __slots__ = ("value", "slot")

    def __init__(self, value: np.ndarray, slot: Slot | None):
        self.value = value
        self.slot = slot

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Parameter:
    """Trainable tensor with persistent gradient and Adam moment buffers."""

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v", "step_count")

    def __init__(self, name: str, value):
        self.name = name
        self.value = _as_f64(value)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)
        self.step_count = 0


def _segmented_matmul(av: np.ndarray, bv: np.ndarray, segments) -> np.ndarray:
    if segments is None:
        return av @ bv
    bounds = np.concatenate([[0], np.cumsum(np.asarray(segments, dtype=np.int64))])
    if bounds[-1] != av.shape[0]:
        raise ValueError(f"segments sum to {bounds[-1]}, expected {av.shape[0]} rows")
    shape = (av.shape[0],) if bv.ndim == 1 else (av.shape[0], bv.shape[1])
    value = np.empty(shape)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        np.matmul(av[start:stop], bv, out=value[start:stop])
    return value


def _acc(slot: Slot | None, g: np.ndarray, fresh: bool, tracker) -> None:
    """Accumulate a gradient contribution into ``slot``.

    ``fresh`` marks arrays computed solely for this contribution, which may
    be adopted without copying.
    """
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g if fresh else g.copy()
        if tracker is not None:
            tracker.note(slot.grad, "grads")
    else:
        slot.grad += g


def _hand_over(slot: Slot | None, g: np.ndarray) -> None:
    """Accumulate a rule's incoming gradient ``g`` into ``slot``, adopting it
    when the slot is empty.

    ``g`` was noted when it was created and the tape drops it once the rule
    returns, so it is neither copied nor noted again. The rule must read
    ``g`` for nothing else after this call.
    """
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g
    else:
        slot.grad += g


class Tape:
    """Record of one forward pass, replayable in reverse for gradients.

    Each primitive call appends one record, ``(output slot, backward
    closure)``. Primitives that see a whole batch (``segment_readout`` and
    the segmented ``matmul`` and ``vecdot``) take per-graph row counts, so
    the number of records per pass does not depend on how many graphs a
    batch holds.

    ``tracker`` (optional) must expose ``note(array, tag)`` and is informed
    of every activation, gradient and CSR buffer the pass allocates.
    ``probe`` (optional dict) collects stability margins ("relu_margin",
    "rowmax_gap", "score_boundary_gap", "score_min_gap") so callers can
    reject inputs too close to a non-differentiable switch. With
    ``record=False`` the tape keeps no backward closures, so a forward-only
    pass frees each activation once nothing downstream reads it; such a tape
    cannot run :meth:`backward`.

    A backward rule owns its incoming gradient: :meth:`backward` drops it
    as soon as the rule returns, so the rule may overwrite it in place or
    hand it to one input's slot instead of copying it. It must then read it
    for nothing else, and an input that needs its own copy is served first.
    A record whose output has no gradient slot is not kept.
    """

    def __init__(self, tracker=None, probe: dict | None = None, record: bool = True):
        self._nodes: list = []
        self._consumed = False
        self.tracker = tracker
        self.probe = probe
        self.record = record

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def note(self, arr: np.ndarray, tag: str) -> None:
        if self.tracker is not None:
            self.tracker.note(arr, tag)

    def _out(self, value: np.ndarray, needs_grad: bool = True) -> Var:
        self.note(value, "acts")
        return Var(value, Slot() if needs_grad else None)

    def _push(self, out_slot: Slot | None, fn) -> None:
        if self.record and out_slot is not None:
            self._nodes.append((out_slot, fn))

    def probe_min(self, key: str, value: float) -> None:
        if self.probe is not None:
            cur = self.probe.get(key)
            self.probe[key] = value if cur is None else min(cur, value)

    def leaf(self, value, needs_grad: bool = False) -> Var:
        """Wrap an input array; gradients are kept only if requested."""
        return Var(_as_f64(value), Slot() if needs_grad else None)

    def param(self, p: Parameter) -> Var:
        """Bind a parameter; gradients accumulate into ``p.grad``."""
        return Var(p.value, Slot(p.grad))

    def backward(self, loss: Var) -> None:
        """Accumulate d(loss)/d(leaf) for every leaf reachable from ``loss``."""
        if not self.record:
            raise RuntimeError("tape was built with record=False; it has no backward pass")
        if self._consumed:
            raise RuntimeError("tape already consumed; build a new one per pass")
        self._consumed = True
        if loss.value.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        if loss.slot is None:
            raise ValueError("loss does not participate in the tape")
        loss.slot.grad = np.ones_like(loss.value)
        nodes = self._nodes
        for i in range(len(nodes) - 1, -1, -1):
            out_slot, fn = nodes[i]
            g = out_slot.grad
            if g is not None:
                fn(g)
            out_slot.grad = None  # complete: every consumer has already run
            nodes[i] = None  # release saved activations promptly
        self._nodes = []

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def matmul(self, a: Var, b: Var, segments=None) -> Var:
        """a @ b; with ``segments`` the product is computed per row block.

        BLAS results depend on the total row count, so block-diagonal batches
        are multiplied segment by segment to stay bit-identical with
        per-graph runs. The backward pass is mathematically unaffected and
        uses whole-matrix products.
        """
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = self._out(_segmented_matmul(av, bv, segments))
        a_slot, b_slot, tr = a.slot, b.slot, self.tracker
        a_saved = av if b_slot is not None else None
        b_saved = bv if a_slot is not None else None

        def bw(g):
            if a_slot is not None:
                _acc(a_slot, g @ b_saved.T, True, tr)
            if b_slot is not None:
                _acc(b_slot, a_saved.T @ g, True, tr)

        self._push(out.slot, bw)
        return out

    def add(self, a: Var, b: Var) -> Var:
        av, bv = a.value, b.value
        broadcast = av.shape != bv.shape
        if broadcast and not (
            av.ndim == 2 and bv.ndim == 2 and bv.shape == (1, av.shape[1])
        ):
            raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")
        out = self._out(av + bv)
        a_slot, b_slot, tr = a.slot, b.slot, self.tracker

        def bw(g):
            if b_slot is not None:
                _acc(b_slot, g.sum(axis=0, keepdims=True) if broadcast else g, broadcast, tr)
            _hand_over(a_slot, g)

        self._push(out.slot, bw)
        return out

    def relu(self, a: Var) -> Var:
        av = a.value
        if self.probe is not None and av.size:
            self.probe_min("relu_margin", float(np.min(np.abs(av))))
        h = np.maximum(av, 0.0)
        out = self._out(h)
        a_slot = a.slot
        saved = h if a_slot is not None else None

        def bw(g):
            if a_slot is not None:
                np.multiply(g, saved > 0.0, out=g)
                _hand_over(a_slot, g)

        self._push(out.slot, bw)
        return out

    def tanh_elem(self, a: Var) -> Var:
        t = np.tanh(a.value)
        out = self._out(t)
        a_slot, tr = a.slot, self.tracker
        saved = t if a_slot is not None else None

        def bw(g):
            if a_slot is not None:
                _acc(a_slot, g * (1.0 - saved * saved), True, tr)

        self._push(out.slot, bw)
        return out

    def segment_readout(self, x: Var, counts) -> Var:
        """Column-wise [mean || max] of each row segment, one row per segment.

        ``counts`` splits the rows of ``x`` into consecutive non-empty
        segments (the graphs of a batch); a single graph is one segment. The
        max gradient goes to the first row attaining each column's maximum.
        Segments are reduced slice by slice: ``np.maximum.reduceat`` along
        axis 0 is several times slower than ``max(axis=0)`` on large inputs.
        """
        xv = x.value
        counts = np.asarray(counts, dtype=np.int64)
        if xv.ndim != 2 or counts.ndim != 1 or counts.size == 0:
            raise ValueError("segment_readout needs a 2-D input and at least one segment")
        if np.any(counts < 1) or counts.sum() != xv.shape[0]:
            raise ValueError(
                f"segment counts must be positive and sum to the {xv.shape[0]} input rows"
            )
        f = xv.shape[1]
        value = np.empty((counts.size, 2 * f))
        x_slot, tr = x.slot, self.tracker
        wants_grad = self.record and x_slot is not None
        first = np.empty((counts.size, f), dtype=np.int64) if wants_grad else None
        start = 0
        for i, n in enumerate(counts.tolist()):
            blk = xv[start : start + n]
            top = blk.max(axis=0)
            value[i, :f] = blk.mean(axis=0)
            value[i, f:] = top
            if wants_grad:
                first[i] = start + np.argmax(blk == top, axis=0)
            if self.probe is not None and n > 1:
                second = np.partition(blk, -2, axis=0)[-2]
                # exact zero-zero ties come from ReLU clamping and are stable
                live = ~((top == 0.0) & (second == 0.0))
                if np.any(live):
                    self.probe_min("rowmax_gap", float(np.min((top - second)[live])))
            start += n
        out = self._out(value)
        cols = np.arange(f)

        def bw(g):
            if x_slot is not None:
                d = np.repeat(g[:, :f] / counts[:, None], counts, axis=0)
                d[first, cols] += g[:, f:]
                _acc(x_slot, d, True, tr)

        self._push(out.slot, bw)
        return out

    def sum_tensors(self, vars: list[Var]) -> Var:
        if not vars:
            raise ValueError("sum_tensors needs at least one input")
        shape = vars[0].value.shape
        for v in vars:
            if v.value.shape != shape:
                raise ValueError(f"sum_tensors shape mismatch: {v.value.shape} vs {shape}")
        total = vars[0].value.copy()
        for v in vars[1:]:
            total += v.value
        out = self._out(total)
        slots = [v.slot for v in vars]
        tr = self.tracker

        def bw(g):
            for slot in slots[:-1]:
                _acc(slot, g, False, tr)
            _hand_over(slots[-1], g)

        self._push(out.slot, bw)
        return out

    def gate_rows(self, x: Var, gate: Var, idx) -> Var:
        """Rows ``idx`` of ``x``, each scaled by its gate: ``x[idx] * gate[idx, None]``.

        ``idx`` must be strictly increasing. Only the kept rows are ever
        materialised; the record saves ``x`` and ``gate``, which their
        producers hold anyway, and backward scatters into the kept rows.
        """
        xv, gv = x.value, gate.value
        idx = np.asarray(idx, dtype=np.int64)
        if xv.ndim != 2 or gv.shape != (xv.shape[0],) or idx.ndim != 1:
            raise ValueError(
                f"gate_rows needs a 2-D input, one gate per row and 1-D indices, "
                f"got {xv.shape}, {gv.shape}, {idx.shape}"
            )
        if idx.size and (idx[0] < 0 or idx[-1] >= xv.shape[0] or np.any(np.diff(idx) <= 0)):
            raise ValueError(
                f"gate_rows indices must be strictly increasing in [0, {xv.shape[0]})"
            )
        value = xv[idx]
        value *= gv[idx, None]
        out = self._out(value)
        x_slot, g_slot, tr = x.slot, gate.slot, self.tracker
        x_saved = xv if g_slot is not None else None
        g_saved = gv if x_slot is not None else None
        shape = xv.shape

        def bw(g):
            if g_slot is not None:
                rows = x_saved[idx]
                rows *= g
                d_gate = np.zeros(shape[0])
                d_gate[idx] = rows.sum(axis=1)
                _acc(g_slot, d_gate, True, tr)
            if x_slot is not None:
                g *= g_saved[idx, None]
                d_x = np.zeros(shape)
                d_x[idx] = g
                _acc(x_slot, d_x, True, tr)

        self._push(out.slot, bw)
        return out

    def vecdot(self, a: Var, p: Var, segments=None) -> Var:
        av, pv = a.value, p.value
        if av.ndim != 2 or pv.shape != (av.shape[1],):
            raise ValueError(f"vecdot shape mismatch: {av.shape} . {pv.shape}")
        out = self._out(_segmented_matmul(av, pv, segments))
        a_slot, p_slot, tr = a.slot, p.slot, self.tracker
        a_saved = av if p_slot is not None else None
        p_saved = pv if a_slot is not None else None

        def bw(g):
            if a_slot is not None:
                _acc(a_slot, np.outer(g, p_saved), True, tr)
            if p_slot is not None:
                _acc(p_slot, g @ a_saved, True, tr)

        self._push(out.slot, bw)
        return out

    def div_by_norm(self, y: Var, p: Var) -> Var:
        """y / max(||p||_2, guard); the guard, when active, is a constant."""
        yv, pv = y.value, p.value
        raw = float(np.linalg.norm(pv))
        guarded = raw < _NORM_GUARD
        norm = _NORM_GUARD if guarded else raw
        out = self._out(yv / norm)
        y_slot, p_slot, tr = y.slot, p.slot, self.tracker
        y_saved = yv if (p_slot is not None and not guarded) else None
        p_saved = pv if (p_slot is not None and not guarded) else None

        def bw(g):
            if y_slot is not None:
                _acc(y_slot, g / norm, True, tr)
            if p_slot is not None and not guarded:
                coef = -float(np.vdot(g, y_saved)) / norm**3
                _acc(p_slot, coef * p_saved, True, tr)

        self._push(out.slot, bw)
        return out

    def softmax_xent(self, logits: Var, labels) -> Var:
        """Mean softmax cross-entropy over rows; scalar output."""
        lv = logits.value
        if lv.ndim == 1:
            lv = lv[None, :]
        if lv.ndim != 2:
            raise ValueError(f"logits must be 1-D or 2-D, got shape {logits.value.shape}")
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        n, c = lv.shape
        if labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            raise ValueError(f"label out of range for {c} classes")
        shifted = lv - lv.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - logsumexp
        rows = np.arange(n)
        loss = float(-logp[rows, labels].mean())
        out = self._out(np.array(loss))
        probs = np.exp(logp)
        l_slot, tr = logits.slot, self.tracker
        one_d = logits.value.ndim == 1

        def bw(g):
            if l_slot is not None:
                d = probs.copy()
                d[rows, labels] -= 1.0
                d *= float(g) / n
                _acc(l_slot, d[0] if one_d else d, True, tr)

        self._push(out.slot, bw)
        return out

    def spmm_mean(self, graph: _graphs.SparseGraph, x: Var) -> Var:
        """Mean over each node and its neighbours; the output needs a gradient
        only when ``x`` does."""
        x_slot, tr = x.slot, self.tracker
        out = self._out(_graphs.spmm_mean(graph, x.value), x_slot is not None)
        inv_deg = 1.0 / (graph.degrees + 1) if x_slot is not None else None

        def bw(g):
            g *= inv_deg[:, None]
            d = _graphs.neighbor_sum(graph, g)
            d += g
            _acc(x_slot, d, True, tr)

        self._push(out.slot, bw)
        return out


def glorot_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Glorot/Xavier uniform init: U(-a, a) with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("glorot_init needs rows, cols >= 1")
    bound = math.sqrt(6.0 / (rows + cols))
    return np.random.default_rng(seed).uniform(-bound, bound, size=(rows, cols))


def adam_step(
    params,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update; gradients are zeroed afterwards."""
    for p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {p.name!r}")
        p.step_count += 1
        t = p.step_count
        p.adam_m *= beta1
        p.adam_m += (1.0 - beta1) * g
        p.adam_v *= beta2
        p.adam_v += (1.0 - beta2) * g * g
        m_hat = p.adam_m / (1.0 - beta1**t)
        v_hat = p.adam_v / (1.0 - beta2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad[...] = 0.0


def finite_diff_check(fn, x: np.ndarray, h: float = 1e-5) -> float:
    """Worst-coordinate relative error between fn's gradient and central differences.

    ``fn(x)`` must return ``(value, gradient)`` where the gradient is the
    analytic (tape) gradient of the scalar value with respect to ``x``. The
    relative error is |a - b| / max(1, |a|, |b|).
    """
    _, grad = fn(x)
    grad = np.asarray(grad, dtype=np.float64)
    flat = x.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn(x)[0]
        flat[i] = orig - h
        f_minus = fn(x)[0]
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = grad.flat[i]
        err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
        worst = max(worst, err)
    return worst


_MAGIC = b"SPPOOLP\x01"
_VERSION = 1


def save_parameters(params, path) -> None:
    """Flat binary dump: magic, version, count, then per-parameter records.

    Each record: u32 name length, UTF-8 name, u32 ndim, u64 dims, then the
    values as little-endian float64.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.value.ndim))
            fh.write(struct.pack(f"<{p.value.ndim}Q", *p.value.shape))
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_parameters(path) -> list[tuple[str, np.ndarray]]:
    """Read a parameter file written by :func:`save_parameters`.

    A file that ends early, or runs on past its last record, raises
    ``ValueError`` naming the path and the byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if len(blob) - pos < size:
            raise ValueError(
                f"{path}: truncated at byte {pos}: {what} needs {size} bytes, "
                f"{len(blob) - pos} left"
            )
        pos += size
        return blob[pos - size : pos]

    if take(len(_MAGIC), "magic") != _MAGIC:
        raise ValueError(f"{path}: not a parameter file (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported parameter file version {version}")
    out = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4, f"{name!r} rank"))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"{name!r} shape"))
        data = np.frombuffer(take(8 * math.prod(shape), f"{name!r} values"), dtype="<f8")
        out.append((name, data.reshape(shape).astype(np.float64)))
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} unexpected bytes after byte {pos}")
    return out
