"""Dense-tensor reverse-mode engine with an explicit tape.

All values are 64-bit floats. A :class:`Tape` records one forward pass;
``backward`` replays the records in reverse and accumulates gradients into
leaf slots (parameters keep a persistent gradient buffer). Each record's
closure captures only the arrays its backward rule needs, and records are
released as soon as they have run, so activation buffers are freed at the
earliest point reference counting allows. Importing the module pins glibc's
mmap threshold at its 64-bit ceiling (:func:`_pin_mmap_threshold`), so a
freed N x F panel below 32 MiB is reused instead of mapped afresh.
"""
from __future__ import annotations

import ctypes
import math
import struct

import numpy as np

from . import graphs as _graphs
from .fileio import atomic_open

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
# Adam's moment decay rates and its denominator's guard (adam_step)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# glibc's mallopt parameters (malloc.h) and DEFAULT_MMAP_THRESHOLD_MAX, the
# ceiling its adaptive rule raises the mmap threshold to (32 MiB on 64-bit)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def _c_library():
    """The running process's C library, with ``mallopt``'s C signature
    declared where it has one; None where ctypes cannot load it."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
    return libc


def _pin_mmap_threshold(libc) -> bool:
    """Serve every allocation below 32 MiB from the heap, process-wide.

    glibc maps each block above its mmap threshold afresh and unmaps it on
    free, so every later panel of that size page-faults in again. The
    threshold starts at 128 KiB and rises to the largest mapped block freed
    so far, so which panels fault depends on which temporary happened to be
    freed first. This sets what that rule sets at its ceiling: the mmap
    threshold to ``DEFAULT_MMAP_THRESHOLD_MAX`` and the trim threshold to
    twice that. Where ``libc`` has no ``mallopt`` (not glibc) or ``mallopt``
    refuses, nothing changes. Returns whether the threshold was pinned.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        return False
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
    return True


_pin_mmap_threshold(_c_library())


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
    """A value on the tape plus the slot its gradient accumulates into.

    ``rebuild`` is None unless the record that made the value sets it to
    ``rows(start, stop)``, which returns a fresh copy of
    ``value[start:stop]`` with the same bytes, built from arrays the tape
    saves anyway. A record whose backward reads this input may save
    ``rebuild`` instead of ``value``.

    ``share_rows`` is None unless the record that made the value saves it
    whole for its own backward and sets it (a recorded ``Tape.mpconv``). A
    record that saves ``rows = value[idx]`` for strictly increasing ``idx``
    may set it back to None and call it once, as ``share_rows(idx, rows)``;
    the maker then reads those rows from ``rows``, keeps of the other rows
    only what its backward still needs, and drops its reference to
    ``value``.

    The value of an input leaf may be :class:`graphs.LabelCodes` (one-hot
    node features), which only ``Tape.mpconv`` reads; it takes no gradient.
    """

    __slots__ = ("value", "slot", "rebuild", "share_rows")

    def __init__(self, value: np.ndarray, slot: Slot | None):
        self.value = value
        self.slot = slot
        self.rebuild = None
        self.share_rows = None


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


def _equal_runs(counts: np.ndarray):
    """``(first segment, first row, segments, rows per segment)`` of each
    maximal run of equal entries in ``counts``."""
    sizes = counts.tolist()
    first = row = 0
    while first < len(sizes):
        n = sizes[first]
        stop = first + 1
        while stop < len(sizes) and sizes[stop] == n:
            stop += 1
        yield first, row, stop - first, n
        row += (stop - first) * n
        first = stop


def _segmented_matmul(av: np.ndarray, bv: np.ndarray, segments) -> np.ndarray:
    """``av @ bv`` computed segment by segment over the rows of ``av``.

    BLAS results depend on the row count, so each segment is its own
    product. A run of k segments of n rows each is one stacked product over
    the ``(k, n, K)`` view, which runs the same gufunc core on each block as
    k separate products (the same bytes) in one call. A run of one segment
    is a plain 2-D product, so a shuffled training batch, whose runs are
    mostly single graphs, costs what a per-segment loop does.
    """
    counts = np.asarray(segments, dtype=np.int64)
    rows = int(counts.sum())
    if rows != av.shape[0]:
        raise ValueError(f"segments sum to {rows}, expected {av.shape[0]} rows")
    shape = (av.shape[0],) if bv.ndim == 1 else (av.shape[0], bv.shape[1])
    value = np.empty(shape)
    for _, start, k, n in _equal_runs(counts):
        stop = start + k * n
        if k == 1:
            np.matmul(av[start:stop], bv, out=value[start:stop])
        else:
            np.matmul(
                av[start:stop].reshape((k, n) + av.shape[1:]),
                bv,
                out=value[start:stop].reshape((k, n) + shape[1:]),
            )
    return value


# a row-blocked loop touches a block of this many elements at a time
_ROW_BLOCK = 1 << 16


def _block_rows(width: int) -> int:
    return max(1, _ROW_BLOCK // max(1, width))


def _add_outer(out: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """out += outer(u, v), a few rows at a time, so no full-size temporary
    is made."""
    step = _block_rows(v.size)
    for start in range(0, u.size, step):
        out[start : start + step] += u[start : start + step, None] * v


def _transposed_products(rows, n: int, step: int, grads) -> list[np.ndarray]:
    """``[X.T @ g for g in grads]`` for the n-row X whose rows ``rows(start,
    stop)`` returns, ``step`` rows at a time.

    Each block of X is built once and read by every product. With ``step
    >= n`` this is one product per gradient, the bytes of ``X.T @ g``.
    """
    blk = rows(0, step)
    totals = [blk.T @ g[:step] for g in grads]
    for start in range(step, n, step):
        blk = rows(start, start + step)
        for total, g in zip(totals, grads):
            total += blk.T @ g[start : start + step]
    return totals


def _add_rows(out: np.ndarray, rows: np.ndarray, index: np.ndarray) -> None:
    """out += rows[index], a few rows at a time, so no full-size temporary
    is made."""
    step = _block_rows(rows.shape[1])
    for start in range(0, index.size, step):
        out[start : start + step] += rows[index[start : start + step]]


def _other_rows(n: int, idx: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``range(n)`` not in ``idx``."""
    other = np.ones(n, dtype=bool)
    other[idx] = False
    return other


def _unnoted(arr: np.ndarray, tag: str) -> None:
    """The ``note`` of a tape without a hook."""


class Tape:
    """Record of one forward pass, replayable in reverse for gradients.

    Each primitive call appends one record, ``(output slot, backward
    closure)``, and each primitive is one model stage: ``mpconv`` (a whole
    conv block), ``topk_gate`` (a whole pool block: score, select, gate),
    ``segment_readout`` (a block's readout, added into the running sum of
    the earlier ones), ``mlp_head`` (both head layers) and
    ``softmax_xent``. A training pass of the three-block model is 11
    records. The primitives see a whole batch at once (``mpconv``,
    ``topk_gate`` and ``segment_readout`` take per-graph row counts;
    ``mlp_head`` works row by row), so the number of records per pass
    does not depend on how many graphs a batch holds. Their per-graph
    kernels (the segmented products and the readout) make one stacked call
    per run of equal counts, so a batch in node-count order costs one call
    per distinct size rather than one per graph.

    ``tracker`` (optional) is the tape's one hook. It must expose
    ``note(array, tag)`` and is informed of every activation, gradient and
    CSR buffer the pass allocates. It may also expose ``margin(key,
    value)``, which is then handed each stability margin the pass meets
    ("relu_margin", "rowmax_gap", "score_boundary_gap", "score_min_gap"),
    so a caller can keep the smallest and reject inputs too close to a
    non-differentiable switch. Margins are computed only for a hook that
    takes them. With ``record=False`` the tape keeps no backward closures,
    so a forward-only pass frees each activation once nothing downstream
    reads it; such a tape cannot run :meth:`backward`.

    The tape alone decides what ``note`` is handed, and hands it each
    array once. An activation, or a working gradient a rule reads, is
    noted when it is made. A gradient a slot adopts (:meth:`_acc`) is
    noted when it is adopted, unless it is the incoming gradient of the
    running rule: :meth:`backward` hands each rule that array, and its
    maker has noted it already. A contribution added into a gradient that
    exists is a transient and is not noted.

    A backward rule owns its incoming gradient: :meth:`backward` drops it
    as soon as the rule returns, so the rule may overwrite it in place or
    hand it to one input's slot instead of copying it. It must then read it
    for nothing else, and an input that needs its own copy is served first.
    On a recording tape every primitive's output gets a gradient slot and
    its record is kept, and every parameter gradient is computed;
    :meth:`_acc` drops a gradient whose input has no slot (a constant leaf).

    A record saves no array another record already saves. The output of a
    recorded ``topk_gate`` carries a ``rebuild`` (see :class:`Var`) that
    gates its rows again from the pool record's saves, and an ``mpconv``
    reading it saves that instead of the pooled array. The output of a
    recorded ``mpconv`` carries a ``share_rows`` (see :class:`Var`): a
    ``topk_gate`` that drops rows of it saves the kept rows, and the conv
    record then keeps, instead of its whole output, only the ReLU signs of
    the dropped rows, packed to bits.
    """

    def __init__(self, tracker=None, record: bool = True):
        self._nodes: list = []
        self._consumed = False
        self.record = record
        self._note = getattr(tracker, "note", _unnoted)
        self._margin = getattr(tracker, "margin", None)
        self._incoming = None  # the incoming gradient of the running backward rule

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _noted(self, arr: np.ndarray, tag: str) -> np.ndarray:
        self._note(arr, tag)
        return arr

    def _acc(self, slot: Slot | None, g: np.ndarray) -> None:
        """Accumulate a gradient contribution into ``slot``.

        A slot with no gradient yet adopts ``g`` without copying, so ``g``
        must be an array no other slot holds. An adopted array is noted,
        unless it is the running rule's incoming gradient, which its maker
        has noted already.
        """
        if slot is None:
            return
        if slot.grad is None:
            slot.grad = g
            if g is not self._incoming:
                self._note(g, "grads")
        else:
            slot.grad += g

    def _mean_aggregate_grad(self, graph, g_scaled: np.ndarray) -> np.ndarray:
        """Gradient through mean aggregation, (A + I) g_scaled, of an upstream
        gradient already divided row-wise by degree + 1."""
        d = self._noted(_graphs.neighbor_sum(graph, g_scaled), "grads")
        d += g_scaled
        return d

    def _out(self, value: np.ndarray) -> Var:
        return Var(self._noted(value, "acts"), Slot())

    def _push(self, out_slot: Slot, fn) -> None:
        if self.record:
            self._nodes.append((out_slot, fn))

    def leaf(self, value, needs_grad: bool = False) -> Var:
        """Wrap an input array; gradients are kept only if requested.

        :class:`graphs.LabelCodes` are wrapped as they are, without a
        gradient: nothing on the tape builds their one-hot matrix whole.
        """
        if isinstance(value, _graphs.LabelCodes):
            if needs_grad:
                raise ValueError("label codes take no gradient")
            return Var(value, None)
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
            g = self._incoming = out_slot.grad
            if g is not None:
                fn(g)
            out_slot.grad = None  # complete: every consumer has already run
            nodes[i] = None  # release saved activations promptly
        self._nodes = []
        self._incoming = None

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def mpconv(
        self, graph: _graphs.SparseGraph, x: Var, theta: Var, theta_skip: Var, segments
    ) -> Var:
        """ReLU(mean_aggregate(X) @ theta + X @ theta_skip) as one record.

        The aggregation is linear, so it runs on the narrower side of theta.
        With ``F_in >= F_out`` the record computes mean_aggregate(X @ theta),
        and theta's and theta_skip's gradients read only X. With ``F_in <
        F_out`` it computes mean_aggregate(X) @ theta, aggregating fewer
        columns, and also saves mean_aggregate(X) for theta's gradient. The
        skip product is added into the aggregated buffer and the ReLU is
        applied in place, so the ReLU output is the only other N x F_out
        array the record saves. ``segments`` (per-graph row counts; ``[n]``
        for one graph) makes each product run graph by graph
        (:func:`_segmented_matmul`).

        The record saves the ReLU output only for backward's mask, and only
        until a ``topk_gate`` that drops rows of it calls the output's
        ``share_rows`` (see :class:`Var`). From then on the mask's kept rows
        come from the pool record's saved rows and its dropped rows from
        their signs, packed to one bit an entry, so the record holds no N x
        F_out array of its own, and the mask stays exact when another record
        sends gradient into the dropped rows. Backward rebuilds the mask as
        one N x F_out bool, as ``h > 0`` is one.

        When X has a ``rebuild`` (X is a pool output), the record saves the
        rebuild instead of X. Backward then forms ``X.T @ g`` and ``X.T @
        d`` over row blocks of at most ``_ROW_BLOCK`` elements, each block
        rebuilt once and read by both products, so no N x F_in copy of X is
        made again. Otherwise the record saves X and reads it as one block.

        X may be :class:`graphs.LabelCodes`, whose row i is one-hot with
        its 1.0 in column ``codes[i]`` (block 0 on node labels or degrees).
        Each product ``X @ M`` is then the row gather ``M[codes]``, and
        mean_aggregate(X) counts neighbor codes; no N x F_in array is saved.
        With ``F_in < F_out`` backward counts mean_aggregate(X) again for
        theta's gradient, and ``X.T @ g`` (``X.T @ d``) reads the one-hot X
        built as one transient block. Counting and gathering are exact, and
        the transposed products are the dense path's BLAS calls on the same
        bytes, so values and gradients equal the dense path on the one-hot
        matrix byte for byte, for finite theta without -0.0 entries (a
        dense product turns inf into NaN and may turn a lone -0.0 into
        +0.0).

        Backward masks its own gradient in place, drops the ReLU output (or
        the kept rows and sign bits) as soon as the mask is applied, and
        writes the theta-path product into the gradient's buffer when theta
        is square. It always computes
        theta's and theta_skip's gradients, and X's only when X has a slot
        (block 0's features have none).
        """
        xv, tv, sv = x.value, theta.value, theta_skip.value
        if (len(xv.shape) != 2 or tv.ndim != 2 or sv.shape != tv.shape
                or xv.shape[1] != tv.shape[0]):
            raise ValueError(
                f"mpconv shape mismatch: X {xv.shape}, theta {tv.shape}, theta_skip {sv.shape}"
            )
        coded = isinstance(xv, _graphs.LabelCodes)  # from a leaf, so without a gradient slot

        def project(m):  # X @ m
            # np.take gathers rows by the int32 codes faster than fancy indexing
            return np.take(m, xv.codes, axis=0) if coded else _segmented_matmul(xv, m, segments)

        agg_first = tv.shape[0] < tv.shape[1]
        if agg_first:
            agg = self._noted(_graphs.spmm_mean(graph, xv), "acts")
            h = self._noted(_segmented_matmul(agg, tv, segments), "acts")
            if coded:
                agg = None  # counted again in backward
        else:
            agg = None
            xt = self._noted(project(tv), "acts")
            h = self._noted(_graphs.spmm_mean(graph, xt), "acts")
            del xt
        h += self._noted(project(sv), "acts")
        if self._margin is not None and h.size:
            self._margin("relu_margin", float(np.min(np.abs(h))))
        np.maximum(h, 0.0, out=h)
        out = Var(h, Slot())
        if not self.record:
            return out
        x_slot, t_slot, s_slot = x.slot, theta.slot, theta_skip.slot
        n = xv.shape[0]
        # X's rows, read by theta's and theta_skip's gradients
        step = max(1, n)
        if coded:  # the one-hot X, built as one transient block
            rows = lambda start, stop: self._noted(xv.rows(start, stop), "acts")
        elif x.rebuild is None:  # X itself is saved, and read as one block
            rows = lambda start, stop: xv[start:stop]
        else:
            rows, step = x.rebuild, _block_rows(xv.shape[1])
        # bw recounts block 0's aggregate from codes; it never reads xv, so keeps no pooled X
        codes = xv if coded else None
        inv_deg = (1.0 / (graph.degrees + 1))[:, None]
        square = tv.shape[0] == tv.shape[1]
        shape = h.shape
        kept = idx = signs = None  # set when a pool shares its kept rows of h

        def share_rows(kept_idx, kept_rows):  # kept_rows is h[kept_idx]
            nonlocal h, kept, idx, signs
            signs = self._noted(np.packbits((h > 0.0)[_other_rows(n, kept_idx)]), "acts")
            h, kept, idx = None, kept_rows, kept_idx

        def relu_mask():  # h > 0.0
            if kept is None:
                return h > 0.0
            mask = np.empty(shape, dtype=bool)
            m = n - idx.size
            bits = np.unpackbits(signs, count=m * shape[1])
            mask[_other_rows(n, idx)] = bits.reshape(m, shape[1]).view(bool)
            mask[idx] = kept > 0.0
            return mask

        def bw(g):
            nonlocal h, agg, kept, signs
            np.multiply(g, relu_mask(), out=g)
            h = kept = signs = None  # read by nothing else
            if agg_first:
                if codes is not None:
                    agg = self._noted(_graphs.spmm_mean(graph, codes), "acts")
                self._acc(t_slot, agg.T @ g)
                agg = None
                (d_skip,) = _transposed_products(rows, n, step, [g])
            else:
                # the gradient of X @ theta
                d = self._mean_aggregate_grad(graph, self._noted(g * inv_deg, "grads"))
                d_skip, d_theta = _transposed_products(rows, n, step, [g, d])
                self._acc(t_slot, d_theta)
            self._acc(s_slot, d_skip)
            if x_slot is None:
                return
            self._acc(x_slot, g @ sv.T)  # x_slot.grad is set from here on
            if agg_first:
                d_agg = self._noted(g @ tv.T, "grads")
                d_agg *= inv_deg
                x_slot.grad += self._mean_aggregate_grad(graph, d_agg)
            elif square:
                x_slot.grad += np.matmul(d, tv.T, out=g)
            else:
                x_slot.grad += self._noted(d @ tv.T, "grads")

        out.share_rows = share_rows
        self._nodes.append((out.slot, bw))
        return out

    def topk_gate(self, x: Var, p: Var, counts, select):
        """Score, select and gate rows of ``x`` in one record.

        Each row's score is ``x_i . p / max(||p||, guard)``, computed per
        segment of ``counts`` (:func:`_segmented_matmul`); while the guard is
        active the norm is a constant. ``select(scores, margin)`` returns the
        kept row indices, strictly increasing, and the kept count of each
        segment; ``margin`` is the hook's ``margin`` callable, or None. The
        output is ``x[idx] * tanh(scores[idx])[:, None]``, so ``p`` gets a
        gradient through the gate. Returns ``(output, idx, kept counts)``.

        The record saves ``idx``, the kept gates, unless the guard is
        active the kept raw scores (which the norm's part of ``p``'s
        gradient reads), and the rows of ``x``. When rows are dropped and
        ``x`` has a ``share_rows`` (``x`` is a conv output), it gathers the
        kept rows of ``x`` once, ungated, saves them and hands them to
        ``share_rows``, so the conv record no longer holds ``x`` whole;
        otherwise it saves ``x`` itself. On a recorded tape the output's
        ``rebuild`` gates (from a saved ``x``, gathers and gates) any of its
        row blocks again from those, with the bytes of the output, so a
        record that reads the output in backward need not save it.

        Backward works on the kept rows only: it reads the saved ones, or
        gathers them once from ``x`` and frees the copy before it builds the
        input gradient, and adds the score term as a rank-1 update in place.
        When no row was dropped the gradient itself becomes the input's.
        """
        xv, pv = x.value, p.value
        if xv.ndim != 2 or pv.shape != (xv.shape[1],):
            raise ValueError(f"topk_gate shape mismatch: {xv.shape} . {pv.shape}")
        raw = self._noted(_segmented_matmul(xv, pv, counts), "acts")
        raw_norm = float(np.linalg.norm(pv))
        guarded = raw_norm < _NORM_GUARD
        norm = _NORM_GUARD if guarded else raw_norm
        scores = self._noted(raw / norm, "acts")
        gate = self._noted(np.tanh(scores), "acts")
        idx, kept = select(scores, self._margin)
        idx = np.asarray(idx, dtype=np.int64)
        n = xv.shape[0]
        if idx.ndim != 1 or (
            idx.size and (idx[0] < 0 or idx[-1] >= n or np.any(np.diff(idx) <= 0))
        ):
            raise ValueError(f"topk_gate indices must be strictly increasing in [0, {n})")
        every = idx.size == n  # then idx is 0..n-1
        share = None if every or not self.record else x.share_rows
        # the ungated kept rows backward reads: x itself when every row is
        # kept, a saved gather when x's maker takes it, else (None) gathered
        # from x again
        rows = None
        if every:
            t, rows = gate, xv
            value = xv * t[:, None]
        else:
            t = self._noted(gate[idx], "acts")
            if share is None:
                value = xv[idx]
                value *= t[:, None]
            else:
                rows = self._noted(xv[idx], "acts")
                value = rows * t[:, None]
        out = self._out(value)
        if not self.record:
            return out, idx, kept
        if share is not None:
            x.share_rows = None
            share(idx, rows)
            xv = None  # read through rows
        x_slot, p_slot = x.slot, p.slot
        r = None  # raw scores of the kept rows, for the norm's gradient
        if not guarded:
            r = raw if every else self._noted(raw[idx], "acts")
        del raw, scores, gate

        def kept_rows(start, stop):  # output rows start:stop, the same bytes
            if rows is not None:
                return self._noted(rows[start:stop] * t[start:stop, None], "acts")
            blk = self._noted(xv[idx[start:stop]], "acts")
            blk *= t[start:stop, None]
            return blk

        out.rebuild = kept_rows

        def bw(g):
            xr = self._noted(xv[idx], "acts") if rows is None else rows
            d_score = np.einsum("ij,ij->i", xr, g)
            d_score *= 1.0 - t * t
            d_raw = d_score / norm
            d_p = d_raw @ xr
            if not guarded:
                d_p -= (float(d_score @ r) / norm**3) * pv
            self._acc(p_slot, d_p)
            del xr
            g *= t[:, None]
            _add_outer(g, d_raw, pv)
            if every:
                self._acc(x_slot, g)
            else:
                d_x = np.zeros((n, g.shape[1]))
                d_x[idx] = g
                self._acc(x_slot, d_x)

        self._nodes.append((out.slot, bw))
        return out, idx, kept

    def segment_readout(self, x: Var, counts, summary: Var | None = None) -> Var:
        """Column-wise [mean || max] of each row segment, one row per segment.

        ``counts`` splits the rows of ``x`` into consecutive non-empty
        segments (the graphs of a batch); a single graph is one segment. The
        max gradient goes to the first row attaining each column's maximum.
        Each run of k segments of n rows is reduced as one ``(k, n, F)``
        view along axis 1 (sum, max, first-index argmax and the
        ``rowmax_gap`` margin), which adds each column's rows in the order a
        per-segment ``(n, F)`` reduction does, so the bytes are the same.
        ``np.maximum.reduceat`` along axis 0 was measured several times
        slower than ``max(axis=0)`` on large inputs.

        ``summary`` (optional) is a running sum of earlier readouts of the
        output's shape. The readout is added into its buffer, which becomes
        the output's value, so ``summary`` must be read for nothing else
        afterwards. Backward hands its gradient on to ``summary``'s slot once
        it has read it for ``x``.
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
        shape = (counts.size, 2 * f)
        if summary is not None and summary.value.shape != shape:
            raise ValueError(f"segment_readout summary of shape {summary.value.shape}, "
                             f"expected {shape}")
        x_slot = x.slot
        value = self._noted(np.empty(shape), "acts")
        mean, top = value[:, :f], value[:, f:]
        wants_grad = self.record and x_slot is not None
        first = np.empty((counts.size, f), dtype=np.int64) if wants_grad else None
        for i, start, k, n in _equal_runs(counts):
            blk = xv[start : start + k * n].reshape(k, n, f)
            run_top = top[i : i + k]
            np.add.reduce(blk, axis=1, out=mean[i : i + k])
            np.maximum.reduce(blk, axis=1, out=run_top)
            if wants_grad:
                first[i : i + k] = np.argmax(blk == run_top[:, None, :], axis=1)
            if self._margin is not None and n > 1:
                second = np.partition(blk, -2, axis=1)[:, -2]
                # exact zero-zero ties come from ReLU clamping and are stable
                live = ~((run_top == 0.0) & (second == 0.0))
                if np.any(live):
                    self._margin("rowmax_gap", float(np.min((run_top - second)[live])))
        mean /= counts[:, None]  # what blk.mean(axis=0) divides by
        if wants_grad:
            first += (np.cumsum(counts) - counts)[:, None]  # each segment's first row
        s_slot = None
        if summary is not None:
            summary.value += value
            value, s_slot = summary.value, summary.slot
        out = Var(value, Slot())
        cols = np.arange(f)

        def bw(g):
            if wants_grad:
                share = g[:, :f] / counts[:, None]  # each row's part of its mean
                if x_slot.grad is None:
                    d = np.repeat(share, counts, axis=0)
                    d[first, cols] += g[:, f:]
                    self._acc(x_slot, d)
                else:
                    # add into the gradient in place; the max entries get
                    # grad + (share + max), the bytes of grad += d with d as above
                    grad = x_slot.grad
                    at_max = grad[first, cols]
                    at_max += share + g[:, f:]
                    _add_rows(grad, share, np.repeat(np.arange(counts.size), counts))
                    grad[first, cols] = at_max
            self._acc(s_slot, g)

        self._push(out.slot, bw)
        return out

    def mlp_head(self, s: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
        """relu(s @ w1 + b1) @ w2 + b2 as one record, one output row per row of ``s``.

        Both products run row by row (:func:`_segmented_matmul` with one row
        per segment), so a graph's logits do not depend on the batch it is
        in. The biases are ``(1, width)`` rows added to every row. The
        ``relu_margin`` is taken on the pre-activation. The record saves
        ``s`` and the hidden activation; backward uses whole-matrix products.
        """
        sv, w1v, b1v, w2v, b2v = s.value, w1.value, b1.value, w2.value, b2.value
        hidden, width = w1v.shape[-1], w2v.shape[-1]
        if (sv.ndim != 2 or w1v.shape != (sv.shape[1], hidden) or b1v.shape != (1, hidden)
                or w2v.shape != (hidden, width) or b2v.shape != (1, width)):
            raise ValueError(
                f"mlp_head shape mismatch: s {sv.shape}, w1 {w1v.shape}, b1 {b1v.shape}, "
                f"w2 {w2v.shape}, b2 {b2v.shape}"
            )
        rows = np.ones(sv.shape[0], dtype=np.int64)
        h = self._noted(_segmented_matmul(sv, w1v, rows), "acts")
        h += b1v
        if self._margin is not None and h.size:
            self._margin("relu_margin", float(np.min(np.abs(h))))
        np.maximum(h, 0.0, out=h)
        out = self._out(_segmented_matmul(h, w2v, rows))
        out.value += b2v
        s_slot, w1_slot, b1_slot, w2_slot, b2_slot = (v.slot for v in (s, w1, b1, w2, b2))

        def bw(g):
            self._acc(b2_slot, g.sum(axis=0, keepdims=True))
            self._acc(w2_slot, h.T @ g)
            d = self._noted(g @ w2v.T, "grads")  # through the second product
            d *= h > 0.0
            self._acc(b1_slot, d.sum(axis=0, keepdims=True))
            self._acc(w1_slot, sv.T @ d)
            self._acc(s_slot, d @ w1v.T)

        self._push(out.slot, bw)
        return out

    def softmax_xent(self, logits: Var, labels) -> Var:
        """Mean softmax cross-entropy over the rows of 2-D logits; scalar output."""
        lv = logits.value
        if lv.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {lv.shape}")
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
        l_slot = logits.slot

        def bw(g):
            d = probs.copy()
            d[rows, labels] -= 1.0
            d *= float(g) / n
            self._acc(l_slot, d)

        self._push(out.slot, bw)
        return out


def glorot_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Glorot/Xavier uniform init: U(-a, a) with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("glorot_init needs rows, cols >= 1")
    bound = math.sqrt(6.0 / (rows + cols))
    return np.random.default_rng(seed).uniform(-bound, bound, size=(rows, cols))


def adam_step(params, lr: float) -> None:
    """One bias-corrected Adam update; gradients are zeroed afterwards.

    The moment decay rates and the denominator's guard are the usual Adam
    defaults, the module constants ``_BETA1`` (0.9), ``_BETA2`` (0.999) and
    ``_EPS`` (1e-8).
    """
    for p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {p.name!r}")
        p.step_count += 1
        t = p.step_count
        p.adam_m *= _BETA1
        p.adam_m += (1.0 - _BETA1) * g
        p.adam_v *= _BETA2
        p.adam_v += (1.0 - _BETA2) * g * g
        m_hat = p.adam_m / (1.0 - _BETA1**t)
        v_hat = p.adam_v / (1.0 - _BETA2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + _EPS)
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
_MAX_RANK = 64  # the most dimensions numpy 2 holds


def save_parameters(params, path) -> None:
    """Flat binary dump: magic, version, count, then per-parameter records.

    Each record: u32 name length, UTF-8 name, u32 ndim, u64 dims, then the
    values as little-endian float64. The file is replaced whole
    (:func:`fileio.atomic_open`): a failed write leaves the old one intact.
    """
    with atomic_open(path, "wb") as fh:
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
    ``ValueError`` naming the path and the byte offset; so do a bad magic,
    an unknown version, a name not in UTF-8 or given twice, a rank above 64
    and a shape numpy cannot hold. Every length is checked against the
    bytes left before it is read, so a garbage header allocates nothing large.
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
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: the name ending at byte {pos} is not UTF-8") from None
        if name in out:
            raise ValueError(f"{path}: {name!r} is named twice (again at byte {pos})")
        (ndim,) = struct.unpack("<I", take(4, f"{name!r} rank"))
        if ndim > _MAX_RANK:
            raise ValueError(f"{path}: {name!r} has rank {ndim}, more than {_MAX_RANK}")
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"{name!r} shape"))
        data = np.frombuffer(take(8 * math.prod(shape), f"{name!r} values"), dtype="<f8")
        try:
            value = data.reshape(shape)
        except ValueError as exc:  # too many dimensions, or one too large
            raise ValueError(
                f"{path}: {name!r} has a rank-{ndim} shape numpy cannot hold: {exc}"
            ) from None
        out[name] = value.astype(np.float64)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} unexpected bytes after byte {pos}")
    return list(out.items())
