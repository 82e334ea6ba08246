"""Span tracing of sparsepool from outside the package.

:class:`Tracer` replaces public functions with timing wrappers at the place
the caller looks them up (``sparsepool.training.batch_graphs``, the ``Tape``
primitive methods, ...), records one span per call and restores the
originals afterwards. Nothing inside ``src/`` is edited, so the traced
program is the program as it is.

A span is ``(name, start, end, parent, step)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``step`` names the stage, training step
or evaluation batch it ran in. Spans stay in memory until :meth:`dump`.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from sparsepool import datasets, engine, graphs, layers, membench, training

MODULES = ("datasets", "graphs", "engine", "layers", "training", "membench")

# Span name of each public Tape method. Methods not listed (primitives a
# later version adds) are traced as "engine.other", so self times stay whole.
_TAPE_SPANS = {
    "matmul": "engine.matmul",
    "softmax_xent": "engine.loss",
    "spmm_mean": "engine.spmm",
    "backward": "engine.backward",
    **dict.fromkeys(
        ("gather_rows", "row_mean", "row_max", "concat_cols", "concat_rows"), "engine.readout"
    ),
    **dict.fromkeys(("vecdot", "div_by_norm", "tanh_elem", "scale_rows"), "engine.pool_score"),
    **dict.fromkeys(("add", "relu", "sum_tensors"), "engine.elementwise"),
}
_TAPE_PLUMBING = ("leaf", "param", "note", "probe_min")
# Every traced Tape method except backward pushes one tape record.
TAPE_RECORD_SPANS = frozenset(_TAPE_SPANS.values()) - {"engine.backward"} | {"engine.other"}


def _counts_parse(tr, directory, name):
    with open(Path(directory) / f"{name}_A.txt", "rb") as fh:
        tr.counts["datasets.edge_lines"] += fh.read().count(b"\n")


def _counts_matmul(tr, tape, a, b, segments=None):
    tr.counts["engine.matmul_blocks"] += 1 if segments is None else len(segments)


def _counts_aggregate(tr, graph, x):
    tr.counts["graphs.aggregate_nnz"] += int(graph.col_indices.size)


def _counts_subgraph(tr, graph, keep):
    tr.counts["graphs.subgraph_calls"] += 1
    tr.counts["layers.scored_nodes"] += int(graph.num_nodes)
    tr.counts["layers.kept_nodes"] += int(np.asarray(keep).size)


def _counts_batch(tr, *args, **kwargs):
    tr.counts["graphs.batch_calls"] += 1
    kind = "train" if tr.inside("training.train_one") else "eval"
    tr.counts[f"steps.{kind}"] += 1
    tr.step = f"{kind}/{tr.counts[f'steps.{kind}']}"


def _counts_adam(tr, params, lr, *rest, **kw):
    tr.counts["engine.adam_calls"] += 1


# (owner, attribute, span name, counter hook or None). Owners are where the
# caller looks the name up: module globals for functions, the class for
# Tape methods. Names a later version no longer has are skipped.
def _targets():
    t = [
        (datasets, "parse_tu_dataset", "datasets.parse", _counts_parse),
        (training, "degree_feature_bound", "datasets.featurize", None),
        (training, "with_degree_features", "datasets.featurize", None),
        (graphs, "spmm_mean", "graphs.aggregate", None),
        (graphs, "neighbor_sum", "graphs.aggregate", _counts_aggregate),
        (layers, "induced_subgraph", "graphs.subgraph", _counts_subgraph),
        (training, "batch_graphs", "graphs.batch", _counts_batch),
        (training, "adam_step", "engine.adam", _counts_adam),
        (engine, "save_parameters", "engine.save", None),
        (training, "model_forward", "layers.forward", None),
        (membench, "model_forward", "layers.forward", None),
        (training, "make_folds", "training.make_folds", None),
        (training, "prepare_fold", "training.prepare_fold", None),
        (training, "train_one", "training.train_one", None),
        (training, "evaluate", "training.evaluate", None),
        (training, "predict_logits", "training.predict", None),
        (membench, "measure_sparse", "membench.sparse_pass", None),
        (membench, "measure_dense_assignment", "membench.dense_model", None),
    ]
    t += [
        (engine.Tape, m, _TAPE_SPANS.get(m, "engine.other"),
         _counts_matmul if m == "matmul" else None)
        for m, fn in vars(engine.Tape).items()
        if callable(fn) and not m.startswith("_") and m not in _TAPE_PLUMBING
    ]
    return [target for target in t if target[1] in vars(target[0])]


class Tracer:
    """Collects spans and counters of one call made through :meth:`run`."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.step = "setup"
        self._stack: list[tuple[int, str]] = []

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self._stack)

    def _wrap(self, orig, name: str, hook):
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, *args, **kwargs)
            return self._call(name, orig, args, kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        if parent == 0:
            self.step = name  # a stage directly under the root span
        step = self.step
        self.spans.append(None)
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, step)

    def _note_counter(self, orig):
        def note(tracker, arr, tag):
            self.counts["membench.tracker_notes"] += 1
            return orig(tracker, arr, tag)

        return note

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span ("run") with every wrapper installed."""
        if self.spans:
            raise RuntimeError("a Tracer records a single run")
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, hook))
            note = vars(membench.MemoryTracker).get("note")
            if note is not None:
                saved.append((membench.MemoryTracker, "note", note))
                membench.MemoryTracker.note = self._note_counter(note)
            return self._call("run", fn, args, kwargs)
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def dump(self, path, header: dict) -> None:
        """Write the header and one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over one traced root span (see README.md for the map)."""
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_by: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    for (name, start, end, parent, _), s in zip(spans, own):
        # a span nested in one of the same name (spmm_mean -> neighbor_sum)
        # is already inside the outer span's time
        if parent < 0 or spans[parent][0] != name:
            total[name] += end - start
        self_by[name] += s
        module_self[name.split(".", 1)[0]] += s
    root = spans[0]
    run_s = root[2] - root[1]

    steps: dict[str, tuple[float, float]] = {}
    records = 0
    for name, start, end, _, step in spans:
        if step.startswith("train/"):
            lo, hi = steps.get(step, (start, end))
            steps[step] = (min(lo, start), max(hi, end))
            records += name in TAPE_RECORD_SPANS
    step_s = np.array([hi - lo for lo, hi in steps.values()]) if steps else np.zeros(1)

    c = tracer.counts
    m = {
        "datasets.parse_s": total["datasets.parse"],
        "datasets.edge_lines": c["datasets.edge_lines"],
        "datasets.featurize_s": total["datasets.featurize"],
        "graphs.aggregate_s": total["graphs.aggregate"],
        "graphs.aggregate_nnz": c["graphs.aggregate_nnz"],
        "graphs.subgraph_s": total["graphs.subgraph"],
        "graphs.subgraph_calls": c["graphs.subgraph_calls"],
        "graphs.batch_s": total["graphs.batch"],
        "graphs.batch_calls": c["graphs.batch_calls"],
        "engine.matmul_s": total["engine.matmul"],
        "engine.matmul_blocks": c["engine.matmul_blocks"],
        "engine.readout_s": total["engine.readout"],
        "engine.pool_score_s": total["engine.pool_score"],
        "engine.other_s": total["engine.other"],
        "engine.tape_records": records / max(1, len(steps)),
        "engine.backward_s": total["engine.backward"],
        "engine.backward_self_s": self_by["engine.backward"],
        "engine.loss_s": total["engine.loss"],
        "engine.adam_s": total["engine.adam"],
        "engine.adam_calls": c["engine.adam_calls"],
        "layers.forward_s": total["layers.forward"],
        "layers.forward_self_s": self_by["layers.forward"],
        "layers.scored_nodes": c["layers.scored_nodes"],
        "layers.kept_nodes": c["layers.kept_nodes"],
        "training.step_s.p50": float(np.percentile(step_s, 50)),
        "training.step_s.p90": float(np.percentile(step_s, 90)),
        "training.steps": len(steps),
        "membench.sparse_pass_s": total["membench.sparse_pass"],
        "membench.dense_model_s": total["membench.dense_model"],
        "membench.tracker_notes": c["membench.tracker_notes"],
        "trace.run_s": run_s,
        "trace.residual_s": own[0],
        "trace.spans": len(spans),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
        m[f"{module}.errors"] = tracer.errors[module]
    return m
