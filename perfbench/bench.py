"""One benchmark workload, run in a process of its own (started by run.py).

Usage: python3 perfbench/bench.py --workload W --seed N --seconds S --trace 0|1
       [--data DIR] --work DIR --spans FILE --result FILE

With ``--trace 0`` it repeats the workload's command sequence until the time
is up and writes the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced repetitions and writes the per-layer metrics. Every
repetition is checked; a failed check counts the repetition as failed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsepool import cli, datasets, engine, graphs, layers, membench, training

import gen
import spans

SETUP_ONLY_REPS = 2  # extra set-up samples before the full repetitions
MIN_REPS = 2
SWEEP_SIZES = (2000, 4000, 8000, 16000)
SWEEP_BUDGET = 2**30
SLOPE_WINDOWS = {"sparse": (1.0, 0.15), "dense": (2.0, 0.15)}
MIN_TEST_FOR_FLOOR = 50  # smaller test slices are too few for an accuracy floor
# Forward-only passes per repetition of an end-to-end run. The first is the
# sequence's own; the others repeat it on the same model after the timed
# sequence, so a short pass (proteins: ~0.8 s) gets more samples.
EVAL_PASSES = {"proteins": 3, "collab": 1, "bench_mem": 1}


@dataclass
class Rep:
    """Stage times and outputs of one repetition of a workload's sequence."""

    train_s: float
    eval_s: tuple[float, ...]  # one sample per forward-only pass
    run_s: float
    trained: int  # graph passes with a backward
    evaluated: int  # forward-only graph passes
    outputs: tuple


def _median(values) -> float:
    return float(statistics.median(values))


class Workload:
    """What one workload runs and checks; :class:`Runner` repeats it."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.setup_samples: list[float] = []
        self.eval_passes = 1

    def setup(self):
        """Build the inputs of one repetition, appending its time to ``setup_samples``."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(SETUP_ONLY_REPS):
            self.setup()

    def rep(self, call) -> Rep:
        """One repetition; ``call(fn, ...)`` runs the part ``run_s`` times."""
        raise NotImplementedError

    def check(self, rep: Rep) -> list[str]:
        raise NotImplementedError

    def cli_check(self, rep: Rep) -> list[str]:
        raise NotImplementedError

    def peak_tracked_bytes(self) -> int:
        raise NotImplementedError

    def stats(self) -> str:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values the workload knows without tracing."""
        return {"membench.slope_sparse": 0.0, "membench.slope_dense": 0.0}


def _direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class DatasetWorkload(Workload):
    """The calls ``sparsepool train`` makes on one generated TU dataset."""

    def __init__(self, seed, out_dir, shape: gen.Shape, data_dir: Path):
        super().__init__(seed, out_dir)
        self.shape = shape
        self.data_dir = data_dir
        self.config = training.TrainConfig(
            hidden_dim=shape.hidden_dim, lr=shape.lr, epochs=shape.epochs,
            batch_size=shape.batch_size, seed=0,
        )

    def setup(self):
        start = time.perf_counter()
        dataset = datasets.parse_tu_dataset(self.data_dir, self.shape.name)
        split = training.make_folds(dataset, self.config)[0]
        train, test, _ = training.prepare_fold(dataset, split, self.config)
        self.setup_samples.append(time.perf_counter() - start)
        return dataset, train, test

    def _sequence(self):
        t0 = time.perf_counter()
        dataset, train, test = self.setup()
        t1 = time.perf_counter()
        model, losses = training.train_one(train, dataset.num_classes, self.config)
        t2 = time.perf_counter()
        train_acc = training.evaluate(model, train)
        test_acc = training.evaluate(model, test)
        t3 = time.perf_counter()
        engine.save_parameters(model.parameters(), self.out_dir / "model.params")
        t4 = time.perf_counter()
        self.dataset, self.train, self.test, self.model = dataset, train, test, model
        return t2 - t1, t3 - t2, t4 - t0, losses, train_acc, test_acc

    def rep(self, call) -> Rep:
        self.dataset = self.train = self.test = self.model = None
        gc.collect()
        train_s, eval_s, run_s, losses, train_acc, test_acc = call(self._sequence)
        params = (self.out_dir / "model.params").read_bytes()
        eval_samples = [eval_s]
        self.repeated_accs = []
        for _ in range(self.eval_passes - 1):
            start = time.perf_counter()
            accs = (training.evaluate(self.model, self.train),
                    training.evaluate(self.model, self.test))
            eval_samples.append(time.perf_counter() - start)
            self.repeated_accs.append(accs)
        return Rep(
            train_s, tuple(eval_samples), run_s,
            trained=self.config.epochs * len(self.train),
            evaluated=len(self.train) + len(self.test),
            outputs=(tuple(losses), train_acc, test_acc, params),
        )

    def check(self, rep: Rep) -> list[str]:
        losses, train_acc, test_acc, _ = rep.outputs
        bad = []
        if not all(math.isfinite(v) for v in losses):
            bad.append(f"non-finite epoch loss in {losses}")
        elif not losses[-1] < losses[0]:
            bad.append(f"last-epoch loss {losses[-1]} is not below the first {losses[0]}")
        labels = np.array([g.label for g in self.train + self.test])
        overall = (train_acc * len(self.train) + test_acc * len(self.test)) / labels.size
        floor = np.bincount(labels).max() / labels.size
        if not overall > floor:
            bad.append(f"accuracy {overall:.4f} is not above the majority share {floor:.4f}")
        if len(self.test) >= MIN_TEST_FOR_FLOOR:
            test_labels = np.array([g.label for g in self.test])
            test_floor = np.bincount(test_labels).max() / test_labels.size
            if not test_acc > test_floor:
                bad.append(f"test accuracy {test_acc:.4f} is not above {test_floor:.4f}")
        bad += [
            f"a repeated evaluation gave accuracies {accs}, not {(train_acc, test_acc)}"
            for accs in self.repeated_accs
            if accs != (train_acc, test_acc)
        ]
        return bad

    def cli_check(self, rep: Rep) -> list[str]:
        out = self.out_dir / "cli_train"
        argv = [
            "train", "--dataset", self.shape.name, "--data-dir", str(self.data_dir),
            "--hidden", str(self.config.hidden_dim), "--lr", repr(self.config.lr),
            "--epochs", str(self.config.epochs), "--batch-size", str(self.config.batch_size),
            "--seed", str(self.config.seed), "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return [f"sparsepool train exited {code}"]
        rows = dict(
            line.split(",", 1)
            for line in (out / "metrics.csv").read_text().splitlines()[1:]
        )
        losses, train_acc, test_acc, params = rep.outputs
        expected = {"train_accuracy": train_acc, "test_accuracy": test_acc,
                    "final_loss": losses[-1]}
        bad = [
            f"metrics.csv {key}={rows.get(key)} but the stage sequence gave {value!r}"
            for key, value in expected.items()
            if rows.get(key) != repr(value)
        ]
        if (out / "model.params").read_bytes() != params:
            bad.append("sparsepool train saved different parameters")
        return bad

    def peak_tracked_bytes(self) -> int:
        """Exact tracked peak of one forward+backward on the largest training batch.

        The batch holds the ``batch_size`` training graphs with the most nodes.
        """
        order = np.argsort([-g.graph.num_nodes for g in self.train], kind="stable")
        chunk = [self.train[i] for i in order[: self.config.batch_size]]
        batch = graphs.batch_graphs(chunk)
        model = layers.build_model(
            in_dim=batch.features.shape[1], hidden_dim=self.config.hidden_dim,
            num_classes=self.dataset.num_classes, pool_ratio=self.config.pool_ratio,
            num_blocks=self.config.num_blocks, seed=self.config.seed,
        )
        tracker = membench.MemoryTracker()
        tracker.note(batch.graph.row_offsets, "graph/csr")
        tracker.note(batch.graph.col_indices, "graph/csr")
        tracker.note(batch.features, "features")
        for p in model.parameters():
            for arr in (p.value, p.grad, p.adam_m, p.adam_v):
                tracker.note(arr, "params")
        tape = engine.Tape(tracker=tracker)
        loss = tape.softmax_xent(layers.model_forward(tape, batch, model), batch.labels)
        tape.backward(loss)
        return tracker.peak

    def stats(self) -> str:
        g = self.dataset.graphs
        nodes = np.mean([x.graph.num_nodes for x in g])
        edges = np.mean([x.graph.num_edges for x in g])
        return (
            f"graphs {len(g)}, mean |V| {nodes:.1f}, mean |E| {edges:.1f}, "
            f"feature width {self.train[0].features.shape[1]}, classes {self.dataset.num_classes}, "
            f"train/test {len(self.train)}/{len(self.test)}, epochs {self.config.epochs}, "
            f"batch {self.config.batch_size}, hidden {self.config.hidden_dim}, lr {self.config.lr}"
        )


class BenchMemWorkload(Workload):
    """``scaling_sweep`` over single G(n, 2n) graphs, as ``sparsepool bench-mem`` runs it.

    Set-up builds the sweep's input graphs and features; the "train" passes
    are the sweep's tracked forward+backward passes; the "eval" passes are
    untracked forward-only ``predict_logits`` calls on the same graphs.
    """

    def setup(self):
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        inputs = [
            graphs.LabeledGraph(
                graphs.erdos_renyi(n, 2 * n, self.seed),
                rng.standard_normal((n, membench.FIG_FEATURES)),
                0,
            )
            for n in SWEEP_SIZES
        ]
        model = layers.build_model(
            in_dim=membench.FIG_FEATURES, hidden_dim=membench.FIG_FEATURES, num_classes=2,
            pool_ratio=membench.SPARSE_RATIO, num_blocks=membench.FIG_BLOCKS, seed=self.seed,
        )
        self.setup_samples.append(time.perf_counter() - start)
        return inputs, model

    def rep(self, call) -> Rep:
        self.result = None
        gc.collect()
        inputs, model = self.setup()
        passes: list[float] = []
        orig = membench.measure_sparse

        def timed_pass(*args, **kwargs):
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                passes.append(time.perf_counter() - start)

        t1 = time.perf_counter()
        membench.measure_sparse = timed_pass
        try:
            result = call(
                membench.scaling_sweep, SWEEP_SIZES, budget_bytes=SWEEP_BUDGET, seed=self.seed
            )
        finally:
            membench.measure_sparse = orig
        t2 = time.perf_counter()
        logits = [training.predict_logits(model, [g]) for g in inputs]
        t3 = time.perf_counter()
        self.result = result
        return Rep(
            train_s=sum(passes), eval_s=(t3 - t2,), run_s=t2 - t1,
            trained=len(passes), evaluated=len(inputs),
            outputs=(result.to_csv(), result.slope_sparse, result.slope_dense,
                     tuple(r.feasible for r in result.dense),
                     b"".join(np.ascontiguousarray(x).tobytes() for x in logits)),
        )

    def check(self, rep: Rep) -> list[str]:
        _, slope_sparse, slope_dense, dense_feasible, logits = rep.outputs
        bad = []
        for kind, slope in (("sparse", slope_sparse), ("dense", slope_dense)):
            centre, width = SLOPE_WINDOWS[kind]
            if not abs(slope - centre) <= width:
                bad.append(f"{kind} slope {slope:.3f} outside {centre} +- {width}")
        if not all(r.feasible for r in self.result.sparse):
            bad.append("the sparse model exceeded the 1 GiB budget")
        if dense_feasible[-1] or not dense_feasible[0]:
            bad.append(f"dense feasibility {dense_feasible}: expected it to fail only at large n")
        if not np.all(np.isfinite(np.frombuffer(logits))):
            bad.append("non-finite forward-only logits")
        return bad

    def cli_check(self, rep: Rep) -> list[str]:
        out = self.out_dir / "cli_bench_mem"
        argv = ["bench-mem", "--sizes", ",".join(map(str, SWEEP_SIZES)), "--budget", "1GiB",
                "--seed", str(self.seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return [f"sparsepool bench-mem exited {code}"]
        if (out / "membench.csv").read_text() != rep.outputs[0]:
            return ["sparsepool bench-mem wrote a different membench.csv"]
        return []

    def peak_tracked_bytes(self) -> int:
        return self.result.sparse[-1].peak_bytes

    def layer_extras(self) -> dict[str, float]:
        return {"membench.slope_sparse": self.result.slope_sparse,
                "membench.slope_dense": self.result.slope_dense}

    def stats(self) -> str:
        return (
            f"sizes {list(SWEEP_SIZES)}, |E| = 2|V|, feature width {membench.FIG_FEATURES}, "
            f"blocks {membench.FIG_BLOCKS}, budget 1 GiB, "
            f"slopes sparse {self.result.slope_sparse:.4f} dense {self.result.slope_dense:.4f}"
        )


class Runner:
    """Runs checked operations and counts attempts and failures."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def op(self, fn, *args) -> list[str]:
        """One checked operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            bad = fn(*args)
        except Exception:
            traceback.print_exc()
            bad = ["raised"]
        if bad:
            self.failed += 1
            for line in bad:
                print(f"CHECK FAILED: {line}", file=sys.stderr)
        return bad

    def run_rep(self, call) -> Rep | None:
        holder: list[Rep] = []

        def one():
            rep = self.w.rep(call)
            holder.append(rep)
            bad = self.w.check(rep)
            if self.reference is None:
                self.reference = rep.outputs
            elif rep.outputs != self.reference:
                bad.append("outputs differ from the first repetition of this run")
            return bad

        self.op(one)
        return holder[0] if holder else None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
    }


def end_to_end(runner: Runner, seconds: float) -> dict:
    w = runner.w
    deadline = time.perf_counter() + seconds
    w.warm_up()
    reps: list[Rep] = []
    walls: list[float] = []  # whole repetitions, extra passes included
    while len(reps) < MIN_REPS or time.perf_counter() + _median(walls) <= deadline:
        start = time.perf_counter()
        rep = runner.run_rep(_direct)
        if rep is None:
            break
        if not reps:
            # what one `sparsepool train` (or bench-mem) run holds at its peak;
            # later repetitions only add allocator fragmentation that varies
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        w.setup()  # one more set-up sample per repetition, spread over the run
        reps.append(rep)
        walls.append(time.perf_counter() - start)
    if not reps:
        raise RuntimeError("no repetition completed")
    runner.op(w.cli_check, reps[0])
    tracked = w.peak_tracked_bytes()
    print(f"shape: {w.stats()}")
    print(f"repetitions {len(reps)}, set-up samples {len(w.setup_samples)}")
    for label, values in (
        ("set-up s", w.setup_samples),
        ("train s", [r.train_s for r in reps]),
        ("eval s", [s for r in reps for s in r.eval_s]),
        ("run s", [r.run_s for r in reps]),
    ):
        print(f"  {label:<9} " + " ".join(f"{v:.4f}" for v in values)
              + f"  (mean {statistics.fmean(values):.4f}, median {_median(values):.4f},"
              f" min {min(values):.4f})")
    # Whole-run totals, not the fastest or the median sample: the host drifts
    # between fast and slow phases, and total work over total time follows
    # the share of each phase smoothly where a minimum or median jumps
    # between runs (see README.md, Noise).
    return {
        "setup_s": _median(w.setup_samples),
        "train_graphs_per_s": sum(r.trained for r in reps) / sum(r.train_s for r in reps),
        "eval_graphs_per_s": (sum(r.evaluated * len(r.eval_s) for r in reps)
                              / sum(sum(r.eval_s) for r in reps)),
        "run_s": statistics.fmean(r.run_s for r in reps),
        "peak_rss_mb": rss_mb,
        "peak_tracked_bytes": tracked,
    }


def per_layer(runner: Runner, seconds: float, dump_path: Path, header: dict):
    w = runner.w
    deadline = time.perf_counter() + seconds
    plain: list[Rep] = []
    traced: list[tuple[Rep, spans.Tracer]] = []
    while not traced or (
        time.perf_counter() + _median([r.run_s for r in plain]) * 2.2 <= deadline
    ):
        tracer = spans.Tracer()
        if len(traced) % 2:  # alternate which side of the pair runs first
            traced_rep, rep = runner.run_rep(tracer.run), runner.run_rep(_direct)
        else:
            rep, traced_rep = runner.run_rep(_direct), runner.run_rep(tracer.run)
        if rep is None or traced_rep is None:
            break
        plain.append(rep)
        traced.append((traced_rep, tracer))
    if not traced:
        raise RuntimeError("no traced repetition completed")
    runner.op(w.cli_check, plain[0])

    samples = [spans.layer_metrics(t) for _, t in traced]
    counts_bad = [
        f"count {key} differs between traced repetitions"
        for key in ("layers.scored_nodes", "layers.kept_nodes", "graphs.aggregate_nnz",
                    "engine.matmul_blocks", "membench.tracker_notes")
        if len({s[key] for s in samples}) != 1
    ]
    for _, tracer in traced:
        own = spans.self_times(tracer.spans)
        root_s = tracer.spans[0][2] - tracer.spans[0][1]
        if abs(sum(own) - root_s) > 1e-6:
            counts_bad.append(f"self times sum to {sum(own)} s, not the traced {root_s} s")
    runner.op(lambda: counts_bad)
    metrics = {key: _median([s[key] for s in samples]) for key in samples[0]}
    metrics.update(w.layer_extras())
    metrics["trace.overhead_ratio"] = (
        _median([r.run_s for r, _ in traced]) / _median([r.run_s for r in plain])
    )

    last = traced[-1][1]
    own = spans.self_times(last.spans)
    by_module: dict[str, float] = {}
    for (name, *_), s in zip(last.spans[1:], own[1:]):
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + s
    root_s = last.spans[0][2] - last.spans[0][1]
    print(f"shape: {w.stats()}")
    print(f"repetitions {len(plain)} untraced + {len(traced)} traced")
    print(f"self time by module (last traced run, root span {root_s:.4f} s):")
    for module, s in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<10} {s:10.4f} s  {100 * s / root_s:5.1f}%")
    print(f"  {'residual':<10} {own[0]:10.4f} s  {100 * own[0] / root_s:5.1f}%"
          "  (benchmark code between wrapped calls)")
    print(f"  {'sum':<10} {sum(own):10.4f} s  vs traced run_s {root_s:.4f} s")
    last.dump(dump_path, dict(header, run_s=root_s))
    print(f"spans: {len(last.spans)} written to {dump_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("proteins", "collab", "bench_mem"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--data", type=Path, help="generated dataset directory")
    parser.add_argument("--work", type=Path, required=True, help="directory for the run's output files")
    parser.add_argument("--spans", type=Path, required=True, help="span dump of a traced run")
    parser.add_argument("--result", type=Path, required=True, help="where to write the result")
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    if args.workload == "bench_mem":
        workload = BenchMemWorkload(args.seed, args.work)
    else:
        workload = DatasetWorkload(args.seed, args.work, gen.MAKERS[args.workload][0], args.data)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} | "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    runner = Runner(workload)
    if args.trace:
        header = dict(env, workload=args.workload, seed=args.seed)
        metrics = per_layer(runner, args.seconds, args.spans, header)
    else:
        workload.eval_passes = EVAL_PASSES[args.workload]
        metrics = end_to_end(runner, args.seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
