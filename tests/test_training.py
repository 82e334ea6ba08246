"""Training loop, evaluation, and cross-validation tests."""
from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_cycle_star_task, random_graph
from sparsepool import engine
from sparsepool.datasets import Dataset, FoldSplit, parse_tu_dataset, stratified_kfold
from sparsepool.engine import Tape
from sparsepool.graphs import LabelCodes, LabeledGraph, batch_graphs, degree_onehot, from_edge_list
from sparsepool import training
from sparsepool.layers import build_model, forward_summaries, model_forward
from sparsepool.training import (
    DATASET_DEFAULTS,
    NonFiniteLossError,
    TrainConfig,
    cross_validate,
    default_config,
    evaluate,
    format_metrics,
    forward_batches,
    predict_logits,
    prepare_fold,
    train_one,
)


def quick_config(**overrides) -> TrainConfig:
    base = dict(hidden_dim=8, lr=0.01, epochs=2, batch_size=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestDefaults:
    def test_benchmark_settings(self):
        assert DATASET_DEFAULTS["PROTEINS"] == {"hidden_dim": 64, "lr": 0.005, "epochs": 40}
        assert DATASET_DEFAULTS["ENZYMES"] == {"hidden_dim": 128, "lr": 0.0005, "epochs": 100}
        assert DATASET_DEFAULTS["DD"] == {"hidden_dim": 64, "lr": 0.0005, "epochs": 20}
        assert DATASET_DEFAULTS["COLLAB"] == {"hidden_dim": 128, "lr": 0.0005, "epochs": 30}

    def test_default_config_resolves_aliases(self):
        cfg = default_config("d&d")
        assert cfg.hidden_dim == 64 and cfg.epochs == 20
        assert cfg.pool_ratio == 0.8 and cfg.num_blocks == 3 and cfg.batch_size == 64

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="no default configuration"):
            default_config("MYSTERY")

    def test_unknown_dataset_with_explicit_settings(self):
        cfg = default_config("FOO", hidden_dim=8, lr=0.1, epochs=1)
        assert (cfg.hidden_dim, cfg.lr, cfg.epochs) == (8, 0.1, 1)
        assert cfg.pool_ratio == 0.8 and cfg.num_blocks == 3

    def test_unknown_dataset_with_partial_settings_rejected(self):
        with pytest.raises(ValueError, match="no default configuration for dataset 'FOO'"):
            default_config("FOO", hidden_dim=8, lr=0.1)

    def test_overrides_apply_over_known_defaults(self):
        cfg = default_config("PROTEINS", epochs=3, seed=5)
        assert (cfg.hidden_dim, cfg.lr, cfg.epochs, cfg.seed) == (64, 0.005, 3, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            quick_config(pool_ratio=0.0).validate()
        with pytest.raises(ValueError):
            quick_config(epochs=0).validate()
        with pytest.raises(ValueError):
            quick_config(readout_position="middle").validate()
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"max_degree must be >= 1, got {bad}"):
                quick_config(max_degree=bad).validate()
        quick_config(max_degree=1).validate()

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_non_finite_or_negative_lr(self, lr):
        with pytest.raises(ValueError, match="lr must be a finite number >= 0"):
            quick_config(lr=lr).validate()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            quick_config(seed=-1).validate()


class TestTrainOne:
    def test_separable_task_reaches_high_accuracy(self):
        task = make_cycle_star_task()
        model, losses = train_one(task, 2, quick_config(hidden_dim=32, epochs=10))
        assert evaluate(model, task) >= 0.95
        assert losses[-1] < 0.1  # loss eventually small on the separable task

    def test_zero_lr_keeps_initial_model(self):
        task = make_cycle_star_task(reps=5)
        cfg = quick_config(lr=0.0, epochs=3)
        model, _ = train_one(task, 2, cfg)
        fresh = build_model(
            in_dim=task[0].features.shape[1],
            hidden_dim=cfg.hidden_dim,
            num_classes=2,
            pool_ratio=cfg.pool_ratio,
            num_blocks=cfg.num_blocks,
            seed=cfg.seed,
        )
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(p.value, q.value)
        assert evaluate(model, task) == evaluate(fresh, task)

    def test_one_epoch_full_batch_is_one_step(self):
        task = make_cycle_star_task(reps=5)
        cfg = quick_config(epochs=1, batch_size=len(task))
        model, _ = train_one(task, 2, cfg)
        assert all(p.step_count == 1 for p in model.parameters())

    def test_step_count_matches_batches(self):
        task = make_cycle_star_task(reps=8)  # 16 graphs
        cfg = quick_config(epochs=3, batch_size=5)  # 4 batches per epoch
        model, _ = train_one(task, 2, cfg)
        assert all(p.step_count == 12 for p in model.parameters())

    def test_deterministic_per_seed(self):
        task = make_cycle_star_task(reps=6)
        a, losses_a = train_one(task, 2, quick_config(seed=5))
        b, losses_b = train_one(task, 2, quick_config(seed=5))
        assert losses_a == losses_b
        for p, q in zip(a.parameters(), b.parameters()):
            assert np.array_equal(p.value, q.value)

    def test_initial_loss_near_log_c(self):
        task = make_cycle_star_task(reps=6)
        batch = batch_graphs(task)
        for num_classes, seed in [(2, 0), (4, 1)]:
            model = build_model(task[0].features.shape[1], 16, num_classes, seed=seed)
            tape = Tape()
            loss = tape.softmax_xent(model_forward(tape, batch, model), batch.labels % num_classes)
            assert abs(float(loss.value) - math.log(num_classes)) < 0.5

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            train_one([], 2, quick_config())

    def test_non_finite_loss_aborts_with_diagnostics(self):
        task = make_cycle_star_task(reps=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError, match=r"epoch.*batch.*norms"):
                train_one(task, 2, quick_config(lr=1e80, epochs=4))


class TestEvaluate:
    def test_constant_predictor_scores_class_share(self):
        task = make_cycle_star_task(reps=5)  # 5 cycles, 5 stars
        lopsided = task[:7]  # 4 cycles (class 0), 3 stars
        model = build_model(task[0].features.shape[1], 8, 2, seed=0)
        _, _, w2, b2 = model.head
        w2.value[...] = 0.0
        b2.value[...] = [[1.0, 0.0]]  # always argmax class 0
        share = np.mean([g.label == 0 for g in lopsided])
        assert evaluate(model, lopsided) == share

    def test_single_graph_accuracy_binary(self):
        task = make_cycle_star_task(reps=2)
        model, _ = train_one(task, 2, quick_config(epochs=1))
        assert evaluate(model, task[:1]) in (0.0, 1.0)

    def test_feature_mismatch_rejected(self):
        task = make_cycle_star_task(reps=3)
        model = build_model(99, 8, 2, seed=0)
        with pytest.raises(ValueError):
            evaluate(model, task)

    def test_empty_rejected(self):
        model = build_model(3, 8, 2, seed=0)
        with pytest.raises(ValueError):
            evaluate(model, [])

    def test_forward_looked_up_at_call_time(self, monkeypatch):
        # a wrapper on training.model_forward must see every evaluation pass
        task = make_cycle_star_task(reps=3)
        model = build_model(task[0].features.shape[1], 8, 2, seed=0)
        seen = []
        original = training.model_forward

        def counting(tape, batch, m):
            seen.append(batch.labels.size)
            return original(tape, batch, m)

        monkeypatch.setattr(training, "model_forward", counting)
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 4)
        logits = predict_logits(model, task)
        assert len(seen) == 2 and sum(seen) == len(task)  # node-balanced cut: 3 and 3
        assert logits.shape == (len(task), 2)

    def test_forward_batches_match_one_batch(self, monkeypatch):
        task = make_cycle_star_task(reps=3)
        model = build_model(task[0].features.shape[1], 8, 2, seed=0)
        whole = forward_summaries(Tape(record=False), batch_graphs(task), model).value
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", 4)
        assert np.array_equal(forward_batches(forward_summaries, model, task), whole)
        assert forward_batches(forward_summaries, model, []).shape == (0, 0)


def size_shuffled_graphs(seed: int = 5):
    """Graphs of 1 to 11 nodes with many repeated sizes, one graph larger
    than all the others together, and a 1-node graph, in shuffled order."""
    rng = np.random.default_rng(seed)
    sizes = [1, *rng.integers(2, 12, size=60).tolist()]
    sizes.append(sum(sizes) + 1)
    graphs = []
    for n in rng.permutation(sizes).tolist():
        graph = random_graph(rng, n, edge_prob=min(0.4, 4.0 / n))
        graphs.append(LabeledGraph(graph, rng.standard_normal((n, 5)), int(rng.integers(3))))
    return graphs


class TestForwardBatches:
    """Forward-only batches are cut in node-count order and scattered back."""

    @pytest.fixture(scope="class")
    def setup(self):
        return size_shuffled_graphs(), build_model(5, 8, 3, seed=2)

    @pytest.mark.parametrize("batch_size", [1, 4, 16, 256])
    def test_rows_come_back_in_input_order(self, setup, batch_size, monkeypatch):
        graphs, model = setup
        single = np.concatenate(
            [model_forward(Tape(record=False), batch_graphs([g]), model).value for g in graphs]
        )
        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", batch_size)
        batched = forward_batches(model_forward, model, graphs)
        assert batched.tobytes() == single.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 30, 61, 62, 500])
    def test_batches_are_node_balanced_and_never_empty(self, setup, batch_size, monkeypatch):
        graphs, model = setup
        seen = []

        def forward(tape, batch, m):
            seen.append(np.asarray(batch.node_counts))
            return forward_summaries(tape, batch, m)

        monkeypatch.setattr(training, "EVAL_BATCH_SIZE", batch_size)
        forward_batches(forward, model, graphs)
        parts = math.ceil(len(graphs) / batch_size)
        share = math.ceil(sum(g.graph.num_nodes for g in graphs) / parts)
        assert 1 <= len(seen) <= parts
        assert sum(c.size for c in seen) == len(graphs)
        for counts in seen:
            assert counts.size >= 1
            assert np.all(np.diff(counts) >= 0)  # node-count order
            assert counts.sum() <= share + counts.max()

    def test_one_product_per_distinct_segment_size(self, monkeypatch):
        # a sorted 256-graph batch: every segmented product makes at most one
        # np.matmul call per distinct segment size
        rng = np.random.default_rng(9)
        graphs = []
        for n in rng.integers(3, 9, size=256).tolist():
            graphs.append(LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 5)), 0))
        model = build_model(5, 8, 3, seed=4)
        calls, products = [0], []
        real_matmul, real_segmented = np.matmul, engine._segmented_matmul

        def counting_matmul(*args, **kwargs):
            calls[0] += 1
            return real_matmul(*args, **kwargs)

        def segmented(av, bv, segments):
            before = calls[0]
            value = real_segmented(av, bv, segments)
            products.append((calls[0] - before, np.unique(segments).size))
            return value

        monkeypatch.setattr(np, "matmul", counting_matmul)
        monkeypatch.setattr(engine, "_segmented_matmul", segmented)
        assert training.EVAL_BATCH_SIZE == 256  # the whole list is one batch
        forward_batches(model_forward, model, graphs)
        assert len(products) >= 3 * 3 + 2  # scores and projections of every block, the head
        assert all(made <= distinct for made, distinct in products)
        assert max(distinct for _, distinct in products) > 1


class TestCrossValidate:
    def dataset(self, fixtures_dir) -> Dataset:
        return parse_tu_dataset(fixtures_dir / "TOY24", "TOY24")

    def test_runs_and_aggregates(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        result = cross_validate(ds, quick_config(folds=4))
        assert len(result.fold_accuracies) == 4
        assert abs(result.mean_accuracy - np.mean(result.fold_accuracies)) < 1e-12
        assert abs(result.std_accuracy - np.std(result.fold_accuracies)) < 1e-12
        assert len(result.fold_epoch_losses) == 4
        # featureless corpus: every fold resolves a training-portion degree cap
        assert all(isinstance(b, int) and 1 <= b <= 400 for b in result.resolved["degree_bounds"])

    def test_bit_reproducible(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        a = cross_validate(ds, quick_config(folds=3))
        b = cross_validate(ds, quick_config(folds=3))
        assert a.fold_accuracies == b.fold_accuracies
        assert a.fold_epoch_losses == b.fold_epoch_losses
        assert format_metrics(a) == format_metrics(b)

    def test_parallel_folds_match_sequential(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        seq = cross_validate(ds, quick_config(folds=3), jobs=1)
        par = cross_validate(ds, quick_config(folds=3), jobs=2)
        untimed = dict(fold_seconds=[], wall_seconds=0.0)
        assert replace(seq, **untimed) == replace(par, **untimed)

    def test_fold_tasks_do_not_carry_the_dataset(self, fixtures_dir, monkeypatch):
        # each worker gets the dataset once, from the pool initializer; a
        # fold task pickles to its split and the config only
        tasks = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.extend(pickle.dumps(item) for item in items)
                return map(fn, [pickle.loads(task) for task in tasks])

        monkeypatch.setattr(training, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(training, "_worker_dataset", None)  # restored after the test
        ds = self.dataset(fixtures_dir)
        result = cross_validate(ds, quick_config(folds=3), jobs=2)
        assert len(tasks) == 3
        assert len(pickle.dumps(ds)) > 5_000
        assert all(len(task) < 5_000 for task in tasks)
        assert result.fold_accuracies == cross_validate(ds, quick_config(folds=3)).fold_accuracies

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (64, 3)])
    def test_worker_count_is_capped_at_fold_count(self, fixtures_dir, monkeypatch, jobs, workers):
        started = []

        class SerialPool:
            """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(training, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(training, "_worker_dataset", None)  # restored after the test
        ds = self.dataset(fixtures_dir)
        result = cross_validate(ds, quick_config(folds=3), jobs=jobs)
        assert started == [workers]
        assert result.fold_accuracies == cross_validate(ds, quick_config(folds=3)).fold_accuracies

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, fixtures_dir, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            cross_validate(self.dataset(fixtures_dir), quick_config(folds=3), jobs=jobs)

    def test_folds_never_leak_test_graphs(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        splits = stratified_kfold(ds.labels(), 4, seed=0)
        for split in splits:
            train, test, _ = prepare_fold(ds, split, quick_config(folds=4))
            assert len(train) + len(test) == len(ds.graphs)
            assert set(split.train_indices) & set(split.test_indices) == set()

    def test_degree_bound_respects_override(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        splits = stratified_kfold(ds.labels(), 4, seed=0)
        # the pin replaces the training portion's 95th-percentile bound, 4 here
        assert prepare_fold(ds, splits[0], quick_config(folds=4))[2] == 4
        train, test, bound = prepare_fold(ds, splits[0], quick_config(folds=4, max_degree=7))
        assert bound == 7 and type(bound) is int
        assert train[0].features.shape[1] == 8
        assert test[0].features.shape[1] == 8

    def test_features_are_codes(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        train, test, bound = prepare_fold(ds, stratified_kfold(ds.labels(), 4, seed=0)[0],
                                          quick_config(folds=4))
        for lg in train + test:
            assert isinstance(lg.features, LabelCodes)
            assert lg.features.shape == (lg.graph.num_nodes, bound + 1)
            assert np.array_equal(lg.features.codes, np.minimum(lg.graph.degrees, bound))

    def test_max_degree_past_the_largest_degree_is_rejected(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        split = stratified_kfold(ds.labels(), 4, seed=0)[0]
        with pytest.raises(ValueError, match="max_degree 9 exceeds 8, the largest degree"):
            prepare_fold(ds, split, quick_config(folds=4, max_degree=9))
        _, _, bound = prepare_fold(ds, split, quick_config(folds=4, max_degree=8))
        assert bound == 8

    def test_max_degree_cap_is_at_least_one(self):
        # a dataset without edges has largest degree 0, but the cap is never below 1
        structures = [from_edge_list(2, []) for _ in range(4)]
        ds = Dataset("EMPTY", [LabeledGraph(g, degree_onehot(g, 1), i % 2)
                               for i, g in enumerate(structures)], 2, "degree_onehot")
        split = FoldSplit(0, np.array([0, 1]), np.array([2, 3]))
        with pytest.raises(ValueError, match="max_degree 2 exceeds 1, the largest degree"):
            prepare_fold(ds, split, quick_config(max_degree=2))
        assert prepare_fold(ds, split, quick_config(max_degree=1))[2] == 1

    def test_unstratified_folds_still_partition(self, fixtures_dir):
        from sparsepool.training import make_folds

        ds = self.dataset(fixtures_dir)
        splits = make_folds(ds, quick_config(folds=4, stratified=False))
        all_test = np.sort(np.concatenate([s.test_indices for s in splits]))
        assert np.array_equal(all_test, np.arange(len(ds.graphs)))
        strat = make_folds(ds, quick_config(folds=4, stratified=True))
        assert any(
            not np.array_equal(a.test_indices, b.test_indices)
            for a, b in zip(splits, strat)
        )

    def test_degenerate_model_scores_near_chance(self, fixtures_dir):
        # hidden 1, lr 0: the untrained head cannot separate the balanced corpus
        ds = self.dataset(fixtures_dir)
        result = cross_validate(ds, quick_config(hidden_dim=1, lr=0.0, folds=4))
        assert 0.2 <= result.mean_accuracy <= 0.8

    def test_metrics_format_has_no_timing(self, fixtures_dir):
        ds = self.dataset(fixtures_dir)
        result = cross_validate(ds, quick_config(folds=3))
        text = format_metrics(result)
        lines = text.strip().splitlines()
        assert lines[0] == "fold,accuracy,epochs"
        assert len(lines) == 4
        for line in lines[1:]:
            fold, acc, epochs = line.split(",")
            assert 0.0 <= float(acc) <= 1.0
            assert int(epochs) == 2
