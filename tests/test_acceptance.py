"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`. The Proteins benchmark
criterion needs the TUDataset files on disk (see README); it skips with
instructions when the data is absent. The remaining benchmark datasets are
opt-in via SPARSEPOOL_FULL_BENCH=1.
"""
from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    dense_topk_oracle,
    make_cycle_star_task,
    model_loss_fn,
    permute_graph,
    random_graph,
    stable_instance,
)
from sparsepool.cli import main as cli_main
from sparsepool.datasets import parse_tu_dataset
from sparsepool.engine import Parameter, Tape, finite_diff_check
from sparsepool.graphs import LabeledGraph, batch_graphs
from sparsepool.layers import model_forward, topk_pool
from sparsepool.membench import scaling_sweep
from sparsepool.training import TrainConfig, cross_validate, evaluate, train_one

GIB = 2**30
FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} [{name}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over budget {budget_seconds}s"


def test_criterion_1_gradient_correctness():
    from test_engine import TestPrimitiveGradients

    with criterion(1, "gradient correctness", 120.0):
        # per-primitive finite-difference checks, tolerance 1e-6
        suite = TestPrimitiveGradients()
        suite.setup_method()
        for name in dir(suite):
            if name.startswith("test_") and "raise" not in name and "reject" not in name:
                getattr(suite, name)()
        # end-to-end: every parameter of 50 margin-filtered random models
        worst = 0.0
        for seed in range(50):
            batch, model = stable_instance(seed, n_range=(4, 12), f_range=(2, 8))
            for p in model.parameters():
                err = finite_diff_check(model_loss_fn(batch, model, p), p.value.copy())
                worst = max(worst, err)
        assert worst < 1e-4, f"worst end-to-end relative error {worst:.3e}"


def test_criterion_2_pooling_matches_dense_oracle():
    with criterion(2, "pooling oracle equivalence", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            graph = random_graph(rng, n, edge_prob=float(rng.uniform(0.1, 0.9)))
            f = int(rng.integers(1, 7))
            x = rng.standard_normal((n, f))
            p = rng.standard_normal(f)
            ratio = float(rng.uniform(0.05, 1.0))
            sub, pooled, idx = topk_pool(Tape(), graph, Tape().leaf(x), Parameter("p", p), ratio)
            o_idx, o_feats, o_adj = dense_topk_oracle(graph.to_dense(), x, p, ratio)
            assert np.array_equal(idx, o_idx)
            assert np.array_equal(pooled.value, o_feats)
            assert np.array_equal(sub.to_dense(), o_adj)


def test_criterion_3_permutation_invariance():
    with criterion(3, "permutation invariance", 60.0):
        worst = 0.0
        for seed in range(100):
            batch, model = stable_instance(seed, n_range=(4, 15), f_range=(2, 6))
            base = model_forward(Tape(), batch, model).value
            rng = np.random.default_rng(seed + 77_000)
            sigma = rng.permutation(batch.graph.num_nodes)
            pg, px = permute_graph(batch.graph, batch.features, sigma)
            pbatch = batch_graphs([LabeledGraph(pg, px, int(batch.labels[0]))])
            permuted = model_forward(Tape(), pbatch, model).value
            worst = max(worst, float(np.max(np.abs(permuted - base))))
        assert worst < 1e-9, f"worst logit deviation {worst:.3e}"


def test_criterion_4_memory_scaling():
    with criterion(4, "memory scaling", 300.0):
        result = scaling_sweep([2000, 4000, 8000, 16000], budget_bytes=GIB)
        assert abs(result.slope_sparse - 1.0) <= 0.15, result.slope_sparse
        assert abs(result.slope_dense - 2.0) <= 0.15, result.slope_dense
        # at a 1 GiB budget the dense baseline runs out strictly before sparse
        dense_limit = min(
            (n for n, r in zip(result.sizes, result.dense) if not r.feasible),
            default=math.inf,
        )
        sparse_limit = min(
            (n for n, r in zip(result.sizes, result.sparse) if not r.feasible),
            default=math.inf,
        )
        assert dense_limit < sparse_limit, (dense_limit, sparse_limit)


def test_criterion_5_synthetic_learning():
    with criterion(5, "synthetic end-to-end learning", 60.0):
        task = make_cycle_star_task(reps=30)  # 60 graphs
        config = TrainConfig(
            hidden_dim=32, lr=0.01, epochs=30, pool_ratio=0.8, batch_size=16, seed=0
        )
        model, losses = train_one(task, 2, config)
        accuracy = evaluate(model, task)
        assert accuracy >= 0.95, f"train accuracy {accuracy}"
        assert losses[-1] < 0.1
        # seed determinism
        model_b, losses_b = train_one(task, 2, config)
        assert losses == losses_b
        for p, q in zip(model.parameters(), model_b.parameters()):
            assert np.array_equal(p.value, q.value)


def _find_tu_dataset(name: str) -> Path | None:
    candidates = [os.environ.get("SPARSEPOOL_DATA"), "data", "tests/data"]
    for base in candidates:
        if not base:
            continue
        for directory in (Path(base) / name, Path(base)):
            if (directory / f"{name}_A.txt").is_file():
                return directory
    return None


PROTEINS_SKIP = (
    "PROTEINS dataset not found. Download the TUDataset 'PROTEINS' (e.g. with "
    "scripts/fetch_tudataset.py, network required) into data/PROTEINS/ or point "
    "SPARSEPOOL_DATA at it, then rerun."
)


def test_criterion_6_proteins_benchmark():
    directory = _find_tu_dataset("PROTEINS")
    if directory is None:
        pytest.skip(PROTEINS_SKIP)
    with criterion(6, "Proteins benchmark reproduction", 7200.0):
        dataset = parse_tu_dataset(directory, "PROTEINS")
        means = []
        for seed in (0, 1, 2):
            config = TrainConfig(
                hidden_dim=64, lr=0.005, epochs=40, pool_ratio=0.8,
                batch_size=64, seed=seed,
            )
            result = cross_validate(dataset, config, jobs=2)
            means.append(result.mean_accuracy * 100.0)
            print(f"  seed {seed}: mean accuracy {means[-1]:.2f}%")
        median = float(np.median(means))
        assert median >= 70.5, f"median accuracy {median:.2f}% below the 70.5% baseline"
        assert abs(median - 75.46) <= 5.0, f"median {median:.2f}% not within 5 points of 75.46"


FULL_BENCH = {
    "ENZYMES": (64.17, dict(hidden_dim=128, lr=0.0005, epochs=100)),
    "DD": (78.59, dict(hidden_dim=64, lr=0.0005, epochs=20)),
    "COLLAB": (74.54, dict(hidden_dim=128, lr=0.0005, epochs=30)),
}


@pytest.mark.parametrize("name", sorted(FULL_BENCH))
def test_optional_full_benchmark(name):
    if not os.environ.get("SPARSEPOOL_FULL_BENCH"):
        pytest.skip("opt-in: set SPARSEPOOL_FULL_BENCH=1 (long-running)")
    directory = _find_tu_dataset(name)
    if directory is None:
        pytest.skip(f"{name} dataset not found (see README for fetching)")
    target, settings = FULL_BENCH[name]
    dataset = parse_tu_dataset(directory, name)
    means = []
    for seed in (0, 1, 2):
        config = TrainConfig(pool_ratio=0.8, batch_size=64, seed=seed, **settings)
        result = cross_validate(dataset, config, jobs=2)
        means.append(result.mean_accuracy * 100.0)
    median = float(np.median(means))
    assert abs(median - target) <= 5.0, f"{name}: median {median:.2f}% vs target {target}"


def test_criterion_7_cv_determinism(tmp_path):
    with criterion(7, "cross-validation determinism", 600.0):
        args = [
            "cv", "--dataset", "TOY24", "--data-dir", str(FIXTURES / "TOY24"),
            "--hidden", "8", "--lr", "0.01", "--epochs", "3",
            "--batch-size", "8", "--seed", "7",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main([*args, "--out", str(out_a)]) == 0
        assert cli_main([*args, "--out", str(out_b)]) == 0
        metrics_a = (out_a / "metrics.csv").read_bytes()
        metrics_b = (out_b / "metrics.csv").read_bytes()
        assert metrics_a == metrics_b
        assert len(metrics_a) > 0
