"""Seeded synthetic TU-format datasets for the benchmark workloads.

Graphs come from ``erdos_renyi`` and are written with ``write_tu_dataset``,
so the program under test only ever sees ordinary dataset files. A
workload's *shape* is fixed: graph sizes (and, for ``collab``, edge counts)
are spread evenly over the workload's range and placed in one fixed order.
The seed chooses the edges and, for ``proteins``, the node labels. Per-seed
work therefore stays nearly constant, so the spread between seeds shows the
machine rather than the draw, while each seed still gives different files.

Graph labels are a function of a structural property the model can learn:

- ``proteins``: whether node label 2 is more frequent than node label 3.
- ``collab``: the tercile of the graph's mean degree.
"""
from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsepool.datasets import Dataset, write_tu_dataset
from sparsepool.graphs import LabeledGraph, erdos_renyi


@dataclass(frozen=True)
class Shape:
    """Size knobs of one dataset workload and the training settings it uses.

    Training always uses seed 0, as ``sparsepool train`` does by default.
    """

    name: str
    graphs: int
    min_nodes: int
    max_nodes: int
    hidden_dim: int
    lr: float
    batch_size: int
    epochs: int


PROTEINS = Shape("PROTEINS_SYN", 1100, 10, 70, hidden_dim=64, lr=0.005, batch_size=64, epochs=2)
COLLAB = Shape("COLLAB_SYN", 48, 40, 110, hidden_dim=128, lr=0.0005, batch_size=64, epochs=2)


SHAPE_SEED = 20181103  # fixes the order of sizes; never the workload seed


def _spread(lo: float, hi: float, count: int, salt: int) -> np.ndarray:
    """``count`` values evenly spaced over [lo, hi], in one fixed order."""
    order = np.random.default_rng([SHAPE_SEED, salt]).permutation(count)
    return np.linspace(lo, hi, count)[order]


def make_proteins(seed: int) -> Dataset:
    """~1.9 edges per node, three node labels, two classes."""
    rng = np.random.default_rng([seed, 1])
    graphs, node_labels = [], []
    for n in np.round(_spread(PROTEINS.min_nodes, PROTEINS.max_nodes, PROTEINS.graphs, 1)):
        n = int(n)
        m = min(int(round(1.9 * n)), n * (n - 1) // 2)
        g = erdos_renyi(n, m, int(rng.integers(2**31)))
        weights = rng.dirichlet(np.ones(3))
        labels = rng.choice(3, size=n, p=weights) + 1
        counts = np.bincount(labels, minlength=4)
        graph_label = int(counts[2] > counts[3])
        node_labels.append(labels)
        onehot = np.eye(3)[labels - 1]
        graphs.append(LabeledGraph(g, onehot, graph_label))
    return Dataset(
        name=PROTEINS.name,
        graphs=graphs,
        num_classes=2,
        feature_kind="node_labels_onehot",
        node_labels=node_labels,
    )


def make_collab(seed: int) -> Dataset:
    """Dense ego-graph-like G(n, m) at 0.8-1.0 edge density, no node labels."""
    rng = np.random.default_rng([seed, 2])
    sizes = np.round(_spread(COLLAB.min_nodes, COLLAB.max_nodes, COLLAB.graphs, 2))
    densities = _spread(0.8, 1.0, COLLAB.graphs, 3)
    structures = []
    for n, density in zip(sizes.astype(int), densities):
        m = int(round(density * n * (n - 1) / 2))
        structures.append(erdos_renyi(int(n), m, int(rng.integers(2**31))))
    mean_degree = np.array([2.0 * g.num_edges / g.num_nodes for g in structures])
    cuts = np.quantile(mean_degree, [1 / 3, 2 / 3])
    labels = np.searchsorted(cuts, mean_degree, side="right")
    graphs = [
        LabeledGraph(g, np.zeros((g.num_nodes, 1)), int(c))
        for g, c in zip(structures, labels)
    ]
    return Dataset(name=COLLAB.name, graphs=graphs, num_classes=3, feature_kind="degree_onehot")


MAKERS = {"proteins": (PROTEINS, make_proteins), "collab": (COLLAB, make_collab)}


def ensure_dataset(workload: str, seed: int, cache_root: Path) -> tuple[Shape, Path]:
    """Write the workload's files for ``seed`` once; later calls reuse them.

    Files go to a temporary directory that is renamed into place, so an
    interrupted run never leaves a half-written dataset behind.
    Returns the shape and the directory holding ``<shape.name>_*.txt``.
    """
    shape, make = MAKERS[workload]
    # keyed by this file's contents, so editing a generator never reuses old files
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    final = cache_root / f"{workload}-s{seed}-{version}"
    if not final.is_dir():
        tmp = cache_root / f".tmp-{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        write_tu_dataset(make(seed), tmp, shape.name)
        try:
            tmp.rename(final)
        except OSError:  # another run wrote the same files first
            shutil.rmtree(tmp, ignore_errors=True)
    return shape, final
