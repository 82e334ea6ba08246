"""Graphs built without validation are valid by construction.

``from_edge_list`` (symmetric closure), ``induced_subgraph``,
``batch_graphs`` and the dataset parser build their results through the
trusted constructors, which skip every check. These properties run the
checks the public constructors would have run on each result.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import validated_graph
from sparsepool import graphs
from sparsepool.datasets import parse_tu_dataset
from sparsepool.graphs import (
    LabeledGraph,
    SparseGraph,
    _validate_csr,
    batch_graphs,
    from_edge_list,
    induced_subgraph,
)


def assert_valid(graph) -> None:
    """Everything ``SparseGraph(...)`` checks or converts, checked directly."""
    assert type(graph.num_nodes) is int
    for arr in (graph.row_offsets, graph.col_indices):
        assert arr.dtype == np.int32 and arr.flags.c_contiguous
    _validate_csr(graph.num_nodes, graph.row_offsets, graph.col_indices)


def assert_valid_labeled(labeled) -> None:
    """Everything ``LabeledGraph(...)`` checks or converts, checked directly."""
    assert_valid(labeled.graph)
    feats = labeled.features
    if isinstance(feats, graphs.LabelCodes):
        codes = feats.codes
        assert codes.dtype == np.int32 and codes.flags.c_contiguous and codes.ndim == 1
        assert type(feats.width) is int and feats.width >= 1
        assert codes.size == labeled.graph.num_nodes
        assert codes.size == 0 or (codes.min() >= 0 and codes.max() < feats.width)
    else:
        assert feats.dtype == np.float64 and feats.flags.c_contiguous
        assert feats.ndim == 2 and feats.shape[0] == labeled.graph.num_nodes
        assert np.isfinite(feats).all()
    assert type(labeled.label) is int


@st.composite
def edge_lists(draw, min_nodes=0, max_nodes=12):
    """(num_nodes, pairs): loop-free pairs with repeats and both orientations."""
    n = draw(st.integers(min_nodes, max_nodes))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=3 * n))


def reference_graph(n: int, pairs):
    """The same graph through the validating constructor."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return validated_graph(n, np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0))


def assert_same_csr(a, b) -> None:
    assert a.num_nodes == b.num_nodes
    assert np.array_equal(a.row_offsets, b.row_offsets)
    assert np.array_equal(a.col_indices, b.col_indices)


@st.composite
def labeled_graphs(draw, feat_dim: int):
    n, pairs = draw(edge_lists(min_nodes=1, max_nodes=8))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    feats = draw(st.lists(values, min_size=n * feat_dim, max_size=n * feat_dim))
    label = draw(st.integers(0, 3))
    return LabeledGraph(from_edge_list(n, pairs), np.reshape(feats, (n, feat_dim)), label)


class TestTrustedConstruction:
    @given(edge_lists())
    def test_from_edge_list(self, case):
        n, pairs = case
        g = from_edge_list(n, pairs)
        assert_valid(g)
        assert_same_csr(g, reference_graph(n, pairs))

    @given(edge_lists(min_nodes=1), st.data())
    def test_induced_subgraph(self, case, data):
        n, pairs = case
        g = from_edge_list(n, pairs)
        for _ in range(2):  # a subgraph of a subgraph, as pooling levels stack
            keep = sorted(data.draw(st.sets(st.integers(0, g.num_nodes - 1))))
            sub = induced_subgraph(g, keep)
            assert_valid(sub)
            assert np.array_equal(sub.to_dense(), g.to_dense()[np.ix_(keep, keep)])
            # the unchecked path the model's pool takes slices the same CSR
            assert_same_csr(graphs._induced_subgraph_trusted(g, np.array(keep, dtype=np.int64)),
                            sub)
            if sub.num_nodes == 0:
                break
            g = sub

    def test_the_pool_slices_without_checking_again(self):
        # Tape.topk_gate has checked the kept indices; the name is the public one
        from sparsepool import layers

        assert layers.induced_subgraph is graphs._induced_subgraph_trusted

    @given(st.integers(1, 3).flatmap(lambda f: st.lists(labeled_graphs(f), min_size=1, max_size=5)))
    def test_batch_graphs(self, members):
        batch = batch_graphs(members)
        assert_valid(batch.graph)
        assert batch.features.dtype == np.float64 and batch.features.flags.c_contiguous
        sizes = [m.graph.num_nodes for m in members]
        bases = np.cumsum(sizes) - sizes
        shifted = [
            np.stack([np.repeat(np.arange(m.graph.num_nodes), m.graph.degrees),
                      m.graph.col_indices], axis=1) + b
            for m, b in zip(members, bases)
        ]
        expected = reference_graph(sum(sizes), np.concatenate(shifted))
        assert_same_csr(batch.graph, expected)


@st.composite
def tu_directories(draw):
    """File texts of a small valid TU dataset, with one of the three feature kinds."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    starts = np.cumsum(sizes) - sizes
    lines = []
    for start, n in zip(starts, sizes):
        _, pairs = draw(edge_lists(min_nodes=n, max_nodes=n))
        lines += [f"{start + u + 1}, {start + v + 1}" for u, v in pairs]
    lines = draw(st.permutations(lines))
    files = {
        "A": "".join(line + "\n" for line in lines),
        "graph_indicator": "".join(f"{g}\n" * n for g, n in enumerate(sizes, start=1)),
        "graph_labels": "".join(f"{draw(st.integers(-1, 2))}\n" for _ in sizes),
    }
    kind = draw(st.sampled_from(["node_attributes", "node_labels", "none"]))
    total = sum(sizes)
    if kind == "node_attributes":
        width = draw(st.integers(1, 3))
        value = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
        rows = [draw(st.lists(value, min_size=width, max_size=width)) for _ in range(total)]
        files["node_attributes"] = "".join(", ".join(map(repr, r)) + "\n" for r in rows)
    elif kind == "node_labels":
        files["node_labels"] = "".join(f"{draw(st.integers(0, 4))}\n" for _ in range(total))
    return sizes, files


class TestTrustedParse:
    @given(tu_directories())
    def test_parsed_graphs_are_valid(self, case):
        sizes, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, text in files.items():
                (Path(tmp) / f"X_{suffix}.txt").write_text(text, encoding="utf-8")
            ds = parse_tu_dataset(tmp, "X")
        assert [g.graph.num_nodes for g in ds.graphs] == sizes
        for labeled in ds.graphs:
            assert_valid_labeled(labeled)

    def test_validation_runs_at_most_once_per_parse(self, fixtures_dir, monkeypatch):
        calls = []
        checked = graphs._validate_csr
        monkeypatch.setattr(graphs, "_validate_csr", lambda *a: calls.append(a) or checked(*a))
        ds = parse_tu_dataset(fixtures_dir / "TOY24", "TOY24")
        assert len(ds.graphs) == 24 and len(calls) <= 1


def construction_paths(toy):
    """One graph or labeled graph from each way the package builds one."""
    canonical = [(0, 1), (1, 0), (1, 2), (2, 1)]  # the CSR in pair form
    assert graphs._is_canonical(3, np.array(canonical))
    assert not graphs._is_canonical(3, np.array([(1, 2), (0, 1)]))
    path = from_edge_list(3, canonical)
    batch = batch_graphs([LabeledGraph(path, graphs.degree_onehot(path, 2), 0)] * 2)
    return {
        "public": SparseGraph(3, [0, 1, 3, 4], np.array([1, 0, 2, 1], dtype=np.uint8)),
        "public codes": LabeledGraph(path, graphs.LabelCodes(np.array([2, 0, 1]), 3), 0),
        "edge list, canonical": path,
        "edge list, mirrored": from_edge_list(3, [(1, 2), (0, 1)]),
        "subgraph": induced_subgraph(path, [0, 1]),
        "batch of degree codes": LabeledGraph._trusted(batch.graph, batch.features, 0),
        "parsed, degree codes": parse_tu_dataset(toy, "TOY24").graphs[5],
    }


def test_every_construction_path_stores_int32(fixtures_dir):
    for name, built in construction_paths(fixtures_dir / "TOY24").items():
        check = assert_valid_labeled if isinstance(built, LabeledGraph) else assert_valid
        check(built)


def test_no_validation_inside_subgraph_and_batch(monkeypatch):
    members = [
        LabeledGraph(from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]), np.ones((n, 2)), 0)
        for n in (3, 5, 4)
    ]

    def forbidden(*args):
        raise AssertionError("_validate_csr ran on a graph that is valid by construction")

    monkeypatch.setattr(graphs, "_validate_csr", forbidden)
    batch = batch_graphs(members)
    sub = induced_subgraph(batch.graph, [0, 1, 3, 4, 5, 9])
    assert (batch.graph.num_nodes, sub.num_nodes, sub.num_edges) == (12, 6, 3)
    with pytest.raises(AssertionError, match="valid by construction"):
        SparseGraph(2, np.array([0, 1, 2]), np.array([1, 0]))
