"""Graph container and structural-operation tests."""
from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import dense_spmm_oracle, random_graph
from sparsepool import graphs
from sparsepool.engine import Tape
from sparsepool.graphs import (
    LabelCodes,
    LabeledGraph,
    SparseGraph,
    _dense_pieces,
    _distinct_draws,
    _validate_csr,
    batch_graphs,
    degree_onehot,
    erdos_renyi,
    from_edge_list,
    induced_subgraph,
    neighbor_sum,
    spmm_mean,
)
from sparsepool.layers import build_model, model_forward


def triangle():
    return from_edge_list(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return from_edge_list(3, [(0, 1), (1, 2)])


class TestSparseGraph:
    def test_csr_layout(self):
        g = path3()
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert list(g.row_offsets) == [0, 1, 3, 4]
        assert list(g.col_indices) == [1, 0, 2, 1]
        assert list(g.degrees) == [1, 2, 1]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SparseGraph(2, np.array([0, 1, 1]), np.array([1]))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SparseGraph(1, np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize("col", [-1, 2])
    def test_rejects_column_out_of_range_on_one_side(self, col):
        with pytest.raises(ValueError, match="col_indices out of range"):
            SparseGraph(2, np.array([0, 1, 1]), np.array([col]))

    def test_rejects_unsorted_row(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseGraph(3, np.array([0, 2, 3, 5]), np.array([2, 1, 0, 0, 0]))

    def test_rejects_duplicate_edge_in_row(self):
        with pytest.raises(ValueError):
            SparseGraph(2, np.array([0, 2, 4]), np.array([1, 1, 0, 0]))

    def test_from_edge_list_collapses_duplicates(self):
        g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_from_edge_list_matches_unique_reference(self, mirrored):
        # a list that already holds both directions gives the same CSR
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 30, size=(400, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if mirrored:
            pairs = np.concatenate([pairs, pairs[:, ::-1]])
        g = from_edge_list(30, pairs)
        codes = np.unique(np.concatenate([pairs, pairs[:, ::-1]]) @ [30, 1])
        assert np.array_equal(g.col_indices, codes % 30)
        assert np.array_equal(g.row_offsets, np.searchsorted(codes // 30, np.arange(31)))

    def test_from_edge_list_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(2, [(0, 0)])

    def test_from_edge_list_rejects_negative_node_count(self):
        with pytest.raises(ValueError, match="num_nodes must be non-negative"):
            from_edge_list(-1, [])

    def test_empty_graph(self):
        g = from_edge_list(0, [])
        assert g.num_nodes == 0 and g.num_edges == 0


@st.composite
def edge_lists(draw):
    """A node count and an edge list over it: canonical (the CSR in pair
    form), shuffled, one direction only, with duplicates, or empty; nodes
    past the largest endpoint are isolated."""
    n = draw(st.integers(0, 12))
    upper = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(upper), unique=True)) if upper else []
    one_way = np.array(edges, dtype=np.int64).reshape(-1, 2)
    codes = np.unique(np.concatenate([one_way, one_way[:, ::-1]]) @ [n, 1])
    canonical = np.stack([codes // max(n, 1), codes % max(n, 1)], axis=1)
    kind = draw(st.sampled_from(["canonical", "shuffled", "one-way", "duplicates"]))
    if kind == "canonical":
        return n, canonical
    if kind == "one-way":
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        flip = np.array(flips, dtype=bool).reshape(-1, 1)
        return n, np.where(flip, one_way[:, ::-1], one_way)
    if kind == "duplicates" and len(canonical):
        repeats = draw(st.lists(st.integers(0, len(canonical) - 1), min_size=1, max_size=6))
        canonical = np.concatenate([canonical, canonical[repeats]])
    return n, canonical[list(draw(st.permutations(range(len(canonical)))))]


LIMIT = 2**31 - 1  # the most nodes, stored edges or the largest code an int32 array holds


@contextlib.contextmanager
def no_allocation():
    """numpy's allocating calls fail inside, so a range check that comes too
    late fails the test instead of asking for gigabytes."""
    with contextlib.ExitStack() as stack:
        for name in ("zeros", "arange", "concatenate", "bincount"):
            fail = AssertionError(f"np.{name} ran before the int32 range check")
            stack.enter_context(mock.patch.object(np, name, side_effect=fail))
        yield


class TestInt32Limits:
    """What an int32 index array cannot hold is rejected, naming the count,
    before anything is narrowed (which would wrap) or allocated."""

    def test_a_column_past_int32_is_out_of_range_not_wrapped(self):
        # 2**32 + 1 narrows to 1, a valid column; the wide value is checked
        with pytest.raises(ValueError, match="col_indices out of range"):
            SparseGraph(2, [0, 1, 2], [2**32 + 1, 0])

    def test_the_public_constructor_rejects_the_counts(self):
        with pytest.raises(ValueError, match=f"node count {LIMIT + 1} exceeds"):
            SparseGraph(LIMIT + 1, [0], [])
        many = np.broadcast_to(np.int64(0), (LIMIT + 1,))  # no memory behind it
        with no_allocation(), pytest.raises(ValueError, match=f"stored edge count {LIMIT + 1} "):
            SparseGraph(1, [0, LIMIT + 1], many)

    def test_the_check_of_int32_columns_does_not_wrap(self):
        # the mirror code 49_999 * 50_000 passes 2**31 - 1
        g = from_edge_list(50_000, [(0, 49_999)])
        _validate_csr(g.num_nodes, g.row_offsets, g.col_indices)

    def test_label_codes_reject_a_code_past_int32(self):
        with pytest.raises(ValueError, match=f"label code {LIMIT + 1} exceeds"):
            LabelCodes(np.array([0, LIMIT + 1]), LIMIT + 2)
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            LabelCodes(np.array([2**32 + 1, 0]), 2)
        assert LabelCodes(np.array([LIMIT]), LIMIT + 1).codes.tolist() == [LIMIT]

    def test_from_edge_list_rejects_before_allocating(self):
        with no_allocation(), pytest.raises(ValueError, match=f"node count {2**31} exceeds"):
            from_edge_list(2**31, [])

    def test_erdos_renyi_rejects_before_allocating(self):
        with no_allocation(), pytest.raises(ValueError, match=f"node count {2**31} exceeds"):
            erdos_renyi(2**31, 1, 0)
        # 2**30 undirected edges are stored twice
        with no_allocation(), pytest.raises(ValueError, match=f"stored edge count {2**31} "):
            erdos_renyi(70_000, 2**30, 0)

    def test_degree_onehot_rejects_a_cap_past_int32(self):
        with pytest.raises(ValueError, match=f"max_degree {LIMIT + 1} exceeds"):
            degree_onehot(path3(), LIMIT + 1)
        assert degree_onehot(path3(), LIMIT).codes.dtype == np.int32

    @pytest.mark.parametrize("nodes,stored,what", [
        ((2**30, 2**30), (0, 0), f"merged node count {2**31} exceeds"),
        ((1, 1), (2**30, 2**30), f"merged stored edge count {2**31} exceeds"),
    ])
    def test_batch_graphs_rejects_merged_totals(self, nodes, stored, what):
        # trusted members whose arrays are views of one element: only the
        # counts are large, and batch_graphs must stop at the counts
        members = [
            LabeledGraph._trusted(
                SparseGraph._trusted(n, np.zeros(2, dtype=np.int32),
                                     np.broadcast_to(np.int32(0), (e,))),
                LabelCodes._trusted(np.zeros(0, dtype=np.int32), 1),
                0,
            )
            for n, e in zip(nodes, stored)
        ]
        with no_allocation(), pytest.raises(ValueError, match=what):
            batch_graphs(members)


class TestEdgeListFastPath:
    @staticmethod
    def assert_same_bytes(a: SparseGraph, b: SparseGraph):
        assert a.num_nodes == b.num_nodes
        for x, y in ((a.row_offsets, b.row_offsets), (a.col_indices, b.col_indices)):
            assert x.dtype == y.dtype == np.int32
            assert x.flags.c_contiguous and y.flags.c_contiguous
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @given(edge_lists())
    @example((3, np.array([(0, 1), (0, 1), (1, 0), (1, 0)])))  # sorted, mirrored twice
    def test_fast_path_equals_general_path(self, case):
        n, pairs = case
        fast = from_edge_list(n, pairs)
        with mock.patch.object(graphs, "_is_canonical", return_value=False):
            general = from_edge_list(n, pairs)
        self.assert_same_bytes(fast, general)

    @given(edge_lists())
    @example((3, np.array([(0, 1), (0, 1), (1, 0), (1, 0)])))
    @example((3, np.array([(0, 1), (1, 2)])))
    def test_only_canonical_lists_take_the_fast_path(self, case):
        n, pairs = case
        codes = pairs @ np.array([n, 1]) if pairs.size else np.zeros(0, dtype=np.int64)
        mirrored = np.concatenate([pairs, pairs[:, ::-1]]) @ [n, 1] if pairs.size else codes
        canonical = np.array_equal(codes, np.unique(mirrored))
        assert graphs._is_canonical(n, pairs) == canonical

    def test_a_canonical_list_skips_the_mirror(self):
        g = erdos_renyi(40, 120, seed=3)
        pairs = np.stack([np.repeat(np.arange(40), g.degrees), g.col_indices], axis=1)
        with mock.patch.object(np, "concatenate", side_effect=AssertionError("mirrored")):
            rebuilt = from_edge_list(40, pairs)
        self.assert_same_bytes(rebuilt, g)
        assert not np.shares_memory(rebuilt.col_indices, pairs)


class TestNeighborSum:
    @given(
        n=st.integers(0, 12),
        feats=st.integers(1, 4),
        edge_prob=st.sampled_from([0.0, 0.2, 0.6]),
        strided=st.booleans(),
        seed=st.integers(0, 1000),
    )
    @example(n=0, feats=3, edge_prob=0.4, strided=False, seed=0)
    @example(n=5, feats=1, edge_prob=0.0, strided=False, seed=0)
    @example(n=6, feats=2, edge_prob=0.4, strided=True, seed=1)
    def test_matches_dense_oracle(self, n, feats, edge_prob, strided, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, edge_prob)
        if strided:
            x = rng.standard_normal((n, 2 * feats))[:, ::2]
            assert not x.flags.c_contiguous or n <= 1
        else:
            x = rng.standard_normal((n, feats))
        out = neighbor_sum(g, x)
        assert type(out) is np.ndarray
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.shape == (n, feats)
        assert np.allclose(out, g.to_dense() @ x, rtol=0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            neighbor_sum(triangle(), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            neighbor_sum(triangle(), np.zeros(3))


def piece_bounds(graph):
    return _dense_pieces(graph)[0]


def reference_bounds(graph):
    """Piece bounds by brute force: a piece ends at r when no edge joins
    rows 0..r to rows r+1.., read off the dense adjacency."""
    a = graph.to_dense()
    n = graph.num_nodes
    return [0] + [r + 1 for r in range(n) if not a[: r + 1, r + 1 :].any()]


@st.composite
def edge_graphs(draw, max_nodes=10):
    """A graph from random pairs: isolated nodes, no edges and no nodes allowed."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return from_edge_list(0, [])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
    return from_edge_list(n, [(u, v) for u, v in pairs if u != v])


def dense_graph(n, seed, density=0.9):
    return erdos_renyi(n, int(round(density * n * (n - 1) / 2)), seed)


class TestPieces:
    @pytest.mark.parametrize(
        "n,edges,bounds",
        [
            (5, [(0, 1), (1, 2), (3, 4)], [0, 3, 5]),  # two contiguous components
            (4, [(0, 2), (1, 3)], [0, 4]),  # interleaved components are one piece
            (5, [(1, 2)], [0, 1, 3, 4, 5]),  # isolated nodes are pieces of one row
            (6, [(0, 5), (2, 3)], [0, 6]),  # an edge spanning all rows
            (3, [], [0, 1, 2, 3]),  # no edges
            (0, [], [0]),  # no nodes
        ],
    )
    def test_bounds(self, n, edges, bounds):
        graph = from_edge_list(n, edges)
        assert piece_bounds(graph).tolist() == bounds == reference_bounds(graph)
        assert piece_bounds(graph).dtype == np.int64

    @pytest.mark.parametrize(
        "graph,dense",
        [
            (triangle(), [True]),  # 6 stored edges > 9 / 2
            (path3(), [False]),  # 4 stored edges < 9 / 2
            (from_edge_list(2, [(0, 1)]), [False]),  # 2 stored edges = 4 / 2: not more
            (from_edge_list(4, [(0, 1), (1, 2), (0, 2)]), [True, False]),
            (from_edge_list(1, []), [False]),
        ],
    )
    def test_dense_rule(self, graph, dense):
        assert _dense_pieces(graph)[1].tolist() == dense

    @given(edge_graphs())
    def test_bounds_match_the_brute_force_reference(self, graph):
        assert piece_bounds(graph).tolist() == reference_bounds(graph)

    @given(st.lists(edge_graphs().filter(lambda g: g.num_nodes > 0), min_size=1, max_size=5))
    def test_a_batch_splits_into_its_graphs_splits(self, structures):
        batch = batch_graphs([LabeledGraph(g, np.zeros((g.num_nodes, 1)), 0) for g in structures])
        joined, base = [0], 0
        for g in structures:
            joined.extend((piece_bounds(g)[1:] + base).tolist())
            base += g.num_nodes
        assert piece_bounds(batch.graph).tolist() == joined
        dense = np.concatenate([_dense_pieces(g)[1] for g in structures])
        assert np.array_equal(_dense_pieces(batch.graph)[1], dense)


class TestDenseAggregation:
    """The dense-piece path against the dense oracle and against per-graph calls."""

    @staticmethod
    def batch(kinds, seed, width=3):
        rng = np.random.default_rng(seed)
        graphs = []
        for i, kind in enumerate(kinds):
            n = int(rng.integers(3, 30))
            g = dense_graph(n, seed + i) if kind == "dense" else random_graph(rng, n, 0.15)
            graphs.append(LabeledGraph(g, rng.standard_normal((n, width)), 0))
        return batch_graphs(graphs), graphs

    @pytest.mark.parametrize(
        "kinds", [("dense",), ("dense", "dense", "dense"), ("sparse", "sparse"),
                  ("sparse", "dense", "sparse", "dense"), ("dense", "sparse")]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_oracle(self, kinds, seed):
        batch, graphs = self.batch(kinds, seed)
        g, x = batch.graph, batch.features
        dense = _dense_pieces(g)[1]
        assert dense.any() == ("dense" in kinds)
        assert np.allclose(neighbor_sum(g, x), g.to_dense() @ x, rtol=0.0, atol=1e-12)
        assert np.allclose(spmm_mean(g, x), dense_spmm_oracle(g.to_dense(), x),
                           rtol=0.0, atol=1e-12)

    @given(st.lists(st.sampled_from(["dense", "sparse"]), min_size=1, max_size=5),
           st.integers(0, 1000), st.integers(1, 5), st.booleans())
    def test_batch_equals_per_graph_calls_bit_for_bit(self, kinds, seed, width, strided):
        batch, graphs = self.batch(kinds, seed, 2 * width if strided else width)
        x = batch.features[:, ::2] if strided else batch.features
        out = neighbor_sum(batch.graph, x)
        assert out.flags.c_contiguous and out.dtype == np.float64
        bounds = np.concatenate([[0], np.cumsum(batch.node_counts)])
        separate = [neighbor_sum(lg.graph, x[a:b].copy())
                    for lg, a, b in zip(graphs, bounds[:-1], bounds[1:])]
        assert out.tobytes() == np.concatenate(separate).tobytes()

    def test_complete_graph_and_isolated_rows(self):
        # a complete piece next to isolated nodes and an edge: all three kinds of row
        g = from_edge_list(7, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (5, 6)])
        assert piece_bounds(g).tolist() == [0, 1, 5, 7]
        assert _dense_pieces(g)[1].tolist() == [False, True, False]
        x = np.arange(14.0).reshape(7, 2)
        assert np.array_equal(neighbor_sum(g, x), g.to_dense() @ x)  # small whole numbers

    def test_a_non_finite_entry_spreads_across_its_dense_piece(self):
        # documented caveat: the block product also multiplies non-neighbor zeros
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        assert _dense_pieces(g)[1].tolist() == [True]  # 14 stored edges > 25 / 2
        x = np.zeros((5, 1))
        x[4, 0] = np.inf
        with np.errstate(invalid="ignore"):
            out = neighbor_sum(g, x)[:, 0]
        assert out[3] == np.inf  # the only neighbor of node 4
        assert np.isnan(out[[0, 1, 2, 4]]).all()  # 0 * inf elsewhere in the piece


class TestSpmmMean:
    def test_two_node_edge(self):
        g = from_edge_list(2, [(0, 1)])
        out = spmm_mean(g, np.array([[2.0], [4.0]]))
        assert np.array_equal(out, [[3.0], [3.0]])

    def test_isolated_node_is_identity(self):
        g = from_edge_list(1, [])
        assert np.array_equal(spmm_mean(g, np.array([[5.0]])), [[5.0]])

    def test_constant_rows_fixed_point(self):
        g = triangle()
        x = np.full((3, 4), 7.5)
        assert np.allclose(spmm_mean(g, x), x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spmm_mean(triangle(), np.zeros((2, 1)))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(1, 20)))
        x = rng.standard_normal((g.num_nodes, 3))
        assert np.allclose(spmm_mean(g, x), dense_spmm_oracle(g.to_dense(), x), atol=1e-12)

    @given(st.integers(0, 1000))
    def test_permutation_equivariance(self, seed):
        from conftest import permute_graph

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n)
        x = rng.standard_normal((n, 3))
        sigma = rng.permutation(n)
        pg, px = permute_graph(g, x, sigma)
        expected = np.empty_like(x)
        expected[sigma] = spmm_mean(g, x)
        assert np.allclose(spmm_mean(pg, px), expected, atol=1e-12)

    @given(st.integers(0, 1000), st.integers(1, 5))
    def test_float_divisors_give_the_int_divisor_bytes(self, seed, width):
        # numpy casts an int64 divisor to float64 element by element; a
        # float64 divisor made up front divides by the same values
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(1, 20)), edge_prob=rng.uniform(0.0, 0.9))
        x = rng.standard_normal((g.num_nodes, width)) * 10.0 ** rng.integers(-5, 6)
        old = neighbor_sum(g, x)
        old += x
        old /= (g.degrees + 1)[:, None]
        assert spmm_mean(g, x).tobytes() == old.tobytes()

    @given(st.integers(0, 1000))
    def test_rows_are_convex_combinations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        g = random_graph(rng, n)
        x = rng.uniform(-3.0, 5.0, size=(n, 2))
        out = spmm_mean(g, x)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12


class TestDegreeOnehot:
    def test_path(self):
        out = degree_onehot(path3(), 3)
        assert out.shape == (3, 4) and out.nbytes == 3 * 4
        assert np.array_equal(out.codes, [1, 2, 1])
        dense = out.rows(0, 3)
        assert np.array_equal(np.argmax(dense, axis=1), [1, 2, 1])
        assert np.array_equal(dense.sum(axis=1), [1, 1, 1])

    def test_isolated_node(self):
        g = from_edge_list(1, [])
        assert np.array_equal(degree_onehot(g, 2).rows(0, 1), [[1.0, 0.0, 0.0]])

    def test_clamps_high_degree(self):
        g = from_edge_list(11, [(0, i) for i in range(1, 11)])
        out = degree_onehot(g, 5)
        assert out.codes[0] == 5 and np.argmax(out.rows(0, 1)[0]) == 5

    def test_empty_graph(self):
        assert degree_onehot(from_edge_list(0, []), 4).shape == (0, 5)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            degree_onehot(path3(), 0)


def reference_draws(rng, max_m, m):
    """The draw loop erdos_renyi used before it was vectorised, kept as the
    reference: codes enter a set one by one until m are held. Returns the
    sorted codes and the number of draw rounds."""
    chosen: set[int] = set()
    rounds = 0
    while len(chosen) < m:
        rounds += 1
        draw = rng.integers(0, max_m, size=2 * (m - len(chosen)) + 8)
        for code in draw:
            chosen.add(int(code))
            if len(chosen) == m:
                break
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=m)), rounds


class TestErdosRenyi:
    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_draws_match_the_reference_loop(self, seed):
        most_rounds = 0
        for max_m in range(1, 40):
            for m in range(max_m + 1):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                expected, rounds = reference_draws(theirs, max_m, m)
                assert np.array_equal(np.sort(_distinct_draws(ours, max_m, m)), expected)
                assert ours.bit_generator.state == theirs.bit_generator.state  # same RNG calls
                most_rounds = max(most_rounds, rounds)
        assert most_rounds > 1

    @given(st.integers(2, 400), st.integers(0, 80_000), st.integers(0, 2**32 - 1))
    @example(2000, 4000, 0)  # bench-mem's smallest graph
    def test_graph_matches_the_reference_loop(self, n, m, seed):
        m %= n * (n - 1) // 2 + 1
        ours = erdos_renyi(n, m, seed)
        with mock.patch.object(graphs, "_distinct_draws", lambda *a: reference_draws(*a)[0]):
            theirs = erdos_renyi(n, m, seed)
        assert np.array_equal(ours.row_offsets, theirs.row_offsets)
        assert np.array_equal(ours.col_indices, theirs.col_indices)

    def test_exact_edge_count(self):
        g = erdos_renyi(1000, 2000, seed=7)
        assert g.num_edges == 2000
        assert g.col_indices.size == 4000

    def test_single_node(self):
        g = erdos_renyi(1, 0, seed=0)
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_forced_triangle(self):
        g = erdos_renyi(3, 3, seed=5)
        assert np.array_equal(g.to_dense(), np.ones((3, 3)) - np.eye(3))

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError):
            erdos_renyi(3, 4, seed=0)

    @pytest.mark.parametrize("n,m", [(50, 100), (200, 400), (1000, 2000)])
    def test_seed_reproducibility(self, n, m):
        a = erdos_renyi(n, m, seed=123)
        b = erdos_renyi(n, m, seed=123)
        assert np.array_equal(a.row_offsets, b.row_offsets)
        assert np.array_equal(a.col_indices, b.col_indices)
        c = erdos_renyi(n, m, seed=124)
        assert not np.array_equal(a.col_indices, c.col_indices)

    @given(st.integers(0, 500))
    def test_valid_graph_at_random_density(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = erdos_renyi(n, m, seed=seed)  # built through the trusted constructor
        _validate_csr(g.num_nodes, g.row_offsets, g.col_indices)
        assert g.num_edges == m


class TestInducedSubgraph:
    def test_triangle_slice(self):
        sub = induced_subgraph(triangle(), [0, 2])
        assert sub.num_nodes == 2
        assert np.array_equal(sub.to_dense(), [[0, 1], [1, 0]])

    def test_identity_slice_is_bit_exact(self):
        g = random_graph(np.random.default_rng(3), 15)
        sub = induced_subgraph(g, np.arange(15))
        assert np.array_equal(sub.row_offsets, g.row_offsets)
        assert np.array_equal(sub.col_indices, g.col_indices)

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_keeping_every_node_returns_the_input(self, n):
        g = random_graph(np.random.default_rng(n), n)
        assert induced_subgraph(g, np.arange(n)) is g
        assert induced_subgraph(g, list(range(n))) is g
        if n > 1:
            assert induced_subgraph(g, np.arange(1, n)) is not g

    def test_keeping_every_node_still_checks_the_indices(self):
        with pytest.raises(ValueError):
            induced_subgraph(triangle(), [0, 1, 3])
        with pytest.raises(ValueError):
            induced_subgraph(triangle(), [0, 2, 1])

    def test_path_endpoints_disconnect(self):
        sub = induced_subgraph(path3(), [0, 2])
        assert sub.num_nodes == 2 and sub.num_edges == 0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            induced_subgraph(triangle(), [0, 3])
        with pytest.raises(ValueError):
            induced_subgraph(triangle(), [1, 1])
        with pytest.raises(ValueError):
            induced_subgraph(triangle(), [2, 0])

    @given(st.integers(0, 500))
    def test_matches_dense_slicing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        g = random_graph(rng, n)
        k = int(rng.integers(1, n + 1))
        keep = np.sort(rng.choice(n, size=k, replace=False))
        sub = induced_subgraph(g, keep)
        assert np.array_equal(sub.to_dense(), g.to_dense()[np.ix_(keep, keep)])


def row_id_subgraph(graph, keep):
    """CSR arrays of the induced subgraph through an E-long array of row ids:
    the reference for :func:`induced_subgraph`."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[keep] = True
    remap = np.full(graph.num_nodes, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    row_ids = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    sel = mask[row_ids] & mask[graph.col_indices]
    offsets = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(remap[row_ids[sel]], minlength=keep.size), out=offsets[1:])
    return offsets, remap[graph.col_indices[sel]]


class TestInducedSubgraphEdgeCases:
    """Byte-for-byte against the row-id reference, on the cases a per-row
    reduction can get wrong; every result also passes the public validator."""

    @staticmethod
    def check(graph, keep):
        keep = np.asarray(keep, dtype=np.int64)
        sub = induced_subgraph(graph, keep)
        offsets, cols = row_id_subgraph(graph, keep)
        assert sub.row_offsets.dtype == sub.col_indices.dtype == np.int32
        assert sub.row_offsets.tobytes() == offsets.astype(np.int32).tobytes()
        assert sub.col_indices.tobytes() == cols.astype(np.int32).tobytes()
        assert np.array_equal(sub.to_dense(), graph.to_dense()[np.ix_(keep, keep)])
        SparseGraph(sub.num_nodes, sub.row_offsets, sub.col_indices)
        return sub

    # nodes 4, 6 and 7 are isolated; 6 and 7 trail the last row with edges
    ISOLATED = from_edge_list(8, [(0, 1), (1, 2), (2, 5), (3, 5), (0, 3)])

    @pytest.mark.parametrize("keep", [
        [0, 1, 2, 4, 5, 6, 7],  # trailing edgeless rows after the last kept edge
        [0, 1, 3, 5, 7],
        [1, 2, 6, 7],
        [4, 6, 7],  # only edgeless rows
        [0, 2, 4],  # kept rows whose edges are all dropped
        [5],
    ])
    def test_isolated_and_trailing_edgeless_rows(self, keep):
        self.check(self.ISOLATED, keep)

    def test_trailing_edgeless_rows_keep_degree_zero(self):
        sub = self.check(self.ISOLATED, [0, 1, 2, 5, 6, 7])
        assert sub.degrees.tolist() == [1, 2, 2, 1, 0, 0]

    @pytest.mark.parametrize("keep", [[0], [2, 3], [0, 1, 2, 3]])
    def test_graph_without_edges(self, keep):
        sub = self.check(from_edge_list(5, []), keep)
        assert sub.num_edges == 0

    @given(st.integers(0, 300))
    def test_one_node_and_all_but_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n)
        self.check(g, [int(rng.integers(n))])
        self.check(g, np.delete(np.arange(n), rng.integers(n)))

    @given(st.integers(0, 300))
    def test_block_diagonal_batches(self, seed):
        rng = np.random.default_rng(seed)
        members = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 10))
            g = random_graph(rng, n) if rng.random() < 0.8 else from_edge_list(n, [])
            members.append(LabeledGraph(g, np.zeros((n, 1)), 0))
        graph = batch_graphs(members).graph
        keep = np.flatnonzero(rng.random(graph.num_nodes) < rng.uniform(0.1, 0.9))
        self.check(graph, keep)


class TestBatchGraphs:
    def test_two_singletons(self):
        one = LabeledGraph(from_edge_list(1, []), np.ones((1, 2)), 0)
        batch = batch_graphs([one, one])
        assert batch.graph.num_nodes == 2
        assert batch.graph.num_edges == 0
        assert np.array_equal(np.repeat(np.arange(2), batch.node_counts), [0, 1])

    def test_two_k2(self):
        k2 = LabeledGraph(from_edge_list(2, [(0, 1)]), np.zeros((2, 1)), 1)
        batch = batch_graphs([k2, k2])
        dense = batch.graph.to_dense()
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(dense, expected)

    def test_singleton_batch_matches_input(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 8)
        lg = LabeledGraph(g, rng.standard_normal((8, 3)), 1)
        batch = batch_graphs([lg])
        assert np.array_equal(batch.graph.row_offsets, g.row_offsets)
        assert np.array_equal(batch.graph.col_indices, g.col_indices)
        assert np.array_equal(batch.features, lg.features)

    @pytest.mark.parametrize("coded", [False, True])
    def test_a_one_graph_batch_shares_its_graphs_arrays(self, coded):
        rng = np.random.default_rng(5)
        members = []
        for n in (9, 6):
            g = random_graph(rng, n)
            features = degree_onehot(g, 3) if coded else rng.standard_normal((n, 4))
            members.append(LabeledGraph(g, features, 1))
        lg = members[0]
        batch = batch_graphs([lg])
        for shared, own in ((batch.graph.row_offsets, lg.graph.row_offsets),
                            (batch.graph.col_indices, lg.graph.col_indices),
                            (batch.features.codes if coded else batch.features,
                             lg.features.codes if coded else lg.features)):
            assert np.shares_memory(shared, own)
        model = build_model(4, 5, 2, seed=1)
        alone = model_forward(Tape(record=False), batch, model).value
        merged = model_forward(Tape(record=False), batch_graphs(members), model).value
        assert alone.tobytes() == merged[:1].tobytes()

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            batch_graphs([])
        a = LabeledGraph(from_edge_list(1, []), np.zeros((1, 2)), 0)
        b = LabeledGraph(from_edge_list(1, []), np.zeros((1, 3)), 0)
        with pytest.raises(ValueError):
            batch_graphs([a, b])

    def test_no_edges_cross_graph_boundaries(self):
        rng = np.random.default_rng(4)
        graphs = [
            LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 2)), 0)
            for n in (3, 5, 1, 7)
        ]
        batch = batch_graphs(graphs)
        merged = batch.graph
        graph_of_node = np.repeat(np.arange(len(graphs)), batch.node_counts)
        row_ids = np.repeat(np.arange(merged.num_nodes), merged.degrees)
        assert np.array_equal(graph_of_node[row_ids], graph_of_node[merged.col_indices])

    @pytest.mark.parametrize("order,position", [((0,), 0), ((0, 1), 0), ((1, 0), 1)])
    def test_rejects_graph_without_nodes(self, order, position):
        empty = LabeledGraph(from_edge_list(0, []), np.zeros((0, 2)), 0)
        one = LabeledGraph(from_edge_list(1, []), np.ones((1, 2)), 1)
        with pytest.raises(ValueError, match=f"graph {position} of the batch has no nodes"):
            batch_graphs([(empty, one)[i] for i in order])

    @given(st.integers(0, 300))
    def test_spmm_distributes_over_batch(self, seed):
        rng = np.random.default_rng(seed)
        graphs = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 8))
            graphs.append(
                LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 3)), 0)
            )
        batch = batch_graphs(graphs)
        merged = spmm_mean(batch.graph, batch.features)
        separate = np.concatenate([spmm_mean(g.graph, g.features) for g in graphs])
        assert np.array_equal(merged, separate)

    @given(st.integers(0, 300))
    def test_segment_extraction_recovers_inputs(self, seed):
        rng = np.random.default_rng(seed)
        graphs = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 9))
            graphs.append(
                LabeledGraph(random_graph(rng, n), rng.standard_normal((n, 2)), int(rng.integers(3)))
            )
        batch = batch_graphs(graphs)
        start = 0
        for g, n in zip(graphs, batch.node_counts):
            seg = np.arange(start, start + n)
            sub = induced_subgraph(batch.graph, seg)
            assert np.array_equal(sub.row_offsets, g.graph.row_offsets)
            assert np.array_equal(sub.col_indices, g.graph.col_indices)
            assert np.array_equal(batch.features[seg], g.features)
            start += n
        assert np.array_equal(batch.labels, [g.label for g in graphs])
