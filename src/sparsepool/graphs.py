"""Sparse graph containers and structural operations.

Graphs are simple, undirected and unweighted, stored in CSR form with every
edge recorded in both directions. Node features are either plain float64
arrays of shape (num_nodes, num_features) (node attributes) or
:class:`LabelCodes`, one-hot features (node labels, degrees) held as one
integer code per node.

Every node-index array (CSR offsets and columns, label codes) is
C-contiguous int32. Nodes, stored edges (two per undirected edge) and codes
past ``2**31 - 1`` raise a ``ValueError`` naming the count, checked before
anything is narrowed (which would wrap) or allocated.

Validation happens where a graph enters. The public ``SparseGraph(...)`` and
``LabeledGraph(...)`` constructors check every invariant, and
``from_edge_list`` checks its edges' range and self-loops. Graphs derived
from valid ones are valid by construction and are built with the private
``_trusted`` constructors, which skip the checks: the symmetric closure in
``from_edge_list``, pooled subgraphs (``induced_subgraph``) and merged
batches (``batch_graphs``). The dataset parser checks whole files once and
then slices each graph out the same way. The model's pool slices through
``_induced_subgraph_trusted``, which skips ``induced_subgraph``'s checks of
the kept indices: ``Tape.topk_gate`` has made them already.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "SparseGraph",
    "LabeledGraph",
    "GraphBatch",
    "LabelCodes",
    "from_edge_list",
    "spmm_mean",
    "neighbor_sum",
    "neighbor_code_count",
    "degree_onehot",
    "erdos_renyi",
    "induced_subgraph",
    "batch_graphs",
]


_INDEX_MAX = int(np.iinfo(np.int32).max)  # the largest node index, edge count or code


def _check_index(what: str, count: int) -> None:
    """Reject a count or value that an int32 index array cannot hold."""
    if count > _INDEX_MAX:
        raise ValueError(f"{what} {count} exceeds the int32 index limit {_INDEX_MAX}")


def _validate_csr(num_nodes: int, offsets, cols) -> tuple[np.ndarray, np.ndarray]:
    """Check a CSR as given and return its arrays widened to int64.

    The checks run on the wide values, so a value past int32 is rejected,
    not wrapped, and int32 columns times ``num_nodes`` cannot wrap either.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    offsets = np.asarray(offsets, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    _check_index("node count", num_nodes)
    _check_index("stored edge count", cols.size)
    if offsets.shape != (num_nodes + 1,):
        raise ValueError(f"row_offsets must have length {num_nodes + 1}, got {offsets.shape}")
    if offsets[0] != 0 or offsets[-1] != cols.size:
        raise ValueError("row_offsets must start at 0 and end at len(col_indices)")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("row_offsets must be non-decreasing")
    if cols.size == 0:
        return offsets, cols
    if cols.min() < 0 or cols.max() >= num_nodes:
        raise ValueError("col_indices out of range")
    row_ids = np.repeat(np.arange(num_nodes), np.diff(offsets))
    if np.any(cols == row_ids):
        raise ValueError("self-loops must not be stored")
    same_row = row_ids[1:] == row_ids[:-1]
    if np.any(cols[1:][same_row] <= cols[:-1][same_row]):
        raise ValueError("col_indices must be strictly increasing within each row")
    code = row_ids * num_nodes + cols
    rev = cols * num_nodes + row_ids
    if not np.array_equal(np.sort(code), np.sort(rev)):
        raise ValueError("adjacency is not symmetric")
    return offsets, cols


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """CSR adjacency of a simple undirected graph.

    ``row_offsets`` has length ``num_nodes + 1``; ``col_indices`` holds the
    sorted neighbor list of every node back to back, so each undirected edge
    appears twice. Self-loops are never stored; operations that need them
    (e.g. :func:`spmm_mean`) add them implicitly. Instances are treated as
    immutable and are safe to share across threads.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self) -> None:
        offsets, cols = _validate_csr(self.num_nodes, self.row_offsets, self.col_indices)
        object.__setattr__(self, "row_offsets", np.ascontiguousarray(offsets, dtype=np.int32))
        object.__setattr__(self, "col_indices", np.ascontiguousarray(cols, dtype=np.int32))

    @classmethod
    def _trusted(cls, num_nodes: int, row_offsets: np.ndarray, col_indices: np.ndarray):
        """A graph from C-contiguous int32 CSR arrays that are valid by construction.

        No conversion and no :func:`_validate_csr`: the caller guarantees
        every invariant the public constructor checks.
        """
        graph = object.__new__(cls)
        vars(graph).update(num_nodes=num_nodes, row_offsets=row_offsets, col_indices=col_indices)
        return graph

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.col_indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree, self-loops excluded."""
        return np.diff(self.row_offsets)

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency (small graphs / tests only)."""
        dense = np.zeros((self.num_nodes, self.num_nodes))
        row_ids = np.repeat(np.arange(self.num_nodes), self.degrees)
        dense[row_ids, self.col_indices] = 1.0
        return dense


@dataclass(frozen=True, eq=False)
class LabelCodes:
    """One-hot node features held as codes: row i of the (N, width) one-hot
    matrix holds its 1.0 in column ``codes[i]`` and zeros elsewhere.

    Node labels and clamped degrees are featurized this way. ``shape`` is
    the one-hot matrix's, ``nbytes`` the codes' (4 bytes a node, int32,
    rather than 8 * width), so a caller sizing or accounting features reads
    either kind alike. Nothing dense is built until :meth:`rows` asks for a
    block. The public constructor checks that ``codes`` is a 1-D integer
    array with every entry in ``[0, width)`` and at most ``2**31 - 1``.
    """

    codes: np.ndarray
    width: int

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError(f"label codes must be a 1-D integer array, got {codes.dtype} "
                             f"of shape {codes.shape}")
        if not isinstance(self.width, (int, np.integer)) or self.width < 1:
            raise ValueError(f"label code width must be an integer >= 1, got {self.width!r}")
        width = int(self.width)
        if codes.size:
            if codes.min() < 0 or codes.max() >= width:
                raise ValueError(f"label codes must lie in [0, {width})")
            _check_index("label code", int(codes.max()))
        object.__setattr__(self, "codes", np.ascontiguousarray(codes, dtype=np.int32))
        object.__setattr__(self, "width", width)

    @classmethod
    def _trusted(cls, codes: np.ndarray, width: int):
        """Codes known to be a C-contiguous 1-D int32 array in ``[0, width)``;
        nothing is checked."""
        coded = object.__new__(cls)
        vars(coded).update(codes=codes, width=width)
        return coded

    @property
    def shape(self) -> tuple[int, int]:
        return (self.codes.size, self.width)

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the one-hot matrix, as a fresh float64 array."""
        codes = self.codes[start:stop]
        block = np.zeros((codes.size, self.width))
        block[np.arange(codes.size), codes] = 1.0
        return block


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """A graph with node features and a class label.

    ``features`` is a float64 (num_nodes, F) array or :class:`LabelCodes`
    with one code per node. The public constructor checks either kind: a
    dense array is converted to C-contiguous float64 and must be finite,
    and codes must cover every node.
    """

    graph: SparseGraph
    features: np.ndarray | LabelCodes
    label: int

    def __post_init__(self) -> None:
        if isinstance(self.features, LabelCodes):
            if self.features.shape[0] != self.graph.num_nodes:
                raise ValueError(
                    f"{self.features.shape[0]} label codes for {self.graph.num_nodes} nodes"
                )
            return
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"features must be (num_nodes, F), got {feats.shape} for "
                f"{self.graph.num_nodes} nodes"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)

    @classmethod
    def _trusted(cls, graph: SparseGraph, features: np.ndarray | LabelCodes, label: int):
        """A labeled graph whose features are known to be a finite, C-contiguous
        float64 (graph.num_nodes, F) array or valid codes of graph.num_nodes
        nodes; nothing is converted or checked."""
        labeled = object.__new__(cls)
        vars(labeled).update(graph=graph, features=features, label=label)
        return labeled


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """Block-diagonal union of several graphs.

    ``node_counts`` gives the segment lengths in merged node order: graph
    ``i`` owns the next ``node_counts[i]`` rows of ``features``. Every
    segment is non-empty. ``features`` is of its graphs' kind: a float64
    array, or :class:`LabelCodes`, which block 0 reads without building the
    one-hot matrix.
    """

    graph: SparseGraph
    features: np.ndarray | LabelCodes
    node_counts: np.ndarray
    labels: np.ndarray


def from_edge_list(num_nodes: int, edges) -> SparseGraph:
    """Build a canonical CSR graph from (u, v) pairs.

    Each pair is mirrored and duplicate edges are collapsed, so a list that
    already holds both directions gives the same CSR. A list that already
    is a canonical CSR in pair form (both directions, sorted by row then
    column, no duplicates: the TU convention) is taken as it is, without
    the mirror and the sort of twice its length. The edges are checked and
    deduplicated as int64, and narrowed once the counts are known to fit.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    _check_index("node count", num_nodes)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("self-loops are not allowed")
    if _is_canonical(num_nodes, pairs):
        rows, cols = pairs[:, 0], pairs[:, 1]
    else:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
        codes = np.sort(pairs[:, 0] * num_nodes + pairs[:, 1])
        first = np.ones(codes.size, dtype=bool)
        first[1:] = codes[1:] != codes[:-1]  # keep one copy of each duplicate
        codes = codes[first]
        rows, cols = codes // num_nodes, codes % num_nodes
    _check_index("stored edge count", cols.size)
    offsets = np.zeros(num_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=offsets[1:])
    # in range, loop-free, mirrored (or its own mirror) and deduplicated: a valid CSR
    return SparseGraph._trusted(num_nodes, offsets, np.ascontiguousarray(cols, dtype=np.int32))


def _is_canonical(num_nodes: int, pairs: np.ndarray) -> bool:
    """Whether the pairs' linear codes are strictly increasing and equal
    their own sorted mirror codes."""
    codes = pairs[:, 0] * num_nodes
    codes += pairs[:, 1]
    if not np.all(codes[1:] > codes[:-1]):
        return False
    mirror = pairs[:, 1] * num_nodes
    mirror += pairs[:, 0]
    mirror.sort()
    return np.array_equal(codes, mirror)


def _dense_pieces(graph: SparseGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds of the graph's finest contiguous block-diagonal pieces,
    and which of those pieces are dense.

    Piece i holds rows ``bounds[i]:bounds[i + 1]``, and no edge joins two
    pieces. A piece ends at row r when no row up to r has a neighbor past
    r: a running maximum over each row's last column, in O(N). A piece is
    dense when it stores more edges than half its n^2 node pairs. Both
    depend only on the graph's own edges, so a block-diagonal batch's
    pieces are its graphs' pieces, shifted and joined.
    """
    offsets, cols = graph.row_offsets, graph.col_indices
    rows = reach = np.arange(graph.num_nodes)
    if cols.size:
        # columns are sorted, so a row's last one is its largest; a row
        # without edges reads another row's column, which is dropped
        last = np.where(np.diff(offsets) > 0, np.take(cols, offsets[1:] - 1), 0)
        reach = np.maximum.accumulate(np.maximum(rows, last))
    bounds = np.concatenate([np.zeros(1, dtype=np.int64), np.flatnonzero(reach == rows) + 1])
    sizes = np.diff(bounds)
    # stored > n^2 / 2 for whole numbers, without doubling an int32 count
    return bounds, np.diff(offsets[bounds]) > sizes * sizes // 2


def _ones_csr(offsets: np.ndarray, cols: np.ndarray, width: int) -> csr_array:
    """CSR matrix with unit weights, ``offsets.size - 1`` rows and ``width`` columns."""
    return csr_array((np.ones(cols.size), cols, offsets), shape=(offsets.size - 1, width))


def neighbor_sum(graph: SparseGraph, x: np.ndarray) -> np.ndarray:
    """Row i of the result is the sum of x over the neighbors of node i.

    The graph is split into its finest contiguous block-diagonal pieces
    (:func:`_dense_pieces`). A piece is dense when it stores more edges
    than half its n^2 node pairs; the rows of each dense piece are one
    BLAS product of its 0/1 adjacency block with its rows of x. All other
    rows are one scipy product with the CSR adjacency (unit weights), run
    on the whole graph when no piece is dense. scipy adds the neighbor
    rows of node i one after another in ``col_indices`` order, so each of
    its rows depends only on that row, and a dense piece's product only on
    that piece; which path a row takes depends only on its own graph's
    edges. A block-diagonal batch therefore gives results bit-identical to
    per-graph calls. The two paths may round differently in the last bits.

    The dense blocks are built as one array from a row-local CSR (each
    column shifted by its piece's start) and freed before returning. Like
    scipy's internal array of unit weights, they are a transient that no
    tracker is told about: rows in dense pieces x the largest dense piece x
    8 bytes (about 1.8 MB at ``collab``'s first pooled level).

    A dense product also multiplies the zeros of non-neighbors, so an inf
    or NaN in x's rows of a dense piece turns that piece's sums into NaN
    where the CSR path would carry it to the neighbors only.
    """
    if x.ndim != 2 or x.shape[0] != graph.num_nodes:
        raise ValueError(f"features of shape {x.shape} do not match {graph.num_nodes} nodes")
    n = graph.num_nodes
    offsets, cols = graph.row_offsets, graph.col_indices
    bounds, dense = _dense_pieces(graph)
    if not dense.any():
        return _ones_csr(offsets, cols, n) @ x
    sizes = np.diff(bounds)
    stored = np.diff(offsets[bounds])
    starts, stops = bounds[:-1][dense], bounds[1:][dense]
    # each edge's piece start, for now
    local_cols = np.repeat(starts.astype(np.int32), stored[dense])
    width = int(sizes[dense].max())
    if dense.all():
        np.subtract(cols, local_cols, out=local_cols)
        blocks = _ones_csr(offsets, local_cols, width).toarray()
        out = np.empty((n, x.shape[1]), dtype=np.result_type(blocks, x))
    else:
        degrees = graph.degrees
        row_dense = np.repeat(dense, sizes)
        edge_dense = np.repeat(row_dense, degrees)
        np.subtract(cols[edge_dense], local_cols, out=local_cols)
        local_offsets = np.zeros(int(sizes[dense].sum()) + 1, dtype=np.int32)
        np.cumsum(degrees[row_dense], out=local_offsets[1:])
        blocks = _ones_csr(local_offsets, local_cols, width).toarray()
        sparse_offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.where(row_dense, 0, degrees), out=sparse_offsets[1:])
        # without the dense rows' edges, the CSR product leaves those rows 0
        out = _ones_csr(sparse_offsets, cols[~edge_dense], n) @ x
    del local_cols
    first = 0
    for start, stop in zip(starts.tolist(), stops.tolist()):
        size = stop - start
        np.matmul(blocks[first : first + size, :size], x[start:stop], out=out[start:stop])
        first += size
    return out


def neighbor_code_count(graph: SparseGraph, codes: np.ndarray, width: int) -> np.ndarray:
    """Row i, column c: how many neighbors of node i carry the code c, as float64.

    This is :func:`neighbor_sum` of the one-hot matrix whose row j holds
    its 1.0 in column ``codes[j]`` (each code in ``[0, width)``), and it is
    equal byte for byte: that sum adds only zeros and ones, so every partial
    sum is an exact whole number. The counts are added straight into the
    N x width result, one stored edge at a time, in O(|E| + N * width).
    """
    n = graph.num_nodes
    if codes.shape != (n,):
        raise ValueError(f"label codes of shape {codes.shape} for {n} nodes")
    counts = csr_array(
        (np.ones(graph.col_indices.size), np.take(codes, graph.col_indices), graph.row_offsets),
        shape=(n, width),
    )
    return counts.toarray()  # adds up repeated (row, code) entries


def spmm_mean(graph: SparseGraph, x: np.ndarray | LabelCodes) -> np.ndarray:
    """Mean aggregation with an implicit self-loop.

    Row i of the result is the mean of feature rows over {i} and i's
    neighbors. Runs in O(|E|*F + N*F); no dense adjacency is formed. For
    :class:`LabelCodes` the neighbor sums are counted
    (:func:`neighbor_code_count`) in O(|E| + N*F), and each node's own
    one-hot row adds 1.0 at its code; the bytes are those of the dense
    one-hot matrix's mean, since every partial sum is a whole number.
    """
    if isinstance(x, LabelCodes):
        summed = neighbor_code_count(graph, x.codes, x.width)
        summed[np.arange(graph.num_nodes), x.codes] += 1.0
    else:
        summed = neighbor_sum(graph, x)
        summed += x
    summed /= (graph.degrees + 1.0)[:, None]  # float divisors: no cast inside the loop
    return summed


def degree_onehot(graph: SparseGraph, max_degree: int) -> LabelCodes:
    """One-hot node degrees as codes, clamped at ``max_degree`` (width max_degree + 1)."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    _check_index("max_degree", max_degree)
    bound = int(max_degree)  # a Python int keeps the int32 degrees int32
    return LabelCodes._trusted(np.minimum(graph.degrees, bound), bound + 1)


def _distinct_draws(rng: np.random.Generator, max_m: int, m: int) -> np.ndarray:
    """The first ``m`` distinct values of uniform draws from [0, max_m).

    Draws come in rounds of twice the shortfall plus 8; each round adds its
    new values in order of first occurrence until ``m`` are held.
    """
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        pool = np.concatenate([chosen, rng.integers(0, max_m, size=2 * (m - chosen.size) + 8)])
        first = np.unique(pool, return_index=True)[1]
        chosen = pool[np.sort(first)[:m]]
    return chosen


def erdos_renyi(n: int, m: int, seed: int) -> SparseGraph:
    """G(n, m): exactly m distinct undirected edges, uniform without replacement.

    Deterministic for a fixed seed. Edges are sampled as linear indices into
    the strict upper triangle, so the result is independent of draw order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_index("node count", n)
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds the {max_m} possible edges of {n} nodes")
    _check_index("stored edge count", 2 * m)
    rng = np.random.default_rng(seed)
    if max_m <= 1 << 22 and m > max_m // 3:
        # Dense regime: enumerate all pairs and sample directly.
        iu, ju = np.triu_indices(n, k=1)
        pick = rng.choice(max_m, size=m, replace=False)
        pairs = np.stack([iu[pick], ju[pick]], axis=1)
        return from_edge_list(n, pairs)
    codes = np.sort(_distinct_draws(rng, max_m, m))
    # Decode linear upper-triangle indices in integers: row i starts at
    # i*(2n - i - 1)/2, and a code's row is the last start not above it.
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, codes, side="right") - 1
    j = codes - starts[i] + i + 1
    return from_edge_list(n, np.stack([i, j], axis=1))


def induced_subgraph(graph: SparseGraph, keep) -> SparseGraph:
    """Subgraph on the given sorted, distinct node indices.

    Node u' of the result is keep[u']; an edge (u', v') exists iff
    (keep[u'], keep[v']) was an edge of the input. When every node is kept
    the input graph itself is returned.

    The kept-edge mask (both ends kept) is built in bool from the node mask
    repeated over each row's degree, with no E-long array of row ids. The
    new columns are the kept edges' columns renumbered. A kept row's new
    degree is one ``np.add.reduceat`` of the mask, started at each kept
    row that has edges: a dropped row keeps none of its edges and an
    edgeless row has none, so each such run of the mask ends where the next
    one starts, and edgeless rows (trailing ones too) keep degree 0.
    """
    keep = np.asarray(keep, dtype=np.int64)
    if keep.ndim != 1:
        raise ValueError("keep must be a 1-D index array")
    if keep.size:
        if keep.min() < 0 or keep.max() >= graph.num_nodes:
            raise ValueError("keep index out of range")
        if np.any(np.diff(keep) <= 0):
            raise ValueError("keep must be strictly increasing (sorted, distinct)")
    return _induced_subgraph_trusted(graph, keep)


def _induced_subgraph_trusted(graph: SparseGraph, keep: np.ndarray) -> SparseGraph:
    """:func:`induced_subgraph` without its checks, for a 1-D integer
    ``keep`` already known to be strictly increasing within the graph."""
    if keep.size == graph.num_nodes:
        return graph  # every node kept: the input is its own induced subgraph
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[keep] = True
    remap = np.full(graph.num_nodes, -1, dtype=np.int32)
    remap[keep] = np.arange(keep.size)
    row_offsets, cols, degrees = graph.row_offsets, graph.col_indices, graph.degrees
    # np.take gathers by an int32 index faster than fancy indexing does
    sel = np.repeat(mask, degrees)
    sel &= np.take(mask, cols)
    new_cols = np.take(remap, np.compress(sel, cols))
    kept_degrees = degrees[keep]
    live = kept_degrees > 0
    kept_degrees[live] = np.add.reduceat(sel, row_offsets[keep[live]], dtype=np.int32)
    offsets = np.zeros(keep.size + 1, dtype=np.int32)
    np.cumsum(kept_degrees, out=offsets[1:])
    # keep is sorted and distinct, so remap preserves row order, column
    # order and symmetry, and maps no edge onto a self-loop
    return SparseGraph._trusted(keep.size, offsets, new_cols)


def batch_graphs(graphs) -> GraphBatch:
    """Merge graphs into one block-diagonal graph with offset node indices.

    Pooling keeps at least one node per graph, so a graph without nodes is
    rejected here, naming its position; so is a graph whose features differ
    from the first graph's in width or kind (codes or dense), and so are
    merged node or stored edge totals past ``2**31 - 1``. A batch of one
    graph shares that graph's CSR and feature arrays.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot batch an empty list of graphs")
    counts = np.array([g.graph.num_nodes for g in graphs], dtype=np.int64)
    dims = np.array([g.features.shape[1] for g in graphs], dtype=np.int64)
    coded = np.array([isinstance(g.features, LabelCodes) for g in graphs])
    bad = (counts == 0) | (dims != dims[0]) | (coded != coded[0])
    if bad.any():
        i = int(np.argmax(bad))
        if counts[i] == 0:
            raise ValueError(f"graph {i} of the batch has no nodes")
        if dims[i] != dims[0]:
            raise ValueError(f"feature dimensions differ: {dims[i]} vs {dims[0]}")
        raise ValueError(f"graph {i} holds {'label codes' if coded[i] else 'dense features'}, "
                         f"graph 0 does not")
    labels = np.array([g.label for g in graphs], dtype=np.int64)
    if len(graphs) == 1:
        return GraphBatch(graphs[0].graph, graphs[0].features, counts, labels)
    structures = [g.graph for g in graphs]
    edge_counts = np.array([g.col_indices.size for g in structures], dtype=np.int64)
    _check_index("merged node count", int(counts.sum()))
    _check_index("merged stored edge count", int(edge_counts.sum()))
    # shift every block's columns by its first node, every block's offsets
    # by its first edge; valid blocks on disjoint node ranges stay valid
    cols = np.concatenate([g.col_indices for g in structures])
    cols += np.repeat((np.cumsum(counts) - counts).astype(np.int32), edge_counts)
    offsets = np.zeros(int(counts.sum()) + 1, dtype=np.int32)
    np.concatenate([g.row_offsets[1:] for g in structures], out=offsets[1:])
    offsets[1:] += np.repeat((np.cumsum(edge_counts) - edge_counts).astype(np.int32), counts)
    if coded[0]:
        codes = np.concatenate([g.features.codes for g in graphs])
        features = LabelCodes._trusted(codes, int(dims[0]))
    else:
        features = np.concatenate([g.features for g in graphs], axis=0)
    return GraphBatch(
        graph=SparseGraph._trusted(offsets.size - 1, offsets, cols),
        features=features,
        node_counts=counts,
        labels=labels,
    )
