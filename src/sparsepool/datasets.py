"""TUDataset-format ingestion, featurization, and stratified fold generation.

The on-disk format is the usual multi-file plain-text layout: `{name}_A.txt`
(1-indexed comma-separated edge pairs), `{name}_graph_indicator.txt` (graph id
per node), `{name}_graph_labels.txt`, plus optional `{name}_node_labels.txt`
and `{name}_node_attributes.txt`. LF and CRLF line endings are both accepted.
"""
from __future__ import annotations

import hashlib
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import LabelCodes, LabeledGraph, SparseGraph, degree_onehot, from_edge_list

__all__ = [
    "Dataset",
    "FoldSplit",
    "DatasetFormatError",
    "parse_tu_dataset",
    "write_tu_dataset",
    "stratified_kfold",
    "degree_feature_bound",
    "with_degree_features",
    "file_checksum",
]

DEGREE_BOUND_PERCENTILE = 95.0
DEGREE_BOUND_MIN = 1
DEGREE_BOUND_MAX = 400


class DatasetFormatError(ValueError):
    """A dataset file is missing or malformed; carries file and line number."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")


@dataclass(eq=False)
class Dataset:
    """A parsed graph-classification benchmark.

    Labels are remapped to a contiguous [0, C) range. ``node_labels`` keeps
    the original per-node integer labels (when present) so datasets can be
    re-serialized and degree-featureless datasets re-featurized.
    """

    name: str
    graphs: list[LabeledGraph]
    num_classes: int
    feature_kind: str
    node_labels: list[np.ndarray] | None = None
    node_label_alphabet: np.ndarray | None = None

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_indices: np.ndarray
    test_indices: np.ndarray


def _read_lines(path: Path) -> list[str]:
    """The file's lines (universal newlines); bytes that are not UTF-8
    raise :class:`DatasetFormatError` at their line."""
    if not path.is_file():
        raise DatasetFormatError(path, None, "missing required file")
    blob = path.read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = blob[: exc.start]
        line_no = len(before.splitlines()) + (not before or before.endswith((b"\n", b"\r")))
        raise DatasetFormatError(path, line_no, "not UTF-8 text") from None
    return [line.rstrip("\r\n") for line in io.StringIO(text, newline=None)]


def _load_table(path: Path, columns: int | None, dtype) -> np.ndarray | None:
    """The file as a ``dtype`` table ``columns`` wide (None: any width), read in one call.

    Returns None when the bulk reader rejects the file for any reason (a
    missing file, a whitespace-only or malformed line, no data at all).
    :func:`_read_table` then scans the file line by line, which accepts the
    same inputs and reports the first bad one as ``file:line``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                path, delimiter=",", dtype=dtype, comments=None, ndmin=2, encoding="utf-8"
            )
        except (OSError, ValueError, Warning):
            return None
    return table if columns in (None, table.shape[1]) else None


def _read_table(path: Path, columns: int | None, dtype) -> np.ndarray:
    """The non-blank lines of a file as a (rows, columns) ``dtype`` table.

    ``columns=None`` takes the width of the first line. Only syntax is
    checked here: the field count, and that every field parses as ``dtype``
    (int64 overflow included). The first bad line raises
    :class:`DatasetFormatError`.
    """
    table = _load_table(path, columns, dtype)
    if table is not None:
        return table
    integer = np.dtype(dtype).kind == "i"
    parse, kind = (int, "an integer") if integer else (float, "a number")
    limits = np.iinfo(dtype) if integer else None
    rows = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        columns = columns or len(fields)
        if len(fields) != columns:
            raise DatasetFormatError(
                path, line_no,
                f"expected {columns} comma-separated values, got {len(fields)}: {line.strip()!r}",
            )
        row = []
        for token in fields:
            try:
                value = parse(token.strip())
            except ValueError:
                raise DatasetFormatError(
                    path, line_no, f"expected {kind}, got {token.strip()!r}"
                ) from None
            if integer and not limits.min <= value <= limits.max:
                raise DatasetFormatError(path, line_no, f"{value} overflows {limits.dtype}")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=dtype).reshape(len(rows), columns or 0)


def _line_of_row(path: Path, row: int) -> int:
    """Physical line number of table row ``row``: blank lines are not rows.

    A row past the end maps to the line after the last one.
    """
    lines = _read_lines(path)
    rows = [i for i, line in enumerate(lines, start=1) if line.strip()]
    return rows[row] if row < len(rows) else len(lines) + 1


def _check_count(path: Path, table: np.ndarray, expected: int, what: str) -> None:
    """Reject a table without ``expected`` rows, at the first missing or extra row."""
    if len(table) != expected:
        raise DatasetFormatError(
            path,
            _line_of_row(path, min(len(table), expected)),
            f"expected {expected} {what}, got {len(table)}",
        )


def _check_edges(path: Path, pairs: np.ndarray, indicator: np.ndarray) -> None:
    """Reject the first edge line that is out of range, a self-loop or across graphs.

    When one line breaks several rules, the first in that order names it.
    Whole-table reductions clear a valid table; the per-line masks are built
    only to name the bad line.
    """
    num_nodes = indicator.size
    graph_of = np.concatenate(([0], indicator))  # indexed by 1-based node
    if (
        pairs.size == 0
        or pairs.min() >= 1
        and pairs.max() <= num_nodes
        and not np.any(pairs[:, 0] == pairs[:, 1])
        and np.array_equal(graph_of[pairs[:, 0]], graph_of[pairs[:, 1]])
    ):
        return
    out_of_range = np.any((pairs < 1) | (pairs > num_nodes), axis=1)
    self_loop = pairs[:, 0] == pairs[:, 1]
    ends = graph_of[np.clip(pairs, 1, num_nodes)]
    crossing = ends[:, 0] != ends[:, 1]
    bad = out_of_range | self_loop | crossing
    if not bad.any():
        return
    row = int(np.argmax(bad))
    (u, v), (gu, gv) = pairs[row], ends[row]
    if out_of_range[row]:
        message = f"node index out of range 1..{num_nodes}: ({u}, {v})"
    elif self_loop[row]:
        message = f"self-loop on node {u}"
    else:
        message = f"edge ({u}, {v}) crosses graphs {gu} and {gv}"
    raise DatasetFormatError(path, _line_of_row(path, row), message)


def degree_feature_bound(graphs, max_degree: int | None = None) -> int:
    """Degree cap for one-hot degree features.

    Defaults to the 95th-percentile degree over the given graphs, clamped to
    [1, 400]; an explicit ``max_degree`` short-circuits the policy.
    """
    if max_degree is not None:
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        return int(max_degree)
    degrees = np.concatenate([g.degrees for g in graphs]) if graphs else np.zeros(1)
    if degrees.size == 0:
        degrees = np.zeros(1)
    bound = int(round(float(np.percentile(degrees, DEGREE_BOUND_PERCENTILE))))
    return max(DEGREE_BOUND_MIN, min(DEGREE_BOUND_MAX, bound))


def with_degree_features(graphs, bound: int) -> list[LabeledGraph]:
    """Rebuild labeled graphs with one-hot degree features at the given cap,
    held as codes (:func:`graphs.degree_onehot`)."""
    # degree_onehot gives valid codes for every node of its graph: nothing to check
    return [
        LabeledGraph._trusted(g.graph, degree_onehot(g.graph, bound), g.label) for g in graphs
    ]


def parse_tu_dataset(directory, name: str) -> Dataset:
    """Parse a TUDataset-format directory into a :class:`Dataset`.

    Feature precedence: node attributes, then one-hot node labels (alphabet
    taken over the whole dataset), then one-hot degrees as a fallback for
    featureless datasets. Labels and degrees are held as
    :class:`graphs.LabelCodes`, one code per node; only attributes are a
    dense float64 array. Edge lists get a symmetric closure and duplicate
    edges are collapsed.
    """
    d = Path(directory)
    a_path = d / f"{name}_A.txt"
    ind_path = d / f"{name}_graph_indicator.txt"
    lab_path = d / f"{name}_graph_labels.txt"

    indicator = _read_table(ind_path, 1, np.int64)[:, 0]
    if indicator.size == 0:
        raise DatasetFormatError(ind_path, None, "dataset has no nodes")
    if indicator[0] != 1:
        raise DatasetFormatError(
            ind_path, _line_of_row(ind_path, 0), "graph indicator must start at 1"
        )
    steps = np.diff(indicator)
    if np.any(steps < 0):
        bad = int(np.argmax(steps < 0)) + 1
        raise DatasetFormatError(
            ind_path, _line_of_row(ind_path, bad), "graph indicator must be non-decreasing"
        )
    if np.any(steps > 1):
        after = int(np.argmax(steps > 1)) + 1  # the first row past the gap
        raise DatasetFormatError(
            ind_path, _line_of_row(ind_path, after),
            f"graph {int(indicator[after - 1]) + 1} has no nodes",
        )
    num_graphs = int(indicator[-1])
    num_nodes = indicator.size
    starts = np.searchsorted(indicator, np.arange(1, num_graphs + 2)).tolist()
    blocks = list(zip(starts[:-1], starts[1:]))  # node range of each graph

    raw_labels = _read_table(lab_path, 1, np.int64)[:, 0]
    _check_count(lab_path, raw_labels, num_graphs, "graph labels")
    classes = np.unique(raw_labels)
    labels = np.searchsorted(classes, raw_labels)

    pairs = _read_table(a_path, 2, np.int64)
    _check_edges(a_path, pairs, indicator)
    pairs -= 1
    # one CSR over the whole dataset; graph i is the diagonal block of its node
    # range, and no edge crosses graphs, so every block is a valid CSR itself
    whole = from_edge_list(num_nodes, pairs)
    del pairs
    offsets, cols = whole.row_offsets, whole.col_indices
    structures = [
        SparseGraph._trusted(
            hi - lo, offsets[lo : hi + 1] - offsets[lo], cols[offsets[lo] : offsets[hi]] - lo
        )
        for lo, hi in blocks
    ]
    del whole, offsets, cols

    attr_path = d / f"{name}_node_attributes.txt"
    nlab_path = d / f"{name}_node_labels.txt"
    node_labels = None
    alphabet = None

    if attr_path.is_file():
        feature_kind = "node_attributes"
        all_feats = _read_table(attr_path, None, np.float64)
        finite = np.isfinite(all_feats).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DatasetFormatError(
                attr_path, _line_of_row(attr_path, row), "non-finite attribute value"
            )
        _check_count(attr_path, all_feats, num_nodes, "attribute rows")
        features = [all_feats[lo:hi] for lo, hi in blocks]
    elif nlab_path.is_file():
        feature_kind = "node_labels_onehot"
        raw = _read_table(nlab_path, 1, np.int64)[:, 0]
        _check_count(nlab_path, raw, num_nodes, "node labels")
        alphabet = np.unique(raw)
        codes = np.searchsorted(alphabet, raw)
        features = [LabelCodes._trusted(codes[lo:hi], int(alphabet.size)) for lo, hi in blocks]
        node_labels = [raw[lo:hi] for lo, hi in blocks]
    else:
        feature_kind = "degree_onehot"
        degree_bound = degree_feature_bound(structures)
        features = [degree_onehot(g, degree_bound) for g in structures]

    # every attribute table above is float64, C-contiguous, finite and
    # num_nodes rows long, and every code lies in [0, width), so the row
    # blocks need no per-graph check
    graphs = [
        LabeledGraph._trusted(g, f, int(y)) for g, f, y in zip(structures, features, labels)
    ]
    return Dataset(
        name=name,
        graphs=graphs,
        num_classes=int(classes.size),
        feature_kind=feature_kind,
        node_labels=node_labels,
        node_label_alphabet=alphabet,
    )


def _write_ints(path: Path, fmt: str, table) -> None:
    """Write one ``fmt`` line per row of an integer table, in one call."""
    table = np.asarray(table, dtype=np.int64)
    path.write_text((fmt * len(table)) % tuple(table.ravel().tolist()), encoding="utf-8")


def write_tu_dataset(dataset: Dataset, directory, name: str | None = None) -> None:
    """Serialize a dataset back to TUDataset files (inverse of the parser)."""
    name = name or dataset.name
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    structures = [lg.graph for lg in dataset.graphs]
    sizes = np.array([g.num_nodes for g in structures], dtype=np.int64)
    bases = np.cumsum(sizes) - sizes
    none = [np.zeros(0, dtype=np.int64)]  # keeps concatenate defined for no graphs
    degrees = np.concatenate(none + [g.degrees for g in structures])
    src = np.repeat(np.arange(degrees.size), degrees)
    dst = np.concatenate(none + [g.col_indices + b for g, b in zip(structures, bases)])
    _write_ints(d / f"{name}_A.txt", "%d, %d\n", np.stack([src, dst], axis=1) + 1)
    indicator = np.repeat(np.arange(1, sizes.size + 1), sizes)
    _write_ints(d / f"{name}_graph_indicator.txt", "%d\n", indicator)
    _write_ints(d / f"{name}_graph_labels.txt", "%d\n", [lg.label for lg in dataset.graphs])

    if dataset.feature_kind == "node_attributes":
        rows = [row for lg in dataset.graphs for row in lg.features.tolist()]
        text = "".join(", ".join(map(repr, row)) + "\n" for row in rows)
        (d / f"{name}_node_attributes.txt").write_text(text, encoding="utf-8")
    elif dataset.feature_kind == "node_labels_onehot":
        if dataset.node_labels is None:
            raise ValueError("dataset has one-hot label features but no raw node labels")
        labels = np.concatenate(none + list(dataset.node_labels))
        _write_ints(d / f"{name}_node_labels.txt", "%d\n", labels)


def plain_kfold(num_items: int, folds: int = 10, seed: int = 0) -> list[FoldSplit]:
    """Round-robin folds over a seeded shuffle, ignoring labels: the
    stratified split of a single class."""
    return stratified_kfold(np.zeros(num_items, dtype=np.int64), folds, seed)


def stratified_kfold(labels, folds: int = 10, seed: int = 0) -> list[FoldSplit]:
    """Per-class round-robin fold assignment after a seeded shuffle.

    Every test fold holds each class's share to within one graph; folds are
    pairwise disjoint and cover the dataset. Deterministic per seed.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if folds < 2:
        raise ValueError("folds must be >= 2 (a single fold would test on everything)")
    if n < folds:
        raise ValueError(f"cannot split {n} graphs into {folds} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    offset = 0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.size < folds:
            raise ValueError(
                f"class {int(c)} has {members.size} graphs; needs at least {folds}"
            )
        members = members[rng.permutation(members.size)]
        assignment[members] = (np.arange(members.size) + offset) % folds
        offset = (offset + members.size) % folds
    return [
        FoldSplit(
            fold_index=f,
            train_indices=np.flatnonzero(assignment != f),
            test_indices=np.flatnonzero(assignment == f),
        )
        for f in range(folds)
    ]


def file_checksum(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
