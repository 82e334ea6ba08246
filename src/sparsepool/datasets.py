"""TUDataset-format ingestion, featurization, and stratified fold generation.

The on-disk format is the usual multi-file plain-text layout: `{name}_A.txt`
(1-indexed comma-separated edge pairs), `{name}_graph_indicator.txt` (graph id
per node), `{name}_graph_labels.txt`, plus optional `{name}_node_labels.txt`
and `{name}_node_attributes.txt`. LF and CRLF line endings are both accepted.
"""
from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import LabeledGraph, degree_onehot, from_edge_list

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
    "FEATURE_KINDS",
]

FEATURE_KINDS = ("node_attributes", "node_labels_onehot", "degree_onehot")

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
    degree_bound: int | None = None

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_indices: np.ndarray
    test_indices: np.ndarray


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DatasetFormatError(path, None, "missing required file")
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        return [line.rstrip("\r\n") for line in fh]


def _parse_int(token: str, path: Path, line_no: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise DatasetFormatError(
            path, line_no, f"expected an integer, got {token.strip()!r}"
        ) from None


def _load_int_table(path: Path, columns: int) -> np.ndarray | None:
    """The file as an int64 table ``columns`` wide, read in one bulk call.

    Returns None when the bulk reader rejects the file for any reason (a
    missing file, a whitespace-only or malformed line, no data at all).
    Callers then scan the file line by line, which accepts the same inputs
    and reports the first bad one as ``file:line``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                path, delimiter=",", dtype=np.int64, comments=None, ndmin=2, encoding="utf-8"
            )
        except (OSError, ValueError, Warning):
            return None
    return table if table.shape[1] == columns else None


def _read_int_column(path: Path) -> np.ndarray:
    table = _load_int_table(path, 1)
    if table is not None:
        return table[:, 0]
    lines = _read_lines(path)
    values = [
        _parse_int(line, path, i) for i, line in enumerate(lines, start=1) if line.strip()
    ]
    return np.array(values, dtype=np.int64)


def _edges_valid(pairs: np.ndarray, indicator: np.ndarray) -> bool:
    """True if every 1-based pair is in range, no self-loop, and within one graph."""
    if pairs.size == 0:
        return True
    if pairs.min() < 1 or pairs.max() > indicator.size:
        return False
    u, v = pairs[:, 0], pairs[:, 1]
    return bool(np.all(u != v) and np.all(indicator[u - 1] == indicator[v - 1]))


def _scan_edges(path: Path, indicator: np.ndarray) -> np.ndarray:
    """Line-by-line parse of an edge file into checked 1-based (u, v) rows.

    Raises :class:`DatasetFormatError` at the first bad line.
    """
    num_nodes = indicator.size
    pairs = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetFormatError(path, line_no, f"expected 'u, v', got {line.strip()!r}")
        u = _parse_int(parts[0], path, line_no)
        v = _parse_int(parts[1], path, line_no)
        if not (1 <= u <= num_nodes) or not (1 <= v <= num_nodes):
            raise DatasetFormatError(
                path, line_no, f"node index out of range 1..{num_nodes}: ({u}, {v})"
            )
        if u == v:
            raise DatasetFormatError(path, line_no, f"self-loop on node {u}")
        gu = int(indicator[u - 1])
        gv = int(indicator[v - 1])
        if gu != gv:
            raise DatasetFormatError(path, line_no, f"edge ({u}, {v}) crosses graphs {gu} and {gv}")
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


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
    """Rebuild labeled graphs with one-hot degree features at the given cap."""
    return [
        LabeledGraph(g.graph, degree_onehot(g.graph, bound), g.label) for g in graphs
    ]


def parse_tu_dataset(directory, name: str) -> Dataset:
    """Parse a TUDataset-format directory into a :class:`Dataset`.

    Feature precedence: node attributes, then one-hot node labels (alphabet
    taken over the whole dataset), then one-hot degrees as a fallback for
    featureless datasets. Edge lists get a symmetric closure and duplicate
    edges are collapsed.
    """
    d = Path(directory)
    a_path = d / f"{name}_A.txt"
    ind_path = d / f"{name}_graph_indicator.txt"
    lab_path = d / f"{name}_graph_labels.txt"

    indicator = _read_int_column(ind_path)
    if indicator.size == 0:
        raise DatasetFormatError(ind_path, None, "dataset has no nodes")
    if indicator[0] != 1:
        raise DatasetFormatError(ind_path, 1, "graph indicator must start at 1")
    if np.any(np.diff(indicator) < 0):
        bad = int(np.argmax(np.diff(indicator) < 0)) + 2
        raise DatasetFormatError(ind_path, bad, "graph indicator must be non-decreasing")
    num_graphs = int(indicator[-1])
    node_counts = np.bincount(indicator - 1, minlength=num_graphs)
    if np.any(node_counts == 0):
        empty = int(np.argmax(node_counts == 0)) + 1
        raise DatasetFormatError(ind_path, None, f"graph {empty} has no nodes")
    num_nodes = indicator.size
    node_offsets = np.concatenate([[0], np.cumsum(node_counts)])

    raw_labels = _read_int_column(lab_path)
    if raw_labels.size != num_graphs:
        raise DatasetFormatError(
            lab_path, None, f"expected {num_graphs} graph labels, got {raw_labels.size}"
        )
    classes = np.unique(raw_labels)
    labels = np.searchsorted(classes, raw_labels)

    pairs = _load_int_table(a_path, 2)
    if pairs is None or not _edges_valid(pairs, indicator):
        pairs = _scan_edges(a_path, indicator)
    # group the edges by graph (file order kept within a graph), 0-based per graph
    graph_of_edge = indicator[pairs[:, 0] - 1] - 1
    order = np.argsort(graph_of_edge, kind="stable")
    local = pairs[order] - 1 - node_offsets[graph_of_edge[order]][:, None]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(graph_of_edge, minlength=num_graphs))])
    structures = [
        from_edge_list(int(node_counts[i]), local[bounds[i] : bounds[i + 1]])
        for i in range(num_graphs)
    ]

    attr_path = d / f"{name}_node_attributes.txt"
    nlab_path = d / f"{name}_node_labels.txt"
    node_labels = None
    alphabet = None
    degree_bound = None

    if attr_path.is_file():
        feature_kind = "node_attributes"
        rows = []
        width = None
        for line_no, line in enumerate(_read_lines(attr_path), start=1):
            if not line.strip():
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DatasetFormatError(
                    attr_path, line_no, f"expected comma-separated floats, got {line!r}"
                ) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetFormatError(
                    attr_path, line_no, f"expected {width} attributes, got {len(row)}"
                )
            if not all(np.isfinite(row)):
                raise DatasetFormatError(attr_path, line_no, "non-finite attribute value")
            rows.append(row)
        if len(rows) != num_nodes:
            raise DatasetFormatError(
                attr_path, None, f"expected {num_nodes} attribute rows, got {len(rows)}"
            )
        all_feats = np.asarray(rows)
        features = [
            all_feats[node_offsets[i] : node_offsets[i + 1]] for i in range(num_graphs)
        ]
    elif nlab_path.is_file():
        feature_kind = "node_labels_onehot"
        raw = _read_int_column(nlab_path)
        if raw.size != num_nodes:
            raise DatasetFormatError(
                nlab_path, None, f"expected {num_nodes} node labels, got {raw.size}"
            )
        alphabet = np.unique(raw)
        onehot = np.zeros((num_nodes, alphabet.size))
        onehot[np.arange(num_nodes), np.searchsorted(alphabet, raw)] = 1.0
        features = [
            onehot[node_offsets[i] : node_offsets[i + 1]] for i in range(num_graphs)
        ]
        node_labels = [
            raw[node_offsets[i] : node_offsets[i + 1]] for i in range(num_graphs)
        ]
    else:
        feature_kind = "degree_onehot"
        degree_bound = degree_feature_bound(structures)
        features = [degree_onehot(g, degree_bound) for g in structures]

    graphs = [
        LabeledGraph(structures[i], features[i], int(labels[i])) for i in range(num_graphs)
    ]
    return Dataset(
        name=name,
        graphs=graphs,
        num_classes=int(classes.size),
        feature_kind=feature_kind,
        node_labels=node_labels,
        node_label_alphabet=alphabet,
        degree_bound=degree_bound,
    )


def write_tu_dataset(dataset: Dataset, directory, name: str | None = None) -> None:
    """Serialize a dataset back to TUDataset files (inverse of the parser)."""
    name = name or dataset.name
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    with open(d / f"{name}_A.txt", "w", encoding="utf-8") as fh:
        base = 0
        for lg in dataset.graphs:
            g = lg.graph
            row_ids = np.repeat(np.arange(g.num_nodes), g.degrees)
            for u, v in zip(row_ids, g.col_indices):
                fh.write(f"{base + u + 1}, {base + v + 1}\n")
            base += g.num_nodes

    with open(d / f"{name}_graph_indicator.txt", "w", encoding="utf-8") as fh:
        for i, lg in enumerate(dataset.graphs, start=1):
            fh.write(f"{i}\n" * lg.graph.num_nodes)

    with open(d / f"{name}_graph_labels.txt", "w", encoding="utf-8") as fh:
        for lg in dataset.graphs:
            fh.write(f"{lg.label}\n")

    if dataset.feature_kind == "node_attributes":
        with open(d / f"{name}_node_attributes.txt", "w", encoding="utf-8") as fh:
            for lg in dataset.graphs:
                for row in lg.features:
                    fh.write(", ".join(repr(float(v)) for v in row) + "\n")
    elif dataset.feature_kind == "node_labels_onehot":
        if dataset.node_labels is None:
            raise ValueError("dataset has one-hot label features but no raw node labels")
        with open(d / f"{name}_node_labels.txt", "w", encoding="utf-8") as fh:
            for lab in dataset.node_labels:
                for v in lab:
                    fh.write(f"{int(v)}\n")


def plain_kfold(num_items: int, folds: int = 10, seed: int = 0) -> list[FoldSplit]:
    """Round-robin folds over a seeded shuffle, ignoring labels."""
    if folds < 2:
        raise ValueError("folds must be >= 2 (a single fold would test on everything)")
    if num_items < folds:
        raise ValueError(f"cannot split {num_items} graphs into {folds} folds")
    order = np.random.default_rng(seed).permutation(num_items)
    assignment = np.empty(num_items, dtype=np.int64)
    assignment[order] = np.arange(num_items) % folds
    return [
        FoldSplit(
            fold_index=f,
            train_indices=np.flatnonzero(assignment != f),
            test_indices=np.flatnonzero(assignment == f),
        )
        for f in range(folds)
    ]


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
