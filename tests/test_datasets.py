"""TUDataset parsing, serialization round-trips, and fold generation."""
from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_dense, random_graph
from sparsepool import datasets
from sparsepool.cli import main
from sparsepool.datasets import (
    Dataset,
    DatasetFormatError,
    degree_feature_bound,
    parse_tu_dataset,
    plain_kfold,
    stratified_kfold,
    with_degree_features,
    write_tu_dataset,
)
from sparsepool.graphs import LabeledGraph, from_edge_list


def write_corpus(directory, name, files: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for suffix, content in files.items():
        (directory / f"{name}_{suffix}.txt").write_text(content, encoding="utf-8")


class TestParse:
    def test_minimal_fixture(self, fixtures_dir):
        ds = parse_tu_dataset(fixtures_dir / "MINI", "MINI")
        assert ds.num_classes == 2
        assert [g.label for g in ds.graphs] == [0, 1]
        assert ds.feature_kind == "degree_onehot"
        triangle, edge = ds.graphs
        assert triangle.graph.num_nodes == 3 and triangle.graph.num_edges == 3
        assert edge.graph.num_nodes == 2 and edge.graph.num_edges == 1
        assert triangle.features.shape[1] == edge.features.shape[1]

    def test_missing_file_reports_name(self, tmp_path):
        write_corpus(tmp_path, "X", {"A": "1, 2\n2, 1\n", "graph_indicator": "1\n1\n"})
        with pytest.raises(DatasetFormatError, match="X_graph_labels.txt"):
            parse_tu_dataset(tmp_path, "X")

    def test_out_of_range_edge_reports_line(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n2, 1\n5, 1\n",
                "graph_indicator": "1\n1\n1\n1\n",
                "graph_labels": "1\n",
            },
        )
        with pytest.raises(DatasetFormatError, match=r"X_A.txt:3"):
            parse_tu_dataset(tmp_path, "X")

    def test_non_integer_reports_line(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {"A": "1, 2\n2, 1\n", "graph_indicator": "1\nfoo\n", "graph_labels": "1\n"},
        )
        with pytest.raises(DatasetFormatError, match=r"X_graph_indicator.txt:2"):
            parse_tu_dataset(tmp_path, "X")

    def test_cross_graph_edge_rejected(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n2, 1\n2, 3\n3, 2\n",
                "graph_indicator": "1\n1\n2\n",
                "graph_labels": "1\n2\n",
            },
        )
        with pytest.raises(DatasetFormatError, match="crosses graphs"):
            parse_tu_dataset(tmp_path, "X")

    def test_self_loop_rejected_with_line(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {"A": "1, 1\n", "graph_indicator": "1\n1\n", "graph_labels": "1\n"},
        )
        with pytest.raises(DatasetFormatError, match=r"X_A.txt:1.*self-loop"):
            parse_tu_dataset(tmp_path, "X")

    def test_duplicate_edges_collapse(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n1, 2\n2, 1\n",
                "graph_indicator": "1\n1\n",
                "graph_labels": "4\n",
            },
        )
        ds = parse_tu_dataset(tmp_path, "X")
        assert ds.graphs[0].graph.num_edges == 1
        assert ds.graphs[0].label == 0  # labels remapped to [0, C)

    def test_edges_listed_one_way_parse_as_both(self, tmp_path):
        both = "1, 2\n1, 3\n2, 1\n2, 3\n3, 1\n3, 2\n5, 6\n6, 5\n"
        one_way = "3, 2\n1, 2\n6, 5\n1, 3\n"
        parsed = []
        for name, edges in (("B", both), ("O", one_way)):
            write_corpus(
                tmp_path, name,
                {"A": edges, "graph_indicator": "1\n1\n1\n2\n2\n2\n", "graph_labels": "1\n2\n"},
            )
            parsed.append(parse_tu_dataset(tmp_path, name))
        TestRoundTrip().assert_same(*parsed)
        assert [g.graph.num_edges for g in parsed[1].graphs] == [3, 1]

    def test_zero_edge_graph_kept(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n2, 1\n",
                "graph_indicator": "1\n1\n2\n",
                "graph_labels": "1\n1\n",
            },
        )
        ds = parse_tu_dataset(tmp_path, "X")
        assert ds.graphs[1].graph.num_edges == 0

    def test_node_attributes_take_precedence(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n2, 1\n",
                "graph_indicator": "1\n1\n",
                "graph_labels": "1\n",
                "node_labels": "3\n5\n",
                "node_attributes": "0.25, -1.5\n2.0, 0.125\n",
            },
        )
        ds = parse_tu_dataset(tmp_path, "X")
        assert ds.feature_kind == "node_attributes"
        assert np.array_equal(ds.graphs[0].features, [[0.25, -1.5], [2.0, 0.125]])

    def test_node_labels_onehot_over_dataset_alphabet(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n2, 1\n",
                "graph_indicator": "1\n1\n2\n",
                "graph_labels": "1\n2\n",
                "node_labels": "7\n3\n7\n",
            },
        )
        ds = parse_tu_dataset(tmp_path, "X")
        assert ds.feature_kind == "node_labels_onehot"
        # the alphabet {3, 7} remaps label 3 to code 0 and 7 to code 1
        assert [g.features.width for g in ds.graphs] == [2, 2]
        assert np.array_equal(ds.graphs[0].features.codes, [1, 0])
        assert np.array_equal(ds.graphs[1].features.codes, [1])
        assert np.array_equal(as_dense(ds.graphs[0].features), [[0, 1], [1, 0]])

    def test_indicator_must_be_sorted(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {"A": "", "graph_indicator": "1\n2\n1\n", "graph_labels": "1\n2\n"},
        )
        with pytest.raises(DatasetFormatError, match="non-decreasing"):
            parse_tu_dataset(tmp_path, "X")

    def test_crlf_accepted(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / "X_A.txt").write_bytes(b"1, 2\r\n2, 1\r\n")
        (tmp_path / "X_graph_indicator.txt").write_bytes(b"1\r\n1\r\n")
        (tmp_path / "X_graph_labels.txt").write_bytes(b"1\r\n")
        ds = parse_tu_dataset(tmp_path, "X")
        assert ds.graphs[0].graph.num_edges == 1

    @pytest.mark.parametrize(
        "edges, line",
        [(b"\xff1, 2\n", 1), (b"1, 2\n2, 1\xc3\n", 2), (b"1, 2\r\n\r\n\xe2\x82, 1\r\n", 3),
         (b"1, 2\r2, 1\r\x80", 3)],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, edges, line):
        (tmp_path / "X_A.txt").write_bytes(edges)
        write_corpus(tmp_path, "X", {"graph_indicator": "1\n1\n", "graph_labels": "1\n"})
        with pytest.raises(DatasetFormatError, match=rf"X_A.txt:{line}: not UTF-8 text$"):
            parse_tu_dataset(tmp_path, "X")

    @pytest.mark.parametrize(
        "indicator, labels, error",
        [
            ("1\n\n2\n1\n", "1\n2\n", r"X_graph_indicator.txt:4: .*non-decreasing"),
            ("\n2\n2\n", "1\n2\n", r"X_graph_indicator.txt:2: .*start at 1"),
            ("1\n99999999999999999999\n", "1\n", r"X_graph_indicator.txt:2: .*overflows"),
            # a jump in graph ids must not size an array by the largest id
            ("1\n1000000000000\n", "1\n2\n", r"X_graph_indicator.txt:2: graph 2 has no nodes"),
            ("1\n2\n", "1\n\n", r"X_graph_labels.txt:3: expected 2 graph labels, got 1"),
        ],
    )
    def test_indicator_and_label_errors_report_physical_line(
        self, tmp_path, indicator, labels, error
    ):
        write_corpus(
            tmp_path, "X", {"A": "", "graph_indicator": indicator, "graph_labels": labels}
        )
        with pytest.raises(DatasetFormatError, match=error):
            parse_tu_dataset(tmp_path, "X")

    def test_bulk_read_edge_error_counts_blank_lines(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {
                "A": "1, 2\n\n\n2, 1\n\n2, 3\n",
                "graph_indicator": "1\n1\n2\n",
                "graph_labels": "1\n2\n",
            },
        )
        assert datasets._load_table(tmp_path / "X_A.txt", 2, np.int64) is not None
        with pytest.raises(DatasetFormatError, match=r"X_A.txt:6: .*crosses graphs 1 and 2"):
            parse_tu_dataset(tmp_path, "X")

    def test_edge_rules_apply_in_order_on_one_line(self, tmp_path):
        write_corpus(
            tmp_path,
            "X",
            {"A": "1, 2\n5, 5\n", "graph_indicator": "1\n1\n", "graph_labels": "1\n"},
        )
        with pytest.raises(DatasetFormatError, match=r"X_A.txt:2: node index out of range"):
            parse_tu_dataset(tmp_path, "X")


# One bad attribute line (or file) and the physical line it is reported at,
# in a two-node, two-column dataset whose second line is blank.
BAD_ATTRIBUTES = {
    "not_a_number": ("0.5, 1.0\n\n0.25, abc\n", 3),
    "ragged_row": ("0.5, 1.0\n\n0.25\n", 3),
    "nan": ("0.5, 1.0\n\nnan, 0.0\n", 3),
    "inf": ("-inf, 1.0\n\n0.5, 0.0\n", 1),
    "overflowing_float": ("0.5, 1e999\n\n0.5, 0.0\n", 1),
    "extra_row": ("0.5, 1.0\n\n0.25, 2.0\n1.0, 1.0\n", 4),
    "missing_row": ("0.5, 1.0\n\n", 3),
}


def attribute_corpus(directory, attributes: str) -> None:
    write_corpus(
        directory,
        "X",
        {
            "A": "1, 2\n",
            "graph_indicator": "1\n1\n",
            "graph_labels": "1\n",
            "node_attributes": attributes,
        },
    )


class TestAttributeErrors:
    @pytest.mark.parametrize("case", sorted(BAD_ATTRIBUTES))
    def test_reports_physical_line_and_cli_exits_2(self, tmp_path, capsys, case):
        text, line = BAD_ATTRIBUTES[case]
        attribute_corpus(tmp_path, text)
        with pytest.raises(DatasetFormatError, match=rf"X_node_attributes.txt:{line}: "):
            parse_tu_dataset(tmp_path, "X")
        code = main(["train", "--dataset", "X", "--data-dir", str(tmp_path),
                     "--hidden", "4", "--lr", "0.01", "--epochs", "1",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"X_node_attributes.txt:{line}: " in err
        assert "Traceback" not in err


# One bad line the line scan rejects; {n_plus_1} is one past the last node,
# {last} the first node of the last graph (so "1, {last}" crosses graphs
# whenever there are two or more).
CORRUPT_LINES = {
    "float": "1.0, 2",
    "three_columns": "1,2,3",
    "comment": "# 1, 2",
    "hash": "#",
    "out_of_range": "{n_plus_1}, 1",
    "zero": "0, 1",
    "huge": "99999999999999999999, 1",
    "self_loop": "1, 1",
    "cross_graph": "1, {last}",
    "one_field": "1",
    "empty_field": "1,",
}


@st.composite
def edge_files(draw):
    """(indicator text, edge file text, corruption) for a small random dataset.

    Valid lines vary their separators, padding and line endings, and blank
    lines are mixed in; a corruption replaces the file, or inserts one
    bad line the scan rejects or one whitespace-only line it accepts.
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    starts = np.concatenate([[1], 1 + np.cumsum(sizes)])
    lines = []
    for start, n in zip(starts, sizes):
        if n < 2:
            continue
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        pairs = draw(st.lists(pair, max_size=6))
        for u, v in pairs:
            sep = draw(st.sampled_from([",", ", ", " ,", ",\t", " , "]))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{pad}{start + u}{sep}{start + v}{pad}")
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    corruption = draw(st.sampled_from([None, "whitespace_line", "empty_file", *CORRUPT_LINES]))
    if corruption == "empty_file":
        lines = []
    elif corruption == "whitespace_line":
        lines.insert(draw(st.integers(0, len(lines))), "   ")
    elif corruption is not None:
        bad = CORRUPT_LINES[corruption].format(n_plus_1=sum(sizes) + 1, last=starts[-2])
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    edges = "".join(line + newline for line in lines)
    indicator = "".join(f"{g}\n" * n for g, n in enumerate(sizes, start=1))
    return indicator, edges, corruption


def parse_outcome(directory: Path, scan_only: bool):
    """The parsed graphs' CSR arrays, or the error message."""
    patch = (
        mock.patch.object(datasets, "_load_table", return_value=None)
        if scan_only
        else contextlib.nullcontext()
    )
    with patch:
        try:
            ds = parse_tu_dataset(directory, "X")
        except DatasetFormatError as exc:
            return "error", str(exc)
    return "ok", [
        (g.graph.row_offsets.tolist(), g.graph.col_indices.tolist(),
         as_dense(g.features).tobytes())
        for g in ds.graphs
    ]


# One bad attribute line the line scan or the finiteness rule rejects; {row}
# is a well-formed row of the file's width, {rest} its fields after the first.
CORRUPT_ATTRIBUTES = {
    "word": "abc{rest}",
    "hash": "# {row}",
    "empty_field": "{row},",
    "ragged": "{row}, 1.0",
    "nan": "nan{rest}",
    "inf": "-inf{rest}",
    "extra_row": "{row}",
}
NUMBER_FORMATS = (repr, "{:.3g}".format, "{:e}".format, "{:+.1f}".format)


@st.composite
def attribute_files(draw):
    """(node count, attribute file text, corruption) for one small graph.

    Numbers vary their notation, padding and line endings, and blank lines
    are mixed in; a corruption drops a row, empties the file, or inserts one
    bad row (or one whitespace-only line the scan accepts).
    """
    num_nodes = draw(st.integers(1, 6))
    width = draw(st.integers(1, 3))
    number = st.tuples(st.floats(-1e6, 1e6), st.sampled_from(NUMBER_FORMATS)).map(
        lambda case: case[1](case[0])
    )
    pad = st.sampled_from(["", " ", "\t"])
    sep = st.sampled_from([",", ", ", " ,"])
    lines = []
    for _ in range(num_nodes):
        fields = [draw(pad) + draw(number) + draw(pad) for _ in range(width)]
        lines.append(draw(sep).join(fields))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    corruption = draw(
        st.sampled_from([None, "whitespace_line", "empty_file", "missing_row", *CORRUPT_ATTRIBUTES])
    )
    if corruption == "empty_file":
        lines = []
    elif corruption == "missing_row":
        lines.remove(next(line for line in lines if line))
    elif corruption == "whitespace_line":
        lines.insert(draw(st.integers(0, len(lines))), "   ")
    elif corruption is not None:
        bad = CORRUPT_ATTRIBUTES[corruption].format(
            row=", ".join(["0.5"] * width), rest=", 0.5" * (width - 1)
        )
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return num_nodes, "".join(line + newline for line in lines), corruption


class TestBulkEdgeParse:
    @settings(max_examples=300)
    @given(edge_files())
    def test_bulk_parse_matches_line_scan(self, case):
        indicator, edges, corruption = case
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            num_graphs = int(indicator.split()[-1])
            (d / "X_graph_indicator.txt").write_text(indicator, encoding="utf-8")
            (d / "X_graph_labels.txt").write_text("1\n" * num_graphs, encoding="utf-8")
            (d / "X_A.txt").write_bytes(edges.encode("utf-8"))
            bulk = parse_outcome(d, scan_only=False)
            assert bulk == parse_outcome(d, scan_only=True)
            if corruption in CORRUPT_LINES:
                assert bulk[0] == "error" and "X_A.txt:" in bulk[1]
            if corruption is None and edges.strip():
                assert datasets._load_table(d / "X_A.txt", 2, np.int64) is not None


    @settings(max_examples=300)
    @given(attribute_files())
    def test_bulk_attribute_parse_matches_line_scan(self, case):
        num_nodes, attributes, corruption = case
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "X_graph_indicator.txt").write_text("1\n" * num_nodes, encoding="utf-8")
            (d / "X_graph_labels.txt").write_text("1\n", encoding="utf-8")
            (d / "X_A.txt").write_text("", encoding="utf-8")
            (d / "X_node_attributes.txt").write_bytes(attributes.encode("utf-8"))
            bulk = parse_outcome(d, scan_only=False)
            assert bulk == parse_outcome(d, scan_only=True)
            if corruption in (*CORRUPT_ATTRIBUTES, "empty_file", "missing_row"):
                assert bulk[0] == "error" and "X_node_attributes.txt:" in bulk[1]
            else:
                assert bulk[0] == "ok"
            if corruption is None:
                table = datasets._load_table(d / "X_node_attributes.txt", None, np.float64)
                assert table is not None


class TestRoundTrip:
    def assert_same(self, a: Dataset, b: Dataset):
        assert a.num_classes == b.num_classes
        assert a.feature_kind == b.feature_kind
        assert len(a.graphs) == len(b.graphs)
        for ga, gb in zip(a.graphs, b.graphs):
            assert ga.label == gb.label
            assert np.array_equal(ga.graph.row_offsets, gb.graph.row_offsets)
            assert np.array_equal(ga.graph.col_indices, gb.graph.col_indices)
            assert np.array_equal(as_dense(ga.features), as_dense(gb.features))

    def test_degree_corpus(self, fixtures_dir, tmp_path):
        ds = parse_tu_dataset(fixtures_dir / "MINI", "MINI")
        write_tu_dataset(ds, tmp_path, "MINI")
        self.assert_same(ds, parse_tu_dataset(tmp_path, "MINI"))

    def test_attribute_corpus(self, tmp_path):
        rng = np.random.default_rng(0)
        graphs = []
        for i in range(4):
            g = random_graph(rng, int(rng.integers(2, 7)))
            graphs.append(LabeledGraph(g, rng.standard_normal((g.num_nodes, 3)), i % 2))
        ds = Dataset("ATTR", graphs, 2, "node_attributes")
        write_tu_dataset(ds, tmp_path / "attr")
        self.assert_same(ds, parse_tu_dataset(tmp_path / "attr", "ATTR"))

    def test_label_corpus(self, tmp_path):
        rng = np.random.default_rng(1)
        graphs, node_labels = [], []
        alphabet = np.array([2, 9])
        for i in range(3):
            g = random_graph(rng, int(rng.integers(2, 6)))
            raw = rng.choice(alphabet, size=g.num_nodes)
            onehot = np.zeros((g.num_nodes, 2))
            onehot[np.arange(g.num_nodes), np.searchsorted(alphabet, raw)] = 1.0
            graphs.append(LabeledGraph(g, onehot, i % 2 if i else 1))
            node_labels.append(raw)
        ds = Dataset("LAB", graphs, 2, "node_labels_onehot", node_labels)
        write_tu_dataset(ds, tmp_path / "lab")
        self.assert_same(ds, parse_tu_dataset(tmp_path / "lab", "LAB"))

    def test_files_match_a_line_by_line_writer(self, tmp_path):
        rng = np.random.default_rng(2)
        graphs, node_labels = [], []
        for i in range(5):
            g = random_graph(rng, int(rng.integers(1, 7)))
            graphs.append(LabeledGraph(g, rng.standard_normal((g.num_nodes, 2)), 3 * i))
            node_labels.append(rng.integers(0, 4, size=g.num_nodes))
        expected = {"A": "", "graph_indicator": "", "graph_labels": "",
                    "node_attributes": "", "node_labels": ""}
        base = 0
        for i, lg in enumerate(graphs, start=1):
            rows = np.repeat(np.arange(lg.graph.num_nodes), lg.graph.degrees)
            for u, v in zip(rows, lg.graph.col_indices):
                expected["A"] += f"{base + u + 1}, {base + v + 1}\n"
            expected["graph_indicator"] += f"{i}\n" * lg.graph.num_nodes
            expected["graph_labels"] += f"{lg.label}\n"
            for row in lg.features:
                expected["node_attributes"] += ", ".join(repr(float(x)) for x in row) + "\n"
            expected["node_labels"] += "".join(f"{int(x)}\n" for x in node_labels[i - 1])
            base += lg.graph.num_nodes
        write_tu_dataset(Dataset("W", graphs, 2, "node_attributes"), tmp_path / "attr")
        labelled = Dataset("W", graphs, 2, "node_labels_onehot", node_labels)
        write_tu_dataset(labelled, tmp_path / "lab")
        for suffix, text in expected.items():
            where = "lab" if suffix == "node_labels" else "attr"
            assert (tmp_path / where / f"W_{suffix}.txt").read_text() == text

    def test_toy_corpus_is_canonical(self, fixtures_dir, tmp_path):
        ds = parse_tu_dataset(fixtures_dir / "TOY24", "TOY24")
        write_tu_dataset(ds, tmp_path, "TOY24")
        for suffix in ("_A.txt", "_graph_indicator.txt", "_graph_labels.txt"):
            original = (fixtures_dir / "TOY24" / f"TOY24{suffix}").read_bytes()
            rewritten = (tmp_path / f"TOY24{suffix}").read_bytes()
            assert original == rewritten


class TestDegreeBound:
    def test_no_degrees_give_the_floor(self):
        assert degree_feature_bound([]) == 1
        assert degree_feature_bound([from_edge_list(0, [])]) == 1

    def test_percentile_clamped_low(self):
        g = from_edge_list(2, [(0, 1)])
        assert degree_feature_bound([g]) == 1

    def test_percentile_of_regular_graph(self):
        k6 = from_edge_list(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        assert degree_feature_bound([k6]) == 5

    def test_outlier_hub_is_ignored(self):
        hub = from_edge_list(41, [(0, i) for i in range(1, 41)])
        # one degree-40 hub among forty leaves: the 95th percentile stays at 1
        assert degree_feature_bound([hub]) == 1

    def test_explicit_override(self):
        # an explicit bound goes straight to the featurizer, bypassing the percentile
        # policy (1 for this hub): one column per degree up to 17, larger degrees clipped
        hub = from_edge_list(41, [(0, i) for i in range(1, 41)])
        [lg] = with_degree_features([LabeledGraph(hub, np.ones((41, 1)), 0)], 17)
        assert lg.features.shape == (41, 18)
        assert np.array_equal(lg.features.codes, np.minimum(hub.degrees, 17))
        assert lg.label == 0


class TestPlainKFold:
    @pytest.mark.parametrize("n, folds, seed", [(2, 2, 0), (23, 5, 7), (100, 10, 1),
                                                (296, 3, 12345)])
    def test_round_robin_over_a_seeded_shuffle(self, n, folds, seed):
        # written out: the item at shuffled position i goes to fold i % folds
        order = np.random.default_rng(seed).permutation(n)
        fold_of = np.empty(n, dtype=np.int64)
        fold_of[order] = np.arange(n) % folds
        splits = plain_kfold(n, folds, seed)
        assert [split.fold_index for split in splits] == list(range(folds))
        for f, split in enumerate(splits):
            assert np.array_equal(split.test_indices, np.flatnonzero(fold_of == f))
            assert np.array_equal(split.train_indices, np.flatnonzero(fold_of != f))

    def test_rejects_too_few_items_or_folds(self):
        with pytest.raises(ValueError, match="cannot split 4 graphs into 5 folds"):
            plain_kfold(4, folds=5)
        with pytest.raises(ValueError, match="folds must be >= 2"):
            plain_kfold(10, folds=1)


class TestStratifiedKFold:
    def test_balanced_two_class_ten_fold(self):
        labels = np.array([0, 1] * 10)
        splits = stratified_kfold(labels, folds=10, seed=3)
        for split in splits:
            assert split.test_indices.size == 2
            assert sorted(labels[split.test_indices]) == [0, 1]

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError, match="folds"):
            stratified_kfold(np.zeros(10, dtype=int), folds=1)

    def test_rejects_small_class(self):
        labels = np.array([0] * 12 + [1] * 3)
        with pytest.raises(ValueError, match="class 1"):
            stratified_kfold(labels, folds=10)

    def test_deterministic(self):
        labels = np.array([0, 1, 2] * 20)
        a = stratified_kfold(labels, folds=5, seed=42)
        b = stratified_kfold(labels, folds=5, seed=42)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.test_indices, sb.test_indices)
        c = stratified_kfold(labels, folds=5, seed=43)
        assert any(
            not np.array_equal(sa.test_indices, sc.test_indices) for sa, sc in zip(a, c)
        )

    @given(st.integers(0, 200))
    def test_partition_and_proportions(self, seed):
        rng = np.random.default_rng(seed)
        folds = int(rng.integers(2, 6))
        counts = rng.integers(folds, 4 * folds, size=int(rng.integers(1, 4)))
        labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
        labels = labels[rng.permutation(labels.size)]
        splits = stratified_kfold(labels, folds=folds, seed=seed)
        all_test = np.concatenate([s.test_indices for s in splits])
        assert np.array_equal(np.sort(all_test), np.arange(labels.size))
        for split in splits:
            assert np.intersect1d(split.train_indices, split.test_indices).size == 0
            assert np.union1d(split.train_indices, split.test_indices).size == labels.size
            for cls, total in enumerate(counts):
                in_fold = int(np.sum(labels[split.test_indices] == cls))
                assert abs(in_fold - total / folds) <= 1
