"""End-to-end command-line tests on the fixture corpora."""
from __future__ import annotations

import argparse
import contextlib
import io
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from sparsepool import cli
from sparsepool.cli import _budget, _sizes, main
from sparsepool.engine import Parameter, save_parameters
from sparsepool.membench import measure_sparse
from sparsepool.training import DATASET_DEFAULTS, default_config


def toy_args(fixtures_dir, *extra):
    return [
        "--dataset", "TOY24",
        "--data-dir", str(fixtures_dir / "TOY24"),
        "--hidden", "8",
        "--lr", "0.01",
        "--epochs", "2",
        "--batch-size", "8",
        "--seed", "1",
        *extra,
    ]


class TestTrain:
    def test_smoke_writes_model_and_manifest(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", *toy_args(fixtures_dir), "--out", str(out)])
        assert code == 0
        assert (out / "model.params").exists()
        assert (out / "metrics.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        # every config default appears explicitly
        for key in ("config.hidden_dim", "config.lr", "config.epochs", "config.pool_ratio",
                    "config.batch_size", "config.seed", "config.readout_position",
                    "config.max_degree", "config.folds", "config.stratified"):
            assert key in manifest
        assert "checksum.TOY24_A.txt" in manifest
        assert "accuracy" in capsys.readouterr().out

    def test_missing_edge_file_exits_2(self, fixtures_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("TOY24_graph_indicator.txt", "TOY24_graph_labels.txt"):
            shutil.copy(fixtures_dir / "TOY24" / name, broken / name)
        code = main(["train", "--dataset", "TOY24", "--data-dir", str(broken),
                     "--hidden", "4", "--lr", "0.01", "--epochs", "1"])
        assert code == 2
        assert "TOY24_A.txt" in capsys.readouterr().err

    def test_unknown_dataset_without_flags_exits_2(self, tmp_path, capsys):
        code = main(["train", "--dataset", "NOPE", "--data-dir", str(tmp_path)])
        assert code == 2
        assert "NOPE" in capsys.readouterr().err

    def test_unknown_dataset_with_explicit_flags_trains(self, fixtures_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for suffix in ("_A.txt", "_graph_indicator.txt", "_graph_labels.txt"):
            shutil.copy(fixtures_dir / "TOY24" / f"TOY24{suffix}", data / f"NOPE{suffix}")
        code = main(["train", "--dataset", "NOPE", "--data-dir", str(data),
                     "--hidden", "4", "--lr", "0.01", "--epochs", "1",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert "config.hidden_dim = 4" in (tmp_path / "run" / "manifest.txt").read_text()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "-0.5"])
    def test_non_finite_lr_exits_2(self, fixtures_dir, tmp_path, capsys, lr):
        out = tmp_path / "run"
        code = main(["train", *toy_args(fixtures_dir), f"--lr={lr}", "--epochs", "1",
                     "--out", str(out)])
        assert code == 2
        assert "error: argument --lr: must be a finite number >= 0" in capsys.readouterr().err
        assert not (out / "model.params").exists()

    def test_negative_seed_exits_2(self, fixtures_dir, tmp_path, capsys):
        code = main(["train", *toy_args(fixtures_dir), "--seed", "-1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error: argument --seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_max_degree_past_the_largest_degree_exits_2(self, fixtures_dir, tmp_path, capsys,
                                                        command):
        # TOY24's largest degree is 8; a larger cap would only add zero columns
        out = tmp_path / "run"
        code = main([command, *toy_args(fixtures_dir), "--max-degree", "9", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: max_degree 9 exceeds 8, the largest degree")
        assert not (out / "model.params").exists() and not (out / "metrics.csv").exists()
        code = main(["train", *toy_args(fixtures_dir), "--max-degree", "8", "--out", str(out)])
        assert code == 0
        assert "resolved.degree_bound = 8" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("features", ["node_labels", "node_attributes"])
    def test_max_degree_below_one_exits_2_without_degree_features(self, fixtures_dir, tmp_path,
                                                                  capsys, features):
        # no degree feature reads the cap here, so only the config check can catch it
        data = tmp_path / "data"
        shutil.copytree(fixtures_dir / "TOY24", data)
        nodes = len((data / "TOY24_graph_indicator.txt").read_text().splitlines())
        row = "{}\n" if features == "node_labels" else "{}, 0.5\n"
        text = "".join(row.format(i % 3) for i in range(nodes))
        (data / f"TOY24_{features}.txt").write_text(text)
        out = tmp_path / "run"
        argv = ["train", *toy_args(fixtures_dir), "--data-dir", str(data), "--out", str(out)]
        assert main([*argv, "--max-degree", "-3"]) == 2
        assert capsys.readouterr().err == "error: max_degree must be >= 1, got -3\n"
        assert not out.exists()
        assert main([*argv, "--max-degree", "1"]) == 0

    def test_each_flag_reaches_its_field(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", *toy_args(fixtures_dir), "--ratio", "0.5", "--blocks", "2",
                     "--batch-size", "5", "--seed", "3", "--readout-position", "pre_pool",
                     "--no-stratify", "--max-degree", "4", "--out", str(out)])
        assert code == 0
        lines = set((out / "manifest.txt").read_text().splitlines())
        expected = {"hidden_dim": 8, "lr": 0.01, "epochs": 2, "pool_ratio": 0.5,
                    "num_blocks": 2, "batch_size": 5, "seed": 3,
                    "readout_position": "pre_pool", "stratified": False, "max_degree": 4,
                    "folds": 10}
        for field, value in expected.items():
            assert f"config.{field} = {value}" in lines

    def test_numeric_blowup_exits_3(self, fixtures_dir, tmp_path, capsys):
        code = main(["train", "--dataset", "TOY24",
                     "--data-dir", str(fixtures_dir / "TOY24"),
                     "--hidden", "8", "--lr", "1e80", "--epochs", "3",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    pytest.param(["train"], id="train"),
    pytest.param(["cv", "--jobs", "2"], id="cv-jobs-2", marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers inherit numpy's error state only by fork")),
])
def test_a_numeric_blowup_prints_only_its_error_line(fixtures_dir, tmp_path, command):
    # numpy's overflow warnings stay silent, in the forked cv workers too
    argv = [sys.executable, "-m", "sparsepool.cli", *command, "--dataset", "TOY24",
            "--data-dir", str(fixtures_dir / "TOY24"), "--hidden", "4", "--lr", "1e308",
            "--epochs", "3", "--out", str(tmp_path / "x")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite "), done.stderr


class TestCV:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, fixtures_dir, tmp_path, capsys, jobs):
        code = main(["cv", *toy_args(fixtures_dir), "--jobs", jobs, "--out", str(tmp_path)])
        assert code == 2
        assert "error: argument --jobs: must be >= 1" in capsys.readouterr().err

    def test_show_defaults_lists_benchmark_table(self, capsys):
        assert main(["cv", "--dataset", "PROTEINS", "--show-defaults"]) == 0
        out = capsys.readouterr().out
        assert "PROTEINS" in out and "0.005" in out and "40" in out
        assert "ENZYMES" in out and "0.0005" in out and "100" in out
        assert "128" in out and "64" in out
        rows = out.splitlines()
        assert rows[0].split() == ["dataset", "hidden", "lr", "epochs", "ratio", "blocks", "batch"]
        assert len(rows) == 1 + len(DATASET_DEFAULTS)
        for row, name in zip(rows[1:], DATASET_DEFAULTS):
            c = default_config(name)
            assert row.split() == [name, *map(str, (c.hidden_dim, c.lr, c.epochs, c.pool_ratio,
                                                    c.num_blocks, c.batch_size))]

    def test_no_config_flags_give_the_dataset_defaults(self):
        parser = cli.build_parser()
        for name in DATASET_DEFAULTS:
            for argv in (["train"], ["cv"], ["export-summaries", "--model", "m.params"]):
                args = parser.parse_args([*argv, "--dataset", name])
                assert cli._resolve_config(args) == default_config(name)

    def test_cv_writes_metrics_report_manifest(self, fixtures_dir, tmp_path):
        out = tmp_path / "cv"
        code = main(["cv", *toy_args(fixtures_dir), "--out", str(out)])
        assert code == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "fold,accuracy,epochs"
        assert len(metrics) == 11
        assert (out / "report.txt").exists()
        assert (out / "manifest.txt").exists()

    def test_byte_identical_metrics_across_runs(self, fixtures_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["cv", *toy_args(fixtures_dir), "--out", str(out_a)]) == 0
        assert main(["cv", *toy_args(fixtures_dir), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_seed_override_changes_manifest_not_defaults(self, fixtures_dir, tmp_path):
        out = tmp_path / "cv2"
        assert main(["cv", *toy_args(fixtures_dir), "--seed", "9", "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "config.seed = 9" in manifest
        assert "config.pool_ratio = 0.8" in manifest


class TestBenchMem:
    def test_csv_and_slopes(self, tmp_path, capsys):
        out = tmp_path / "mem"
        code = main(["bench-mem", "--sizes", "500,1000,2000", "--out", str(out)])
        assert code == 0
        lines = (out / "membench.csv").read_text().strip().splitlines()
        assert lines[0] == "n,sparse_bytes,dense_bytes,dense_feasible"
        assert len(lines) == 4
        console = capsys.readouterr().out
        assert "slope sparse" in console and "slope dense" in console
        # the per-tag breakdown of the sparse peak at the largest size
        peak = measure_sparse(2000)
        assert f"sparse peak at n = 2000: {peak.peak_bytes} bytes" in console
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"sparse_peak.bytes = {peak.peak_bytes}" in manifest
        for tag, nbytes in peak.breakdown:
            assert f"sparse_peak.{tag} = {nbytes}" in manifest
            assert any(line.split() == [tag, str(nbytes)] for line in console.splitlines())

    def test_budget_flag_parses_units(self, tmp_path):
        out = tmp_path / "mem2"
        code = main(["bench-mem", "--sizes", "1000,16000", "--budget", "1GiB",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "membench.csv").read_text().strip().splitlines()
        assert lines[1].endswith("true")
        assert lines[2].endswith("false")

    def test_bad_sizes_exit_2(self, capsys):
        assert main(["bench-mem", "--sizes", "2000,1000"]) == 2

    def test_single_size_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mem"
        assert main(["bench-mem", "--sizes", "50", "--out", str(out)]) == 2
        assert "a slope fit needs at least two sizes" in capsys.readouterr().err
        assert not (out / "membench.csv").exists()

    def test_a_size_past_int32_exits_2(self, tmp_path, capsys, monkeypatch):
        from sparsepool import membench

        passes = []
        measure = membench.measure_sparse
        monkeypatch.setattr(membench, "measure_sparse",
                            lambda n, **kw: passes.append(n) or measure(n, **kw))
        out = tmp_path / "mem"
        assert main(["bench-mem", "--sizes", "1000,3000000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: node count 3000000000 exceeds the int32 index limit 2147483647\n"
        )
        assert not (out / "membench.csv").exists()
        assert passes == []  # no size was measured before the rejection

    def test_negative_seed_exits_2(self, capsys):
        assert main(["bench-mem", "--sizes", "50,100", "--seed", "-1"]) == 2
        assert "error: argument --seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["inf", "1e400GiB", "-5", "nan", "lots", "GiB", ""])
    def test_bad_budget_exits_2(self, budget, tmp_path, capsys):
        out = tmp_path / "mem"
        argv = ["bench-mem", "--sizes", "50,100", "--budget", budget, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: argument --budget: must be a finite byte count >= 0" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("sizes", ["50,abc", "0,100", "50,-5", ",", "1.5,3"])
    def test_bad_size_token_exits_2(self, sizes, tmp_path, capsys):
        out = tmp_path / "mem"
        assert main(["bench-mem", "--sizes", sizes, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: argument --sizes: must be comma-separated integers >= 1" in err
        assert "Traceback" not in err and not out.exists()


_UNIT_SCALES = {"": 1, "B": 1, "kb": 10**3, "MB": 10**6, "GB": 10**9,
                "KiB": 2**10, "mib": 2**20, "GiB": 2**30}


def no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1048576, 1048576)")


class TestOutOfMemory:
    """A failed allocation exits 2 and names the flags that size the run.

    The allocation is faked to fail: nothing large is allocated and no
    worker process starts.
    """

    @pytest.mark.parametrize("command, flags", [
        ("train", "--hidden, --batch-size, --blocks"),
        ("cv", "--hidden, --batch-size, --blocks, --jobs"),
    ])
    def test_training_commands(self, command, flags, monkeypatch, fixtures_dir, tmp_path, capsys):
        monkeypatch.setattr("sparsepool.layers.glorot_init", no_memory)
        out = tmp_path / command
        assert main([command, *toy_args(fixtures_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: out of memory (Unable to allocate 8.00 TiB" in err
        assert err.rstrip().endswith(f"lower {flags}")
        assert "Traceback" not in err and not (out / "metrics.csv").exists()

    def test_bench_mem(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("sparsepool.membench.erdos_renyi", no_memory)
        out = tmp_path / "mem"
        assert main(["bench-mem", "--sizes", "50,100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith("lower --sizes") and "Traceback" not in err
        assert not (out / "membench.csv").exists()


def die(*args, **kwargs):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched fold runner reaches the workers only by fork")
def test_a_dead_cv_worker_exits_2(monkeypatch, fixtures_dir, tmp_path, capsys):
    # each of the two forked workers dies in its first fold, as when killed for memory
    monkeypatch.setattr("sparsepool.training._run_fold", die)
    out = tmp_path / "cv"
    assert main(["cv", *toy_args(fixtures_dir), "--jobs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died (")
    assert err.rstrip().endswith("lower --hidden, --batch-size, --blocks, --jobs")
    assert "Traceback" not in err and not (out / "metrics.csv").exists()


class TestBenchMemFlagTypes:
    """The --budget and --sizes parsers, called directly: no sweep runs."""

    @given(st.one_of(
        st.text(max_size=16),
        st.from_regex(r"\s*[-+]?[0-9.eE]{0,6}(inf|nan)?\s*([kKmMgG][iI]?)?[bB]?", fullmatch=True),
    ))
    def test_budget_is_a_byte_count_or_a_usage_error(self, text):
        try:
            value = _budget(text)
        except argparse.ArgumentTypeError as exc:
            assert "must be a finite byte count >= 0" in str(exc)
            return
        assert isinstance(value, int) and value >= 0

    @given(st.integers(0, 2**20), st.sampled_from(sorted(_UNIT_SCALES)))
    def test_budget_round_trips_units(self, count, unit):
        assert _budget(f"{count}{unit}") == count * _UNIT_SCALES[unit]

    @given(st.one_of(st.text(max_size=16), st.from_regex(r"[-+0-9, ]{0,12}", fullmatch=True)))
    def test_sizes_are_positive_counts_or_a_usage_error(self, text):
        try:
            sizes = _sizes(text)
        except argparse.ArgumentTypeError as exc:
            assert "must be comma-separated integers >= 1" in str(exc)
            return
        assert sizes and all(isinstance(n, int) and n >= 1 for n in sizes)

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=6))
    def test_sizes_round_trip(self, sizes):
        assert _sizes(", ".join(map(str, sizes))) == sizes


class TestExportSummaries:
    @pytest.fixture
    def trained(self, fixtures_dir, tmp_path):
        out = tmp_path / "train"
        assert main(["train", *toy_args(fixtures_dir), "--out", str(out)]) == 0
        return out / "model.params"

    def test_summary_rows_match_fold_size(self, fixtures_dir, tmp_path, trained):
        out = tmp_path / "exp"
        code = main(["export-summaries", *toy_args(fixtures_dir),
                     "--model", str(trained), "--fold", "0", "--out", str(out)])
        assert code == 0
        rows = (out / "summaries.csv").read_text().strip().splitlines()
        # 24 graphs, 10 folds: fold 0 holds 4 test graphs (2 + 2 remainder spread)
        parts = rows[0].split(",")
        assert len(parts) == 2 + 2 * 8  # id, label, then the 2F' summary
        fold_sizes = {len(rows)}
        assert fold_sizes <= {2, 3, 4}

    def test_post_head_exports_logits(self, fixtures_dir, tmp_path, trained):
        out = tmp_path / "logit"
        code = main(["export-summaries", *toy_args(fixtures_dir), "--model", str(trained),
                     "--post-head", "--out", str(out)])
        assert code == 0
        first = (out / "logits.csv").read_text().strip().splitlines()[0]
        assert len(first.split(",")) == 2 + 2  # id, label, C=2 logits

    def test_whole_dataset_split(self, fixtures_dir, tmp_path, trained):
        out = tmp_path / "all"
        code = main(["export-summaries", *toy_args(fixtures_dir), "--model", str(trained),
                     "--split", "all", "--out", str(out)])
        assert code == 0
        rows = (out / "summaries.csv").read_text().strip().splitlines()
        assert len(rows) == 24
        ids = sorted(int(r.split(",")[0]) for r in rows)
        assert ids == list(range(24))

    def test_truncated_model_exits_2(self, fixtures_dir, tmp_path, trained, capsys):
        small = tmp_path / "small.params"
        save_parameters([Parameter("w", np.ones((2, 2))), Parameter("b", np.zeros(2))], small)
        blob = trained.read_bytes()
        cuts = [small.read_bytes()[:size] for size in range(small.stat().st_size)]
        cuts += [blob[:12], blob[: len(blob) // 2], blob[:-1]]
        cut = tmp_path / "cut.params"
        for data in cuts:
            cut.write_bytes(data)
            code = main(["export-summaries", *toy_args(fixtures_dir), "--model", str(cut),
                         "--out", str(tmp_path / "x")])
            err = capsys.readouterr().err
            assert code == 2, len(data)
            assert err.startswith(f"error: {cut}: truncated at byte ")
            assert "Traceback" not in err

    def test_a_failed_export_keeps_the_old_file(self, fixtures_dir, tmp_path, trained,
                                                monkeypatch):
        # the third row cannot be formatted: the rows before it must not
        # replace the file an earlier run wrote
        out = tmp_path / "exp"
        assert main(["export-summaries", *toy_args(fixtures_dir), "--model", str(trained),
                     "--out", str(out)]) == 0
        before = (out / "summaries.csv").read_bytes()
        real = cli.forward_batches

        def broken(*args, **kwargs):
            rows = real(*args, **kwargs).astype(object)
            rows[2, 0] = "not a number"
            return rows

        monkeypatch.setattr(cli, "forward_batches", broken)
        assert main(["export-summaries", *toy_args(fixtures_dir), "--model", str(trained),
                     "--out", str(out)]) == 2
        assert (out / "summaries.csv").read_bytes() == before
        assert sorted(f.name for f in out.iterdir()) == ["manifest.txt", "summaries.csv"]

    def test_bad_fold_exits_2(self, fixtures_dir, tmp_path, trained, capsys):
        code = main(["export-summaries", *toy_args(fixtures_dir), "--model", str(trained),
                     "--fold", "99", "--out", str(tmp_path / "x")])
        assert code == 2


class TestGarbageModelFiles:
    """``export-summaries --model`` on garbage exits 2 with an error line.

    A byte-flipped valid file may still load (a flipped value is a valid
    value), so that case may also exit 0; nothing may raise past ``main``.
    """

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("garbage_train")
        assert main(["train", *toy_args(FIXTURES), "--out", str(out)]) == 0
        return (out / "model.params").read_bytes()

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("garbage")

    @given(st.data())
    def test_garbage_exits_2(self, trained, workdir, data):
        blob = bytearray(trained)
        kind = data.draw(st.sampled_from(["flipped", "blob", "magic", "header"]))
        if kind == "flipped":
            for _ in range(data.draw(st.integers(1, 3))):
                blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        elif kind == "blob":
            blob = data.draw(st.binary(max_size=200))
        elif kind == "magic":
            blob[:8] = data.draw(st.binary(min_size=8, max_size=8).filter(
                lambda m: m != trained[:8]))
        else:  # a valid magic and version, then an absurd count, name, rank or size
            at = data.draw(st.sampled_from([12, 16, 20, 24, 28, 36]))
            blob[at:at + 4] = data.draw(st.sampled_from(
                [b"\xff\xff\xff\xff", b"\x00\x00\x00\x80", b"\xff\xfe\xfd\xfc", b"\x00" * 4]))
        model = workdir / "model.params"
        model.write_bytes(bytes(blob))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["export-summaries", *toy_args(FIXTURES), "--model", str(model),
                         "--out", str(workdir / "out")])
        assert "Traceback" not in err.getvalue()
        if code != 0 or kind != "flipped":
            assert code == 2, kind
            assert err.getvalue().startswith("error: ")


class TestParser:
    def test_help_lists_flags(self, capsys):
        assert main(["cv", "--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--dataset", "--data-dir", "--hidden", "--ratio", "--lr", "--epochs",
                     "--batch-size", "--seed", "--jobs", "--readout-position", "--out"):
            assert flag in text
        assert main(["bench-mem", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--sizes" in text and "--budget" in text

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


_JUNK = ["", "x", "nan", "inf", "-inf", "1e400", "2.5"]

# flag: (small valid values, invalid values just past the valid range)
_CONFIG_FLAGS = {
    "--hidden": (st.integers(1, 8), [0, -1]),
    "--ratio": (st.floats(0.01, 1.0), [0.0, -0.5, 1.5]),
    "--lr": (st.floats(0.0, 0.05), [-0.01]),
    "--epochs": (st.integers(1, 2), [0]),
    "--batch-size": (st.integers(1, 9), [0]),
    "--seed": (st.integers(0, 3), [-1]),
    "--blocks": (st.integers(1, 3), [0]),
    "--readout-position": (st.sampled_from(["pre_pool", "post_pool"]), ["mid_pool"]),
    "--max-degree": (st.integers(1, 5), [0]),
}


class TestArgvFuzz:
    """Random argv for every command on the TOY24/MINI fixtures: each exits 0,
    or exits 2 with an ``error:`` line, and never prints a traceback.

    Most cases are valid runs; in about one in four, one flag gets an
    invalid value or a junk token. Values stay small, so every case runs in
    well under a second. A huge ``--hidden``, ``--sizes`` or ``--jobs`` is
    only parsed and validated, never run (it would allocate gigabytes or
    start processes).
    """

    # the fixtures have no defaults; drawn flags come later and win
    BASE = ["--hidden=8", "--lr=0.01", "--epochs=1", "--batch-size=8"]

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("argv")
        argv = ["train", "--dataset", "TOY24", "--data-dir", str(FIXTURES / "TOY24"), *self.BASE]
        assert main([*argv, "--out", str(work / "trained")]) == 0
        (work / "garbage.params").write_bytes(b"not a parameter file")
        (work / "a_file").write_text("occupied")
        return work

    @staticmethod
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        assert "Traceback" not in err.getvalue() + out.getvalue()
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            lines = err.getvalue().splitlines()
            assert any(line.startswith("error: ") or ": error: " in line for line in lines), argv
        return code

    @staticmethod
    def draw_flags(data, table, required=()):
        """{flag: value}: the ``required`` flags and some others, valid except
        for at most one, which gets an invalid value or a junk token."""
        broken = data.draw(st.sampled_from(sorted(table))) if data.draw(st.integers(0, 3)) == 3 else None
        chosen = {}
        for flag, (valid, invalid) in table.items():
            if flag == broken:
                chosen[flag] = data.draw(st.sampled_from([*invalid, *_JUNK]))
            elif flag in required or data.draw(st.booleans()):
                chosen[flag] = data.draw(valid)
        return chosen

    @given(st.data())
    @settings(max_examples=30)
    def test_dataset_commands(self, workdir, data):
        command = data.draw(st.sampled_from(["train", "cv", "export-summaries"]))
        table = {**_CONFIG_FLAGS,
                 "--dataset": (st.just("TOY24"), ["MINI", "NOPE"]),
                 "--out": (st.just("out"), ["a_file"])}
        if command == "cv":
            table["--jobs"] = (st.just(1), [0, -1])
        elif command == "export-summaries":
            table["--model"] = (st.just("trained/model.params"), ["garbage.params", "none"])
            table["--fold"] = (st.integers(0, 9), [-1, 10])
            table["--split"] = (st.sampled_from(["test", "train", "all"]), ["x"])
            table["--post-head"] = (st.just(True), [])
        chosen = self.draw_flags(data, table, required=("--dataset", "--out", "--model"))
        name = str(chosen.pop("--dataset"))
        data_dir = FIXTURES / name if (FIXTURES / name).is_dir() else workdir / "missing"
        argv = [command, "--dataset", name, "--data-dir", str(data_dir), *self.BASE]
        for flag in ("--out", "--model"):
            if flag in chosen:
                argv.append(f"{flag}={workdir / str(chosen.pop(flag))}")
        if chosen.pop("--post-head", False) is True:
            argv.append("--post-head")
        self.run(argv + [f"{flag}={value}" for flag, value in chosen.items()])

    @given(st.data())
    @settings(max_examples=30)
    def test_bench_mem(self, workdir, data):
        ascending = st.lists(st.integers(1, 40), min_size=2, max_size=4, unique=True)
        chosen = self.draw_flags(data, {
            "--sizes": (ascending.map(lambda ns: ",".join(map(str, sorted(ns)))),
                        ["1", "8,4", "4,4", "0,8", "8,,16", " 8, 16 "]),
            "--budget": (st.sampled_from(["1GiB", "2MiB", "1KB", "100", "0"]), ["-1", "1e400GiB"]),
            "--seed": (st.integers(0, 3), [-1]),
            "--out": (st.just("out"), ["a_file"]),
        }, required=("--sizes", "--out"))  # the default sweep reaches n = 16000
        chosen["--out"] = workdir / str(chosen["--out"])
        self.run(["bench-mem", *(f"{flag}={value}" for flag, value in chosen.items())])

    @given(hidden=st.integers(10**6, 10**12), jobs=st.integers(10**3, 10**9),
           size=st.integers(10**6, 10**12))
    def test_huge_values_pass_validation_unrun(self, hidden, jobs, size):
        parser = cli.build_parser()
        args = parser.parse_args(["cv", *toy_args(FIXTURES), "--hidden", str(hidden),
                                  "--jobs", str(jobs)])
        assert cli._resolve_config(args).hidden_dim == hidden and args.jobs == jobs
        args = parser.parse_args(["bench-mem", "--sizes", f"{size},{2 * size}"])
        assert args.sizes == [size, 2 * size]


class TestDatasetDirFuzz:
    """Whole TU dataset directories, damaged at random, through ``train``:
    each exits 0, or exits 2 with an ``error:`` line naming the damaged
    file (and its line, unless the damage is to the whole file), and never
    prints a traceback.

    The damage: a missing or empty file, a file cut short at any byte,
    bytes that are not UTF-8, a dropped or repeated line (wrong row
    counts), a stray separator and a line replaced by junk. The undamaged
    directories are TOY24 as it is and with node labels or node attributes
    added.
    """

    NAME = "TOY24"
    FLAGS = ["--hidden=4", "--lr=0.01", "--epochs=1", "--batch-size=8"]
    JUNK = ["x", "1.5", "--", "nan", "inf", "1e3", "99999999999999999999", "-1", "0",
            "1,2,3", "\ufeff1", " "]
    STRAY = [b",", b", ,", b";", b"\t", b" , ", b",,", b"\r", b"\x00"]
    NOT_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\x80abc"]
    # whole-file and whole-dataset failures, which no single line causes
    NO_LINE = ("missing required file", "dataset has no nodes", "needs at least")

    @pytest.fixture(scope="class")
    def variants(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("dirs")
        made = {}
        for extra in ("plain", "node_labels", "node_attributes"):
            d = root / extra
            shutil.copytree(FIXTURES / self.NAME, d)
            nodes = len((d / f"{self.NAME}_graph_indicator.txt").read_text().splitlines())
            if extra == "node_labels":
                text = "".join(f"{i % 3}\n" for i in range(nodes))
                (d / f"{self.NAME}_node_labels.txt").write_text(text)
            elif extra == "node_attributes":
                text = "".join(f"{i * 0.5}, {-i}\n" for i in range(nodes))
                (d / f"{self.NAME}_node_attributes.txt").write_text(text)
            made[extra] = d
        return made

    def damage(self, data, path):
        kind = data.draw(st.sampled_from(
            ["missing", "empty", "cut", "not_utf8", "drop", "repeat", "stray", "junk"]))
        if kind == "missing":
            path.unlink()
            return kind
        blob = path.read_bytes()
        lines = blob.splitlines(keepends=True)
        at = data.draw(st.integers(0, len(blob)))
        row = data.draw(st.integers(0, len(lines) - 1))
        if kind == "empty":
            blob = b""
        elif kind == "cut":
            blob = blob[:at]
        elif kind == "not_utf8":
            blob = blob[:at] + data.draw(st.sampled_from(self.NOT_UTF8)) + blob[at:]
        elif kind == "stray":
            blob = blob[:at] + data.draw(st.sampled_from(self.STRAY)) + blob[at:]
        else:
            junk = data.draw(st.sampled_from(self.JUNK)).encode("utf-8") + b"\n"
            new = {"drop": [], "repeat": [lines[row]] * 2, "junk": [junk]}[kind]
            blob = b"".join(lines[:row] + new + lines[row + 1 :])
        path.write_bytes(blob)
        return kind

    @given(st.data())
    @settings(max_examples=100)
    def test_damaged_directories_exit_cleanly(self, variants, data):
        source = variants[data.draw(st.sampled_from(sorted(variants)))]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp) / "data"
            shutil.copytree(source, d)
            path = data.draw(st.sampled_from(sorted(d.iterdir())))
            kind = self.damage(data, path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["train", "--dataset", self.NAME, "--data-dir", str(d),
                             *self.FLAGS, "--out", str(Path(tmp) / "out")])
        message = err.getvalue()
        assert "Traceback" not in message + out.getvalue()
        assert code in (0, 2), (kind, path.name, message)
        if code == 2:
            (line,) = [line for line in message.splitlines() if line.startswith("error: ")]
            if not any(reason in line for reason in self.NO_LINE):
                assert re.match(rf"error: {re.escape(str(d))}/{self.NAME}_\w+\.txt:\d+: ", line), (
                    kind, path.name, line)
