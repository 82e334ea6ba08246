"""Output files are replaced whole: a failed write keeps the old file."""
from __future__ import annotations

import pytest

from sparsepool.fileio import atomic_open


class TestAtomicOpen:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        for text in ("first\n", "second, longer\n"):
            with atomic_open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            assert path.read_text(encoding="utf-8") == text
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("mode,old,part", [("w", "old\n", "par"), ("wb", b"old", b"\0\1")])
    def test_a_write_that_fails_midway_keeps_the_old_file(self, tmp_path, mode, old, part):
        path = tmp_path / "out"
        if mode == "w":
            path.write_text(old, encoding="utf-8")
        else:
            path.write_bytes(old)
        with pytest.raises(OSError, match="disk full"):
            with atomic_open(path, mode) as fh:
                fh.write(part)
                fh.flush()  # the partial bytes reach the temp file
                raise OSError("disk full")
        assert (path.read_text(encoding="utf-8") if mode == "w" else path.read_bytes()) == old
        assert [f.name for f in tmp_path.iterdir()] == ["out"]

    def test_a_failed_first_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "new.csv"
        with pytest.raises(RuntimeError):
            with atomic_open(path, "w") as fh:
                fh.write("half a row")
                raise RuntimeError("stopped")
        assert list(tmp_path.iterdir()) == []
