"""Output files that are replaced whole or not at all."""
from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temp file beside ``path`` for writing; move it onto ``path``
    when the block ends cleanly.

    The temp file sits in the same directory, so ``os.replace`` swaps it in
    as one rename. If the block raises, or the process dies while writing,
    the old ``path`` stays as it was, and on an exception the temp file is
    removed. There is no fsync: this guards against failed and interrupted
    runs, not against a power cut. ``mode`` is ``"w"`` or ``"wb"``;
    ``kwargs`` go to :func:`open`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
