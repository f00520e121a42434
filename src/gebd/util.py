"""Shared filesystem, binary header and environment helpers."""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write a file via a temp file in the same directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_u32(raw: bytes, offset: int, path, what: str) -> int:
    """Little-endian u32 of a binary header; names the field when truncated."""
    if offset + 4 > len(raw):
        raise ValueError(f"{path}: truncated while reading {what} at offset {offset}")
    return struct.unpack_from("<I", raw, offset)[0]


def worker_count() -> int:
    """Worker cap for per-video parallel loops; GEBD_THREADS overrides."""
    env = os.environ.get("GEBD_THREADS")
    if env:
        n = int(env)
        if n < 1:
            raise ValueError("GEBD_THREADS must be >= 1")
        return n
    return min(8, os.cpu_count() or 1)
