"""Shared filesystem, binary header and environment helpers."""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that replaces `path` (a temp file in the same directory
    plus rename) when the block exits normally. If the block raises, the temp
    file is removed and `path` is left untouched. The temp file is created
    with mode 0666 less the process umask, as `open` would create `path`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_writer(path) as f:
        f.write(text.encode("utf-8"))


def write_blocks(path: str | Path, magic: bytes, header: Sequence[int],
                 blocks: Sequence[np.ndarray]) -> None:
    """Write the container `BlockReader` reads: magic, the u32 header fields
    (version first), then each block as row-major little-endian f32.

    Each block is written as soon as it is checked, so a save holds at most
    one block's f32 cast, never the whole file. A block that is not finite as
    f32 (a NaN or inf, or a finite value past the f32 range) is a ValueError
    and `path` is left untouched: `BlockReader` would reject the file."""
    with atomic_writer(path) as f:
        f.write(magic + struct.pack(f"<{len(header)}I", *header))
        for i, b in enumerate(blocks):
            with np.errstate(over="ignore"):
                f32 = np.ascontiguousarray(b, dtype="<f4")
            if not np.all(np.isfinite(f32)):
                raise ValueError(f"{path}: block {i} holds values that are not finite as float32")
            f.write(f32)


def map_read_only(path: str | Path) -> bytes | mmap.mmap:
    """The contents of the file at `path` as a read-only shared mapping of
    the page cache, not a copy; an empty file, which cannot be mapped, is b"".
    The mapping holds one file descriptor until it is dropped. It sees later
    writes to the same file, and a read past an end truncated since raises
    SIGBUS, so a mapped file is replaced by rename, never rewritten in place."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


class BlockReader:
    """Reader of the GEBF/GEBW container in `raw`, the bytes of the file at
    `path` (which names it in messages): magic, u32 version, u32 header
    fields, f32 blocks, nothing after them. Each read checks that it fits in
    `raw` before it allocates, and names the field and offset if not.

    `raw` is `bytes` or a read-only mapping (`map_read_only`), and each block
    is a view into it: a mapping stays open, with its file descriptor, while
    any block lives."""

    def __init__(self, raw: bytes | mmap.mmap, path: str | Path, magic: bytes, version: int):
        self.path = Path(path)
        self.raw = raw
        if self.raw[0:4] != magic:
            raise ValueError(f"{self.path}: bad magic at offset 0, expected {magic!r}")
        self.offset = 4
        found = self.u32("version")
        if found != version:
            raise ValueError(f"{self.path}: unsupported version {found} at offset 4")

    def u32(self, what: str) -> int:
        """The next little-endian u32 header field."""
        if self.offset + 4 > len(self.raw):
            raise ValueError(f"{self.path}: truncated while reading {what} at offset {self.offset}")
        value = struct.unpack_from("<I", self.raw, self.offset)[0]
        self.offset += 4
        return value

    def f32(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next block as a read-only little-endian float32 view of `shape`
        into `raw` (no copy); rejects a block that does not fit in the file
        or holds non-finite values."""
        count = math.prod(shape)
        have = len(self.raw) - self.offset
        if 4 * count > have:
            raise ValueError(
                f"{self.path}: truncated {what} at offset {self.offset}: "
                f"need {4 * count} bytes, have {have}"
            )
        block = np.frombuffer(self.raw, dtype="<f4", count=count, offset=self.offset)
        if not np.all(np.isfinite(block)):
            raise ValueError(f"{self.path}: non-finite values in {what} at offset {self.offset}")
        self.offset += 4 * count
        return block.reshape(shape)

    def finish(self) -> None:
        """Reject bytes left after the last block."""
        if self.offset != len(self.raw):
            raise ValueError(
                f"{self.path}: {len(self.raw) - self.offset} trailing bytes at offset {self.offset}"
            )


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file. Bad UTF-8, bad syntax, an integer literal too
    long to parse and nesting too deep to parse are each a ValueError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from e


def json_number(value, what: str) -> float:
    """A JSON number as a float; a string, bool, array or object is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of float range") from None


def json_numbers(value, what: str) -> list[float]:
    """A JSON array of numbers as floats; a string is not read as an array."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array of numbers, got {type(value).__name__}")
    return [json_number(v, f"{what}[{i}]") for i, v in enumerate(value)]


def json_str(value, what: str) -> str:
    """A JSON string; a number, array or object is not turned into one."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a JSON string, got {type(value).__name__}")
    return value


def check_fits_in_memory(nbytes: int, what: str) -> None:
    """Reject an array larger than physical memory (as `os.sysconf` reports
    it) before it is allocated, naming what it is."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise ValueError(f"{what} needs {nbytes} bytes, more than the {total} bytes of physical memory")


def worker_count() -> int:
    """Worker cap of `infer`'s pool over file groups; GEBD_THREADS overrides."""
    env = os.environ.get("GEBD_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0  # not an integer: the same error as a count below 1
        if n < 1:
            raise ValueError(f"GEBD_THREADS must be an integer >= 1, got {env!r}")
        return n
    return min(8, os.cpu_count() or 1)
