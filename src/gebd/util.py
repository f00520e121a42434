"""Shared filesystem, JSON and environment helpers, in the standard library only."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Iterator


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
    """Cap on the worker processes `infer` forks to score its file groups
    (it forks none when the cap or the group count is 1); GEBD_THREADS
    overrides the default of the CPU count, at most 8."""
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
