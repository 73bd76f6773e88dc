"""The one write path: the result cache, the job store, the checkpoints
and every export replace their files with :func:`write_bytes`, so a
crash or a full disk leaves either the old file or the new one.  JSON
records (job records and results, checkpoints) also carry a ``sha256``
stamp, which :func:`read_record` checks, so a torn or edited record is
refused instead of served.  A process killed between the write and the
rename leaves a ``<name>.<random>.tmp`` sibling, which no reader lists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from typing import IO, Any, Iterator, Optional


class RecordError(ValueError):
    """A record file that is unreadable, unstamped or fails its stamp."""


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _stamp(record: dict) -> str:
    """sha256 over the canonical JSON of everything except the stamp."""
    body = {key: value for key, value in record.items() if key != "sha256"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def write_bytes(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``: temp file in the same directory,
    fsync, ``os.replace``, fsync of the directory.  An error before the
    rename removes the temp file and leaves ``path`` untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_record(path: str, record: dict) -> None:
    """Write ``record`` as JSON with its stamp under ``sha256``."""
    write_bytes(path, json.dumps({**record, "sha256": _stamp(record)}).encode())


def read_record(path: str) -> Optional[dict]:
    """The record at ``path`` without its stamp; None when there is no
    file; :class:`RecordError` when it is not a whole stamped record."""
    try:
        with open(path, "rb") as fh:
            record = json.loads(fh.read())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise RecordError(f"is unreadable ({exc})") from exc
    if not isinstance(record, dict) or not isinstance(record.get("sha256"), str):
        raise RecordError("is not a stamped record")
    if record.pop("sha256") != _stamp(record):
        raise RecordError("failed its digest check (truncated or corrupt)")
    return record


@contextlib.contextmanager
def atomic_open(path: str, newline: Optional[str] = None) -> Iterator[IO[str]]:
    """A text buffer written to ``path`` with :func:`write_bytes` on clean
    exit; on an exception ``path`` is untouched."""
    buffer = io.StringIO(newline=newline)
    yield buffer
    write_bytes(path, buffer.getvalue().encode("utf-8"))
