"""Crash-safe file writes.

The checkpoint/manifest pattern used across the repository -- write a temp
file, then ``os.replace`` it over the destination -- is atomic with respect
to concurrent *readers*, but not with respect to power loss: without an
``fsync`` of the file (and of its directory entry) the rename can be made
durable before the data, leaving a torn or empty file after a crash.  These
helpers close that hole:

* the payload is flushed and ``fsync``'d before the rename,
* the rename is made durable by ``fsync``'ing the containing directory,
* a failed write never leaves a partial destination file (the temp file is
  removed on error), and the temp name is deterministic (``<name>.tmp``) so
  a crashed writer's leftover is simply overwritten by the next attempt.

Readers must still tolerate a *leftover temp file* (a crash between the
temp write and the rename) -- they should only ever read the destination
path, which is either the old complete version or the new complete version.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "fsync_directory"]


def fsync_directory(path: str | os.PathLike) -> None:
    """Flush a directory entry to disk (best effort on exotic filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. O_RDONLY on a dir unsupported
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on a dir fd unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | os.PathLike,
    data: bytes,
    fsync: bool = True,
    mode: int | None = None,
) -> Path:
    """Atomically (and durably) replace ``path`` with ``data``.

    The bytes are written to ``<path>.tmp`` in the same directory, flushed
    and ``fsync``'d, renamed over ``path``, and the rename itself is made
    durable by ``fsync``'ing the directory.  After a crash at any point the
    destination holds either its previous complete contents or the new
    complete contents -- never a torn mix.  ``fsync=False`` skips both sync
    calls for callers that only need reader-atomicity (tests, scratch dirs).

    ``mode`` sets the temp file's permission bits before any byte is
    written, so the data never exists on disk with wider permissions, not
    even after a crash.  Without it the file is created ``0o644`` less the
    umask.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(
        tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644 if mode is None else mode
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:
                # A crashed writer's leftover temp file keeps its old bits.
                os.fchmod(handle.fileno(), mode)
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - nothing to clean up
            pass
        raise
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: str | os.PathLike, text: str, fsync: bool = True
) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)
