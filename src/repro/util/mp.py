"""Multiprocessing plumbing shared by the grid runner and the shard fleet.

Two pieces of process infrastructure were about to exist twice -- context
selection (the grid runner's pool and the shard-worker processes both want
fork on POSIX with a spawn fallback elsewhere) and affinity-aware CPU
counting (every wall-clock speedup floor gates on it).  This module is the
single copy.
"""

from __future__ import annotations

import multiprocessing
import os

__all__ = ["preferred_mp_context", "usable_cpus"]


def preferred_mp_context(
    prefer: str = "fork",
) -> multiprocessing.context.BaseContext:
    """The multiprocessing context to use: ``prefer`` when available.

    Fork is preferred on POSIX because it transfers already-constructed
    worker state (shard EDBs, RNG streams) by memory inheritance instead of
    pickling; platforms without fork (Windows, some macOS configurations)
    fall back to the platform default (spawn), where the same state is
    pickled exactly once at worker startup.
    """
    try:
        return multiprocessing.get_context(prefer)
    except ValueError:
        return multiprocessing.get_context()


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    The single source of the CPU-detection rule: wall-clock speedup floors
    (process pools, shard fan-out) and the executor footgun warning all gate
    on this, so a future refinement (e.g. cgroup quota awareness) lands in
    one place.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
