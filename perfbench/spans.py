"""Per-layer spans for the traced run, recorded from the benchmark's own files.

:class:`Tracer` replaces public functions of each layer (named by module)
with timing wrappers for the duration of the traced pass.  Every wrapped call
is a span.  A span's *self time* is its duration minus the time its child
spans on the same thread cover, so the self times of the spans on the
replaying thread partition its wall time.  Spans on other threads (the shard
router's fan-out pool, where supervisor snapshots, store saves and journal
flushes run) overlap the router's own span; they are kept apart and reported
as busy totals, outside that partition.

Forked shard workers inherit the wrappers; a fork hook switches them off in
the child, so worker-side work is seen only through the router's
``WallClockStats`` ledger.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

from repro.edb.crypto import CIPHERTEXT_SIZE

__all__ = ["LAYER_TARGETS", "Tracer"]


def _count_engine(counts, args, result) -> None:
    counts["engine.events"] += result.events_processed
    counts["engine.stale"] += result.stale_skipped


def _count_tick(counts, args, result) -> None:
    counts["core.owner.ticks"] += 1


def _count_decision(counts, args, result) -> None:
    if result.should_sync:
        counts["core.strategies.syncs"] += 1
        counts["core.strategies.released"] += result.volume
        counts["core.strategies.dummies"] += result.dummy_count


def _count_update(counts, args, result) -> None:
    counts["edb.update.records"] += result.total_added


def _count_crypto(counts, args, result) -> None:
    records = len(args[1])
    counts["edb.crypto.records"] += records
    counts["edb.crypto.bytes"] += records * CIPHERTEXT_SIZE


def _count_scan(counts, args, result) -> None:
    counts["query.columnar.rows_scanned"] += result[1].rows_scanned


#: ``(layer, module, class, function, counter)`` -- the public boundary of
#: each layer.  The supervisor has no public snapshot function, so its
#: snapshot boundary is the private ``_snapshot_now`` every snapshot runs
#: through (generation 0 at construction, then every ``snapshot_every``
#: mutating commands).
LAYER_TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("other", "repro.simulation.simulator", "Simulation", "run", None),
    ("engine", "repro.engine.core", "Engine", "run", _count_engine),
    ("core.owner", "repro.core.owner", "Owner", "initialize", None),
    ("core.owner", "repro.core.owner", "Owner", "tick", _count_tick),
    ("core.strategies", "repro.core.strategies.base", "SyncStrategy", "setup", None),
    ("core.strategies", "repro.core.strategies.base", "SyncStrategy", "step", _count_decision),
    ("edb.update", "repro.edb.base", "EncryptedDatabase", "setup", _count_update),
    ("edb.update", "repro.edb.base", "EncryptedDatabase", "update", _count_update),
    ("edb.update", "repro.edb.base", "EncryptedDatabase", "insert_many", _count_update),
    ("edb.query", "repro.edb.base", "EncryptedDatabase", "query", None),
    ("edb.crypto", "repro.edb.crypto", "RecordCipher", "encrypt_many", _count_crypto),
    ("edb.crypto", "repro.edb.crypto", "RecordCipher", "encrypt_many_into", _count_crypto),
    ("query.columnar.append", "repro.query.columnar", "ColumnarExecutor", "append", None),
    ("query.columnar.scan", "repro.query.executor", "PlaintextExecutor", "execute_with_stats", _count_scan),
    ("query.columnar.scan", "repro.query.executor", "PlaintextExecutor", "execute_rows_with_stats", _count_scan),
    ("query.incremental.ingest", "repro.query.incremental", "IncrementalTruth", "register", None),
    ("query.incremental.ingest", "repro.query.incremental", "IncrementalTruth", "ingest", None),
    ("query.incremental.ingest", "repro.query.incremental", "IncrementalTruth", "ingest_one", None),
    ("query.incremental.answer", "repro.query.incremental", "IncrementalTruth", "answer", None),
    ("core.analyst", "repro.core.analyst", "Analyst", "query", None),
    ("edb.router.update", "repro.edb.router", "ShardRouter", "setup", None),
    ("edb.router.update", "repro.edb.router", "ShardRouter", "update", None),
    ("edb.router.update", "repro.edb.router", "ShardRouter", "insert_many", None),
    ("edb.router.query", "repro.edb.router", "ShardRouter", "query", None),
    ("fleet.supervisor", "repro.fleet.supervisor", "SupervisedShard", "_snapshot_now", None),
    ("edb.store.save", "repro.edb.store", "SnapshotStore", "save", None),
    ("edb.store.journal", "repro.edb.store", "ReplayLog", "flush", None),
)


class _ThreadState:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: list[float] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.exclusive: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)


class Tracer:
    """Installs the layer wrappers, accumulates spans, removes the wrappers."""

    def __init__(self) -> None:
        self.active = False
        self.missing: list[str] = []
        self._saved: list[tuple[type, str, object]] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, layer: str, func: Callable, counter: Callable | None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                state.inclusive[layer] += elapsed
                state.exclusive[layer] += elapsed - children
                state.calls[layer] += 1
            if counter is not None:
                counter(state.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; one that no longer exists is listed in
        :attr:`missing`, which fails the traced run's correctness gate."""
        for layer, module_name, class_name, attr, counter in LAYER_TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
                func = cls.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{class_name}.{attr}")
                continue
            self._saved.append((cls, attr, func))
            setattr(cls, attr, self._wrap(layer, func, counter))
        if self.missing:
            print(
                "perfbench: trace targets not found: " + ", ".join(self.missing),
                file=sys.stderr,
            )
        self.active = True

    def remove(self) -> None:
        self.active = False
        for cls, attr, func in reversed(self._saved):
            setattr(cls, attr, func)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def totals(self, field: str, main_only: bool = False) -> dict:
        """``field`` (``inclusive``, ``exclusive``, ``calls`` or ``counts``)
        summed over every thread, or over the replaying thread only."""
        totals: defaultdict[str, float] = defaultdict(float)
        for state in self._threads:
            if main_only and state.ident != self._main:
                continue
            for key, value in getattr(state, field).items():
                totals[key] += value
        return dict(totals)
