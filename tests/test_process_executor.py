"""Process shard executor: worker lifecycle, crash robustness, worker-held rows.

The byte-identity of ``executor="processes"`` against ``serial`` is pinned
by ``tests/test_scatter_concurrency.py``; this suite covers what is
*specific* to the process boundary:

* a killed worker surfaces as a clear :class:`ShardWorkerDied` naming the
  shard and the in-flight command -- never a hang on a dead pipe;
* the measured ledger splits coordinator wall clock into per-shard worker
  busy time and serialization overhead, and only for the process executor;
* ciphertexts written by a worker stay in its heap arenas: they decrypt to
  the inserted records when read out of its snapshot generation, and a
  supervised process router writes no file, not even while it recovers;
* workers are torn down by ``close()`` (idempotent);
* the single-CPU footgun warning fires exactly once, for ``processes``;
* the pipelined fan-out (send to every shard, then collect) drains every
  sibling's reply through a shard's failure and recovery, and a reply's
  deadline counts from its send.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import tempfile
import time as _time

import pytest

from repro.edb import router as router_module
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema
from repro.edb.router import ShardRouter, resolve_shard_executor
from repro.edb.shard_worker import (
    ShardWorkerClient,
    ShardWorkerDied,
    ShardWorkerTimeout,
)
from repro.edb.store import restore_backend
from repro.fleet.supervisor import SupervisorConfig
from repro.query.ast import CountQuery, JoinCountQuery

SCHEMA = Schema(name="events", attributes=("key", "value"))


def _records(n: int, start: int = 0, time: int = 1) -> list[Record]:
    return [
        Record(
            values={"key": (start + i) % 7, "value": start + i},
            arrival_time=time,
            table="events",
        )
        for i in range(n)
    ]


def _process_router(n_shards: int = 2, **backend_kwargs) -> ShardRouter:
    return ShardRouter(
        [ObliDB(**backend_kwargs) for _ in range(n_shards)],
        route_seed=3,
        executor="processes",
    )


def test_killed_worker_raises_shard_worker_died_without_hanging():
    """A worker killed mid-deployment turns into a named error, not a hang."""
    router = _process_router(n_shards=2)
    try:
        router.setup(_records(20))
        victim = router.shards[1]
        assert isinstance(victim, ShardWorkerClient)
        victim.process.kill()
        victim.process.join(timeout=5.0)
        with pytest.raises(ShardWorkerDied) as excinfo:
            router.query(CountQuery(table="events", label="Q1"), time=2)
        assert excinfo.value.shard_index == 1
        # The recorded command is whatever was in flight when the death was
        # discovered -- here the scattered query (is_setup is mirrored, so
        # no read precedes it).
        assert excinfo.value.command == "query"
        assert "shard 1" in str(excinfo.value)
        assert "'query'" in str(excinfo.value)
        # The error carries the dead worker's exit code (SIGKILL = -9) so a
        # crash is distinguishable from an OOM kill or a clean exit.
        assert excinfo.value.exit_code == -signal.SIGKILL
        assert "exit code" in str(excinfo.value)
        # Talking to the dead shard directly names the protocol command.
        with pytest.raises(ShardWorkerDied) as direct:
            victim.query(CountQuery(table="events", label="Q1"), time=2)
        assert direct.value.command == "query"
        assert direct.value.exit_code == -signal.SIGKILL
        # The surviving worker's reply was drained, so its pipe is in step
        # and it still answers; the router as a whole keeps failing loudly
        # rather than silently gathering partials.
        assert router.shards[0].is_setup
        assert router.shards[0].table_size("events") == router.table_shard_counts(
            "events"
        )[0]
    finally:
        router.close()


def test_measured_ledger_splits_worker_busy_and_serialization():
    """Per-shard busy + serialization counters fill in, and reset cleanly."""
    router = _process_router(n_shards=2)
    try:
        router.setup(_records(40))
        router.insert_many({"events": _records(30, start=40, time=2)}, time=2)
        router.query(CountQuery(table="events", label="Q1"), time=2)
        measured = router.measured
        assert set(measured.per_shard_busy_seconds) == {0, 1}
        assert all(busy > 0.0 for busy in measured.per_shard_busy_seconds.values())
        assert measured.serialization_seconds > 0.0
        assert measured.worker_commands > 0
        # The split is consistent with the coordinator's own wall clock:
        # worker busy time never exceeds what the coordinator waited overall.
        waited = (
            measured.setup_seconds + measured.update_seconds + measured.query_seconds
        )
        assert sum(measured.per_shard_busy_seconds.values()) <= waited * 2
        measured.reset()
        assert measured.per_shard_busy_seconds == {}
        assert measured.serialization_seconds == 0.0
        assert measured.worker_commands == 0
    finally:
        router.close()


def test_in_process_executors_report_no_worker_counters():
    """Serial has no process boundary, so those counters stay zero."""
    router = ShardRouter([ObliDB() for _ in range(2)], route_seed=3, executor="serial")
    try:
        router.setup(_records(10))
        router.query(CountQuery(table="events", label="Q1"), time=1)
        assert router.measured.per_shard_busy_seconds == {}
        assert router.measured.serialization_seconds == 0.0
        assert router.measured.worker_commands == 0
    finally:
        router.close()


def test_coordinator_reads_worker_ciphertexts_zero_copy():
    """Arena rows written in workers decrypt to the inserted records.

    No product path reads a worker's rows or key back; the one path that
    carries them out of the worker is its snapshot generation, so that is
    where this test reads them.  160 records per shard force at least one
    arena growth past the initial 64-row capacity inside the worker.
    """
    router = _process_router(n_shards=2, simulate_encryption=True)
    try:
        inserted = _records(320)
        router.setup(inserted)
        decrypted = []
        for client in router.shards:
            assert isinstance(client, ShardWorkerClient)
            shard = restore_backend(client.snapshot())
            views = shard.ciphertexts("events")
            assert len(views) == client.table_size("events")
            assert shard.cipher is not None
            decrypted.extend(shard.cipher.decrypt_many(views))
        assert sorted(r.values["value"] for r in decrypted) == sorted(
            r.values["value"] for r in inserted
        )
        assert {r.table for r in decrypted} == {"events"}
    finally:
        router.close()


def test_a_supervised_process_run_with_recoveries_writes_no_file():
    """Workers keep their ciphertexts in heap arenas and the supervisor its
    snapshot generations and journal in coordinator memory: an encrypting,
    supervised process router that heals a killed worker and a torn
    snapshot creates no entry in ``/dev/shm`` or the temp directory."""
    roots = [
        root for root in ("/dev/shm", tempfile.gettempdir()) if os.path.isdir(root)
    ]
    before = {root: set(os.listdir(root)) for root in roots}
    router = ShardRouter(
        [ObliDB(simulate_encryption=True) for _ in range(2)],
        route_seed=3,
        executor="processes",
        supervisor=SupervisorConfig(timeout_s=10.0, backoff_base_s=0.01),
        faults="kill:0@3,tornsnap:1@4",
    )
    try:
        router.setup(_records(200))
        for time in range(2, 6):
            router.update(_records(20, start=200 + 20 * time, time=time), time=time)
            router.query(CountQuery(table="events", label="Q1"), time=time)
        assert router.measured.recoveries == 2
        made = {root: set(os.listdir(root)) - before[root] for root in roots}
        assert made == {root: set() for root in roots}
    finally:
        router.close()


def test_close_is_idempotent_and_unlinks_segments():
    router = _process_router(n_shards=2, simulate_encryption=True)
    router.setup(_records(100))
    processes = [client.process for client in router.shards]
    router.close()
    router.close()
    for process in processes:
        assert not process.is_alive()


def test_single_cpu_footgun_warns_once(monkeypatch, caplog):
    """The process executor on a 1-CPU host warns exactly once; the serial
    loop never does."""
    monkeypatch.setattr(router_module, "usable_cpus", lambda: 1)
    monkeypatch.setattr(router_module, "_warned_single_cpu", set())
    with caplog.at_level(logging.WARNING, logger="repro.edb.router"):
        resolve_shard_executor("processes")
        resolve_shard_executor("processes")
        resolve_shard_executor("serial")
    warnings = [r for r in caplog.records if "single-CPU" in r.message]
    assert len(warnings) == 1
    assert warnings[0].args[0] == "processes"


def test_no_warning_on_multi_cpu_host(monkeypatch, caplog):
    monkeypatch.setattr(router_module, "usable_cpus", lambda: 4)
    monkeypatch.setattr(router_module, "_warned_single_cpu", set())
    with caplog.at_level(logging.WARNING, logger="repro.edb.router"):
        resolve_shard_executor("serial")
        resolve_shard_executor("processes")
    assert not [r for r in caplog.records if "single-CPU" in r.message]


def test_queries_after_setup_send_one_worker_command_per_shard():
    """``is_setup`` is mirrored on the coordinator, so N queries cost exactly
    N x K worker commands."""
    router = _process_router(n_shards=3)
    try:
        router.setup(_records(30))
        assert router.is_setup
        before = sum(shard.stats()[2] for shard in router.shards)
        for time in range(2, 7):
            router.query(CountQuery(table="events", label="Q1"), time=time)
        after = sum(shard.stats()[2] for shard in router.shards)
        assert after - before == 5 * 3
    finally:
        router.close()


# -- the pipelined fan-out -----------------------------------------------------

#: Short deadline: a delay fault waits it out.  Near-zero backoff.
_PIPE_CONFIG = SupervisorConfig(timeout_s=1.0, backoff_base_s=0.01)

_JOIN = JoinCountQuery(
    left_table="events",
    right_table="events",
    left_attribute="key",
    right_attribute="key",
    label="Q3",
)


def _pipelined_run(router: ShardRouter, kill_before_tick: int | None = None):
    """Setup, then per tick one insert_many touching both shards and two
    queries; every answer and transcript, verbatim."""
    observed = [router.setup(_records(20, time=0))]
    try:
        for t in range(1, 5):
            if t == kill_before_tick:
                victim = router.shards[0].process
                victim.kill()
                victim.join(timeout=5.0)
            observed.append(
                router.insert_many({"events": _records(12, start=20 * t, time=t)}, t)
            )
            observed.append(router.query(CountQuery(table="events", label="Q1"), t))
            observed.append(router.query(_JOIN, t))
        observed.append((router.update_history, router.per_shard_observables()))
        return observed, router.measured.health()
    finally:
        router.close()


@pytest.mark.parametrize(
    "faults",
    # Shard 0's commands: 1 setup, then per tick insert_many, the count
    # query and the join's two probes (2-5 at tick 1, 6-9 at tick 2).
    [
        "kill:0@6",  # an insert_many
        "delay:0@7",  # a count query
        "kill:0@4",  # a join's left probe
        "delay:0@9",  # a join's right probe
    ],
)
def test_pipelined_scatter_drains_the_sibling_through_a_recovery(faults):
    """Shard 0 fails mid-scatter while shard 1's command is in flight: shard
    1's reply is still read (no spurious deadline, though it waited out
    shard 0's recovery), shard 0 alone is rebuilt, and the run equals the
    fault-free one."""
    reference, _ = _pipelined_run(_process_router())
    chaotic, health = _pipelined_run(
        ShardRouter(
            [ObliDB() for _ in range(2)],
            route_seed=3,
            executor="processes",
            supervisor=_PIPE_CONFIG,
            faults=faults,
        )
    )
    assert chaotic == reference
    assert health["recoveries"] == 1
    assert health["retries"] == 1


def test_a_worker_that_died_between_scatters_is_rebuilt_in_the_next_one():
    """The scatter sends to the dead worker and to its sibling; the death
    surfaces when shard 0's reply is collected, the supervisor rebuilds it,
    and shard 1's reply is drained after."""
    reference, _ = _pipelined_run(_process_router())
    chaotic, health = _pipelined_run(
        ShardRouter(
            [ObliDB() for _ in range(2)],
            route_seed=3,
            executor="processes",
            supervisor=_PIPE_CONFIG,
        ),
        kill_before_tick=2,
    )
    assert chaotic == reference
    assert health["recoveries"] == 1


def test_an_unsupervised_failure_is_raised_after_the_sibling_is_drained():
    """Without a supervisor the failure propagates, but only once shard 1's
    reply was read: its pipe stays in step and it keeps answering."""
    router = _process_router()
    try:
        router.setup(_records(20))
        victim = router.shards[0].process
        victim.kill()
        victim.join(timeout=5.0)
        with pytest.raises(ShardWorkerDied) as excinfo:
            router.insert_many({"events": _records(12, start=20, time=1)}, 1)
        assert excinfo.value.shard_index == 0
        assert excinfo.value.command == "insert_many"
        # Shard 1 applied its part (the mirror folded its reply) ...
        applied = router.shards[1].outsourced_count
        assert applied > 0
        # ... and its pipe is in step: the next command gets its own reply.
        assert router.shards[1].table_size("events") == applied
    finally:
        router.close()


def test_a_reply_deadline_counts_from_its_send():
    """Two commands sent back to back: the first reply takes 0.6 s, and the
    second worker oversleeps.  The second deadline fires 1 s after *its
    send*, not 1 s after the first reply was read."""
    context = multiprocessing.get_context("fork")
    clients = [
        ShardWorkerClient(ObliDB(), index, context, timeout_s=1.0) for index in (0, 1)
    ]
    try:
        for client in clients:
            client.setup(_records(5))
        clients[0].chaos_delay(0.6)
        clients[1].chaos_delay(5.0)
        query = CountQuery(table="events", label="Q1")
        sent = _time.perf_counter()
        for client in clients:
            client.send("query", query, 1)
        assert clients[0].receive().answer == 5
        with pytest.raises(ShardWorkerTimeout):
            clients[1].receive()
        waited = _time.perf_counter() - sent
        assert 1.0 <= waited < 1.4
    finally:
        for client in clients:
            client.process.kill()
            client.close()
