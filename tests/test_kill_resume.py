"""Kill-and-resume differentials: a crashed run replays bit-identically.

The durability contract of :mod:`repro.edb.store`: after a SIGKILL -- of a
single shard worker or of the whole driver process -- restoring from the
last durable snapshot and replaying the remaining timeline produces exactly
the transcript an uninterrupted twin produces.  "Exactly" is checked on
every observable the paper's analysis reads: query answers and errors, QET,
the aggregate ``(t, |gamma_t|)`` update-pattern transcript and the finer
per-shard transcripts.

Also here: the key-rotation workflow fanned out through the process router
(each worker re-encrypts its arena rows in place; handles stay valid and the
rows, read out of each worker's snapshot generation, decrypt under the new
key only).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema
from repro.edb.router import ShardRouter
from repro.edb.shard_worker import ShardWorkerClient, ShardWorkerDied
from repro.edb.store import (
    EncryptedStore,
    SnapshotStore,
    StoreIntegrityError,
    restore_backend,
)
from repro.fleet import Deployment
from repro.fleet.supervisor import SupervisorConfig
from repro.query.ast import CountQuery, GroupByCountQuery
from repro.query.incremental import IncrementalTruth
from repro.simulation.simulator import Simulation

SCHEMA = Schema(name="events", attributes=("key", "value"))
QUERY = CountQuery(table="events", label="Q1")
GROUPS = GroupByCountQuery(table="events", group_attribute="key", label="Q2")


def _record(t: int, salt: int = 0) -> Record:
    return Record(
        values={"key": (t + salt) % 7, "value": t * 10 + salt},
        arrival_time=t,
        table="events",
    )


def _update_for(member_index: int, t: int) -> Record | None:
    """Deterministic per-member update stream (None = quiet tick)."""
    if (t + member_index) % 3 == 0:
        return None
    return _record(t, salt=member_index)


def _build_deployment(
    executor: str = "processes", truth: IncrementalTruth | None = None
) -> Deployment:
    router = ShardRouter(
        [ObliDB(simulate_encryption=True) for _ in range(2)],
        route_seed=9,
        executor=executor,
    )
    deployment = Deployment.build(
        SCHEMA,
        router,
        n_owners=2,
        strategy="dp-timer",
        period=5,
        seed=21,
        truth_source=truth,
    )
    deployment.start(
        {name: [_record(0, salt=i)] for i, name in enumerate(deployment.owners)}
    )
    return deployment


def _drive(
    deployment: Deployment, start: int, stop: int, queries=(QUERY,)
) -> list:
    """Tick every member through [start, stop); query every 4 ticks."""
    observed = []
    for t in range(start, stop):
        for index, name in enumerate(deployment.owners):
            deployment.receive(name, t, _update_for(index, t))
        if t % 4 == 0:
            for query in queries:
                observation = deployment.query(query, time=t)
                observed.append(
                    (
                        t,
                        observation.answer,
                        observation.l1_error,
                        observation.qet_seconds,
                    )
                )
    return observed


def _true_answers(observations) -> list:
    return [(o.time, o.query_name, o.true_answer) for o in observations]


def _transcripts(deployment: Deployment):
    return tuple(deployment.edb.update_history), deployment.edb.per_shard_observables()


@pytest.mark.parametrize("passphrase", [None, "resume-pw"])
def test_sigkilled_worker_deployment_restores_bit_identically(tmp_path, passphrase):
    """SIGKILL one shard worker mid-run; restore the whole deployment from
    its last snapshot; the replayed tail matches an uninterrupted twin on
    answers, QET, and the aggregate and per-shard update transcripts."""
    twin = _build_deployment()
    victim = _build_deployment()
    try:
        assert _drive(victim, 1, 9) == _drive(twin, 1, 9)

        victim.save(tmp_path / "snap", passphrase=passphrase)

        # The worker dies mid-fan-out; the failure is loud, not silent.
        client = victim.edb.shards[0]
        assert isinstance(client, ShardWorkerClient)
        client.process.kill()
        client.process.join(timeout=5.0)
        with pytest.raises(ShardWorkerDied):
            _drive(victim, 9, 12)  # dp-timer syncs at t=10
    finally:
        victim.close()

    restored = Deployment.restore(tmp_path / "snap", passphrase=passphrase)
    try:
        twin_tail = _drive(twin, 9, 17)
        restored_tail = _drive(restored, 9, 17)
        assert restored_tail == twin_tail
        assert _transcripts(restored) == _transcripts(twin)
        assert [o.current_time for o in restored.owners.values()] == [
            o.current_time for o in twin.owners.values()
        ]
    finally:
        restored.close()
        twin.close()


def test_supervised_worker_kill_heals_in_place_and_restores(tmp_path):
    """Kill a *supervised* shard worker mid-run: the fleet heals in place --
    no restore, no raised error -- and the tail matches an uninterrupted
    unsupervised twin on answers, QET, and the aggregate and per-shard
    transcripts.  A mid-run snapshot taken *before* the kill then restores
    a deployment whose router re-arms the supervisor."""

    def build(supervised: bool) -> Deployment:
        router = ShardRouter(
            [ObliDB(simulate_encryption=True) for _ in range(2)],
            route_seed=9,
            executor="processes",
            supervisor="on" if supervised else None,
        )
        deployment = Deployment.build(
            SCHEMA, router, n_owners=2, strategy="dp-timer", period=5, seed=21
        )
        deployment.start(
            {name: [_record(0, salt=i)] for i, name in enumerate(deployment.owners)}
        )
        return deployment

    twin = build(supervised=False)
    victim = build(supervised=True)
    try:
        assert _drive(victim, 1, 9) == _drive(twin, 1, 9)

        victim.save(tmp_path / "snap")

        # SIGKILL one worker; the next fan-out heals it from the
        # supervisor's own snapshot + journal instead of raising.
        victim.edb.shards[0].process.kill()
        victim.edb.shards[0].process.join(timeout=5.0)

        assert _drive(victim, 9, 17) == _drive(twin, 9, 17)
        assert _transcripts(victim) == _transcripts(twin)
        assert victim.health["recoveries"] >= 1
    finally:
        victim.close()

    restored = Deployment.restore(tmp_path / "snap")
    try:
        # The restore path re-armed supervision.
        assert restored.edb.supervisor_mode == "on"
        twin_tail = _drive(twin, 17, 25)
        assert _drive(restored, 9, 25)[2:] == twin_tail
        assert _transcripts(restored) == _transcripts(twin)
    finally:
        restored.close()
        twin.close()


def test_a_deployment_saved_with_a_scratch_directory_resumes(tmp_path):
    """A deployment saved while supervisors kept their recovery state in a
    scratch directory carries that path in its supervisor metadata: it
    resumes supervised under the same policy, and nothing is written
    there."""
    config = SupervisorConfig(snapshot_every=4, seed=5)

    def build(supervisor) -> Deployment:
        router = ShardRouter(
            [ObliDB(simulate_encryption=True) for _ in range(2)],
            route_seed=9,
            executor="serial",
            supervisor=supervisor,
        )
        deployment = Deployment.build(
            SCHEMA, router, n_owners=2, strategy="dp-timer", period=5, seed=21
        )
        deployment.start(
            {name: [_record(0, salt=i)] for i, name in enumerate(deployment.owners)}
        )
        return deployment

    twin = build(None)
    saved = build(config)
    scratch = tmp_path / "scratch"
    try:
        assert _drive(saved, 1, 9) == _drive(twin, 1, 9)
        saved.edb._supervisor_meta = {
            **saved.edb._supervisor_meta,
            "directory": str(scratch),
        }
        saved.save(tmp_path / "snap")
    finally:
        saved.close()

    restored = Deployment.restore(tmp_path / "snap")
    try:
        assert restored.edb.supervisor.config == config
        assert _drive(restored, 9, 17) == _drive(twin, 9, 17)
        assert _transcripts(restored) == _transcripts(twin)
        assert not scratch.exists()
    finally:
        restored.close()
        twin.close()


def test_a_deployment_store_holds_no_truth_and_restore_rebuilds_it(tmp_path):
    """The incremental truth is derived from the owners' logical tables:
    ``save`` writes no ``truth.pkl``, and ``restore`` rebuilds the truth (only
    for a deployment that had one), whose answers match the twin's."""
    twin = _build_deployment("serial", IncrementalTruth())
    saved = _build_deployment("serial", IncrementalTruth())
    plain = _build_deployment("serial")
    try:
        queries = (QUERY, GROUPS)
        assert _drive(saved, 1, 9, queries) == _drive(twin, 1, 9, queries)
        _drive(plain, 1, 9)
        manifest = saved.save(tmp_path / "snap")
        plain_manifest = plain.save(tmp_path / "plain")
    finally:
        saved.close()
        plain.close()
    for written in (manifest, plain_manifest):
        assert "truth.pkl" not in written["blobs"]

    restored = Deployment.restore(tmp_path / "snap")
    try:
        assert restored.truth_source is not None
        assert _drive(restored, 9, 17, queries) == _drive(twin, 9, 17, queries)
        assert restored.truth_source.covers(GROUPS)
        assert _true_answers(restored.analyst.observations) == _true_answers(
            twin.analyst.observations
        )
    finally:
        restored.close()
        twin.close()
    restored_plain = Deployment.restore(tmp_path / "plain")
    try:
        assert restored_plain.truth_source is None
    finally:
        restored_plain.close()


def test_a_store_written_with_a_truth_blob_restores_without_reading_it(tmp_path):
    """A store written before the truth was derived holds a ``truth.pkl``
    and no ``truth`` manifest field: it restores, the blob is never
    unpickled, and the rebuilt truth answers like the twin's."""
    twin = _build_deployment("serial", IncrementalTruth())
    saved = _build_deployment("serial", IncrementalTruth())
    try:
        assert _drive(saved, 1, 9) == _drive(twin, 1, 9)
        meta, blobs = saved.snapshot_blobs()
    finally:
        saved.close()
    del meta["truth"]
    store = EncryptedStore(tmp_path / "old")
    for name, data in blobs.items():
        store.write_blob(name, data)
    store.write_blob("truth.pkl", b"not a pickle")
    store.commit({"kind": "deployment", **meta, "table_sources": []})

    restored = Deployment.restore(tmp_path / "old")
    try:
        assert restored.truth_source is not None
        assert _drive(restored, 9, 17) == _drive(twin, 9, 17)
        assert _true_answers(restored.analyst.observations) == _true_answers(
            twin.analyst.observations
        )
    finally:
        restored.close()
        twin.close()


def test_wrong_passphrase_fails_closed(tmp_path):
    deployment = _build_deployment(executor="serial")
    try:
        _drive(deployment, 1, 5)
        deployment.save(tmp_path / "snap", passphrase="right")
    finally:
        deployment.close()

    with pytest.raises(StoreIntegrityError):
        Deployment.restore(tmp_path / "snap", passphrase="wrong")


# -- whole-process SIGKILL through the simulator ------------------------------

#: Shared builder module: the killed child, the uninterrupted reference and
#: the resuming parent all import the *same* configuration, so the halves of
#: the differential cannot drift apart.
_COMMON = textwrap.dedent(
    """
    from repro.core.strategies.flush import FlushPolicy
    from repro.simulation.experiment import (
        default_queries,
        make_backend,
        taxi_workloads,
    )
    from repro.simulation.simulator import Simulation, SimulationConfig

    def build():
        config = SimulationConfig(
            strategy="dp-timer",
            epsilon=0.5,
            timer_period=30,
            theta=15,
            flush=FlushPolicy(interval=300, size=5),
            query_interval=120,
            seed=6,
        )
        return Simulation(
            edb_factory=make_backend("oblidb", seed=2),
            workloads=taxi_workloads(scale=0.01, include_green=True, seed=11),
            queries=default_queries(),
            config=config,
        )
    """
)

#: Child driver: run with durable snapshots and SIGKILL itself right after
#: the Nth snapshot commits -- no cleanup, no atexit, exactly like a crash.
_DRIVER = textwrap.dedent(
    """
    import os, signal
    from repro.simulation.simulator import Simulation

    kill_after = int(os.environ["KILL_AFTER_SNAPSHOTS"])
    original = Simulation._persist
    count = [0]

    def kill_switch(self, time, ctx, store):
        original(self, time, ctx, store)
        count[0] += 1
        if count[0] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    Simulation._persist = kill_switch
    import driver_common

    driver_common.build().run(persist_dir=os.environ["PERSIST_DIR"])
    raise SystemExit("expected SIGKILL before completion")
    """
)


def _import_builder(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "driver_common", tmp_path / "driver_common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build


def test_sigkilled_simulation_resumes_bit_identically(tmp_path):
    """SIGKILL the whole driver process mid-run (right after its 2nd durable
    snapshot); a fresh process resumes from the store and the final
    RunResult -- answers, errors, QET, timeline -- is identical to an
    uninterrupted twin's."""
    (tmp_path / "driver_common.py").write_text(_COMMON)
    (tmp_path / "driver.py").write_text(_DRIVER)
    persist_dir = tmp_path / "persist"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            str(tmp_path),
            os.path.abspath("src"),
            env.get("PYTHONPATH", ""),
        )
        if part
    )
    env["PERSIST_DIR"] = str(persist_dir)
    env["KILL_AFTER_SNAPSHOTS"] = "2"
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "driver.py")],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    # The kill left durable snapshots behind...
    assert (persist_dir / "snapshots").is_dir()

    build = _import_builder(tmp_path)
    reference = build().run()
    resumed = build().run(persist_dir=persist_dir)
    # ...and the resumed run replays the missing tail bit-identically.
    assert resumed.to_dict() == reference.to_dict()
    assert not persist_dir.exists()  # cleared after the successful finish


def test_simulator_crash_resume_matches_twin_including_per_shard(tmp_path):
    """In-process crash differential over a *sharded, process-executor* EDB:
    the resume must also replay the per-shard ``(t, |gamma|)`` transcripts,
    not just the aggregate result."""
    from repro.core.strategies.flush import FlushPolicy
    from repro.simulation.experiment import default_queries, taxi_workloads
    from repro.simulation.runner import make_sharded_backend
    from repro.simulation.simulator import SimulationConfig

    workloads = taxi_workloads(scale=0.01, include_green=False, seed=11)
    queries = default_queries()
    captured = {}

    class _Capture(Simulation):
        @staticmethod
        def _close_edb(ctx):
            captured["transcripts"] = (
                tuple(ctx.edb.update_history),
                ctx.edb.per_shard_observables(),
            )
            captured["truth"] = _true_answers(ctx.analyst.observations)
            Simulation._close_edb(ctx)

    def build():
        config = SimulationConfig(
            strategy="dp-ant",
            epsilon=0.5,
            timer_period=30,
            theta=15,
            flush=FlushPolicy(interval=300, size=5),
            query_interval=120,
            seed=6,
        )
        return _Capture(
            edb_factory=make_sharded_backend(
                "oblidb",
                2,
                seed=2,
                shard_executor="processes",
                simulate_encryption=True,
            ),
            workloads=workloads,
            queries=queries,
            config=config,
        )

    reference = build().run()
    reference_transcripts = captured.pop("transcripts")
    reference_truth = captured.pop("truth")

    class _Crash(RuntimeError):
        pass

    original = Simulation._persist
    count = [0]

    def crashing(self, time, ctx, store):
        original(self, time, ctx, store)
        count[0] += 1
        if count[0] == 2:
            raise _Crash()

    persist_dir = tmp_path / "persist"
    try:
        Simulation._persist = crashing
        with pytest.raises(_Crash):
            build().run(persist_dir=persist_dir)
    finally:
        Simulation._persist = original
    captured.clear()
    # The truth is rebuilt from the owners' logical tables, never stored.
    snapshot = SnapshotStore(persist_dir).load_latest()
    assert "owners.pkl" in snapshot.blob_names()
    assert "truth.pkl" not in snapshot.blob_names()

    resumed = build().run(persist_dir=persist_dir)
    assert resumed.to_dict() == reference.to_dict()
    assert captured.pop("transcripts") == reference_transcripts
    assert captured.pop("truth") == reference_truth
    assert not persist_dir.exists()  # cleared on success


def test_resume_refuses_mismatched_configuration(tmp_path):
    """A persist dir written under one configuration must not silently seed
    a run with a different one -- the signature check fails closed."""
    from repro.core.strategies.flush import FlushPolicy
    from repro.simulation.experiment import (
        default_queries,
        make_backend,
        taxi_workloads,
    )
    from repro.simulation.simulator import SimulationConfig

    workloads = taxi_workloads(scale=0.01, include_green=False, seed=11)

    def build(seed):
        return Simulation(
            edb_factory=make_backend("oblidb", seed=2),
            workloads=workloads,
            queries=default_queries(),
            config=SimulationConfig(
                strategy="dp-timer",
                flush=FlushPolicy(interval=300, size=5),
                query_interval=120,
                seed=seed,
            ),
        )

    class _Stop(RuntimeError):
        pass

    original = Simulation._persist

    def stopping(self, time, ctx, store):
        original(self, time, ctx, store)
        raise _Stop()

    persist_dir = tmp_path / "persist"
    try:
        Simulation._persist = stopping
        with pytest.raises(_Stop):
            build(seed=6).run(persist_dir=persist_dir)
    finally:
        Simulation._persist = original

    with pytest.raises(StoreIntegrityError):
        build(seed=7).run(persist_dir=persist_dir)


# -- key rotation across the process router -----------------------------------


def _worker_shard(client: ShardWorkerClient) -> ObliDB:
    """The worker's shard, rows and key included, out of its snapshot."""
    return restore_backend(client.snapshot())


def _golden(shard: ObliDB, cipher) -> list:
    """(handle, payload) pairs for every ciphertext the shard stores."""
    views = shard.ciphertexts("events")
    return sorted(
        (view.handle, tuple(sorted(record.values.items())), record.arrival_time)
        for view, record in zip(views, cipher.decrypt_many(views))
    )


def test_router_key_rotation_preserves_payloads_and_rejects_old_key():
    router = ShardRouter(
        [ObliDB(simulate_encryption=True) for _ in range(2)],
        route_seed=4,
        executor="processes",
    )
    try:
        router.setup([_record(t) for t in range(30)])
        before = [_worker_shard(client) for client in router.shards]
        old_ciphers = [shard.cipher for shard in before]
        golden = [_golden(shard, shard.cipher) for shard in before]
        assert any(golden)  # the rotation below rewrites real rows

        router.rotate_key()

        for client, old_cipher, expected in zip(router.shards, old_ciphers, golden):
            shard = _worker_shard(client)
            new_cipher = shard.cipher
            assert new_cipher.key != old_cipher.key
            assert _golden(shard, new_cipher) == expected
            views = shard.ciphertexts("events")
            with pytest.raises(ValueError):
                old_cipher.decrypt(views[0])
    finally:
        router.close()
