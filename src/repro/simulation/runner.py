"""Parallel experiment orchestration: scenario-matrix grids of simulation cells.

The paper's whole Section 8 evaluation is a grid -- {strategies} x {back-ends}
x {parameter sweeps} x {workloads} -- and before this module every cell ran
serially inside one process.  This module turns one figure-replication into a
declarative object and a scheduler:

* :class:`CellSpec` -- a self-contained, JSON-serializable description of one
  grid cell (strategy, back-end, scenario name, parameters, seeds).  Cells
  reference workloads through the scenario registry
  (:mod:`repro.workload.scenarios`), so they stay cheap to pickle into worker
  processes.
* :class:`ExperimentGrid` -- declarative cell enumeration over the
  strategy x backend x scenario x parameter axes, with deterministic per-cell
  seeds derived via ``np.random.SeedSequence.spawn``: the seed of a cell
  depends only on the grid's ``base_seed`` and the cell's position, never on
  the worker count or completion order.
* :func:`run_cell` -- executes one cell (this is the function worker
  processes run); per-process scenario caching avoids rebuilding the same
  workload for every cell that shares it.
* :class:`GridRunner` -- runs the cells serially (``n_workers <= 1``) or on a
  process pool, checkpoints each completed cell as a JSON artifact under an
  artifact directory (so an interrupted figure-scale sweep resumes instead of
  restarting), and reports progress/ETA as cells complete.

Per-cell results are **bit-identical across worker counts**: every source of
randomness in a cell is derived from the cell's own recorded seeds (see
``tests/test_simulation_runner.py``), and the checkpoint JSON round-trips
results exactly (``RunResult.to_dict``/``from_dict``).

A tiny CLI is included for smoke runs::

    python -m repro.simulation.runner --strategies dp-timer,dp-ant \\
        --scenario sparse --scale 0.2 --workers 2 --artifact-dir /tmp/grid
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.strategies.flush import FlushPolicy
from repro.edb.base import EncryptedDatabase
from repro.edb.crypte import CryptEpsilon
from repro.edb.oblidb import ObliDB
from repro.edb.router import SHARD_EXECUTORS, ShardRouter, resolve_shard_executor
from repro.query.ast import JoinCountQuery, MultiJoinCountQuery, Query
from repro.simulation.results import RunResult
from repro.simulation.simulator import Simulation, SimulationConfig, derive_schema
from repro.util.io import atomic_write_text
from repro.util.mp import preferred_mp_context
from repro.workload.scenarios import build_scenario, partition_fleet, scenario_queries

__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_TIMER_PERIOD",
    "DEFAULT_THETA",
    "DEFAULT_FLUSH",
    "DEFAULT_QUERY_INTERVAL",
    "DEFAULT_CRYPTE_QUERY_EPSILON",
    "CellSpec",
    "ExperimentGrid",
    "GridResult",
    "GridRunner",
    "make_backend",
    "make_sharded_backend",
    "run_cell",
    "supported_backend_queries",
]

DEFAULT_EPSILON: float = 0.5
DEFAULT_TIMER_PERIOD: int = 30
DEFAULT_THETA: int = 15
DEFAULT_FLUSH: FlushPolicy = FlushPolicy(interval=2000, size=15)
DEFAULT_QUERY_INTERVAL: int = 360
DEFAULT_CRYPTE_QUERY_EPSILON: float = 3.0


def make_backend(
    name: str,
    seed: int = 0,
    crypte_query_epsilon: float = DEFAULT_CRYPTE_QUERY_EPSILON,
    simulate_encryption: bool = False,
) -> Callable[[], EncryptedDatabase]:
    """A factory for one of the two evaluated back-ends (``"oblidb"`` / ``"crypte"``).

    ``simulate_encryption`` runs every record through the real
    :class:`~repro.edb.crypto.RecordCipher` into the table's ciphertext
    arena.  ``seed`` seeds Crypt-epsilon's answer noise; ObliDB draws no
    randomness.
    """
    key = name.lower()
    if key in ("oblidb", "obli-db", "l0"):
        return lambda: ObliDB(simulate_encryption=simulate_encryption)
    if key in ("crypte", "crypt-epsilon", "crypteps", "ldp"):
        return lambda: CryptEpsilon(
            query_epsilon=crypte_query_epsilon,
            rng=np.random.default_rng(seed + 2),
            simulate_encryption=simulate_encryption,
        )
    raise KeyError(f"unknown back-end {name!r}; expected 'oblidb' or 'crypte'")


def make_sharded_backend(
    name: str,
    n_shards: int,
    seed: int = 0,
    crypte_query_epsilon: float = DEFAULT_CRYPTE_QUERY_EPSILON,
    simulate_encryption: bool = False,
    shard_executor: str = "serial",
    supervisor: str = "off",
    faults: str = "",
) -> Callable[[], ShardRouter]:
    """A factory for a :class:`~repro.edb.router.ShardRouter` over ``n_shards``
    independent back-end instances.

    Shard 0 is seeded exactly like the unsharded :func:`make_backend` (so a
    one-shard router is byte-identical to the plain back-end); later shards
    draw their seeds from ``SeedSequence([seed, shard_index])`` -- adding a
    shard never disturbs the noise streams of the existing ones.
    ``shard_executor`` selects the fan-out executor (``"serial"`` runs
    per-shard protocol work in a loop, ``"processes"`` in persistent
    per-shard worker processes; results are byte-identical either way).
    ``supervisor="on"`` wraps every shard in the self-healing supervisor
    (:mod:`repro.fleet.supervisor`: snapshot + replay-log recovery), and
    ``faults`` injects a deterministic fault schedule
    (:func:`repro.testing.chaos.parse_fault_schedule` syntax) -- recovery is
    byte-invisible in answers, QET, noise flags and transcripts.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")

    def build() -> ShardRouter:
        shards = []
        for index in range(n_shards):
            shard_seed = (
                seed
                if index == 0
                else int(
                    np.random.SeedSequence([seed, index]).generate_state(1)[0]
                )
            )
            shards.append(
                make_backend(
                    name,
                    seed=shard_seed,
                    crypte_query_epsilon=crypte_query_epsilon,
                    simulate_encryption=simulate_encryption,
                )()
            )
        return ShardRouter(
            shards,
            route_seed=seed,
            executor=shard_executor,
            supervisor=supervisor,
            faults=faults,
        )

    return build


# ---------------------------------------------------------------------------
# Cell specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One cell of an experiment grid.

    Every field is a plain JSON value, so a cell can be pickled into a worker
    process, fingerprinted for checkpointing, and rebuilt from an artifact.
    ``queries`` optionally restricts the scenario's evaluation queries to the
    named subset (e.g. ``("Q2",)`` for the paper's sweeps); ``None`` keeps
    every query the back-end supports.

    Fleet fields: ``n_owners`` partitions every workload stream across that
    many owners (each with its own strategy and noise stream),
    ``fleet_scenario`` names the partition policy
    (:data:`repro.workload.scenarios.FLEET_PARTITIONS`; empty selects
    round-robin), and ``n_shards`` routes the outsourced records across that
    many independent EDB shards via a
    :class:`~repro.edb.router.ShardRouter`.  The defaults (1/1) reproduce
    the single-owner, single-EDB paper setup exactly.

    Hot-path fields: ``shard_executor`` picks the router's fan-out executor
    (``"serial"`` visits the shards in a loop; ``"processes"`` moves each
    shard into a persistent worker process -- cell results are
    byte-identical either way, only wall clock moves), and
    ``simulate_encryption`` runs every outsourced record through the real
    record cipher into a contiguous ciphertext arena per table.

    Robustness fields: ``supervisor="on"`` wraps every shard in the
    self-healing supervisor (:mod:`repro.fleet.supervisor` -- per-command
    deadlines, bounded deterministic retry, snapshot+replay-log worker
    recovery), and ``faults`` injects a deterministic fault schedule in
    :func:`repro.testing.chaos.parse_fault_schedule` syntax (a non-empty
    schedule implies supervision; the kinds in
    :data:`~repro.testing.chaos.PROCESS_ONLY_KINDS` need
    ``shard_executor="processes"``, as on a router built directly).
    Recovery is byte-invisible in every paper-level observable; only
    measured wall clock and the health counters move.
    """

    strategy: str
    backend: str = "oblidb"
    scenario: str = "taxi-yellow"
    scale: float = 1.0
    epsilon: float = DEFAULT_EPSILON
    timer_period: int = DEFAULT_TIMER_PERIOD
    theta: int = DEFAULT_THETA
    flush_interval: int = DEFAULT_FLUSH.interval
    flush_size: int = DEFAULT_FLUSH.size
    flush_enabled: bool = True
    query_interval: int = DEFAULT_QUERY_INTERVAL
    horizon: int | None = None
    queries: tuple[str, ...] | None = None
    sim_seed: int = 0
    backend_seed: int = 0
    workload_seed: int = 2020
    crypte_query_epsilon: float = DEFAULT_CRYPTE_QUERY_EPSILON
    n_owners: int = 1
    n_shards: int = 1
    fleet_scenario: str = ""
    shard_executor: str = "serial"
    supervisor: str = "off"
    faults: str = ""
    simulate_encryption: bool = False
    scenario_kwargs: tuple[tuple[str, float], ...] = ()
    cell_id: str = ""

    def __post_init__(self) -> None:
        if self.n_owners < 1 or self.n_shards < 1:
            raise ValueError("n_owners and n_shards must be >= 1")
        object.__setattr__(
            self, "shard_executor", resolve_shard_executor(self.shard_executor)
        )
        from repro.fleet.supervisor import resolve_supervisor_mode

        object.__setattr__(
            self, "supervisor", resolve_supervisor_mode(self.supervisor)
        )
        faults = str(self.faults or "")
        if faults:
            from repro.testing.chaos import check_fault_executor, parse_fault_schedule

            # Validate (and normalize) the schedule at cell-build time so a
            # malformed --faults axis fails before any cell runs.
            schedule = parse_fault_schedule(faults)
            check_fault_executor(schedule, self.shard_executor)
            faults = schedule.spec()
        object.__setattr__(self, "faults", faults)
        if self.queries is not None:
            object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(
            self, "scenario_kwargs", tuple((k, v) for k, v in self.scenario_kwargs)
        )
        if not self.cell_id:
            object.__setattr__(self, "cell_id", self._default_cell_id())

    def _default_cell_id(self) -> str:
        parts = [
            self.strategy,
            self.backend,
            self.scenario,
            f"eps={self.epsilon:g}",
            f"T={self.timer_period}",
            f"th={self.theta}",
            f"qi={self.query_interval}",
            f"scale={self.scale:g}",
            f"seed={self.sim_seed}",
        ]
        if self.n_owners != 1 or self.n_shards != 1:
            parts.append(f"fleet={self.n_owners}x{self.n_shards}")
        parts.extend(f"{k}={v!r}" for k, v in self.scenario_kwargs)
        # The readable prefix does not cover every field (flush, horizon,
        # query subset, backend/workload seeds, ...); the content hash does,
        # so cells differing only in an unlisted field never collide.
        return "/".join(parts) + f"#{self.fingerprint()[:8]}"

    def flush_policy(self) -> FlushPolicy:
        """The cell's flush policy object."""
        if not self.flush_enabled or self.flush_size == 0:
            return FlushPolicy.disabled()
        return FlushPolicy(interval=self.flush_interval, size=self.flush_size)

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips through :meth:`from_dict`)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["queries"] = list(self.queries) if self.queries is not None else None
        payload["scenario_kwargs"] = [list(pair) for pair in self.scenario_kwargs]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CellSpec":
        """Rebuild a spec produced by :meth:`to_dict`."""
        data = dict(payload)
        if data.get("queries") is not None:
            data["queries"] = tuple(data["queries"])
        data["scenario_kwargs"] = tuple(
            (k, v) for k, v in data.get("scenario_kwargs", ())
        )
        return cls(**data)

    def fingerprint(self) -> str:
        """Stable content hash used to validate checkpoint artifacts.

        Covers every field except ``cell_id`` (which may itself embed the
        fingerprint): two specs with equal content always share a
        fingerprint, regardless of how they were labelled.
        """
        payload = self.to_dict()
        payload.pop("cell_id")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Cell execution (this is what worker processes run)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _cached_workloads(scenario: str, seed: int, scale: float, kwargs_items: tuple):
    """Per-process scenario cache: cells sharing a workload build it once.

    Safe to share because :class:`Simulation` only reads the update streams.
    """
    return build_scenario(scenario, seed=seed, scale=scale, **dict(kwargs_items))


def supported_backend_queries(backend: str, queries: Sequence[Query]) -> list[Query]:
    """Drop query shapes a back-end cannot run (joins on Crypt-epsilon).

    The single source of the backend/query compatibility rule: both the grid
    runner and ``EndToEndConfig.queries_for_backend`` delegate here (the
    Simulation would skip unsupported queries at run time anyway; filtering
    up front keeps the declared query set honest).
    """
    if backend.startswith("crypt"):
        return [
            q
            for q in queries
            if not isinstance(q, (JoinCountQuery, MultiJoinCountQuery))
        ]
    return list(queries)


def _queries_for(spec: CellSpec) -> list[Query]:
    queries = scenario_queries(spec.scenario)
    if spec.queries is not None:
        wanted = set(spec.queries)
        queries = [q for q in queries if q.name in wanted]
    return supported_backend_queries(spec.backend, queries)


def _safe_cell_name(spec: CellSpec) -> str:
    """Filesystem-safe per-cell name shared by checkpoints and persist dirs."""
    safe = "".join(c if c.isalnum() or c in "-_=." else "_" for c in spec.cell_id)
    return f"{safe[:80]}-{spec.fingerprint()}"


def _cell_persist_dir(
    persist_dir: str | os.PathLike | None, spec: CellSpec
) -> Path | None:
    """Per-cell snapshot-store directory under the grid's ``persist_dir``.

    Keyed by the cell's fingerprint (not only its id), so a re-parameterized
    cell never resumes from a stale snapshot of its previous definition.
    """
    if persist_dir is None:
        return None
    return Path(persist_dir) / _safe_cell_name(spec)


def run_cell(
    spec: CellSpec, persist_dir: str | os.PathLike | None = None
) -> RunResult:
    """Execute one grid cell and return its :class:`RunResult`.

    All randomness derives from the seeds recorded on the spec, so the result
    is identical no matter which process (or machine) runs the cell.  With
    ``persist_dir``, the cell writes kill-safe mid-run snapshots into its own
    fingerprint-keyed subdirectory and resumes from them (see
    :meth:`Simulation.run`); the replay is bit-identical either way.
    """
    workloads = _cached_workloads(
        spec.scenario, spec.workload_seed, spec.scale, spec.scenario_kwargs
    )
    schemas = None
    if spec.n_owners > 1:
        # Partitions inherit the unpartitioned stream's schema: a small or
        # skewed partition may be empty, which carries no record to derive
        # a schema from but is a perfectly valid (idle) fleet member.
        schemas = {}
        for stream, workload in workloads.items():
            schema = derive_schema(stream, workload)
            for index in range(spec.n_owners):
                schemas[f"{stream}#{index}"] = schema
        workloads = partition_fleet(
            workloads, spec.n_owners, policy=spec.fleet_scenario or "round-robin"
        )
    config = SimulationConfig(
        strategy=spec.strategy,
        epsilon=spec.epsilon,
        timer_period=spec.timer_period,
        theta=spec.theta,
        flush=spec.flush_policy(),
        query_interval=spec.query_interval,
        horizon=spec.horizon,
        seed=spec.sim_seed,
    )
    if spec.n_shards > 1 or spec.supervisor == "on" or spec.faults:
        # A supervised (or fault-injected) cell always runs through a router
        # (a one-shard router is byte-identical to the plain back-end, so
        # K=1 cells stay comparable to their unsharded twins while
        # exercising the supervisor's recovery path).
        edb_factory: Callable[[], EncryptedDatabase] = make_sharded_backend(
            spec.backend,
            spec.n_shards,
            seed=spec.backend_seed,
            crypte_query_epsilon=spec.crypte_query_epsilon,
            simulate_encryption=spec.simulate_encryption,
            shard_executor=spec.shard_executor,
            supervisor=spec.supervisor,
            faults=spec.faults,
        )
    else:
        edb_factory = make_backend(
            spec.backend,
            seed=spec.backend_seed,
            crypte_query_epsilon=spec.crypte_query_epsilon,
            simulate_encryption=spec.simulate_encryption,
        )
    simulation = Simulation(
        edb_factory=edb_factory,
        workloads=workloads,
        queries=_queries_for(spec),
        config=config,
        schemas=schemas,
    )
    return simulation.run(persist_dir=_cell_persist_dir(persist_dir, spec))


def _run_cell_timed(
    spec: CellSpec, persist_dir: str | os.PathLike | None = None
) -> tuple[RunResult, float]:
    start = time.perf_counter()
    result = run_cell(spec, persist_dir=persist_dir)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

#: CellSpec fields that may be used as grid parameter axes.
_AXIS_FIELDS = frozenset(
    {
        "epsilon",
        "timer_period",
        "theta",
        "flush_interval",
        "flush_size",
        "query_interval",
        "scale",
        "horizon",
        "crypte_query_epsilon",
        "n_owners",
        "n_shards",
        "fleet_scenario",
        "supervisor",
        "faults",
    }
)


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative enumeration of grid cells over four kinds of axes.

    ``strategies`` x ``backends`` x ``scenarios`` are the categorical axes;
    ``parameters`` maps :class:`CellSpec` field names (epsilon, timer_period,
    theta, query_interval, scale, ...) to value sequences and contributes one
    axis per entry (sorted by name for a stable cell order).  ``base``
    provides every non-swept field.

    Each cell receives its own ``SeedSequence`` child spawned from
    ``base_seed``; the child's first three words become the cell's simulation
    / backend / workload seeds.  Seeds therefore depend only on the grid
    definition and the cell's index -- not on scheduling.
    """

    strategies: tuple[str, ...]
    backends: tuple[str, ...] = ("oblidb",)
    scenarios: tuple[str, ...] = ("taxi-yellow",)
    parameters: Mapping[str, Sequence] = field(default_factory=dict)
    base: CellSpec = field(default_factory=lambda: CellSpec(strategy="dp-timer"))
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "backends", tuple(self.backends))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "parameters", dict(self.parameters))
        unknown = set(self.parameters) - _AXIS_FIELDS
        if unknown:
            raise ValueError(
                f"unknown parameter axes {sorted(unknown)}; "
                f"allowed: {sorted(_AXIS_FIELDS)}"
            )
        if not self.strategies:
            raise ValueError("grid needs at least one strategy")

    def __len__(self) -> int:
        n = len(self.strategies) * len(self.backends) * len(self.scenarios)
        for values in self.parameters.values():
            n *= len(values)
        return n

    def cells(self) -> list[CellSpec]:
        """Enumerate the grid as fully-seeded :class:`CellSpec` objects."""
        param_names = sorted(self.parameters)
        param_axes = [self.parameters[name] for name in param_names]
        combos = list(
            itertools.product(
                self.strategies, self.backends, self.scenarios, *param_axes
            )
        )
        children = np.random.SeedSequence(self.base_seed).spawn(len(combos))
        cells: list[CellSpec] = []
        for (strategy, backend, scenario, *values), child in zip(combos, children):
            sim_seed, backend_seed, workload_seed = (
                int(word) for word in child.generate_state(3, dtype=np.uint32)
            )
            overrides = dict(zip(param_names, values))
            id_parts = [strategy, backend, scenario] + [
                f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
                for name, value in zip(param_names, values)
            ]
            cells.append(
                replace(
                    self.base,
                    strategy=strategy,
                    backend=backend,
                    scenario=scenario,
                    sim_seed=sim_seed,
                    backend_seed=backend_seed,
                    workload_seed=workload_seed,
                    cell_id="/".join(id_parts),
                    **overrides,
                )
            )
        return cells


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    """Outcome of one :meth:`GridRunner.run` call.

    ``results`` preserves cell-enumeration order.  ``resumed`` lists the
    cell ids whose results were loaded from checkpoint artifacts instead of
    being recomputed.
    """

    results: dict[str, RunResult]
    elapsed_seconds: float
    resumed: tuple[str, ...] = ()
    cell_seconds: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, cell_id: str) -> RunResult:
        return self.results[cell_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def executed(self) -> tuple[str, ...]:
        """Cell ids that were actually computed this run."""
        resumed = set(self.resumed)
        return tuple(cid for cid in self.results if cid not in resumed)


@dataclass
class _ComputeProgress:
    """ETA bookkeeping over the cells that actually need computing.

    Resumed cells are excluded: they load in microseconds, and averaging them
    into the per-cell rate would make the ETA claim an almost-finished sweep
    while all the compute still lies ahead.
    """

    pending_total: int
    done_offset: int
    computed: int = 0
    started: float = field(default_factory=time.perf_counter)

    def advance(self) -> tuple[int, float]:
        """Mark one computed cell; return (overall done count, eta seconds)."""
        self.computed += 1
        elapsed = time.perf_counter() - self.started
        eta = (elapsed / self.computed) * (self.pending_total - self.computed)
        return self.done_offset + self.computed, eta


class GridRunner:
    """Run grid cells serially or on a process pool, with checkpoint/resume.

    Parameters
    ----------
    n_workers:
        ``None`` or ``<= 1`` runs every cell in-process (the serial path);
        ``>= 2`` uses a ``ProcessPoolExecutor`` with that many workers.
        Results are bit-identical either way.
    artifact_dir:
        When given, each completed cell is written to
        ``<artifact_dir>/cells/<id>-<fingerprint>.json`` (atomically) and a
        ``manifest.json`` describes the grid.  A later run over the same
        cells loads matching artifacts instead of recomputing -- cells whose
        spec changed (different fingerprint) are re-run and overwritten.
    progress:
        ``True`` prints per-cell completion lines with elapsed time and a
        simple remaining-cells ETA to stderr; a callable receives the same
        information as a dict (keys ``done``, ``total``, ``cell_id``,
        ``cell_seconds``, ``elapsed_seconds``, ``eta_seconds``, ``resumed``).
    persist_dir:
        When given, every *running* cell additionally snapshots its full
        mid-run state (EDB, owners, ground truth, partial result) into
        ``<persist_dir>/<id>-<fingerprint>/`` after each query observation
        via :class:`~repro.edb.store.SnapshotStore`.  A killed sweep then
        resumes each unfinished cell from its last snapshot instead of
        restarting it, with a bit-identical replay; the per-cell store is
        removed once the cell completes (``artifact_dir`` checkpoints cover
        finished cells).
    """

    def __init__(
        self,
        n_workers: int | None = None,
        artifact_dir: str | os.PathLike | None = None,
        progress: bool | Callable[[dict], None] = False,
        persist_dir: str | os.PathLike | None = None,
    ) -> None:
        self._n_workers = n_workers
        self._artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self._progress = progress
        self._persist_dir = Path(persist_dir) if persist_dir is not None else None

    # -- artifact layout ------------------------------------------------------

    def _cell_path(self, spec: CellSpec) -> Path:
        return self._artifact_dir / "cells" / f"{_safe_cell_name(spec)}.json"

    def _load_checkpoint(self, spec: CellSpec) -> tuple[RunResult, float] | None:
        if self._artifact_dir is None:
            return None
        path = self._cell_path(spec)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("fingerprint") != spec.fingerprint():
            return None
        return (
            RunResult.from_dict(payload["result"]),
            float(payload.get("elapsed_seconds", 0.0)),
        )

    def _save_checkpoint(self, spec: CellSpec, result: RunResult, seconds: float) -> None:
        if self._artifact_dir is None:
            return
        path = self._cell_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fingerprint": spec.fingerprint(),
            "spec": spec.to_dict(),
            "result": result.to_dict(),
            "elapsed_seconds": round(seconds, 4),
        }
        # Atomic + fsync'd: a SIGKILL mid-write must never leave a torn
        # checkpoint that a resume would have to guess about.
        atomic_write_text(path, json.dumps(payload, indent=1) + "\n")

    def _write_manifest(self, cells: Sequence[CellSpec]) -> None:
        if self._artifact_dir is None:
            return
        self._artifact_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": 1,
            "n_cells": len(cells),
            "cells": [
                {"cell_id": spec.cell_id, "fingerprint": spec.fingerprint()}
                for spec in cells
            ],
        }
        atomic_write_text(
            self._artifact_dir / "manifest.json",
            json.dumps(manifest, indent=1) + "\n",
        )

    # -- progress -------------------------------------------------------------

    def _report(
        self,
        done: int,
        total: int,
        spec: CellSpec,
        cell_seconds: float,
        started: float,
        resumed: bool,
        eta: float = 0.0,
    ) -> None:
        if not self._progress:
            return
        elapsed = time.perf_counter() - started
        event = {
            "done": done,
            "total": total,
            "cell_id": spec.cell_id,
            "cell_seconds": round(cell_seconds, 3),
            "elapsed_seconds": round(elapsed, 3),
            "eta_seconds": round(eta, 3),
            "resumed": resumed,
        }
        if callable(self._progress):
            self._progress(event)
            return
        tag = "resumed" if resumed else f"{cell_seconds:6.2f}s"
        print(
            f"[{done}/{total}] {spec.cell_id}: {tag}"
            f" | elapsed {elapsed:6.1f}s | eta {eta:6.1f}s",
            file=sys.stderr,
        )

    # -- execution ------------------------------------------------------------

    def run(self, grid: ExperimentGrid | Sequence[CellSpec]) -> GridResult:
        """Execute (or resume) every cell and return results in cell order."""
        cells = list(grid.cells()) if isinstance(grid, ExperimentGrid) else list(grid)
        seen: set[str] = set()
        for spec in cells:
            if spec.cell_id in seen:
                raise ValueError(f"duplicate cell id {spec.cell_id!r}")
            seen.add(spec.cell_id)

        started = time.perf_counter()
        self._write_manifest(cells)

        results: dict[str, RunResult] = {}
        cell_seconds: dict[str, float] = {}
        resumed: list[str] = []
        pending: list[CellSpec] = []
        for spec in cells:
            checkpoint = self._load_checkpoint(spec)
            if checkpoint is not None:
                results[spec.cell_id] = checkpoint[0]
                cell_seconds[spec.cell_id] = checkpoint[1]
                resumed.append(spec.cell_id)
            else:
                pending.append(spec)

        done = len(resumed)
        total = len(cells)
        if resumed and self._progress:
            resumed_set = set(resumed)
            index = 0
            for spec in cells:
                if spec.cell_id in resumed_set:
                    index += 1
                    self._report(
                        index,
                        total,
                        spec,
                        cell_seconds[spec.cell_id],
                        started,
                        resumed=True,
                    )

        # ETA is based on *computed* cells only: resumed cells load in
        # microseconds and would otherwise make the estimate claim a nearly
        # finished sweep while all the compute still lies ahead.
        progress = _ComputeProgress(pending_total=len(pending), done_offset=done)
        workers = self._effective_workers(len(pending))
        if workers <= 1:
            for spec in pending:
                result, seconds = _run_cell_timed(spec, self._persist_dir)
                self._record(spec, result, seconds, results, cell_seconds)
                done, eta = progress.advance()
                self._report(done, total, spec, seconds, started, resumed=False, eta=eta)
        else:
            done = self._run_pool(
                pending, workers, results, cell_seconds, progress, total, started
            )

        ordered = {
            spec.cell_id: results[spec.cell_id] for spec in cells
        }
        return GridResult(
            results=ordered,
            elapsed_seconds=time.perf_counter() - started,
            resumed=tuple(resumed),
            cell_seconds=cell_seconds,
        )

    def _record(
        self,
        spec: CellSpec,
        result: RunResult,
        seconds: float,
        results: dict[str, RunResult],
        cell_seconds: dict[str, float],
    ) -> None:
        results[spec.cell_id] = result
        cell_seconds[spec.cell_id] = seconds
        self._save_checkpoint(spec, result, seconds)

    def _effective_workers(self, n_pending: int) -> int:
        if self._n_workers is None:
            return 1
        return max(1, min(self._n_workers, n_pending))

    def _run_pool(
        self,
        pending: Sequence[CellSpec],
        workers: int,
        results: dict[str, RunResult],
        cell_seconds: dict[str, float],
        progress: "_ComputeProgress",
        total: int,
        started: float,
    ) -> int:
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=preferred_mp_context()
        )
        done = progress.done_offset
        try:
            future_to_spec = {
                executor.submit(_run_cell_timed, spec, self._persist_dir): spec
                for spec in pending
            }
            remaining = set(future_to_spec)
            # FIRST_COMPLETED keeps checkpoints and progress incremental: each
            # cell is persisted as soon as it finishes, so an interrupted
            # sweep resumes from everything already computed rather than
            # losing the whole pool's work.
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    spec = future_to_spec[future]
                    result, seconds = future.result()  # re-raises worker errors
                    self._record(spec, result, seconds, results, cell_seconds)
                    done, eta = progress.advance()
                    self._report(
                        done, total, spec, seconds, started, resumed=False, eta=eta
                    )
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return done


# ---------------------------------------------------------------------------
# CLI smoke entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    """Tiny CLI: run a small grid and print one summary line per cell."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.simulation.runner",
        description="Run an experiment grid over the scenario registry.",
    )
    parser.add_argument(
        "--strategies", default="dp-timer,dp-ant", help="comma-separated strategy names"
    )
    parser.add_argument("--backend", default="oblidb", choices=["oblidb", "crypte"])
    parser.add_argument("--scenario", default="sparse", help="scenario registry name")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--epsilons", default="", help="optional epsilon axis, comma-separated")
    parser.add_argument("--query-interval", type=int, default=500)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--artifact-dir", default=None)
    parser.add_argument(
        "--persist-dir",
        default=None,
        help="kill-safe mid-run persistence: each cell snapshots its full "
        "state into a fingerprint-keyed subdirectory after every query "
        "observation, and a killed sweep resumes every cell mid-run with a "
        "bit-identical replay",
    )
    parser.add_argument(
        "--n-owners",
        type=int,
        default=1,
        help="fleet size: partition every stream across this many owners",
    )
    parser.add_argument(
        "--n-shards",
        type=int,
        default=1,
        help="shard the EDB across this many independent back-end instances",
    )
    parser.add_argument(
        "--fleet-scenario",
        default="",
        help="fleet partition policy (round-robin / hash-user; default round-robin)",
    )
    parser.add_argument(
        "--shard-executor",
        default="serial",
        choices=list(SHARD_EXECUTORS),
        help="shard fan-out executor: the sequential loop (default) or "
        "persistent per-shard worker processes; cell results are "
        "byte-identical either way",
    )
    parser.add_argument(
        "--supervisor",
        default="off",
        choices=["off", "on"],
        help="self-healing shard supervision: per-command deadlines, bounded "
        "deterministic retry, and snapshot+replay-log worker recovery; cell "
        "results are byte-identical either way, only measured wall clock "
        "and the health counters move",
    )
    parser.add_argument(
        "--faults",
        default="",
        help="deterministic fault schedule, comma-separated kind[:shard]@N "
        "terms (kinds: kill delay drop raise tornsnap; kill, delay and drop "
        "need --shard-executor processes), e.g. 'kill:1@3,raise@5'; implies "
        "--supervisor on",
    )
    parser.add_argument(
        "--simulate-encryption",
        action="store_true",
        help="run every outsourced record through the real record cipher "
        "into a per-table ciphertext arena",
    )
    args = parser.parse_args(argv)

    parameters: dict[str, Sequence] = {
        "scale": [args.scale],
        "query_interval": [args.query_interval],
    }
    if args.epsilons:
        parameters["epsilon"] = [float(e) for e in args.epsilons.split(",")]
    grid = ExperimentGrid(
        strategies=tuple(args.strategies.split(",")),
        backends=(args.backend,),
        scenarios=(args.scenario,),
        parameters=parameters,
        base=CellSpec(
            strategy="dp-timer",
            n_owners=args.n_owners,
            n_shards=args.n_shards,
            fleet_scenario=args.fleet_scenario,
            shard_executor=args.shard_executor,
            supervisor=args.supervisor,
            faults=args.faults,
            simulate_encryption=args.simulate_encryption,
        ),
        base_seed=args.seed,
    )
    runner = GridRunner(
        n_workers=args.workers,
        artifact_dir=args.artifact_dir,
        progress=True,
        persist_dir=args.persist_dir,
    )
    outcome = runner.run(grid)
    for cell_id, result in outcome.results.items():
        summary = result.summary()
        print(
            f"{cell_id}: syncs={result.sync_count}"
            f" volume={result.total_update_volume}"
            f" mean_gap={summary['mean_logical_gap']:.2f}"
            f" total_mb={summary['total_data_mb']:.3f}"
        )
    print(
        f"{len(outcome)} cells in {outcome.elapsed_seconds:.2f}s"
        f" ({len(outcome.resumed)} resumed)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
