"""The benchmark's workloads: inputs made from the seed, and the replays run on them.

A workload is a list of *cells*.  Each cell is one closed-loop replay: a
:class:`repro.Simulation` over seeded input streams, driven from one process,
one record per simulated minute, with the evaluation queries on a fixed
cadence.  The simulated clock is decoupled from the wall clock, so the
benchmark reports work per wall second at a stated input size and the wall
time of each protocol call.

The seed picks one of :data:`VARIANTS` input variants (``seed % VARIANTS``).
Every variant's paper-level observables are recorded in ``digests.json``, so
every run, whatever its seed, is checked against a recorded digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.edb.records import Record
from repro.simulation.runner import (
    CellSpec,
    make_backend,
    make_sharded_backend,
    supported_backend_queries,
)
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.workload.scenarios import build_scenario, partition_fleet, scenario_queries
from repro.workload.stream import GrowingDatabase

__all__ = ["VARIANTS", "WORKLOADS", "Cell", "Marker", "build_cells"]

#: Number of distinct input variants; ``seed % VARIANTS`` selects one.
VARIANTS = 16

#: Workload seed of variant 0 (the grid runner's default taxi seed); variant
#: ``v`` uses ``BASE_WORKLOAD_SEED + v``.
BASE_WORKLOAD_SEED = 2020

#: Size of the seeded initial database D_0 of the fleet workload.
FLEET_INITIAL_RECORDS = 2000

#: Share of the million-users stream the fleet replays (4,000 of its 8,000
#: ticks): 5.5-7 s a replay on 2 CPUs, so a 40 s run holds six or seven.
FLEET_SCENARIO_SCALE = 0.5

#: The paper's five strategies, in Table 5's column order.
PAPER_STRATEGIES = ("sur", "oto", "set", "dp-timer", "dp-ant")

WORKLOADS = ("paper-oblidb", "fleet-supervised")


class Marker:
    """Wall-clock time at which the engine first pulls an arrival.

    The engine pulls every stream's first arrival right after Setup, just
    before it delivers the first logical update, so the mark ends a replay's
    set-up phase.
    """

    def __init__(self) -> None:
        self.first: float | None = None

    def reset(self) -> None:
        self.first = None

    def hit(self) -> None:
        if self.first is None:
            self.first = time.perf_counter()


class MarkedStream(GrowingDatabase):
    """A growing database whose arrival iterator marks its first pull."""

    marker: Marker | None = None

    def arrivals(self):
        # A generator body runs on the first next(), not at creation.
        if self.marker is not None:
            self.marker.hit()
        yield from super().arrivals()


def _marked(workload: GrowingDatabase, marker: Marker) -> MarkedStream:
    stream = MarkedStream(
        table=workload.table, initial=list(workload.initial), updates=workload.updates
    )
    stream.marker = marker
    return stream


@dataclass
class Cell:
    """One replay of a workload: a spec plus the inputs built for it."""

    label: str
    spec: CellSpec
    streams: dict[str, MarkedStream]
    arrivals: int

    def simulation(
        self,
        wrap_edb: Callable,
        horizon: int | None = None,
    ) -> Simulation:
        """A fresh :class:`Simulation` of the cell; ``wrap_edb`` instruments
        the EDB (or shard router) the run builds."""
        spec = self.spec
        if spec.n_shards > 1 or spec.supervisor == "on":
            factory = make_sharded_backend(
                spec.backend,
                spec.n_shards,
                seed=spec.backend_seed,
                crypte_query_epsilon=spec.crypte_query_epsilon,
                simulate_encryption=spec.simulate_encryption,
                shard_executor=spec.shard_executor,
                supervisor=spec.supervisor,
            )
        else:
            factory = make_backend(
                spec.backend,
                seed=spec.backend_seed,
                crypte_query_epsilon=spec.crypte_query_epsilon,
                simulate_encryption=spec.simulate_encryption,
            )
        config = SimulationConfig(
            strategy=spec.strategy,
            epsilon=spec.epsilon,
            timer_period=spec.timer_period,
            theta=spec.theta,
            flush=spec.flush_policy(),
            query_interval=spec.query_interval,
            horizon=horizon if horizon is not None else spec.horizon,
            seed=spec.sim_seed,
        )
        return Simulation(
            edb_factory=lambda: wrap_edb(factory()),
            workloads=self.streams,
            queries=supported_backend_queries(spec.backend, scenario_queries(spec.scenario)),
            config=config,
        )


def _fleet_initial(seed: int, n: int) -> list[Record]:
    """A seeded initial database D_0 of ``n`` user records."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    users = rng.integers(1, 1_000_001, size=n)
    regions = rng.integers(1, 13, size=n)
    values = rng.integers(0, 100, size=n)
    return [
        Record(
            values={"user_id": int(u), "region": int(r), "value": int(v)},
            table="Users",
        )
        for u, r, v in zip(users, regions, values)
    ]


def build_cells(workload: str, seed: int, marker: Marker, scale: float = 1.0) -> list[Cell]:
    """The cells of ``workload`` on the input variant selected by ``seed``.

    ``scale`` in (0, 1] shortens every stream (the check mode's small runs);
    the benchmark proper always runs at scale 1.
    """
    workload_seed = BASE_WORKLOAD_SEED + seed % VARIANTS
    if workload == "paper-oblidb":
        base = CellSpec(
            strategy="sur",
            backend="oblidb",
            scenario="taxi-june",
            scale=scale,
            query_interval=360,
            workload_seed=workload_seed,
            simulate_encryption=True,
        )
        specs = [replace(base, strategy=s, cell_id="") for s in PAPER_STRATEGIES]
        streams = build_scenario("taxi-june", seed=workload_seed, scale=scale)
    elif workload == "fleet-supervised":
        specs = [
            CellSpec(
                strategy="dp-ant",
                backend="oblidb",
                scenario="million-users",
                scale=FLEET_SCENARIO_SCALE * scale,
                query_interval=8,
                workload_seed=workload_seed,
                n_owners=2,
                n_shards=2,
                shard_executor="processes",
                supervisor="on",
                simulate_encryption=True,
            )
        ]
        users = build_scenario(
            "million-users", seed=workload_seed, scale=specs[0].scale
        )["Users"]
        initial = _fleet_initial(
            workload_seed, max(1, int(FLEET_INITIAL_RECORDS * scale))
        )
        users = GrowingDatabase(table="Users", initial=initial, updates=users.updates)
        streams = partition_fleet({"Users": users}, specs[0].n_owners)
    else:
        raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    marked = {name: _marked(stream, marker) for name, stream in streams.items()}
    arrivals = sum(
        stream.total_records - len(stream.initial) for stream in streams.values()
    )
    return [
        Cell(
            label=spec.strategy if len(specs) > 1 else workload,
            spec=spec,
            streams=marked,
            arrivals=arrivals,
        )
        for spec in specs
    ]
