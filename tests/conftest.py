"""Shared fixtures for the DP-Sync reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies.flush import FlushPolicy
from repro.edb.records import Record, Schema, make_dummy_record
from repro.workload.generator import build_growing_database, poisson_arrivals
from repro.workload.stream import GrowingDatabase


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def schema() -> Schema:
    """A small event-table schema used across unit tests."""
    return Schema(name="events", attributes=("sensor_id", "value"), key="sensor_id")


@pytest.fixture
def taxi_schema() -> Schema:
    """The Yellow Cab schema used by the paper's queries."""
    return Schema(name="YellowCab", attributes=("pickupID", "pickTime"))


@pytest.fixture
def dummy_factory(schema):
    """Dummy-record factory bound to the event schema."""
    return lambda t: make_dummy_record(schema, t)


@pytest.fixture
def sample_records(schema) -> list[Record]:
    """Ten real records for the event schema."""
    return [
        Record(
            values={"sensor_id": i % 3, "value": float(i)},
            arrival_time=i,
            table=schema.name,
        )
        for i in range(1, 11)
    ]


@pytest.fixture
def small_workload(schema, rng) -> GrowingDatabase:
    """A 300-step Poisson workload over the event schema."""
    arrivals = poisson_arrivals(300, rate=0.4, rng=rng)

    def sampler(t, generator):
        return {"sensor_id": int(generator.integers(0, 5)), "value": float(t)}

    return build_growing_database(schema, arrivals, sampler, rng)


@pytest.fixture
def taxi_workload(taxi_schema, rng) -> GrowingDatabase:
    """A 600-step taxi-shaped workload (pickupID / pickTime attributes)."""
    arrivals = poisson_arrivals(600, rate=0.45, rng=rng)

    def sampler(t, generator):
        return {"pickupID": int(generator.integers(1, 266)), "pickTime": t}

    return build_growing_database(taxi_schema, arrivals, sampler, rng)


@pytest.fixture
def no_flush() -> FlushPolicy:
    """A disabled flush policy."""
    return FlushPolicy.disabled()


@pytest.fixture
def fast_flush() -> FlushPolicy:
    """A small, frequent flush policy for tests."""
    return FlushPolicy(interval=50, size=5)
