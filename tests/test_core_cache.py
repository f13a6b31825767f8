"""Tests for the owner's local cache (Section 3.2.1 semantics)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheMode, LocalCache
from repro.edb.records import Record, Schema, make_dummy_record

SCHEMA = Schema("events", ("sensor_id", "value"))


def dummy_factory(t):
    return make_dummy_record(SCHEMA, t)


def real(i):
    return Record(values={"sensor_id": i, "value": i}, arrival_time=i, table="events")


class TestBasicOperations:
    def test_len_write_read(self):
        cache = LocalCache(dummy_factory)
        assert len(cache) == 0
        cache.write(real(1))
        cache.write(real(2))
        assert len(cache) == 2
        popped = cache.read(2)
        assert [r["sensor_id"] for r in popped] == [1, 2]
        assert len(cache) == 0

    def test_read_pads_with_dummies(self):
        cache = LocalCache(dummy_factory)
        cache.write(real(1))
        popped = cache.read(4, current_time=9)
        assert len(popped) == 4
        assert sum(1 for r in popped if r.is_dummy) == 3
        assert all(r.arrival_time == 9 for r in popped if r.is_dummy)
        assert cache.total_dummies_issued == 3

    def test_read_zero_returns_empty(self):
        cache = LocalCache(dummy_factory)
        cache.write(real(1))
        assert cache.read(0) == []
        assert len(cache) == 1

    def test_negative_read_rejected(self):
        cache = LocalCache(dummy_factory)
        with pytest.raises(ValueError):
            cache.read(-1)

    def test_writing_dummy_rejected(self):
        cache = LocalCache(dummy_factory)
        with pytest.raises(ValueError):
            cache.write(make_dummy_record(SCHEMA))
        # A bulk write checks every record before writing any.
        with pytest.raises(ValueError):
            cache.extend([real(1), make_dummy_record(SCHEMA)])
        assert len(cache) == 0 and cache.total_written == 0

    def test_extend_and_peek(self):
        cache = LocalCache(dummy_factory)
        cache.extend([real(1), real(2), real(3)])
        assert [r["sensor_id"] for r in cache.peek_all()] == [1, 2, 3]
        assert len(cache) == 3  # peek is non-destructive

    def test_drain_pops_everything_without_dummies(self):
        cache = LocalCache(dummy_factory)
        cache.extend([real(1), real(2)])
        drained = cache.drain()
        assert len(drained) == 2
        assert not any(r.is_dummy for r in drained)
        assert len(cache) == 0

    def test_counters(self):
        cache = LocalCache(dummy_factory)
        cache.extend([real(i) for i in range(5)])
        cache.read(3)
        assert cache.total_written == 5
        assert cache.total_read == 3
        assert cache.total_dummies_issued == 0


class TestOrderingDisciplines:
    def test_fifo_preserves_arrival_order(self):
        cache = LocalCache(dummy_factory, mode=CacheMode.FIFO)
        cache.extend([real(i) for i in range(5)])
        first = cache.read(2)
        second = cache.read(3)
        assert [r["sensor_id"] for r in first + second] == [0, 1, 2, 3, 4]

    def test_lifo_returns_most_recent_first(self):
        cache = LocalCache(dummy_factory, mode=CacheMode.LIFO)
        cache.extend([real(i) for i in range(5)])
        popped = cache.read(3)
        assert [r["sensor_id"] for r in popped] == [4, 3, 2]

    def test_mode_property(self):
        assert LocalCache(dummy_factory).mode is CacheMode.FIFO
        assert LocalCache(dummy_factory, mode=CacheMode.LIFO).mode is CacheMode.LIFO


class TestCacheProperties:
    @given(
        writes=st.integers(min_value=0, max_value=50),
        read_size=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_read_always_returns_exactly_n(self, writes, read_size):
        """read(σ, n) returns exactly n records (real + dummy padding)."""
        cache = LocalCache(dummy_factory)
        cache.extend([real(i) for i in range(writes)])
        popped = cache.read(read_size)
        assert len(popped) == read_size
        real_count = sum(1 for r in popped if not r.is_dummy)
        assert real_count == min(writes, read_size)
        assert len(cache) == max(0, writes - read_size)

    @given(ops=st.lists(st.integers(min_value=0, max_value=10), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_conservation_of_real_records(self, ops):
        """Real records are never created or destroyed by the cache."""
        cache = LocalCache(dummy_factory)
        written = 0
        read_real = 0
        for index, op in enumerate(ops):
            if op <= 5:
                cache.write(real(index))
                written += 1
            else:
                popped = cache.read(op - 5)
                read_real += sum(1 for r in popped if not r.is_dummy)
        assert written == read_real + len(cache)
