"""Tests for records, schemas and dummy records."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edb.records import (
    DUMMY_SENTINEL,
    Record,
    Schema,
    count_dummy,
    count_real,
    make_dummy_record,
)


class TestSchema:
    def test_basic_construction(self):
        schema = Schema("trips", ("pickupID", "pickTime"), key="pickupID")
        assert schema.name == "trips"
        assert schema.attributes == ("pickupID", "pickTime")
        assert schema.key == "pickupID"

    def test_rejects_empty_name_or_attributes(self):
        with pytest.raises(ValueError):
            Schema("", ("a",))
        with pytest.raises(ValueError):
            Schema("t", ())

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(ValueError):
            Schema("t", ("a", "a"))

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            Schema("t", ("a", "b"), key="c")

    def test_validate_accepts_exact_attribute_set(self):
        schema = Schema("t", ("a", "b"))
        schema.validate({"a": 1, "b": 2})

    def test_validate_rejects_missing_and_extra(self):
        schema = Schema("t", ("a", "b"))
        with pytest.raises(ValueError):
            schema.validate({"a": 1})
        with pytest.raises(ValueError):
            schema.validate({"a": 1, "b": 2, "c": 3})

    def test_validate_messages_and_the_attribute_cache_stay_out_of_pickles(self):
        schema = Schema("t", ("a", "b"))
        with pytest.raises(ValueError, match=r"missing attributes \['b'\] for t"):
            schema.validate({"a": 1})
        with pytest.raises(ValueError, match=r"unknown attributes \['c'\] for t"):
            schema.validate({"b": 2, "a": 1, "c": 3})
        assert repr(schema) == "Schema(name='t', attributes=('a', 'b'), key=None)"
        blob = pickle.dumps(schema)
        assert b"_attribute_set" not in blob
        restored = pickle.loads(blob)
        assert restored == schema and hash(restored) == hash(schema)
        restored.validate({"b": 2, "a": 1})
        with pytest.raises(ValueError, match="missing"):
            restored.validate({"b": 2})


class TestRecord:
    def test_field_access(self):
        record = Record(values={"a": 1, "b": "x"}, arrival_time=5, table="t")
        assert record["a"] == 1
        assert record.get("b") == "x"
        assert record.get("missing", 42) == 42

    def test_negative_arrival_time_rejected(self):
        with pytest.raises(ValueError):
            Record(values={"a": 1}, arrival_time=-1)

    def test_identity_semantics(self):
        first = Record(values={"a": 1})
        second = Record(values={"a": 1})
        assert first != second
        assert first == first
        assert len({first, second}) == 2

    def test_values_are_copied(self):
        source = {"a": 1}
        record = Record(values=source)
        source["a"] = 99
        assert record["a"] == 1

    def test_with_values_creates_new_record(self):
        record = Record(values={"a": 1, "b": 2}, arrival_time=3, table="t")
        updated = record.with_values(a=10)
        assert updated["a"] == 10
        assert updated["b"] == 2
        assert updated.arrival_time == 3
        assert updated.record_id != record.record_id

    def test_record_ids_are_unique_and_increasing(self):
        records = [Record(values={"a": i}) for i in range(50)]
        ids = [r.record_id for r in records]
        assert len(set(ids)) == 50
        assert ids == sorted(ids)


class TestDummyRecords:
    def test_dummy_has_sentinel_values(self):
        schema = Schema("t", ("a", "b"))
        dummy = make_dummy_record(schema, arrival_time=7)
        assert dummy.is_dummy
        assert dummy.table == "t"
        assert dummy["a"] == DUMMY_SENTINEL
        assert dummy["b"] == DUMMY_SENTINEL
        assert dummy.arrival_time == 7

    def test_dummy_conforms_to_schema(self):
        schema = Schema("t", ("a", "b", "c"))
        dummy = make_dummy_record(schema)
        schema.validate(dummy.values)

    def test_counting_helpers(self):
        schema = Schema("t", ("a",))
        real = [Record(values={"a": i}, table="t") for i in range(3)]
        dummies = [make_dummy_record(schema) for _ in range(2)]
        mixed = real + dummies
        assert count_real(mixed) == 3
        assert count_dummy(mixed) == 2

    @given(num_attrs=st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_dummy_always_fills_every_attribute(self, num_attrs):
        schema = Schema("t", tuple(f"attr{i}" for i in range(num_attrs)))
        dummy = make_dummy_record(schema)
        assert set(dummy.values) == set(schema.attributes)
