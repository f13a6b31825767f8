"""Tests for the simulated record encryption.

The property DP-Sync relies on is that encrypted dummy records are
indistinguishable from encrypted real records: same ciphertext size, no
plaintext-dependent structure, round-trip correctness.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edb.crypto import (
    CIPHERTEXT_SIZE,
    ArenaRecord,
    CiphertextArena,
    NONCE_SIZE,
    PLAINTEXT_BLOCK_SIZE,
    EncryptedRecord,
    RecordCipher,
)
from repro.edb.records import Record, Schema, make_dummy_record
from repro.edb.store import arena_from_bytes, arena_to_bytes


@pytest.fixture
def cipher() -> RecordCipher:
    return RecordCipher(key=b"0" * 32)


class TestRecordCipher:
    def test_round_trip(self, cipher):
        record = Record(values={"a": 5, "b": "hello"}, arrival_time=9, table="t")
        encrypted = cipher.encrypt(record)
        decrypted = cipher.decrypt(encrypted)
        assert decrypted.values == record.values
        assert decrypted.arrival_time == record.arrival_time
        assert decrypted.is_dummy == record.is_dummy
        assert decrypted.table == record.table

    def test_round_trip_dummy(self, cipher):
        schema = Schema("t", ("a", "b"))
        dummy = make_dummy_record(schema, arrival_time=3)
        decrypted = cipher.decrypt(cipher.encrypt(dummy))
        assert decrypted.is_dummy

    def test_fixed_ciphertext_size(self, cipher):
        schema = Schema("t", ("a", "b"))
        real = Record(values={"a": 123456, "b": "payload-string"}, table="t")
        dummy = make_dummy_record(schema)
        sizes = {
            len(cipher.encrypt(real).ciphertext),
            len(cipher.encrypt(dummy).ciphertext),
            len(cipher.encrypt(Record(values={"x": 1})).ciphertext),
        }
        assert sizes == {CIPHERTEXT_SIZE}

    def test_same_plaintext_encrypts_differently(self, cipher):
        record = Record(values={"a": 1}, table="t")
        first = cipher.encrypt(record)
        second = cipher.encrypt(record)
        assert first.ciphertext != second.ciphertext

    def test_handles_are_unique(self, cipher):
        record = Record(values={"a": 1})
        handles = {cipher.encrypt(record).handle for _ in range(20)}
        assert len(handles) == 20

    def test_tampering_detected(self, cipher):
        record = Record(values={"a": 1})
        encrypted = cipher.encrypt(record)
        tampered_bytes = bytearray(encrypted.ciphertext)
        tampered_bytes[20] ^= 0xFF
        tampered = EncryptedRecord(ciphertext=bytes(tampered_bytes), handle=encrypted.handle)
        with pytest.raises(ValueError):
            cipher.decrypt(tampered)

    def test_wrong_key_fails_authentication(self):
        record = Record(values={"a": 1})
        alice = RecordCipher(key=b"a" * 32)
        bob = RecordCipher(key=b"b" * 32)
        encrypted = alice.encrypt(record)
        with pytest.raises(ValueError):
            bob.decrypt(encrypted)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            RecordCipher(key=b"short")

    def test_oversized_record_rejected(self, cipher):
        record = Record(values={"blob": "x" * 500})
        with pytest.raises(ValueError):
            cipher.encrypt(record)

    def test_invalid_ciphertext_length_rejected(self):
        with pytest.raises(ValueError):
            EncryptedRecord(ciphertext=b"too-short", handle=0)


class TestArenaBulkPaths:
    def _records(self, n: int, start: int = 0) -> list[Record]:
        return [
            Record(values={"a": start + i, "b": f"r{i}"}, arrival_time=i, table="t")
            for i in range(n)
        ]

    def test_bulk_encrypt_round_trips_through_single_decrypt(self, cipher):
        records = self._records(20)
        arena = CiphertextArena(initial_capacity=2)
        handles = cipher.encrypt_many_into(records, arena)
        assert handles == list(range(20))
        for view, record in zip(arena.records(), records):
            decrypted = cipher.decrypt(view)
            assert decrypted.values == record.values
            assert decrypted.arrival_time == record.arrival_time

    def test_decrypt_many_matches_per_record_decrypt(self, cipher):
        records = self._records(15)
        encrypted = cipher.encrypt_many(records)
        batch = cipher.decrypt_many(encrypted)
        singles = [cipher.decrypt(e) for e in encrypted]
        assert [r.values for r in batch] == [r.values for r in singles]

    def test_handles_continue_across_layouts(self, cipher):
        """Object-path and arena-path encryptions share one handle sequence."""
        first = cipher.encrypt(Record(values={"a": 1}))
        arena = CiphertextArena()
        handles = cipher.encrypt_many_into(self._records(3), arena)
        last = cipher.encrypt(Record(values={"a": 2}))
        assert first.handle == 0
        assert handles == [1, 2, 3]
        assert last.handle == 4
        assert [v.handle for v in arena.records()] == [1, 2, 3]

    def test_bulk_tampering_detected(self, cipher):
        arena = CiphertextArena()
        cipher.encrypt_many_into(self._records(4), arena)
        tampered = arena.as_array().copy()
        tampered[2, 40] ^= 0xFF
        fakes = [
            EncryptedRecord(ciphertext=row.tobytes(), handle=i)
            for i, row in enumerate(tampered)
        ]
        with pytest.raises(ValueError):
            cipher.decrypt_many(fakes)

    @pytest.mark.parametrize(
        "offset",
        [0, NONCE_SIZE + 5, NONCE_SIZE + PLAINTEXT_BLOCK_SIZE + 3],
        ids=["nonce", "body", "tag"],
    )
    def test_one_flipped_byte_in_any_region_fails(self, cipher, offset):
        arena = CiphertextArena()
        cipher.encrypt_many_into(self._records(3), arena)
        row = bytearray(arena.row(1))
        row[offset] ^= 0x01
        tampered = EncryptedRecord(ciphertext=bytes(row), handle=1)
        with pytest.raises(ValueError, match="authentication"):
            cipher.decrypt(tampered)
        with pytest.raises(ValueError, match="authentication"):
            cipher.decrypt_many([arena.record(0), tampered])

    def test_layouts_decrypt_through_each_others_path(self, cipher):
        """Arena rows open as objects and object ciphertexts open as rows."""
        records = self._records(5)
        arena = CiphertextArena()
        cipher.encrypt_many_into(records, arena)
        as_objects = [view.to_encrypted_record() for view in arena.records()]

        objects = cipher.encrypt_many(records)
        other = CiphertextArena()
        rows = other.reserve(len(objects))
        rows[:] = [np.frombuffer(e.ciphertext, dtype=np.uint8) for e in objects]
        other.set_handles(0, [e.handle for e in objects])

        expected = [r.values for r in records]
        assert [cipher.decrypt(e).values for e in as_objects] == expected
        assert [r.values for r in cipher.decrypt_many(other.records())] == expected

    def test_arena_views_are_zero_copy_and_fixed_size(self, cipher):
        arena = CiphertextArena()
        cipher.encrypt_many_into(self._records(2), arena)
        view = arena.record(0)
        assert isinstance(view, ArenaRecord)
        assert view.size_bytes == CIPHERTEXT_SIZE
        assert isinstance(view.ciphertext, memoryview)
        assert view.ciphertext.readonly
        assert view.to_encrypted_record() == view

    def test_empty_batch_is_a_no_op(self, cipher):
        arena = CiphertextArena()
        assert cipher.encrypt_many_into([], arena) == []
        assert cipher.decrypt_many([]) == []
        assert len(arena) == 0

    def test_oversized_record_rejected_before_any_arena_write(self, cipher):
        arena = CiphertextArena()
        bad = [Record(values={"a": 1}), Record(values={"blob": "x" * 500})]
        with pytest.raises(ValueError):
            cipher.encrypt_many_into(bad, arena)
        assert len(arena) == 0

    def test_arena_row_bounds_checked(self, cipher):
        arena = CiphertextArena()
        cipher.encrypt_many_into(self._records(1), arena)
        with pytest.raises(IndexError):
            arena.row(1)
        with pytest.raises(IndexError):
            arena.record(-1)

    def test_arena_doubles_capacity_and_compacts(self, cipher):
        arena = CiphertextArena(initial_capacity=1)
        cipher.encrypt_many_into(self._records(9), arena)
        assert arena.capacity == 16
        assert arena.grow_count >= 1
        arena.compact()
        assert arena.capacity == 9
        assert len(arena) == 9

    @given(
        batches=st.lists(st.integers(min_value=2, max_value=9), min_size=3, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_appends_survive_growth_compaction_and_round_trips(
        self, batches, data
    ):
        """One-record and batched appends, interleaved across capacity
        doublings, a compaction and a byte round trip, keep every row:
        each decrypts to its record under a distinct nonce, and the handles
        ascend.  A pickled arena takes further appends."""
        compact_at = data.draw(st.integers(0, len(batches) - 1), label="compact at")
        trip_at = data.draw(st.integers(0, len(batches) - 1), label="round trip at")
        cipher = RecordCipher(key=b"p" * 32)
        arena = CiphertextArena(initial_capacity=1)
        records: list[Record] = []

        def append(count: int) -> None:
            batch = self._records(count, start=len(records))
            assert len(cipher.encrypt_many_into(batch, arena)) == count
            records.extend(batch)

        for step, count in enumerate(batches):
            append(1)
            append(count)
            if step == compact_at:
                arena.compact()
                assert arena.capacity == len(arena)
            if step == trip_at:
                arena = arena_from_bytes(*arena_to_bytes(arena))
        append(1)
        append(batches[0])

        def assert_intact(arena: CiphertextArena, records: list[Record]) -> None:
            assert len(arena) == len(records)
            assert [cipher.decrypt(view).values for view in arena.records()] == [
                record.values for record in records
            ]
            handles = [arena.handle_at(index) for index in range(len(arena))]
            assert handles == sorted(set(handles))
            rows = arena.as_array()
            assert len({row[:NONCE_SIZE].tobytes() for row in rows}) == len(rows)

        assert_intact(arena, records)
        restored = pickle.loads(pickle.dumps(arena))
        assert_intact(restored, records)
        more = self._records(3, start=len(records))
        cipher.encrypt_many_into(more[:1], restored)
        cipher.encrypt_many_into(more[1:], restored)
        assert_intact(restored, records + more)
        assert_intact(arena, records)


class TestIndistinguishability:
    def test_dummy_vs_real_ciphertext_lengths_identical(self):
        """The server-observable footprint never depends on the dummy flag."""
        cipher = RecordCipher()
        schema = Schema("YellowCab", ("pickupID", "pickTime"))
        real = Record(values={"pickupID": 75, "pickTime": 120}, table=schema.name)
        dummy = make_dummy_record(schema)
        real_sizes = [cipher.encrypt(real).size_bytes for _ in range(10)]
        dummy_sizes = [cipher.encrypt(dummy).size_bytes for _ in range(10)]
        assert set(real_sizes) == set(dummy_sizes) == {CIPHERTEXT_SIZE}

    def test_ciphertext_bytes_look_uniform(self):
        """Byte-level sanity check: ciphertext bodies are not constant."""
        cipher = RecordCipher()
        record = Record(values={"a": 1})
        bodies = [cipher.encrypt(record).ciphertext for _ in range(5)]
        assert len({body[:64] for body in bodies}) == 5

    @given(
        pickup=st.integers(min_value=1, max_value=265),
        minute=st.integers(min_value=0, max_value=43_200),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_over_taxi_domain(self, pickup, minute):
        cipher = RecordCipher(key=b"k" * 32)
        record = Record(
            values={"pickupID": pickup, "pickTime": minute},
            arrival_time=minute,
            table="YellowCab",
        )
        decrypted = cipher.decrypt(cipher.encrypt(record))
        assert decrypted.values == {"pickupID": pickup, "pickTime": minute}


def _canonical(record: Record) -> str:
    payload = {
        "values": dict(record.values),
        "arrival_time": record.arrival_time,
        "is_dummy": record.is_dummy,
        "table": record.table,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _block(encoded: str) -> bytes:
    raw = encoded.encode()
    return len(raw).to_bytes(4, "big") + raw + b"\x00" * (PLAINTEXT_BLOCK_SIZE - 4 - len(raw))


class _Key(str):
    """A ``str`` subclass dictionary key."""


_SCALARS = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324]),
    st.booleans(),
    st.none(),
)


class TestCanonicalCodec:
    """``_serialize`` writes exactly the length-prefixed, zero-padded
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` form: the
    plaintext every stored row decrypts to."""

    @given(
        items=st.lists(
            st.tuples(st.text(max_size=8), _SCALARS), max_size=6, unique_by=lambda kv: kv[0]
        ),
        table=st.text(max_size=10),
        arrival=st.integers(min_value=0, max_value=2**40),
        is_dummy=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_codec_matches_json_dumps(self, items, table, arrival, is_dummy):
        # The list order is the record's key insertion order.
        record = Record(
            values=dict(items), arrival_time=arrival, is_dummy=is_dummy, table=table
        )
        encoded = _canonical(record)
        assert RecordCipher._record_json(record) == encoded
        if len(encoded.encode()) > PLAINTEXT_BLOCK_SIZE - 4:
            with pytest.raises(ValueError, match="exceeds"):
                RecordCipher._serialize(record)
        else:
            assert RecordCipher._serialize(record) == _block(encoded)

    def test_equal_keys_in_any_order_share_one_plaintext(self):
        forward = Record(values={"b": 1, "a": "x", "c": None}, table="T")
        backward = Record(values={"c": None, "a": "x", "b": 1}, table="T")
        assert RecordCipher._serialize(forward) == RecordCipher._serialize(backward)
        assert RecordCipher._serialize(forward) == _block(_canonical(forward))

    @pytest.mark.parametrize(
        "values",
        [
            {"v": float("nan")},
            {"v": float("inf"), "w": 1},
            {"v": -float("inf")},
            {"v": np.float64(2.5)},
            {"v": np.str_("numpy")},
            {1: "int key", 2: 3},
            {_Key("a"): 1, "b": 2},
            {"a": 1, "nested": [1, 2]},
        ],
        ids=["nan", "inf", "-inf", "np.float64", "np.str_", "int-keys", "str-subclass-key", "list"],
    )
    def test_fallback_records_round_trip_through_an_arena(self, cipher, values):
        # A plain record with the same key text compiles its layout first,
        # so a str-subclass key must still take the fallback.
        plain = Record(values={"a": 1, "b": 2}, arrival_time=3, table="T")
        odd = Record(values=values, arrival_time=3, table="T")
        assert RecordCipher._record_json(plain) == _canonical(plain)
        assert RecordCipher._record_json(odd) is None
        assert RecordCipher._serialize(odd) == _block(_canonical(odd))
        arena = CiphertextArena()
        cipher.encrypt_many_into([plain, odd, plain], arena)
        decrypted = [cipher.decrypt(view) for view in arena.records()]
        # The decrypted form of any record is what its canonical JSON parses to.
        assert [_canonical(r) for r in decrypted] == [
            _canonical(plain),
            json.dumps(json.loads(_canonical(odd)), sort_keys=True, separators=(",", ":")),
            _canonical(plain),
        ]
