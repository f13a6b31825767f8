"""Tests for the EncryptedDatabase base protocol and the two back-ends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.edb.base import EncryptedDatabase, UnsupportedQueryError
from repro.edb.cost_model import OBLIDB_COSTS
from repro.edb.crypte import CryptEpsilon
from repro.edb.leakage import LeakageClass
from repro.edb.oblidb import ObliDB
from repro.edb.records import Record, Schema, make_dummy_record
from repro.query.ast import CountQuery, GroupByCountQuery, JoinCountQuery
from repro.query.predicates import RangePredicate

SCHEMA = Schema("YellowCab", ("pickupID", "pickTime"))
GREEN = Schema("GreenTaxi", ("pickupID", "pickTime"))


def make_records(n: int, table: Schema = SCHEMA, start: int = 1) -> list[Record]:
    return [
        Record(
            values={"pickupID": (i % 265) + 1, "pickTime": start + i},
            arrival_time=start + i,
            table=table.name,
        )
        for i in range(n)
    ]


Q1 = CountQuery("YellowCab", RangePredicate("pickupID", 50, 100), label="Q1")
Q2 = GroupByCountQuery("YellowCab", "pickupID", label="Q2")
Q3 = JoinCountQuery("YellowCab", "GreenTaxi", "pickTime", "pickTime", label="Q3")


class TestProtocolLifecycle:
    def test_update_before_setup_raises(self):
        edb = ObliDB()
        with pytest.raises(RuntimeError):
            edb.update(make_records(1), time=1)

    def test_query_before_setup_raises(self):
        edb = ObliDB()
        with pytest.raises(RuntimeError):
            edb.query(Q1)

    def test_double_setup_raises(self):
        edb = ObliDB()
        edb.setup(make_records(2))
        with pytest.raises(RuntimeError):
            edb.setup(make_records(2))

    def test_setup_then_update_then_query(self):
        edb = ObliDB()
        edb.setup(make_records(5))
        edb.update(make_records(3, start=10), time=10)
        result = edb.query(Q2, time=10)
        assert sum(result.answer.values()) == 8
        assert edb.outsourced_count == 8
        assert edb.real_count == 8

    def test_update_history_is_the_update_pattern(self):
        edb = ObliDB()
        edb.setup(make_records(4))
        edb.update(make_records(2, start=10), time=10)
        edb.update(make_records(3, start=20), time=20)
        history = edb.update_history
        assert [h.time for h in history] == [0, 10, 20]
        assert [h.total_added for h in history] == [4, 2, 3]

    def test_dummy_accounting(self):
        edb = ObliDB()
        dummies = [make_dummy_record(SCHEMA, t) for t in range(3)]
        edb.setup(make_records(5) + dummies)
        assert edb.outsourced_count == 8
        assert edb.dummy_count == 3
        assert edb.real_count == 5
        assert edb.table_dummy_count("YellowCab") == 3

    def test_storage_bytes_grow_with_records(self):
        edb = ObliDB()
        edb.setup(make_records(10))
        assert edb.storage_bytes == pytest.approx(10 * OBLIDB_COSTS.record_storage_bytes)

    def test_simulated_encryption_stores_ciphertexts(self):
        edb = ObliDB(simulate_encryption=True)
        edb.setup(make_records(4))
        ciphertexts = edb.ciphertexts("YellowCab")
        assert len(ciphertexts) == 4
        sizes = {c.size_bytes for c in ciphertexts}
        assert len(sizes) == 1  # fixed ciphertext size

    def test_encryption_disabled_stores_no_ciphertexts(self):
        edb = ObliDB(simulate_encryption=False)
        edb.setup(make_records(4))
        assert edb.ciphertexts("YellowCab") == ()


def _oversized(table: Schema = SCHEMA) -> Record:
    """A record whose serialization overflows the fixed plaintext block."""
    return Record(
        values={"pickupID": "x" * 400, "pickTime": 0}, arrival_time=1, table=table.name
    )


def _observables(edb: ObliDB) -> tuple:
    arenas = [edb.ciphertext_arena(table) for table in (SCHEMA.name, GREEN.name)]
    answers = (
        tuple(edb.query(q, time=5).answer for q in (Q1, Q2, Q3)) if edb.is_setup else None
    )
    return (
        edb.is_setup,
        edb.outsourced_count,
        edb.dummy_count,
        edb.table_size(SCHEMA.name),
        edb.table_size(GREEN.name),
        edb.table_dummy_count(SCHEMA.name),
        edb.table_dummy_count(GREEN.name),
        edb.storage_bytes,
        edb.update_history,
        [None if arena is None else len(arena) for arena in arenas],
        answers,
    )


class TestRejectedIngest:
    """A Setup or Update that raises changes nothing: every record is
    validated (serialized) before any state is written."""

    @pytest.mark.parametrize(
        "ingest",
        [
            lambda edb: edb.update(make_records(1, start=7) + [_oversized()], time=7),
            lambda edb: edb.insert_many(
                {SCHEMA.name: make_records(1, start=7) + [_oversized()]}, time=7
            ),
            lambda edb: edb.insert_many(
                {
                    SCHEMA.name: make_records(2, start=7),
                    GREEN.name: [_oversized(GREEN)],
                },
                time=7,
            ),
            lambda edb: edb.insert_many(
                {
                    GREEN.name: make_records(2, GREEN, start=7),
                    SCHEMA.name: [
                        make_dummy_record(SCHEMA, 7),
                        Record(
                            values={"pickupID": 9, "pickTime": 7, "extra": 1},
                            arrival_time=7,
                            table=SCHEMA.name,
                        ),
                    ],
                    "BlueTaxi": [_oversized(Schema("BlueTaxi", ("pickupID",)))],
                },
                time=7,
            ),
            lambda edb: edb.insert_many({SCHEMA.name: [_oversized()]}, time=7),
            lambda edb: edb.insert_many({GREEN.name: [_oversized(GREEN)]}, time=7),
        ],
        ids=[
            "update",
            "insert_many",
            "insert_many-two-tables",
            "insert_many-three-tables",
            "insert_many-one-record",
            "insert_many-one-record-no-arena",
        ],
    )
    def test_rejected_update_leaves_every_observable(self, ingest):
        edb = ObliDB(simulate_encryption=True)
        edb.setup(make_records(2) + [make_dummy_record(SCHEMA, 0)])
        before = _observables(edb)
        with pytest.raises(ValueError, match="exceeds"):
            ingest(edb)
        assert _observables(edb) == before
        assert edb.ciphertext_arena(GREEN.name) is None
        edb.insert_many({SCHEMA.name: make_records(1, start=8)}, time=8)
        assert edb.outsourced_count == len(edb.ciphertexts(SCHEMA.name)) == 4

    def test_rejected_setup_can_be_retried(self):
        edb = ObliDB(simulate_encryption=True)
        before = _observables(edb)
        with pytest.raises(ValueError, match="exceeds"):
            edb.setup(make_records(2) + [_oversized(GREEN)])
        assert _observables(edb) == before
        assert not edb.is_setup
        edb.setup(make_records(2))
        assert edb.is_setup
        assert edb.outsourced_count == len(edb.ciphertexts(SCHEMA.name)) == 2
        assert [h.total_added for h in edb.update_history] == [2]


class TestObliDB:
    def test_leakage_profile_is_l0_and_compatible(self):
        edb = ObliDB()
        profile = edb.leakage_profile
        assert profile.query_class is LeakageClass.L0
        assert profile.is_dpsync_compatible()

    def test_answers_are_exact_over_real_records(self):
        edb = ObliDB()
        records = make_records(50)
        edb.setup(records)
        expected = sum(1 for r in records if 50 <= r["pickupID"] <= 100)
        assert edb.query(Q1).answer == expected

    def test_dummies_do_not_change_answers(self):
        edb = ObliDB()
        records = make_records(50)
        dummies = [make_dummy_record(SCHEMA, t) for t in range(30)]
        edb.setup(records + dummies)
        expected = sum(1 for r in records if 50 <= r["pickupID"] <= 100)
        assert edb.query(Q1).answer == expected

    def test_dummies_do_increase_qet(self):
        lean = ObliDB()
        lean.setup(make_records(50))
        padded = ObliDB()
        padded.setup(make_records(50) + [make_dummy_record(SCHEMA, t) for t in range(200)])
        assert padded.query(Q2).qet_seconds > lean.query(Q2).qet_seconds

    def test_join_query_over_two_tables(self):
        edb = ObliDB()
        yellow = make_records(30)
        green = [
            Record(
                values={"pickupID": 1, "pickTime": r["pickTime"]},
                arrival_time=r.arrival_time,
                table="GreenTaxi",
            )
            for r in yellow[:12]
        ]
        edb.setup(yellow + green)
        assert edb.query(Q3).answer == 12


class TestCryptEpsilon:
    def test_leakage_profile_is_ldp_and_compatible(self):
        edb = CryptEpsilon()
        assert edb.leakage_profile.query_class is LeakageClass.LDP
        assert edb.leakage_profile.is_dpsync_compatible()

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            CryptEpsilon(query_epsilon=0.0)

    def test_answers_are_noisy_but_close(self):
        edb = CryptEpsilon(query_epsilon=3.0, rng=np.random.default_rng(2))
        records = make_records(200)
        edb.setup(records)
        expected = sum(1 for r in records if 50 <= r["pickupID"] <= 100)
        result = edb.query(Q1)
        assert result.noise_injected
        assert abs(result.answer - expected) <= 10

    def test_noise_scale_depends_on_query_epsilon(self):
        tight_errors = []
        loose_errors = []
        records = make_records(100)
        expected = sum(1 for r in records if 50 <= r["pickupID"] <= 100)
        for seed in range(40):
            tight = CryptEpsilon(query_epsilon=10.0, rng=np.random.default_rng(seed))
            tight.setup(make_records(100))
            tight_errors.append(abs(tight.query(Q1).answer - expected))
            loose = CryptEpsilon(query_epsilon=0.2, rng=np.random.default_rng(seed))
            loose.setup(make_records(100))
            loose_errors.append(abs(loose.query(Q1).answer - expected))
        assert sum(loose_errors) > sum(tight_errors)

    def test_grouped_answers_are_noisy_per_group(self):
        edb = CryptEpsilon(query_epsilon=3.0, rng=np.random.default_rng(3))
        edb.setup(make_records(150))
        answer = edb.query(Q2).answer
        assert isinstance(answer, dict)
        assert all(v >= 0 for v in answer.values())

    def test_join_unsupported(self):
        edb = CryptEpsilon()
        edb.setup(make_records(5))
        assert not edb.supports(Q3)
        with pytest.raises(UnsupportedQueryError):
            edb.query(Q3)

    def test_answers_never_negative(self):
        edb = CryptEpsilon(query_epsilon=0.05, rng=np.random.default_rng(4))
        edb.setup(make_records(3))
        for _ in range(30):
            assert edb.query(Q1).answer >= 0

    def test_unrounded_answers_supported(self):
        edb = CryptEpsilon(round_answers=False, rng=np.random.default_rng(5))
        edb.setup(make_records(20))
        assert isinstance(edb.query(Q1).answer, float)


class TestSharedEDBMultiTable:
    def test_two_tables_share_one_edb(self):
        edb = ObliDB()
        yellow = make_records(10)
        edb.setup(yellow)
        green = [
            Record(
                values={"pickupID": 3, "pickTime": 100 + i},
                arrival_time=100 + i,
                table="GreenTaxi",
            )
            for i in range(7)
        ]
        edb.update(green, time=1)
        assert edb.table_size("YellowCab") == 10
        assert edb.table_size("GreenTaxi") == 7
        assert edb.outsourced_count == 17
