"""Encrypted-database substrate.

DP-Sync does not modify the encrypted database (EDB) it runs on top of; it
only constrains the owner's synchronization behaviour.  To evaluate the
framework end to end this package provides the EDB side of the system:

* :mod:`repro.edb.records` -- plaintext records, schemas and dummy records.
* :mod:`repro.edb.crypto` -- simulated record-level semantically-secure
  encryption; real and dummy records are indistinguishable once encrypted.
* :mod:`repro.edb.leakage` -- the leakage classification of Section 6
  (L-0 / L-DP / L-1 / L-2) and the scheme registry behind Table 3.
* :mod:`repro.edb.oram` -- a Path ORAM simulator used by the L-0 back-end.
* :mod:`repro.edb.base` -- the ``Setup`` / ``Update`` / ``Query`` protocol
  interface (Definition 1) shared by all back-ends.
* :mod:`repro.edb.oblidb` -- an ObliDB-style L-0 (access-pattern and
  volume-hiding) back-end.
* :mod:`repro.edb.crypte` -- a Crypt-epsilon-style L-DP back-end that answers
  queries with differentially-private noise.
* :mod:`repro.edb.cost_model` -- the query-execution-time model calibrated to
  the paper's testbed.
* :mod:`repro.edb.router` -- :class:`ShardRouter`, hash-partitioning one
  logical EDB across K independent back-end shards with scatter-gather
  queries and aggregated update-pattern leakage.
"""

from repro.edb.records import (
    DUMMY_SENTINEL,
    Record,
    Schema,
    make_dummy_record,
)
from repro.edb.crypto import EncryptedRecord, RecordCipher
from repro.edb.leakage import (
    LeakageClass,
    LeakageProfile,
    SchemeInfo,
    classify_scheme,
    compatible_with_dpsync,
    leakage_group_table,
)
from repro.edb.base import EncryptedDatabase, QueryResult, UpdateResult
from repro.edb.oram import PathORAM
from repro.edb.oblidb import ObliDB
from repro.edb.crypte import CryptEpsilon
from repro.edb.router import ShardRouter
from repro.edb.cost_model import CostModel, CostParameters

__all__ = [
    "CostModel",
    "CostParameters",
    "CryptEpsilon",
    "DUMMY_SENTINEL",
    "EncryptedDatabase",
    "EncryptedRecord",
    "LeakageClass",
    "LeakageProfile",
    "ObliDB",
    "PathORAM",
    "QueryResult",
    "Record",
    "RecordCipher",
    "Schema",
    "SchemeInfo",
    "ShardRouter",
    "UpdateResult",
    "classify_scheme",
    "compatible_with_dpsync",
    "leakage_group_table",
    "make_dummy_record",
]
