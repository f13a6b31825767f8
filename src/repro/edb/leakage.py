"""Leakage classification of encrypted databases (Section 6, Table 3).

DP-Sync is only meaningful when the underlying encrypted database does not
re-leak, through its query protocol, the very information that the
differentially-private synchronization hides.  The paper therefore groups
existing schemes into four leakage classes based on what the *query* protocol
reveals:

* ``L0``  -- response-volume hiding (oblivious access + hidden volumes);
* ``LDP`` -- reveals only differentially-private response volumes;
* ``L1``  -- hides access patterns but reveals exact response volumes;
* ``L2``  -- reveals exact access patterns (and volumes).

L-0 and L-DP schemes are directly compatible with DP-Sync; L-1 schemes need a
volume-hiding add-on (padding / pseudorandom transformation); L-2 schemes are
incompatible.  This module encodes that classification plus the concrete
scheme registry behind Table 3, and a small update-leakage profile type used
by the EDB back-ends to declare what their update protocol reveals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "LeakageClass",
    "SchemeInfo",
    "LeakageProfile",
    "SCHEME_REGISTRY",
    "leakage_group_table",
    "classify_scheme",
    "compatible_with_dpsync",
    "update_pattern_observables",
]


class LeakageClass(enum.Enum):
    """Query-leakage class of an encrypted database scheme."""

    L0 = "L-0"
    LDP = "L-DP"
    L1 = "L-1"
    L2 = "L-2"

    @property
    def description(self) -> str:
        """Human readable description used when rendering Table 3."""
        return {
            LeakageClass.L0: "Response volume hiding (oblivious, hidden volumes)",
            LeakageClass.LDP: "Reveals differentially-private response volume",
            LeakageClass.L1: "Hides access pattern, reveals exact response volume",
            LeakageClass.L2: "Reveals exact access pattern",
        }[self]


@dataclass(frozen=True)
class SchemeInfo:
    """Registry entry for an existing encrypted-database scheme."""

    name: str
    leakage_class: LeakageClass
    supports_updates: bool = True
    atomic_encryption: bool = True
    supports_dummy_records: bool = True
    notes: str = ""


#: The scheme registry behind Table 3 of the paper.
SCHEME_REGISTRY: tuple[SchemeInfo, ...] = (
    SchemeInfo("VLH/AVLH", LeakageClass.L0, notes="volume-hiding structured encryption"),
    SchemeInfo("ObliDB", LeakageClass.L0, notes="SGX + ORAM oblivious operators"),
    SchemeInfo("SEAL (adjustable leakage)", LeakageClass.L0),
    SchemeInfo("Opaque", LeakageClass.L0, notes="oblivious distributed analytics"),
    SchemeInfo("CSAGR19", LeakageClass.L0, notes="controllable leakage searchable DB"),
    SchemeInfo("dp-MM", LeakageClass.LDP, notes="DP volume-hiding multi-maps"),
    SchemeInfo("Hermetic", LeakageClass.LDP),
    SchemeInfo("KKNO17", LeakageClass.LDP, notes="DP access-pattern protection"),
    SchemeInfo("Crypt-epsilon", LeakageClass.LDP, notes="crypto-assisted DP queries"),
    SchemeInfo("AHKM19", LeakageClass.LDP, notes="encrypted databases for DP"),
    SchemeInfo("Shrinkwrap", LeakageClass.LDP, notes="DP intermediate result sizes"),
    SchemeInfo("PPQED_a", LeakageClass.L1, notes="HE-based predicate evaluation"),
    SchemeInfo("StealthDB", LeakageClass.L1),
    SchemeInfo("SisoSPIR", LeakageClass.L1, notes="ORAM-based, volume leaking"),
    SchemeInfo("CryptDB", LeakageClass.L2, notes="deterministic/OPE encryption"),
    SchemeInfo("Cipherbase", LeakageClass.L2),
    SchemeInfo("Arx", LeakageClass.L2),
    SchemeInfo("HardIDX", LeakageClass.L2),
    SchemeInfo("EnclaveDB", LeakageClass.L2),
)


@dataclass(frozen=True)
class LeakageProfile:
    """What a concrete EDB instance leaks, per protocol.

    DP-Sync's compatibility constraint (P4) requires the *update* protocol's
    leakage to be a function of the update pattern only -- captured by
    ``update_leaks_only_pattern``.  The query-side class determines whether
    dummy-record counts can be inferred through queries.
    """

    scheme: str
    query_class: LeakageClass
    update_leaks_only_pattern: bool = True
    reveals_exact_volume: bool = False
    reveals_access_pattern: bool = False

    def is_dpsync_compatible(self) -> bool:
        """Whether DP-Sync can run on top of this profile unmodified."""
        if not self.update_leaks_only_pattern:
            return False
        if self.reveals_access_pattern:
            return False
        return self.query_class in (LeakageClass.L0, LeakageClass.LDP)


def update_pattern_observables(update_history) -> tuple[tuple[int, int], ...]:
    """Canonical server-observable update pattern of a run: ``((t, |γ_t|), ...)``.

    Takes any sequence of Setup/Update outcomes exposing ``time`` and
    ``total_added`` (e.g. :attr:`repro.edb.base.EncryptedDatabase.update_history`)
    and projects it to exactly what a P4-compliant update protocol leaks: the
    invocation times and volumes, nothing else.  Batched ingestion is
    accounted identically to sequential ingestion -- one ``(time, volume)``
    pair per Update invocation regardless of how the records were moved --
    so the columnar EDB and its row-interpreter oracle
    (:func:`repro.testing.reference.row_interpreter`) produce equal
    observables by construction; the differential suite compares runs
    through this projection.
    """
    return tuple(
        (int(entry.time), int(entry.total_added)) for entry in update_history
    )


def leakage_group_table() -> dict[LeakageClass, list[str]]:
    """Return Table 3: leakage group -> list of scheme names."""
    table: dict[LeakageClass, list[str]] = {cls: [] for cls in LeakageClass}
    for scheme in SCHEME_REGISTRY:
        table[scheme.leakage_class].append(scheme.name)
    return table


def classify_scheme(name: str) -> LeakageClass:
    """Look up the leakage class of a registered scheme by (case-insensitive) name."""
    lowered = name.lower()
    for scheme in SCHEME_REGISTRY:
        if scheme.name.lower() == lowered:
            return scheme.leakage_class
    raise KeyError(f"unknown encrypted database scheme: {name!r}")


def compatible_with_dpsync(scheme: SchemeInfo | str) -> bool:
    """Section 6 compatibility rule.

    L-0 and L-DP schemes are directly compatible.  L-1 schemes require
    additional volume-hiding measures, and L-2 schemes are incompatible, so
    both return ``False`` here.  The scheme must also support updates and use
    atomic per-record encryption (P4 constraints).
    """
    if isinstance(scheme, str):
        info = next(
            (s for s in SCHEME_REGISTRY if s.name.lower() == scheme.lower()), None
        )
        if info is None:
            raise KeyError(f"unknown encrypted database scheme: {scheme!r}")
        scheme = info
    if not scheme.supports_updates or not scheme.atomic_encryption:
        return False
    return scheme.leakage_class in (LeakageClass.L0, LeakageClass.LDP)
