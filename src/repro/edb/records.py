"""Plaintext records, schemas and dummy records.

DP-Sync treats the outsourced database as *atomic*: every logical record is
encrypted independently into one ciphertext.  Records here are small immutable
objects carrying a field dictionary plus bookkeeping used by the framework:

* ``arrival_time`` -- the time unit at which the owner received the record
  (drives the update-pattern analysis and the logical-gap metric);
* ``is_dummy`` -- whether the record is a dummy inserted purely to pad an
  update volume.  Dummy records are indistinguishable from real ones once
  encrypted (see :mod:`repro.edb.crypto`) and are filtered out of query
  answers by the dummy-aware query rewriting (Appendix B).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "DUMMY_SENTINEL",
    "Schema",
    "Record",
    "SchemaDummyFactory",
    "make_dummy_record",
    "count_real",
    "count_dummy",
]

#: Value stored in every field of a dummy record.  It is outside the domain of
#: all real attributes used by the paper's workloads (pickup ids are >= 1,
#: timestamps are >= 0), so a dummy can never accidentally satisfy a filter
#: even without rewriting -- rewriting is still applied, matching Appendix B.
DUMMY_SENTINEL: int = -1

_record_counter = itertools.count()


@dataclass(frozen=True)
class Schema:
    """A named, ordered collection of attributes for a single table.

    Attributes
    ----------
    name:
        Table name (e.g. ``"YellowCab"``).
    attributes:
        Ordered tuple of attribute names.  The implicit ``isDummy`` attribute
        used by query rewriting is *not* listed here; it lives on the record
        object itself.
    key:
        Optional attribute used as the table's natural key.
    """

    name: str
    attributes: tuple[str, ...]
    key: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("schema name must be non-empty")
        if not self.attributes:
            raise ValueError("schema must declare at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attributes in schema {self.name!r}")
        if self.key is not None and self.key not in self.attributes:
            raise ValueError(
                f"key {self.key!r} is not an attribute of schema {self.name!r}"
            )
        # Not a field: equality, hashing and repr ignore it, and pickles
        # leave it out (``__getstate__``).
        object.__setattr__(self, "_attribute_set", frozenset(self.attributes))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_attribute_set"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_attribute_set", frozenset(self.attributes))

    def validate(self, values: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` if ``values`` does not match the schema."""
        if values.keys() == self._attribute_set:
            return
        missing = [a for a in self.attributes if a not in values]
        if missing:
            raise ValueError(f"record is missing attributes {missing} for {self.name}")
        extra = [a for a in values if a not in self.attributes]
        if extra:
            raise ValueError(f"record has unknown attributes {extra} for {self.name}")


@dataclass(frozen=True)
class Record:
    """A single (plaintext) record of a growing database.

    Records compare by identity of their ``record_id`` which is assigned at
    construction time; two records with equal field values are still distinct
    rows, matching relational bag semantics.
    """

    values: Mapping[str, Any]
    arrival_time: int = 0
    is_dummy: bool = False
    table: str = ""
    record_id: int = field(default_factory=lambda: next(_record_counter))

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        # Freeze the mapping so records are safely hashable/shareable.
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, attribute: str) -> Any:
        return self.values[attribute]

    def get(self, attribute: str, default: Any = None) -> Any:
        """Dictionary-style access with a default."""
        return self.values.get(attribute, default)

    def __hash__(self) -> int:
        return hash(self.record_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.record_id == other.record_id

    def with_values(self, **overrides: Any) -> "Record":
        """Return a copy with some field values replaced (new record id)."""
        new_values = dict(self.values)
        new_values.update(overrides)
        return Record(
            values=new_values,
            arrival_time=self.arrival_time,
            is_dummy=self.is_dummy,
            table=self.table,
        )


def make_dummy_record(schema: Schema, arrival_time: int = 0) -> Record:
    """Create a dummy record conforming to ``schema``.

    Every attribute is set to :data:`DUMMY_SENTINEL`.  The record carries
    ``is_dummy=True`` so that dummy-aware query rewriting can exclude it.
    """
    values = {attribute: DUMMY_SENTINEL for attribute in schema.attributes}
    return Record(
        values=values,
        arrival_time=arrival_time,
        is_dummy=True,
        table=schema.name,
    )


@dataclass(frozen=True)
class SchemaDummyFactory:
    """Picklable ``dummy_factory`` callable bound to one schema.

    Strategies hold their dummy factory for the lifetime of a run; binding
    the schema with a lambda would make the whole strategy state unpicklable,
    which the durable store (``repro.edb.store``) relies on for
    kill-and-resume snapshots.
    """

    schema: Schema

    def __call__(self, arrival_time: int = 0) -> Record:
        return make_dummy_record(self.schema, arrival_time)


def count_real(records: Iterable[Record]) -> int:
    """Number of non-dummy records in ``records``."""
    return sum(1 for record in records if not record.is_dummy)


def count_dummy(records: Iterable[Record]) -> int:
    """Number of dummy records in ``records``."""
    return sum(1 for record in records if record.is_dummy)
