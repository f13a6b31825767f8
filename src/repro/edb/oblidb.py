"""ObliDB-style L-0 encrypted database simulator.

ObliDB (Eskandarian & Zaharia) runs SQL operators inside an SGX enclave and
hides access patterns by either scanning flat tables obliviously or storing
them in an ORAM.  For DP-Sync it is the representative of the **L-0** leakage
group: queries leak neither access patterns nor response volumes, so dummy
records can never be identified through the query protocol.

The simulator reproduces the observable behaviour that matters to DP-Sync:

* every outsourced record (real or dummy) occupies one fixed-size ciphertext;
* queries are answered exactly (no noise), after the dummy-aware rewriting of
  Appendix B, so query error is caused solely by records the owner has not
  yet synchronized;
* query time is charged for touching *every* outsourced record (flat mode) or
  every ORAM path (indexed mode), so QET grows with the dummy count;
* an optional :class:`~repro.edb.oram.PathORAM` per table (array-backed,
  one combined eviction per batch) demonstrates the oblivious storage layer
  and is exercised by the obliviousness tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.edb.base import EncryptedDatabase
from repro.edb.cost_model import OBLIDB_COSTS, CostParameters
from repro.edb.leakage import LeakageClass
from repro.edb.oram import PathORAM
from repro.edb.records import Record

__all__ = ["ObliDB"]


class ObliDB(EncryptedDatabase):
    """Simulated ObliDB back-end (L-0: access-pattern and volume hiding).

    Parameters
    ----------
    storage_mode:
        ``"flat"`` (default) models ObliDB's oblivious full-scan operators;
        ``"oram"`` additionally stores every ciphertext in a Path ORAM and
        charges the ORAM factor on queries.
    oram_capacity:
        Capacity of each per-table ORAM when ``storage_mode="oram"``.
    simulate_encryption:
        Forwarded to :class:`repro.edb.base.EncryptedDatabase`.
    """

    def __init__(
        self,
        storage_mode: str = "flat",
        oram_capacity: int = 65_536,
        simulate_encryption: bool = False,
        cost_parameters: CostParameters = OBLIDB_COSTS,
        rng: np.random.Generator | None = None,
    ) -> None:
        if storage_mode not in ("flat", "oram"):
            raise ValueError(f"storage_mode must be 'flat' or 'oram', got {storage_mode!r}")
        super().__init__(
            cost_parameters=cost_parameters,
            scheme_name="ObliDB",
            query_leakage_class=LeakageClass.L0,
            simulate_encryption=simulate_encryption,
            rng=rng,
        )
        self._storage_mode = storage_mode
        self._oram_capacity = oram_capacity
        self._orams: dict[str, PathORAM] = {}
        self._next_block_id = 0

    @property
    def storage_mode(self) -> str:
        """Either ``"flat"`` or ``"oram"``."""
        return self._storage_mode

    def oram_for(self, table: str) -> PathORAM | None:
        """The per-table ORAM, or ``None`` in flat mode / unknown table."""
        return self._orams.get(table)

    def _on_records_stored(self, table: str, records: Sequence[Record]) -> None:
        if self._storage_mode != "oram":
            return
        oram = self._orams.get(table)
        if oram is None:
            oram = self._orams[table] = PathORAM(
                capacity=self._oram_capacity, rng=self._rng
            )
        start = self._next_block_id
        self._next_block_id += len(records)
        oram.write_many(
            (start + offset, record) for offset, record in enumerate(records)
        )
