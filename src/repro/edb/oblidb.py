"""ObliDB-style L-0 encrypted database simulator.

ObliDB (Eskandarian & Zaharia) runs SQL operators inside an SGX enclave and
hides access patterns by scanning flat tables obliviously.  For DP-Sync it
is the representative of the **L-0** leakage group: queries leak neither
access patterns nor response volumes, so dummy records can never be
identified through the query protocol.

The simulator reproduces the observable behaviour that matters to DP-Sync:

* every outsourced record (real or dummy) occupies one fixed-size ciphertext
  in a flat, append-only per-table arena;
* queries are answered exactly (no noise), after the dummy-aware rewriting of
  Appendix B, so query error is caused solely by records the owner has not
  yet synchronized;
* query time is charged for touching *every* outsourced record (an oblivious
  full scan), so QET grows with the dummy count.
"""

from __future__ import annotations

from repro.edb.base import EncryptedDatabase
from repro.edb.cost_model import OBLIDB_COSTS, CostParameters
from repro.edb.leakage import LeakageClass

__all__ = ["ObliDB"]


class ObliDB(EncryptedDatabase):
    """Simulated ObliDB back-end (L-0: access-pattern and volume hiding).

    Parameters
    ----------
    simulate_encryption:
        Forwarded to :class:`repro.edb.base.EncryptedDatabase`.
    """

    def __init__(
        self,
        simulate_encryption: bool = False,
        cost_parameters: CostParameters = OBLIDB_COSTS,
    ) -> None:
        super().__init__(
            cost_parameters=cost_parameters,
            scheme_name="ObliDB",
            query_leakage_class=LeakageClass.L0,
            simulate_encryption=simulate_encryption,
        )
