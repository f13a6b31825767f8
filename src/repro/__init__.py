"""DP-Sync reproduction: hiding update patterns in secure outsourced databases.

This library reproduces the system and evaluation of *DP-Sync: Hiding Update
Patterns in Secure Outsourced Databases with Differential Privacy* (Wang,
Bater, Nayak, Machanavajjhala -- SIGMOD 2021).

Quickstart
----------

>>> import numpy as np
>>> from repro import DPSync, ObliDB, Schema
>>> schema = Schema("events", ("sensor_id", "value"))
>>> dpsync = DPSync(schema, edb=ObliDB(), strategy="dp-timer",
...                 epsilon=0.5, period=30, rng=np.random.default_rng(0))
>>> dpsync.start([])
>>> for t in range(1, 101):
...     update = {"sensor_id": t % 5, "value": t} if t % 3 == 0 else None
...     _ = dpsync.receive(t, update)
>>> observation = dpsync.query("SELECT COUNT(*) FROM events")

The subpackages are organised as:

* :mod:`repro.core` -- the DP-Sync framework (strategies, owner, analyst);
* :mod:`repro.dp` -- differential-privacy mechanisms, composition and bounds;
* :mod:`repro.edb` -- encrypted-database substrate (ObliDB / Crypt-epsilon
  simulators, ciphertext arenas, leakage classification);
* :mod:`repro.query` -- predicates, relational plans, dummy-aware rewriting,
  execution and a small SQL front-end;
* :mod:`repro.engine` -- the segment engine the simulator runs on (each
  owner advances a whole query interval at a time);
* :mod:`repro.fleet` -- multi-owner deployments: the fleet coordinator over
  a (possibly sharded, see :class:`repro.edb.router.ShardRouter`) EDB;
* :mod:`repro.workload` -- growing databases, arrival processes and the NYC
  taxi workloads;
* :mod:`repro.simulation` -- the experiment harness behind every table and
  figure of the paper;
* :mod:`repro.analysis` -- bound checks, trade-off summaries and the
  update-pattern inference attack.
"""

from repro.core.framework import DPSync
from repro.core.cache import CacheMode, LocalCache
from repro.core.analyst import Analyst, AnalystObservation
from repro.core.owner import Owner
from repro.core.update_pattern import UpdateEvent, UpdatePattern
from repro.core.strategies import (
    DPANTStrategy,
    DPTimerStrategy,
    FlushPolicy,
    OTOStrategy,
    SETStrategy,
    SURStrategy,
    SyncDecision,
    SyncStrategy,
    make_strategy,
)
from repro.edb import (
    CryptEpsilon,
    EncryptedDatabase,
    LeakageClass,
    ObliDB,
    Record,
    Schema,
    ShardRouter,
    make_dummy_record,
)
from repro.engine import Engine
from repro.fleet import Deployment
from repro.query import (
    CountQuery,
    GroupByCountQuery,
    JoinCountQuery,
    Query,
    parse_query,
)
from repro.query.incremental import IncrementalTruth
from repro.workload import GrowingDatabase, generate_green_taxi, generate_yellow_cab
from repro.simulation import (
    EndToEndConfig,
    RunResult,
    Simulation,
    SimulationConfig,
    run_end_to_end,
    run_parameter_sweep,
    run_privacy_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "Analyst",
    "AnalystObservation",
    "CacheMode",
    "CountQuery",
    "CryptEpsilon",
    "DPANTStrategy",
    "DPSync",
    "Deployment",
    "DPTimerStrategy",
    "EncryptedDatabase",
    "EndToEndConfig",
    "Engine",
    "FlushPolicy",
    "GroupByCountQuery",
    "GrowingDatabase",
    "IncrementalTruth",
    "JoinCountQuery",
    "LeakageClass",
    "LocalCache",
    "OTOStrategy",
    "ObliDB",
    "Owner",
    "Query",
    "Record",
    "RunResult",
    "SETStrategy",
    "SURStrategy",
    "Schema",
    "ShardRouter",
    "Simulation",
    "SimulationConfig",
    "SyncDecision",
    "SyncStrategy",
    "UpdateEvent",
    "UpdatePattern",
    "__version__",
    "generate_green_taxi",
    "generate_yellow_cab",
    "make_dummy_record",
    "make_strategy",
    "parse_query",
    "run_end_to_end",
    "run_parameter_sweep",
    "run_privacy_sweep",
]
