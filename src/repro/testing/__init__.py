"""Test-harness infrastructure that ships with the library.

:mod:`repro.testing.chaos` is the deterministic fault-injection layer the
shard supervisor (:mod:`repro.fleet.supervisor`) consumes: seeded, replayable
fault schedules that turn every crash-recovery path into a differential test
case instead of an anecdote.  :mod:`repro.testing.reference` holds the
per-tick simulation loop the segment engine is pinned against, and
:mod:`repro.testing.audit` the empirical ε auditor of strategy transcripts
(it needs scipy, so it is imported on its own).
"""

from repro.testing.chaos import (
    FAULT_KINDS,
    PROCESS_ONLY_KINDS,
    ChaosWorkerFault,
    Fault,
    FaultSchedule,
    parse_fault_schedule,
    random_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "PROCESS_ONLY_KINDS",
    "ChaosWorkerFault",
    "Fault",
    "FaultSchedule",
    "parse_fault_schedule",
    "random_fault_schedule",
]
