"""Deterministic fault injection for the self-healing shard fleet.

The paper's privacy object is the update-pattern transcript ``(t, |γ|)``;
the recovery machinery's contract is that a crashed-and-rebuilt shard is
*invisible* in every paper-level observable.  Proving that requires faults
that are reproducible, so this module models them as data:

* a :class:`Fault` names a kind, a shard, and the 1-based index of the
  shard's *mutating command* (setup / update / insert_many / query /
  rotate_key) at which it fires;
* a :class:`FaultSchedule` is an ordered bag of pending faults the
  supervisor consumes exactly once each;
* :func:`parse_fault_schedule` reads the compact ``kind[:shard]@N`` grid
  syntax (the ``--faults`` axis), and :func:`random_fault_schedule` draws a
  schedule from a ``SeedSequence`` so chaos sweeps are replayable from a
  single integer.

Fault kinds (``FAULT_KINDS``):

``kill``
    SIGKILL the shard's worker process just before the command runs.
``delay``
    Arm the worker to oversleep its reply so the coordinator's per-command
    deadline (:class:`~repro.edb.shard_worker.ShardWorkerTimeout`) fires.
``drop``
    Arm the worker to swallow the next pipe message entirely (same
    observable: a reply deadline miss).
``raise``
    Half-apply the command to the live shard, then raise
    :class:`ChaosWorkerFault` -- a worker failing *mid-batch* with torn
    in-memory state.  Works on every executor.
``tornsnap``
    Force a snapshot, drop it as an aborted snapshot would leave it, then
    crash the shard -- recovery must fall back to the previous generation
    and a longer replay.

``kill``/``delay``/``drop`` need a worker process: a grid cell
(:class:`~repro.simulation.runner.CellSpec`) and a router built directly
both refuse them on the ``serial`` executor
(:func:`check_fault_executor`); ``raise`` and ``tornsnap`` exercise every
executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.edb.shard_worker import TransientShardError

__all__ = [
    "FAULT_KINDS",
    "PROCESS_ONLY_KINDS",
    "ChaosWorkerFault",
    "Fault",
    "FaultSchedule",
    "check_fault_executor",
    "parse_fault_schedule",
    "random_fault_schedule",
]

#: Every recognised fault kind, in documentation order.
FAULT_KINDS: tuple[str, ...] = (
    "kill",
    "delay",
    "drop",
    "raise",
    "tornsnap",
)

#: Kinds that require a worker process (refused on the serial executor).
PROCESS_ONLY_KINDS: frozenset[str] = frozenset({"kill", "delay", "drop"})


class ChaosWorkerFault(TransientShardError):
    """An injected mid-batch shard failure (the ``raise`` fault kind).

    Subclasses :class:`~repro.edb.shard_worker.TransientShardError`, so the
    supervisor treats it exactly like a worker death: the shard's in-memory
    state (deliberately half-mutated by the injector) is discarded and
    rebuilt from snapshot + replay.
    """

    def __init__(self, shard_index: int, command: str) -> None:
        super().__init__(
            shard_index,
            command,
            f"chaos: injected worker fault on shard {shard_index} "
            f"during {command!r} (state torn mid-batch on purpose)",
        )


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: ``kind`` fires on ``shard`` at its
    ``at_command``-th mutating command (1-based, counted per shard)."""

    kind: str
    shard: int = 0
    at_command: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.shard < 0:
            raise ValueError(f"fault shard must be >= 0, got {self.shard}")
        if self.at_command < 1:
            raise ValueError(
                f"fault at_command is 1-based, got {self.at_command}"
            )

    def spec(self) -> str:
        """The fault's ``kind[:shard]@N`` grid-syntax form."""
        shard_part = f":{self.shard}" if self.shard else ""
        return f"{self.kind}{shard_part}@{self.at_command}"


class FaultSchedule:
    """An ordered bag of pending faults, consumed exactly once each.

    The supervisor calls :meth:`pop` with ``(shard, command_index)`` before
    every mutating command; a returned fault is removed, so retries and
    replays of the same logical command never re-fire it -- which is what
    makes a bounded-retry recovery terminate.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._pending: list[Fault] = list(faults)
        for fault in self._pending:
            if not isinstance(fault, Fault):
                raise TypeError(f"expected Fault, got {type(fault).__name__}")

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    @property
    def pending(self) -> tuple[Fault, ...]:
        """Faults not yet fired, in schedule order."""
        return tuple(self._pending)

    def for_shard(self, shard: int) -> tuple[Fault, ...]:
        """Pending faults targeting one shard."""
        return tuple(f for f in self._pending if f.shard == shard)

    def pop(self, shard: int, command_index: int) -> Fault | None:
        """Consume the first pending fault for ``(shard, command_index)``."""
        for position, fault in enumerate(self._pending):
            if fault.shard == shard and fault.at_command == command_index:
                return self._pending.pop(position)
        return None

    def spec(self) -> str:
        """The pending schedule in ``--faults`` grid syntax."""
        return ",".join(fault.spec() for fault in self._pending)


def check_fault_executor(schedule: FaultSchedule, executor: str) -> None:
    """Refuse a schedule whose kinds need a worker process ``executor`` lacks.

    The one rule for both entry points: a grid cell is refused when it is
    built, and so is a router built directly, rather than silently skipping
    a scheduled fault.
    """
    needs_worker = sorted(
        {fault.kind for fault in schedule.pending} & PROCESS_ONLY_KINDS
    )
    if needs_worker and executor != "processes":
        raise ValueError(
            f"fault kinds {needs_worker} need a worker process: use "
            f"shard_executor='processes', not {executor!r}"
        )


def parse_fault_schedule(spec: str) -> FaultSchedule:
    """Parse the ``--faults`` grid syntax into a :class:`FaultSchedule`.

    Comma-separated ``kind[:shard]@N`` terms: ``kill@3`` kills shard 0's
    worker at its 3rd mutating command; ``delay:1@2,raise:0@5`` delays
    shard 1's 2nd command and tears shard 0 mid-batch at its 5th.  An empty
    or whitespace spec parses to an empty schedule.
    """
    faults: list[Fault] = []
    for term in (spec or "").split(","):
        term = term.strip()
        if not term:
            continue
        head, sep, at_part = term.partition("@")
        if not sep:
            raise ValueError(
                f"fault term {term!r} is missing '@<command>' "
                "(expected kind[:shard]@N)"
            )
        kind, colon, shard_part = head.partition(":")
        try:
            shard = int(shard_part) if colon else 0
            at_command = int(at_part)
        except ValueError as exc:
            raise ValueError(f"fault term {term!r} is malformed: {exc}") from None
        faults.append(Fault(kind=kind.strip(), shard=shard, at_command=at_command))
    return FaultSchedule(faults)


def random_fault_schedule(
    seed: int,
    n_shards: int,
    n_faults: int = 1,
    max_command: int = 8,
    kinds: Sequence[str] = FAULT_KINDS,
) -> FaultSchedule:
    """Draw a replayable schedule from a ``SeedSequence``-derived stream.

    The same ``(seed, n_shards, n_faults, max_command, kinds)`` always
    yields the same schedule, so a failing chaos sweep reproduces from the
    seed alone.
    """
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC4A05]))
    faults = [
        Fault(
            kind=str(rng.choice(list(kinds))),
            shard=int(rng.integers(0, max(1, n_shards))),
            at_command=int(rng.integers(1, max(2, max_command + 1))),
        )
        for _ in range(n_faults)
    ]
    return FaultSchedule(faults)
