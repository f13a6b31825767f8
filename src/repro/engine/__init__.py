"""Segment-driven simulation core.

:class:`Engine` replays the owners' update streams one query interval at a
time instead of one time unit at a time: each owner's strategy advances
over a whole segment in bulk, the owners' Updates are merged in tick order,
and the query schedule runs at the segment boundaries.  Its transcript is
the per-tick loop's (see ``tests/test_engine_equivalence``).
"""

from repro.engine.core import Engine, EngineStats

__all__ = ["Engine", "EngineStats"]
