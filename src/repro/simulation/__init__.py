"""Experiment harness: drives owners, strategies and EDBs through time.

* :mod:`repro.simulation.results` -- per-timestep traces and aggregates
  (mean/max L1 error, mean QET, logical gap, total/dummy data size);
* :mod:`repro.simulation.simulator` -- :class:`Simulation`, which replays a
  growing database against one EDB back-end and one strategy, issuing the
  evaluation queries on a fixed schedule;
* :mod:`repro.simulation.experiment` -- the experiment configurations behind
  every table and figure of Section 8;
* :mod:`repro.simulation.runner` -- the parallel experiment runner: scenario-
  matrix grids (:class:`ExperimentGrid`), a process-pool
  :class:`GridRunner` with deterministic per-cell seeds and JSON
  checkpoint/resume, and :func:`run_cell` for single cells;
* :mod:`repro.simulation.reporting` -- text renderers for the paper-style
  tables and figure series.
"""

from repro.simulation.results import QueryTrace, RunResult, TimePoint
from repro.simulation.simulator import Simulation, SimulationConfig
from repro.simulation.experiment import (
    DEFAULT_EPSILON,
    DEFAULT_FLUSH,
    DEFAULT_QUERY_INTERVAL,
    DEFAULT_THETA,
    DEFAULT_TIMER_PERIOD,
    EndToEndConfig,
    default_queries,
    run_end_to_end,
    run_parameter_sweep,
    run_privacy_sweep,
)
from repro.simulation.runner import (
    CellSpec,
    ExperimentGrid,
    GridResult,
    GridRunner,
    run_cell,
)
from repro.simulation.reporting import (
    format_figure_series,
    format_headline_claims,
    format_table2,
    format_table3,
    format_table5,
)

__all__ = [
    "CellSpec",
    "DEFAULT_EPSILON",
    "DEFAULT_FLUSH",
    "DEFAULT_QUERY_INTERVAL",
    "DEFAULT_THETA",
    "DEFAULT_TIMER_PERIOD",
    "EndToEndConfig",
    "ExperimentGrid",
    "GridResult",
    "GridRunner",
    "QueryTrace",
    "RunResult",
    "Simulation",
    "SimulationConfig",
    "TimePoint",
    "default_queries",
    "run_cell",
    "format_figure_series",
    "format_headline_claims",
    "format_table2",
    "format_table3",
    "format_table5",
    "run_end_to_end",
    "run_parameter_sweep",
    "run_privacy_sweep",
]
