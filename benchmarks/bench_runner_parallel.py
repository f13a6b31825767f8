"""Parallel grid runner vs. the serial path, on a figure-scale sweep.

Runs the Figure-5-shaped sweep -- {dp-timer, dp-ant} x {epsilon axis} on the
Yellow-Cab workload -- three ways:

1. **serial**: every cell in-process, one after another (the pre-runner
   execution model of ``repro.simulation.experiment``);
2. **parallel**: the same cells on a ``GridRunner`` process pool
   (``REPRO_BENCH_WORKERS``, default 4), checkpointing each cell;
3. **resume**: the same grid again against the populated artifact directory
   (the checkpoint/resume path a re-rendered figure takes).

It asserts that all three produce bit-identical per-cell results and writes
``BENCH_runner.json`` at the repository root.

Speedup accounting is honest about hardware: process-level parallelism can
only beat the serial path when more than one CPU is actually available, so
the >= 2x parallel floor (the PR's acceptance bar, checked in CI where
runners have >= 2 vCPUs) is enforced whenever ``len(os.sched_getaffinity)``
>= 2 and can be overridden via ``REPRO_BENCH_MIN_GRID_SPEEDUP``.  On a
single-CPU container the bench still enforces the determinism contract plus
a >= 2x *resume* speedup (which is hardware independent) and requires the
pool not to regress materially over serial.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import usable_cpus, bench_environment, emit_report
from repro.simulation.runner import ExperimentGrid, GridRunner

N_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
GRID_SCALE = float(os.environ.get("REPRO_BENCH_RUNNER_SCALE", "0.5"))
EPSILONS = (0.05, 0.2, 0.8, 3.2)
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runner.json"


def figure_grid() -> ExperimentGrid:
    """A Figure-5-shaped sweep: 2 strategies x 4 epsilons = 8 cells."""
    return ExperimentGrid(
        strategies=("dp-timer", "dp-ant"),
        scenarios=("taxi-yellow",),
        parameters={
            "epsilon": list(EPSILONS),
            "scale": [GRID_SCALE],
            "query_interval": [720],
        },
        base_seed=17,
    )


def test_grid_runner_speedup_and_determinism(bench_settings):
    grid = figure_grid()
    n_cells = len(grid)
    cpus = usable_cpus()

    start = time.perf_counter()
    serial = GridRunner(n_workers=1).run(grid)
    serial_seconds = time.perf_counter() - start

    artifact_dir = Path(tempfile.mkdtemp(prefix="bench_runner_"))
    try:
        start = time.perf_counter()
        parallel = GridRunner(n_workers=N_WORKERS, artifact_dir=artifact_dir).run(grid)
        parallel_seconds = time.perf_counter() - start

        start = time.perf_counter()
        resumed = GridRunner(n_workers=N_WORKERS, artifact_dir=artifact_dir).run(grid)
        resume_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(artifact_dir, ignore_errors=True)

    # Bit-identical per-cell results across worker counts and resume.
    assert list(serial.results) == list(parallel.results) == list(resumed.results)
    for cell_id in serial.results:
        assert parallel[cell_id] == serial[cell_id], f"pool diverged at {cell_id}"
        assert resumed[cell_id] == serial[cell_id], f"resume diverged at {cell_id}"
    assert len(resumed.resumed) == n_cells

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    resume_speedup = serial_seconds / max(resume_seconds, 1e-9)

    # Explicit floor accounting: a 1-CPU container physically cannot show a
    # process-pool speedup, and silently "passing" there would misreport the
    # benchmark as having verified something it did not measure.
    override = os.environ.get("REPRO_BENCH_MIN_GRID_SPEEDUP")
    if override is not None:
        parallel_floor = f"enforced_override>={float(override):g}x"
    elif cpus >= 2:
        parallel_floor = "enforced>=2x"
    else:
        parallel_floor = "skipped_single_cpu"

    payload = {
        "benchmark": "runner_parallel",
        "grid": {
            "strategies": ["dp-timer", "dp-ant"],
            "scenario": "taxi-yellow",
            "epsilons": list(EPSILONS),
            "scale": GRID_SCALE,
            "n_cells": n_cells,
        },
        "n_workers": N_WORKERS,
        "available_cpus": cpus,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "resume_seconds": round(resume_seconds, 4),
        "speedup": round(speedup, 2),
        "resume_speedup": round(resume_speedup, 2),
        "identical_across_worker_counts": True,
        "parallel_floor": parallel_floor,
        "environment": bench_environment(),
        "note": (
            "speedup = serial/parallel wall clock; parallel speedup requires "
            ">= 2 CPUs (the >= 2x floor is enforced in CI), resume_speedup is "
            "hardware independent"
        ),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit_report(
        "runner_parallel",
        f"Grid runner: {n_cells}-cell sweep (2 strategies x {len(EPSILONS)} epsilons, "
        f"taxi-yellow @ scale {GRID_SCALE}), {N_WORKERS} workers, {cpus} CPUs\n\n"
        f"serial (1 worker)    : {serial_seconds:8.3f} s\n"
        f"pool ({N_WORKERS} workers)     : {parallel_seconds:8.3f} s  "
        f"({speedup:.2f}x)\n"
        f"resume (checkpoints) : {resume_seconds:8.3f} s  ({resume_speedup:.2f}x)\n"
        f"per-cell results bit-identical across all three paths\n"
        f"parallel floor: {parallel_floor}",
    )

    if override is not None:
        assert speedup >= float(override), (
            f"expected >= {override}x parallel speedup, measured {speedup:.2f}x"
        )
    elif cpus >= 2:
        # The acceptance floor: a multi-cell sweep with 4 workers must halve
        # the serial wall clock on multi-core hardware.
        assert speedup >= 2.0, (
            f"expected >= 2x parallel speedup on {cpus} CPUs, measured {speedup:.2f}x"
        )
    else:
        # Single CPU: raw parallel speedup is physically unavailable; the
        # subsystem's wall-clock win must come from checkpoint/resume, and the
        # pool must not regress the sweep materially.
        assert resume_speedup >= 2.0, (
            f"expected >= 2x resume speedup, measured {resume_speedup:.2f}x"
        )
        assert parallel_seconds <= serial_seconds * 1.6, (
            "process pool regressed the sweep more than 60% on a single CPU"
        )
