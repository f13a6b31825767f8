"""Shared configuration and cached experiment runs for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The heavy
end-to-end comparison (Table 5) backs Figures 2-4 as well, so its results are
computed once per session and shared.

Environment knobs (all optional):

* ``REPRO_BENCH_SCALE``  -- workload scale in (0, 1]; 1.0 (default) is the
  paper's full June-2020 workload (43,200 time units).  Use e.g. 0.1 for a
  quick smoke run of the whole harness.
* ``REPRO_BENCH_QUERY_INTERVAL`` -- time units between query issuances
  (default 360, i.e. every six hours as in the paper).
* ``REPRO_BENCH_SEED`` -- experiment seed (default 0).
* ``REPRO_BENCH_WORKERS`` -- worker processes for the end-to-end grid cells
  (default 1 = the serial path; per-cell results are identical either way).
"""

from __future__ import annotations

import os

import pytest

from repro.simulation.experiment import (
    DEFAULT_QUERY_INTERVAL,
    EndToEndConfig,
    run_end_to_end,
)

from pathlib import Path

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_QUERY_INTERVAL = int(
    os.environ.get("REPRO_BENCH_QUERY_INTERVAL", str(DEFAULT_QUERY_INTERVAL))
)
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: The paper's headline ratios (520x accuracy, 5.72x QET, 2.1x data, ...) only
#: materialize on the full-size workload; down-scaled smoke runs check the
#: orderings with looser factors.
IS_FULL_SCALE = BENCH_SCALE >= 0.5

_END_TO_END_CACHE: dict[str, dict] = {}


def end_to_end_results(backend: str) -> dict:
    """Run (or fetch the cached) end-to-end comparison for one back-end."""
    if backend not in _END_TO_END_CACHE:
        config = EndToEndConfig(
            backend=backend,
            scale=BENCH_SCALE,
            query_interval=BENCH_QUERY_INTERVAL,
            seed=BENCH_SEED,
        )
        _END_TO_END_CACHE[backend] = run_end_to_end(config, n_workers=BENCH_WORKERS)
    return _END_TO_END_CACHE[backend]


@pytest.fixture(scope="session")
def oblidb_results() -> dict:
    """Per-strategy results of the ObliDB end-to-end comparison."""
    return end_to_end_results("oblidb")


@pytest.fixture(scope="session")
def crypte_results() -> dict:
    """Per-strategy results of the Crypt-epsilon end-to-end comparison."""
    return end_to_end_results("crypte")


@pytest.fixture(scope="session")
def bench_settings() -> dict:
    """The effective benchmark configuration (echoed into reports)."""
    return {
        "scale": BENCH_SCALE,
        "query_interval": BENCH_QUERY_INTERVAL,
        "seed": BENCH_SEED,
        "workers": BENCH_WORKERS,
    }


OUTPUT_DIR = Path(__file__).parent / "output"


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Delegates to :func:`repro.util.mp.usable_cpus` -- the single source of
    the CPU-detection rule, shared with the shard executors' footgun
    warning -- so every wall-clock speedup floor gates on the same number.
    """
    from repro.util.mp import usable_cpus as _usable_cpus

    return _usable_cpus()


def bench_environment(**extra) -> dict:
    """Hardware + mode flags stamped into every ``BENCH_*.json`` payload.

    Wall-clock ratios are meaningless without knowing what they ran on: a
    1-CPU container cannot show process-pool speedups.  Benchmarks pass
    payload-specific flags through ``extra``.
    """
    env = {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": usable_cpus(),
        "bench_scale": BENCH_SCALE,
        "bench_seed": BENCH_SEED,
        "bench_workers": BENCH_WORKERS,
    }
    env.update(extra)
    return env


def merge_bench_json(path: Path, section: str, payload) -> None:
    """Update one named section of a BENCH_*.json file, preserving the rest.

    Benchmark files contribute independent sections to a shared JSON (e.g.
    ``BENCH_engine.json`` holds both the engine-vs-legacy and the EDB
    fast-path comparisons), so each test merges rather than overwrites; an
    unreadable existing file is replaced instead of crashing the bench.
    Every dict payload is stamped with :func:`bench_environment` unless the
    benchmark recorded its own.
    """
    import json

    if isinstance(payload, dict) and "environment" not in payload:
        payload = {**payload, "environment": bench_environment()}
    elif isinstance(payload, list):
        payload = {"results": payload, "environment": bench_environment()}
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    if not isinstance(merged, dict):
        merged = {}
    # Drop pre-sectioned flat keys (old single-benchmark format) so a stale
    # checkout never ends up with conflicting top-level and per-section data.
    merged = {k: v for k, v in merged.items() if isinstance(v, (dict, list))}
    merged[section] = payload
    path.write_text(json.dumps(merged, indent=2) + "\n")


def emit_report(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under benchmarks/output/.

    Pytest captures stdout by default, so every benchmark also writes its
    rendered report to ``benchmarks/output/<name>.txt`` -- that file is the
    artifact to compare against the paper (see EXPERIMENTS.md).
    """
    header = (
        f"[workload scale={BENCH_SCALE}, query interval={BENCH_QUERY_INTERVAL}, "
        f"seed={BENCH_SEED}]"
    )
    body = f"{header}\n\n{text}\n"
    print()
    print(body)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(body)
