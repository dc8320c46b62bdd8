"""Benchmark-harness plumbing.

Every ``bench_*.py`` regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index).  Conventions:

* heavy experiments are computed **once** via ``benchmark.pedantic(...,
  rounds=1)`` so pytest-benchmark reports the wall time without
  re-running a minutes-long experiment;
* each benchmark *prints* its table/series and also writes it to
  ``benchmarks/results/<name>.txt`` so the regenerated artifact survives
  pytest's output capture;
* each benchmark *asserts* the paper's qualitative shape (who wins, by
  roughly what factor) — absolute numbers differ by design, since the
  substrate is a fluid simulator and a synthetic trace, not the authors'
  packet simulator and the raw Facebook trace;
* ``REPRO_BENCH_PROFILE=quick|full`` scales the experiment: ``quick``
  (default) finishes in a few minutes total, ``full`` runs paper-scale
  parameters (k=16 with 10:1 oversubscription, more failure samples);
* the scenario-sweep benchmarks (Fig 1a/1b/1c, §5.1 time-domain) run
  through :mod:`repro.runner`: ``REPRO_BENCH_JOBS`` sets the worker
  count (default: CPUs capped at 8, ``1`` forces serial),
  ``REPRO_BENCH_CACHE=0`` disables the content-addressed result cache
  (default: ``.repro-cache/`` at the repo root, making warm re-runs
  near-instant), and every orchestration event is journalled to
  ``benchmarks/results/run_journal.jsonl``.  Results are bit-identical
  to the serial path either way — only wall-clock changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class BenchProfile:
    """Experiment sizing for the failure-study benchmarks.

    The affected-fraction sweeps (Fig 1a/b) are static path analysis and
    can afford paper-scale traces; the CCT-slowdown study (Fig 1c) runs
    full fluid simulations whose *utilisation* must be meaningful — a
    bigger fabric therefore needs a denser trace, sized by the
    ``slowdown_*`` knobs (≈60% of bisection in both profiles).
    """

    name: str
    k: int
    hosts_per_edge: int  # 10:1 oversubscription like the paper's trace
    num_coflows: int
    duration: float
    failure_samples: int
    slowdown_num_coflows: int
    slowdown_duration: float

    @property
    def oversubscription(self) -> float:
        return self.hosts_per_edge / (self.k / 2)


QUICK = BenchProfile(
    name="quick", k=6, hosts_per_edge=30, num_coflows=90, duration=12.0,
    failure_samples=3, slowdown_num_coflows=90, slowdown_duration=12.0,
)
#: Paper-scale fabric (k=16, 128 racks, 10:1).  The Fig 1c portion runs
#: ~16 fluid simulations of a ~35k-flow trace — plan for several hours.
FULL = BenchProfile(
    name="full", k=16, hosts_per_edge=80, num_coflows=400, duration=300.0,
    failure_samples=5, slowdown_num_coflows=900, slowdown_duration=10.0,
)


@pytest.fixture(scope="session")
def profile() -> BenchProfile:
    choice = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    if choice not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_PROFILE must be quick|full, got {choice!r}")
    return FULL if choice == "full" else QUICK


@pytest.fixture(scope="session")
def runner():
    """The shared sweep runner: parallel, cached, journalled (env-tunable)."""
    from repro.runner import (
        NullCache,
        ResultCache,
        RunJournal,
        SweepRunner,
        default_jobs,
    )

    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or default_jobs()
    if os.environ.get("REPRO_BENCH_CACHE", "1") == "0":
        cache = NullCache()
    else:
        cache = ResultCache(Path(__file__).parent.parent / ".repro-cache")
    journal = RunJournal(RESULTS_DIR / "run_journal.jsonl")
    try:
        yield SweepRunner(jobs=jobs, cache=cache, journal=journal)
    finally:
        journal.close()


@pytest.fixture(scope="session")
def emit():
    """Write a named result artifact (text + optional CSV) and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str, csv: str | None = None) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text)
        if csv is not None:
            (RESULTS_DIR / f"{name}.csv").write_text(csv)
        print(f"\n===== {name} =====\n{text}")
        return path

    return _emit
