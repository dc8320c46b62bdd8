"""End-to-end engine benchmarks: full failure replays at two scales.

The Figure 1(c)-sized replay is the workload the engine's allocator
work was sized against (docs/simulator.md): the quick-profile fabric
under a single aggregation-switch failure at t=0, measured as one full
fluid simulation (trace generation excluded — it is identical either
way).  The vectorized (default) backend's round records its speedup
over the pre-overhaul baseline and over the retired incremental
backend's committed ENGINE_REV-2 median; the oracle is timed for
comparison.

The *large* replay is a k=32 fabric (1,024 hosts, 512 edge switches)
with a fail-and-repair storm in the middle — the warehouse-scale shape
the vectorized columnar backend exists for.  At that size the scalar
allocators spent tens of seconds per replay (reference medians below),
so only the vectorized backend is re-timed on every run.

After a measured run each test read-modify-writes its own key of
``BENCH_engine.json`` at the repo root, so the acceptance bars stay
auditable from the artifact alone and no test clobbers another's
round.  Under ``--benchmark-disable`` (the CI smoke job) the replays
still run once for correctness but the artifact is left untouched.
"""

import json
import statistics
from dataclasses import asdict
from pathlib import Path

from repro.experiments.config import StudyConfig
from repro.routing import GlobalOptimalRerouteRouter
from repro.simulation import ENGINE_REV, FluidSimulation
from repro.topology import FatTree

BENCH_JSON = Path(__file__).parent.parent / "BENCH_engine.json"

#: Pre-overhaul medians for the Fig-1(c) scenario, measured on this
#: container at commit 08e41de (ENGINE_REV 1: dict-keyed allocator,
#: O(active) completion scans and advance sweeps in the event loop).
BASELINE = {
    "engine_rev": 1,
    "commit": "08e41de",
    "median_s": 12.846,
    "samples_s": [13.573, 13.597, 12.846, 12.562, 12.230],
}

#: The retired incremental backend's committed median at ENGINE_REV 2
#: (commit 78c3014) — the bar the vectorized backend is measured against.
PR4_INCREMENTAL_MEDIAN_S = 4.789

CONFIG = StudyConfig(
    k=6, hosts_per_edge=30, num_coflows=90, duration=12.0, seed=13
)
VICTIM = "A.0.1"

LARGE_CONFIG = StudyConfig(
    k=32, hosts_per_edge=2, num_coflows=120, duration=4.0, seed=17
)
#: Scalar backends on the large replay (the retired incremental one and
#: the oracle), one-shot medians at ENGINE_REV 3 captured in the same
#: process as, and interleaved with, the vectorized runs.  They are
#: reference constants, not re-timed: at ~29 s per replay they do not
#: fit the bench budget — which is the point of the columnar backend.
LARGE_REFERENCE = {
    "engine_rev": 3,
    "incremental_median_s": 29.344,
    "oracle_median_s": 28.444,
}


_SCENARIOS = {}


def _scenario(config):
    """Tree and trace built once per config; the timed region is router
    + engine construction + run, matching how the baseline was
    measured."""
    if config not in _SCENARIOS:
        tree = config.build_tree(FatTree)
        _SCENARIOS[config] = (tree, config.build_specs(tree))
    return _SCENARIOS[config]


def _replay(allocator):
    tree, specs = _scenario(CONFIG)
    sim = FluidSimulation(
        tree,
        GlobalOptimalRerouteRouter(tree),
        specs,
        horizon=CONFIG.horizon,
        allocator=allocator,
    )
    sim.fail_node_at(0.0, VICTIM)
    return sim.run()


def _large_replay(allocator):
    tree, specs = _scenario(LARGE_CONFIG)
    sim = FluidSimulation(
        tree,
        GlobalOptimalRerouteRouter(tree),
        specs,
        horizon=LARGE_CONFIG.horizon,
        allocator=allocator,
    )
    sim.fail_node_at(1.0, VICTIM)
    sim.restore_node_at(3.0, VICTIM)
    return sim.run()


def _samples(benchmark):
    """Raw per-round timings, or None under ``--benchmark-disable``."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return None
    return sorted(stats.stats.data)


def _round(allocator, samples):
    return {
        "engine_rev": ENGINE_REV,
        "allocator": allocator,
        "median_s": round(statistics.median(samples), 3),
        "samples_s": [round(s, 3) for s in samples],
    }


def _merge_bench(update):
    """Read-modify-write ``BENCH_engine.json``: each test owns its keys
    and every other round survives."""
    try:
        payload = json.loads(BENCH_JSON.read_text())
    except (OSError, ValueError):
        payload = {}
    payload.update(update)
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_perf_fig1c_replay_vectorized(benchmark):
    """The default columnar backend on the Fig-1(c) replay, measured
    against the pre-overhaul baseline and the incremental backend's
    committed ENGINE_REV-2 median."""
    result = benchmark.pedantic(_replay, args=("vectorized",), rounds=3)
    assert result.flows and all(r.completed for r in result.flows.values())
    samples = _samples(benchmark)
    if samples is None:
        return
    current = _round("vectorized", samples)
    current["speedup_vs_pr4_incremental"] = round(
        PR4_INCREMENTAL_MEDIAN_S / current["median_s"], 2
    )
    current["speedup_vs_rev1_baseline"] = round(
        BASELINE["median_s"] / current["median_s"], 2
    )
    _merge_bench(
        {
            "bench": "fig1c_replay",
            "scenario": {
                "config": asdict(CONFIG),
                "router": "GlobalOptimalRerouteRouter",
                "failure": {"node": VICTIM, "at": 0.0},
            },
            "baseline": BASELINE,
            "vectorized": current,
        }
    )
    assert current["speedup_vs_pr4_incremental"] >= 2.0


def test_perf_fig1c_replay_oracle(benchmark):
    """The from-scratch oracle on the same replay, for comparison only
    (it shares the array core, so it too beats the old engine)."""
    result = benchmark.pedantic(_replay, args=("oracle",), rounds=3)
    assert result.flows and all(r.completed for r in result.flows.values())


def test_perf_large_replay_vectorized(benchmark):
    """The k=32 warehouse-scale replay, vectorized backend only.

    The scalar backends took ~29 s a replay here (see
    ``LARGE_REFERENCE``); the bar is that the columnar backend clears
    the same replay at least twice as fast as the incremental one did,
    which is what makes this scale routinely benchmarkable at all.
    """
    result = benchmark.pedantic(_large_replay, args=("vectorized",), rounds=2)
    assert result.flows and result.reallocations > len(result.flows)
    samples = _samples(benchmark)
    if samples is None:
        return
    current = _round("vectorized", samples)
    current["reference"] = LARGE_REFERENCE
    current["speedup_vs_incremental"] = round(
        LARGE_REFERENCE["incremental_median_s"] / current["median_s"], 2
    )
    _merge_bench(
        {
            "large_replay": {
                "bench": "k32_failure_storm_replay",
                "scenario": {
                    "config": asdict(LARGE_CONFIG),
                    "router": "GlobalOptimalRerouteRouter",
                    "failure": {"node": VICTIM, "at": 1.0, "restored_at": 3.0},
                },
                **current,
            }
        }
    )
    assert current["speedup_vs_incremental"] >= 2.0
