"""Engine regression gate: fresh Fig-1(c) replay vs the committed round.

CI's bench-smoke job runs the replay benchmarks with
``--benchmark-disable`` — correctness only, no timing artifact.  This
script closes the loop the same way ``check_slo.py`` does for the
service: it re-runs the Figure 1(c) failure replay a few times on the
CI host with the default ``vectorized`` backend, and fails the job when
the *best* fresh time is more than ``REPRO_ENGINE_GATE`` times the
``vectorized`` round's committed median in ``BENCH_engine.json``
(default 2×).

Best-of-N against a generous multiplier is deliberate: shared CI
runners are noisy, and a gate that cries wolf gets deleted.  A genuine
regression — a quadratic sweep creeping back into the event loop, a
kernel falling off its no-copy path — blows through 2× on every run;
scheduler jitter does not survive best-of-3.

Exit status: 0 when within the gate (or no baseline exists yet),
1 on regression, with a one-line verdict.

Usage::

    PYTHONPATH=src python benchmarks/check_engine.py
    REPRO_ENGINE_GATE=3.0 PYTHONPATH=src python benchmarks/check_engine.py
"""

import json
import sys
import time
from pathlib import Path

from _gate import ATTEMPTS, gate_from_env, verdict
from bench_engine_replay import _replay

BENCH_JSON = Path(__file__).parent.parent / "BENCH_engine.json"


def _fresh_replay_s() -> float:
    best = float("inf")
    for _ in range(ATTEMPTS):
        start = time.perf_counter()
        result = _replay("vectorized")
        elapsed = time.perf_counter() - start
        assert result.flows and all(
            r.completed for r in result.flows.values()
        ), "vectorized replay did not complete"
        best = min(best, elapsed)
    return best


def main() -> int:
    if not BENCH_JSON.exists():
        print(f"no baseline at {BENCH_JSON}; nothing to gate")
        return 0
    committed = json.loads(BENCH_JSON.read_text()).get("vectorized")
    if committed is None:
        print("no 'vectorized' round in the baseline; nothing to gate")
        return 0
    gate = gate_from_env("REPRO_ENGINE_GATE")
    regressed = verdict(
        "vectorized fig1c replay",
        _fresh_replay_s(),
        float(committed["median_s"]),
        gate,
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
