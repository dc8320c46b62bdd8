"""Lint pipeline benchmark: cold vs warm wall time, with a CI budget.

Runs the full ``repro lint`` pipeline (per-file + whole-program rules
over the default targets) twice against a fresh cache directory:

* **cold** — empty cache, every corpus file parsed and summarised;
* **warm** — identical invocation, which must parse *nothing*: the
  incremental cache replays per-file diagnostics and the project model
  is linked from cached summaries.

The artifact lands at the repo root as ``BENCH_lint.json`` and the
script exits non-zero when the warm run exceeds the budget — CI wires
this into the lint job so a regression that breaks cache replay (or
makes the project pass quadratic) fails the build rather than slowly
rotting.  The budget is deliberately generous: it exists to catch
"warm run re-parses the world", not 10% noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py [--budget-s 10]

Unlike the simulation benches this is a plain script, not a
pytest-benchmark module: the measurement is two wall-clock samples of
one deterministic pipeline, and the budget check must be able to fail
the CI job directly.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_lint.json"

#: Warm full-repo lint must finish inside this (seconds).  A healthy
#: warm run is well under a second; the 10x headroom absorbs slow CI
#: runners while still catching a broken cache (which costs a full
#: re-parse and a visibly larger number).
DEFAULT_BUDGET_S = 10.0


def _timed_lint(cache_dir: Path) -> tuple[float, object]:
    from repro.checks import lint_paths

    targets = [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"]
    targets = [t for t in targets if t.exists()]
    start = time.perf_counter()
    result = lint_paths(targets, cache_dir=cache_dir)
    return time.perf_counter() - start, result


def run(budget_s: float, output: Path) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-bench-lint-") as tmp:
        cache_dir = Path(tmp) / "lint-cache"
        cold_s, cold = _timed_lint(cache_dir)
        warm_s, warm = _timed_lint(cache_dir)

    if warm.stats.parsed_files != 0:
        print(
            f"FAIL: warm lint parsed {warm.stats.parsed_files} files; "
            "the incremental cache is not replaying",
            file=sys.stderr,
        )
        return 1

    within_budget = warm_s <= budget_s
    artifact = {
        "bench": "lint",
        "budget_s": budget_s,
        "within_budget": within_budget,
        "cold": {"wall_s": round(cold_s, 4), **cold.stats.as_dict()},
        "warm": {"wall_s": round(warm_s, 4), **warm.stats.as_dict()},
        "diagnostics": len(warm.diagnostics),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
    }
    output.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")

    print(
        f"lint bench: cold {cold_s * 1000:.0f} ms "
        f"({cold.stats.parsed_files} files parsed), "
        f"warm {warm_s * 1000:.0f} ms (0 parsed), "
        f"budget {budget_s:.1f} s -> "
        + ("OK" if within_budget else "OVER BUDGET")
    )
    if not within_budget:
        print(
            f"FAIL: warm lint took {warm_s:.2f} s > budget {budget_s:.1f} s",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget-s",
        type=float,
        default=DEFAULT_BUDGET_S,
        help="warm-run wall-time budget in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON,
        help="artifact path (default: repo-root BENCH_lint.json)",
    )
    args = parser.parse_args(argv)
    return run(args.budget_s, args.output)


if __name__ == "__main__":
    sys.exit(main())
