"""The benchmark suite's one command.

    PYTHONPATH=src python benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--repeat R] [--out FILE]
    python benchmarks/suite/run.py compare A.json B.json

With ``--workload`` (and no ``--repeat``/``--out``) one workload runs in
this process for ``--seconds`` seconds.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: every end-to-end metric of ``BENCHMARK.json`` on an
untraced run, every per-layer metric on a traced one.  The exit code is
non-zero when any operation failed.

Without ``--workload`` every workload runs in its own fresh child
process, one after another; ``--repeat R`` runs each R times with seeds
N..N+R-1, and ``--out`` writes every run, each metric's median and
quartiles, and an environment fingerprint to a result file.  ``compare``
reads two result files and judges each metric against its bound.

The program is always imported from the ``src/`` directory of this
checkout, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = SUITE / "baseline.json"

#: The end-to-end metric and workload each per-layer metric should
#: move; a layer that does little on a workload should stay flat there.
LAYER_MOVES = {
    "setup.import_s": ("setup_s", "paper_quick"),
    "topology.build_pct": ("setup_s", "k32_storm"),
    "workload.trace_pct": ("setup_s", "k32_storm"),
    "routing.initial_path.calls": ("latency_p50_ms", "k32_storm"),
    "routing.initial_path.busy_pct": ("latency_p50_ms", "k32_storm"),
    "routing.repath.calls": ("latency_p50_ms", "k32_storm"),
    "routing.repath.busy_pct": ("latency_p50_ms", "k32_storm"),
    "routing.on_topology_change.calls": ("latency_p50_ms", "k32_storm"),
    "routing.on_topology_change.busy_pct": ("latency_p50_ms", "k32_storm"),
    "simulation.run.calls": ("latency_p50_ms", "paper_quick"),
    "simulation.run.busy_pct": ("latency_p50_ms", "paper_quick"),
    "simulation.allocate_dense.calls": ("latency_p50_ms", "paper_quick"),
    "simulation.allocate_dense.busy_pct": ("latency_p50_ms", "paper_quick"),
    "simulation.waterfill.calls": ("latency_p50_ms", "k32_storm"),
    "simulation.waterfill.busy_pct": ("latency_p50_ms", "k32_storm"),
    "simulation.waterfill.rows_mean": ("latency_p50_ms", "k32_storm"),
    "simulation.flow_table.calls": ("latency_p50_ms", "k32_storm"),
    "simulation.flow_table.busy_pct": ("latency_p50_ms", "k32_storm"),
    "simulation.self_pct": ("latency_p50_ms", "k32_storm"),
    "simulation.reallocations": ("latency_p50_ms", "paper_quick"),
    "simulation.events": ("latency_p50_ms", "paper_quick"),
    "experiments.fig1a_pct": ("latency_p50_ms", "paper_quick"),
    "experiments.fig1b_pct": ("latency_p50_ms", "paper_quick"),
    "experiments.fig1c_pct": ("latency_p50_ms", "paper_quick"),
    "experiments.sec51_pct": ("latency_p50_ms", "paper_quick"),
    "experiments.table3_pct": ("latency_p50_ms", "paper_quick"),
    "runner.tasks": ("latency_p50_ms", "paper_quick"),
    "runner.cache_hits": ("latency_p50_ms", "paper_quick"),
    "runner.overhead_pct": ("latency_p50_ms", "paper_quick"),
    "ingest.report_wait_pct": ("latency_p50_ms", "recovery_burst"),
    "ingest.heartbeats": ("latency_p50_ms", "recovery_burst"),
    "ingest.heartbeats_dropped": ("latency_p50_ms", "recovery_burst"),
    "ingest.heartbeat_submit_pct": ("latency_p50_ms", "recovery_burst"),
    "resolver.batches": ("throughput_per_s", "recovery_burst"),
    "resolver.batch_size_mean": ("throughput_per_s", "recovery_burst"),
    "controller.handle_node_failure.calls": ("throughput_per_s", "recovery_burst"),
    "controller.handle_node_failure.busy_pct": (
        "throughput_per_s",
        "recovery_burst",
    ),
    "wal.append_intent.busy_pct": ("latency_p99_ms", "recovery_durable"),
    "wal.append_commit.busy_pct": ("latency_p99_ms", "recovery_durable"),
    "wal.bytes_per_decision": ("latency_p99_ms", "recovery_durable"),
    "trace.overhead_ratio": ("latency_p50_ms", "recovery_burst"),
}

#: Fewest latency samples that put ten beyond the p99.
TAIL_SAMPLES = 1000

#: Layers reported as calls per op plus busy share of the op cycle.
CALL_LAYERS = (
    "routing.initial_path",
    "routing.repath",
    "routing.on_topology_change",
    "simulation.run",
    "simulation.allocate_dense",
    "simulation.waterfill",
    "simulation.flow_table",
    "controller.handle_node_failure",
)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def nearest_rank(ordered: list[float], q: float) -> float:
    """The q-quantile of sorted samples by nearest rank (an observed value)."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles, and the quartile distance as a share of the median."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ======================================================================
# metrics
# ======================================================================


def end_to_end(ops: list) -> dict[str, float]:
    """The end-to-end metrics over untraced ops (empty if nothing ran).

    Every timing is a median over ops of a per-op figure, so a burst of
    contention on the host slows a minority of ops without moving the
    result.  ``latency_p99_ms`` is an op's p99 only where at least ten of
    its samples lie beyond it (a recovery wave); an op with one sample
    (a pass, a replay) supports no tail, and gives its median there.
    """
    timed = [op for op in ops if op.samples_s and op.work_s > 0]
    if not timed:
        return {}

    def tail(samples: list[float]) -> float:
        if len(samples) < TAIL_SAMPLES:
            return statistics.median(samples)
        return nearest_rank(sorted(samples), 0.99)

    return {
        "setup_s": statistics.median(op.setup_s for op in ops),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": 1e3
        * statistics.median(statistics.median(op.samples_s) for op in timed),
        "latency_p99_ms": 1e3 * statistics.median(tail(op.samples_s) for op in timed),
        "throughput_per_s": statistics.median(op.attempted / op.work_s for op in timed),
    }


def _totals(traced: list) -> tuple[dict, dict, dict, dict]:
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, float] = {}
    counters: dict[str, float] = {}
    for op in traced:
        layers = op.layers or {}
        for total, part in (
            (busy, layers.get("busy", {})),
            (own, layers.get("self", {})),
            (calls, layers.get("calls", {})),
            (counters, layers.get("counters", {})),
            (counters, op.counters),
        ):
            for key, value in part.items():
                total[key] = total.get(key, 0.0) + value
    return busy, own, calls, counters


def per_layer(traced: list, untraced: list, import_s: float) -> dict[str, float]:
    """The per-layer metrics over traced ops: counts are per op, times
    are shares (%) of the op cycle, set-up plus timed work."""
    from workloads import ARTIFACTS

    busy, own, calls, counters = _totals(traced)
    n = max(1, len(traced))
    cycle = sum(op.cycle_s for op in traced) or 1.0

    def pct(seconds: float) -> float:
        return 100.0 * seconds / cycle

    def per(key: str, denominator: float) -> float:
        return counters.get(key, 0.0) / denominator if denominator else 0.0

    latency = counters.get("decision_latency_s", 0.0)

    child_imports = [
        op.counters["setup.import_s"]
        for op in untraced + traced
        if "setup.import_s" in op.counters
    ]
    metrics = {
        "setup.import_s": (
            statistics.median(child_imports) if child_imports else import_s
        ),
        "topology.build_pct": pct(busy.get("topology.build", 0.0)),
        "workload.trace_pct": pct(busy.get("workload.trace", 0.0)),
        "simulation.waterfill.rows_mean": per(
            "simulation.waterfill.rows", calls.get("simulation.waterfill", 0.0)
        ),
        "simulation.self_pct": pct(own.get("simulation.run", 0.0)),
        "simulation.reallocations": per("simulation.reallocations", n),
        "simulation.events": per("simulation.events", n),
        "runner.tasks": per("runner.tasks", n),
        "runner.cache_hits": per("runner.cache_hits", n),
        "runner.overhead_pct": pct(own.get("runner.run", 0.0)),
        "ingest.report_wait_pct": (
            100.0 * busy.get("ingest.report_wait", 0.0) / latency if latency else 0.0
        ),
        "ingest.heartbeats": per("ingest.heartbeats", n),
        "ingest.heartbeats_dropped": per("ingest.heartbeats_dropped", n),
        "ingest.heartbeat_submit_pct": pct(
            counters.get("ingest.heartbeat_submit_s", 0.0)
        ),
        "resolver.batches": per("resolver.batches", n),
        "resolver.batch_size_mean": per(
            "resolver.resolved", counters.get("resolver.batches", 0.0)
        ),
        "wal.append_intent.busy_pct": pct(busy.get("wal.append_intent", 0.0)),
        "wal.append_commit.busy_pct": pct(busy.get("wal.append_commit", 0.0)),
        "wal.bytes_per_decision": per("wal.bytes", counters.get("decisions", 0.0)),
    }
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0.0) / n
        metrics[f"{layer}.busy_pct"] = pct(busy.get(layer, 0.0))
    for artifact in ARTIFACTS:
        metrics[f"experiments.{artifact}_pct"] = pct(
            counters.get(f"experiments.{artifact}_s", 0.0)
        )
    traced_work = [op.work_s for op in traced if op.samples_s]
    plain_work = [op.work_s for op in untraced if op.samples_s]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_work) / statistics.median(plain_work) - 1.0
        if traced_work and plain_work
        else 0.0
    )
    return metrics


def run_self_share(traced: list) -> float | None:
    """Summed layer self-times inside ``simulation.run`` over its span time."""
    run = inside = 0.0
    for op in traced:
        layers = op.layers or {}
        run += layers.get("busy", {}).get("simulation.run", 0.0)
        inside += layers.get("run_self_s", 0.0)
    return inside / run if run else None


# ======================================================================
# one workload, in this process (the driver contract)
# ======================================================================


def committed_digests(name: str, seed: int, smoke: bool) -> object:
    """The seed-0 digests this workload must reproduce, if any apply."""
    if seed != 0 or smoke or not BASELINE_PATH.exists():
        return None
    digests = json.loads(BASELINE_PATH.read_text()).get("digests", {})
    key = "recovery" if name.startswith("recovery") else name
    return digests.get(key)


def drive(workload, seconds: float, trace: bool) -> list[tuple[bool, object]]:
    """Run ops until the next one would overrun ``seconds``.

    A traced run alternates untraced and traced ops, so the tracing
    overhead is measured against ops of the same run.
    """
    ops: list[tuple[bool, object]] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        ops.append((traced, workload.op(len(ops), traced)))
        elapsed = time.perf_counter() - started
        if len(ops) >= (2 if trace else 1) and elapsed * (1 + 1 / len(ops)) > seconds:
            return ops


def run_workload(args: argparse.Namespace, spec: dict, import_s: float) -> int:
    import workloads

    spans = workloads.OUT / f"{args.workload}.spans.jsonl" if args.trace else None
    workload = workloads.make(
        args.workload,
        args.seed,
        args.smoke,
        committed_digests(args.workload, args.seed, args.smoke),
        spans,
    )
    ops = drive(workload, args.seconds, bool(args.trace))
    workload.write_spans()
    traced = [op for is_traced, op in ops if is_traced]
    untraced = [op for is_traced, op in ops if not is_traced]
    attempted = sum(op.attempted for _, op in ops)
    failed = sum(op.failed for _, op in ops)
    errors = [error for _, op in ops for error in op.errors]

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = (
        per_layer(traced, untraced, import_s) if args.trace else end_to_end(untraced)
    )
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    correct = failed == 0 and not errors

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {int(args.trace)}{'  smoke' if args.smoke else ''}"
    )
    samples = sum(len(op.samples_s) for op in untraced)
    print(
        f"ops {len(ops)} ({len(untraced)} untraced, {len(traced)} traced), "
        f"attempted {attempted}, failed {failed}, latency samples {samples}"
    )
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>16.6f} {metric['unit']}")
    share = run_self_share(traced)
    if share is not None:
        print(f"  layer self-times inside simulation.run: {100 * share:.3f}% of it")
    for error in errors[:20]:
        print(f"error: {error}")
    details = {"ops": len(ops), "samples": samples, **workload.details()}
    print("details " + json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def child_pass(args: argparse.Namespace, import_s: float) -> int:
    """One paper_quick regeneration pass, run as a fresh child process."""
    import tracer as tracing
    import workloads

    inputs = workloads.paper_inputs(args.seed, args.smoke)
    tracer = None
    if args.trace:
        tracing.layer_targets()  # import every traced layer before timing
        tracer = tracing.Tracer()
    setup = time.perf_counter() - PROCESS_START
    report = workloads.paper_pass(inputs, tracer, args.index)
    if tracer is not None and args.spans:
        tracer.dump_jsonl(Path(args.spans))
    report.update(setup_s=setup, import_s=import_s)
    print(json.dumps(report))
    return 0


# ======================================================================
# every workload, each in a fresh child (sets of runs, result files)
# ======================================================================


def _parse_child(stdout: str) -> tuple[dict | None, dict]:
    result, details = None, {}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("details "):
            details = json.loads(line[len("details ") :])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return result, details


def orchestrate(args: argparse.Namespace, spec: dict) -> int:
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    ok = True
    for name in names:
        for offset in range(args.repeat):
            seed = args.seed + offset
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", f"{args.seconds:g}", "--trace", str(int(args.trace)),
            ]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(
                command, capture_output=True, text=True, timeout=args.seconds + 600
            )
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            result, details = _parse_child(child.stdout)
            if result is None or child.returncode != 0 or not result["correct"]:
                ok = False
            runs[name].append(
                {"seed": seed, "exit": child.returncode, "result": result,
                 "details": details}
            )
    ok &= _burst_matches_durable(runs)
    summary = {
        name: _summarize([r["result"] for r in entries if r["result"]])
        for name, entries in runs.items()
    }
    _print_summary(summary, spec)
    if args.out:
        payload = {
            "env": env_fingerprint(),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "workloads": {
                name: {"runs": runs[name], "summary": summary[name]} for name in names
            },
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


def _burst_matches_durable(runs: dict[str, list[dict]]) -> bool:
    """The WAL must not change decisions: rounds both recovery workloads
    ran at the same seed must have equal decision digests."""
    burst = {r["seed"]: r["details"] for r in runs.get("recovery_burst", [])}
    ok = True
    for run in runs.get("recovery_durable", []):
        other = burst.get(run["seed"])
        if other is None:
            continue
        a = other.get("round_digests", [])
        b = run["details"].get("round_digests", [])
        common = min(len(a), len(b))
        if a[:common] != b[:common]:
            print(f"error: seed {run['seed']}: burst and durable decisions differ")
            ok = False
    return ok


def _summarize(results: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {
        "metrics": {
            name: {**spread(v), "unit": units[name]} for name, v in values.items()
        },
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def _print_summary(summary: dict, spec: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{'workload':<18}{'metric':<42}{'median':>14}{'spread':>9}  bound")
    for workload, entry in summary.items():
        for name, stats in entry["metrics"].items():
            bound = bounds.get(name)
            print(
                f"{workload:<18}{name:<42}{stats['median']:>14.6g}"
                f"{100 * stats['spread']:>8.2f}%  "
                f"{'' if bound is None else f'{100 * bound:.0f}%'} {stats['unit']}"
            )
        print(
            f"{workload:<18}ops attempted {entry['attempted']}, "
            f"failed {entry['failed']}"
        )


# ======================================================================
# environment fingerprint
# ======================================================================


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def filesystem_type(path: Path) -> str | None:
    """Type of the filesystem holding ``path``, from ``/proc/mounts``."""
    best, kind = "", None
    target = str(path.resolve())
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def calibration_s() -> float:
    """Median of three runs of a fixed pure-Python plus numpy loop, so
    timings from different sessions can be normalised.

    The numpy half sorts and scans rather than multiplying matrices:
    BLAS would spread over idle cores and time the host's load instead.
    """
    import numpy as np

    values = np.arange(1_000_000, dtype=np.float64)[::-1] % 9973.0
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        for _ in range(5):
            np.cumsum(np.sort(values))
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def env_fingerprint() -> dict:
    import numpy as np
    import workloads

    workloads.OUT.mkdir(parents=True, exist_ok=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "wal_fs": filesystem_type(workloads.OUT),
        "calibration_s": calibration_s(),
    }


# ======================================================================
# compare
# ======================================================================


def load_results(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    return data.get("results", data)


def verdict(meta: dict, a: dict, b: dict, runs_a: list, runs_b: list) -> tuple:
    """``(change as a share of the bound, verdict)`` for one metric.

    ``change`` is how much worse B is than A (negative: better).  A side
    whose own spread exceeds the bound leaves the metric unresolved,
    unless every run of B reads better than every run of A.
    """
    lower = meta["better"] == "lower"
    ratio = b["median"] / a["median"] if a["median"] else math.inf
    change = ratio - 1.0 if lower else (1.0 / ratio - 1.0 if ratio else math.inf)
    bound = meta["bound"]
    if a["spread"] > bound or b["spread"] > bound:
        if runs_a and runs_b and (
            max(runs_b) < min(runs_a) if lower else min(runs_b) > max(runs_a)
        ):
            return change / bound, "improved"
        return change / bound, "unresolved"
    if change > bound:
        return change / bound, "REGRESSION"
    if change < -bound:
        return change / bound, "improved"
    return change / bound, "ok"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = load_results(path_a), load_results(path_b)
    meta = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    print(
        f"{'workload':<18}{'metric':<42}{'A':>12}{'B':>12}{'B/A':>8}"
        f"{'vs bound':>10}  verdict"
    )
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        sa = a["workloads"][workload]["summary"]
        sb = b["workloads"][workload]["summary"]

        def values(side: dict, name: str) -> list[float]:
            return [
                run["result"]["metrics"][name]["value"]
                for run in side["workloads"][workload]["runs"]
                if run.get("result") and name in run["result"]["metrics"]
            ]

        for name in sorted(set(sa["metrics"]) & set(sb["metrics"])):
            ma, mb = sa["metrics"][name], sb["metrics"][name]
            before, after = ma["median"], mb["median"]
            ratio = after / before if before else math.inf
            if name in meta:
                share, judged = verdict(
                    meta[name], ma, mb, values(a, name), values(b, name)
                )
                against = f"{share:+.2f}"
            else:
                against, judged = "", "-"
            regressions += judged == "REGRESSION"
            print(
                f"{workload:<18}{name:<42}{before:>12.5g}{after:>12.5g}"
                f"{ratio:>8.3f}{against:>10}  {judged}"
            )
        if sb["failed"] > sa["failed"]:
            regressions += 1
            print(
                f"{workload:<18}ops failed {sa['failed']} -> {sb['failed']}"
                "  REGRESSION"
            )
    return 1 if regressions else 0


# ======================================================================


def parse_args(argv: list[str]) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="how long one run measures",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer run: wrap the layers' public callables",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write a result file (sets of runs)")
    parser.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], load_spec())
    args = parse_args(argv)
    # No workload calls BLAS.  One BLAS thread keeps the load single-
    # threaded, and keeps numpy's import (part of paper_quick's set-up)
    # from timing how busy the host's other core is.  Children inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    started = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    source = Path(sys.modules["repro"].__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"run.py: repro imported from {source}, not src/", file=sys.stderr)
        return 2
    if args.child_pass:
        return child_pass(args, import_s)
    if args.workload and args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload and args.repeat == 1 and not args.out:
        return run_workload(args, load_spec(), import_s)
    return orchestrate(args, load_spec())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
