"""The four benchmark workloads: seeded inputs, one operation, its checks.

A workload runs one *operation* per :meth:`op` call and reports an
:class:`OpResult`: the set-up it paid, the timed work, the latency
samples a user would see, how many correctness units it attempted and
how many failed, and (when traced) the per-layer span summary.

* ``paper_quick`` — one quick-profile regeneration of Fig 1a, Fig 1b,
  Fig 1c, the §5.1 time-domain study and Table 3, each pass in a fresh
  child process so the studies' ``lru_cache`` contexts start cold.
* ``k32_storm`` — one k=32 fluid replay under a failure storm, on a
  freshly built fabric, with the vectorized allocator.
* ``recovery_burst`` / ``recovery_durable`` — one wave of concurrent
  failure reports through a fresh :class:`RecoveryService` under a
  10,000-switch heartbeat storm; the durable variant adds a file-backed
  decision WAL.

Traces are fixed datasets, as the paper replays one recorded trace: the
seed draws everything else (failure scenarios, victims, storms, report
targets, Monte Carlo streams).  Seed 0 reproduces the configurations
and seeds of the ``benchmarks/bench_*.py`` files.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracer import Tracer

from repro.analysis import PermutationProbe
from repro.core import ShareBackupController, ShareBackupNetwork
from repro.experiments import StudyConfig
from repro.routing import (
    F10LocalRerouteRouter,
    GlobalOptimalRerouteRouter,
    StaticEcmpRouter,
)
from repro.rng import derive_seed, ensure_rng
from repro.runner import (
    AvailabilityPoint,
    NullCache,
    SweepRunner,
    run_affected_sweep,
    run_availability_sweep,
    run_slowdown_study,
)
from repro.service import DecisionWAL, RecoveryService, ServiceConfig
from repro.service.clock import WallClock
from repro.service.ingest import FailureReport, Heartbeat
from repro.service.resolver import report_outcome
from repro.simulation import FluidSimulation
from repro.topology import AspenTree, F10Tree, FatTree

SUITE = Path(__file__).resolve().parent
RUN_PY = SUITE / "run.py"
#: Everything the suite writes at run time (spans, WAL temp dirs,
#: result files) lands here, inside the checkout, and is gitignored.
OUT = SUITE / "out"

WORKLOADS = ("paper_quick", "k32_storm", "recovery_burst", "recovery_durable")
ARTIFACTS = ("fig1a", "fig1b", "fig1c", "sec51", "table3")

#: A child pass or a recovery wave that takes longer than this is a
#: hang, not a measurement: it is stopped and counted as failed.
STALL_SECONDS = 150.0

#: Recovery rounds whose decision digests are reported (and, at seed 0,
#: committed): enough to compare the burst and durable workloads.
DETAIL_ROUNDS = 8


def digest(value: object) -> str:
    """SHA-256 of a JSON-able value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """What one operation of a workload measured and checked."""

    setup_s: float
    #: Timed work: the regeneration pass, the replay, or the wave.
    work_s: float
    #: Latency samples in seconds: one per pass or replay, one per
    #: decision for the recovery workloads.
    samples_s: list[float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    #: Set-up plus work: the denominator of every per-layer share.
    cycle_s: float = 0.0
    #: :meth:`Tracer.summary` of a traced op, else ``None``.
    layers: dict | None = None
    #: Counters measured on every op, traced or not.
    counters: dict[str, float] = field(default_factory=dict)


def _traced(tracer: Tracer | None, op_id: object):
    return nullcontext() if tracer is None else tracer.active(op_id)


# ======================================================================
# paper_quick
# ======================================================================


@dataclass(frozen=True)
class PaperInputs:
    affected: StudyConfig
    rates: tuple[float, ...]
    slowdown: StudyConfig
    victims: tuple[str, ...]
    availability: AvailabilityPoint
    capacity: tuple[int, int]


def paper_inputs(seed: int, smoke: bool = False) -> PaperInputs:
    """The regeneration's configurations; seed 0 is the bench defaults."""

    def seeded(label: str, default: int) -> int:
        return default if seed == 0 else derive_seed(seed, label)

    if smoke:
        affected = StudyConfig(
            k=4, hosts_per_edge=4, num_coflows=12, duration=2.0, seed=97,
            failure_seed=seeded("fig1ab-failures", 5), failure_samples=1,
        )
        rates: tuple[float, ...] = (0.05, 0.1)
        slowdown = StudyConfig(
            k=4, hosts_per_edge=4, num_coflows=6, duration=1.0, seed=13,
            failure_seed=seeded("fig1c-failures", 5), failure_samples=1,
        )
        availability = AvailabilityPoint(24, 1, years=5, seed=seeded("sec51", 4))
        capacity = (4, 1)
    else:
        # The quick profile of benchmarks/conftest.py (k=6, 10:1
        # oversubscribed, its trace seeds, rates and sample counts) on
        # shorter traces: 30 coflows over 4 s instead of 90 over 12 s for
        # Fig 1a/b, 16 over 2 s for Fig 1c.  A full quick-profile pass
        # takes ~60 s; a ~2 s pass lets one run take the median of many,
        # which the host's bursts of contention cannot move.
        affected = StudyConfig(
            k=6, hosts_per_edge=30, num_coflows=30, duration=4.0, seed=97,
            failure_seed=seeded("fig1ab-failures", 5), failure_samples=3,
        )
        rates = (0.005, 0.01, 0.02, 0.03, 0.05)
        slowdown = StudyConfig(
            k=6, hosts_per_edge=30, num_coflows=16, duration=2.0, seed=13,
            failure_seed=seeded("fig1c-failures", 5), failure_samples=3,
        )
        availability = AvailabilityPoint(24, 1, years=200, seed=seeded("sec51", 4))
        capacity = (6, 2)
    victims: tuple[str, ...] = ("A.0.1", "E.0.0")
    if seed != 0:
        rng = ensure_rng(derive_seed(seed, "fig1c-victims"))
        half = slowdown.k // 2
        victims = tuple(
            f"{kind}.{int(rng.integers(slowdown.k))}.{int(rng.integers(half))}"
            for kind in ("A", "E")
        )
    return PaperInputs(
        affected=affected,
        rates=rates,
        slowdown=slowdown,
        victims=victims,
        availability=availability,
        capacity=capacity,
    )


def _affected(inputs: PaperInputs, runner: SweepRunner, kind: str) -> tuple:
    outcome = run_affected_sweep(inputs.affected, kind, inputs.rates, runner=runner)
    value = {
        arch: {
            "points": [
                [p.rate, p.flow_fraction, p.coflow_fraction] for p in result.points
            ],
            "single": list(result.single_failure_fractions),
        }
        for arch, result in outcome.values.items()
    }
    errors = [
        f"{arch}: fraction outside [0, 1]"
        for arch, entry in value.items()
        if not all(0.0 <= x <= 1.0 for p in entry["points"] for x in p[1:])
    ]
    errors += [
        f"{arch}: {len(entry['points'])} points for {len(inputs.rates)} rates"
        for arch, entry in value.items()
        if len(entry["points"]) != len(inputs.rates)
    ]
    return value, errors, [outcome.summary]


def _fig1c(inputs: PaperInputs, runner: SweepRunner) -> tuple:
    outcome = run_slowdown_study(inputs.slowdown, inputs.victims, runner=runner)
    value = {label: list(d.slowdowns) for label, d in outcome.values.items()}
    errors = []
    sharebackup = outcome.values.get("sharebackup")
    # The paper's claim: replacing the switch leaves no slowdown tail and
    # no stranded coflow, whichever switch failed.
    if sharebackup is None or not sharebackup.finite:
        errors.append("no ShareBackup slowdown samples")
    elif max(sharebackup.finite) >= 1.05 or sharebackup.never_finished:
        errors.append(
            f"ShareBackup max slowdown {max(sharebackup.finite):.3f}, "
            f"{sharebackup.never_finished} never finished"
        )
    return value, errors, [outcome.summary]


def exercise_guarantee(k: int, n: int) -> dict[str, int]:
    """§5.1 live: every group absorbs n failures and refuses the next."""
    net = ShareBackupNetwork(k, n=n)
    controller = ShareBackupController(net)
    absorbed = refused = 0
    for group_id in sorted(net.groups):
        group = net.groups[group_id]
        for i in range(n):
            absorbed += controller.handle_node_failure(
                group.logical_slots[i]
            ).fully_recovered
        overflow = controller.handle_node_failure(group.logical_slots[n])
        refused += not overflow.fully_recovered
    net.verify_fattree_equivalence()
    return {"absorbed": absorbed, "refused": refused, "groups": len(net.groups)}


def _sec51(inputs: PaperInputs, runner: SweepRunner) -> tuple:
    outcome = run_availability_sweep([inputs.availability], runner=runner)
    result = outcome.values[0]
    capacity = exercise_guarantee(*inputs.capacity)
    value = {"availability": asdict(result), "capacity": capacity}
    errors = []
    if result.failures < 1 or not 0.0 <= result.exposure_probability <= 1.0:
        errors.append(f"implausible Monte Carlo result {asdict(result)}")
    n = inputs.capacity[1]
    if capacity["absorbed"] != capacity["groups"] * n:
        errors.append(f"absorbed {capacity['absorbed']} of {capacity['groups']}x{n}")
    if capacity["refused"] != capacity["groups"]:
        errors.append(f"refused {capacity['refused']} of {capacity['groups']}")
    return value, errors, [outcome.summary]


#: The paper's Table 3: (bandwidth loss, path dilation, upstream repair).
TABLE3 = {
    "sharebackup": (False, False, False),
    "fat-tree": (True, False, True),
    "f10": (True, True, False),
    "aspen": (True, False, False),
}
TABLE3_K = 8


def _pinned_core(probe: PermutationProbe) -> str:
    """The core switch on the first pinned inter-pod path."""
    for _, path in sorted(probe.paths.items()):
        if path is not None and len(path.nodes) == 7:
            return path.nodes[3]
    raise RuntimeError("no inter-pod pinned path")


def _table3() -> tuple:
    """Table 3, measured as ``bench_table3_characteristics.py`` does.

    The table characterises one failure class per architecture, not a
    sample, so its victims do not depend on the seed.
    """
    rows = []
    net = ShareBackupNetwork(TABLE3_K, n=1)
    logical = net.logical
    controller = ShareBackupController(net)
    probe = PermutationProbe(logical, StaticEcmpRouter(logical))
    victim: list[str] = []

    def inject() -> None:
        victim.append(_pinned_core(probe))
        logical.fail_node(victim[0])

    def recover() -> None:
        if not controller.handle_node_failure(victim[0]).fully_recovered:
            raise RuntimeError(f"ShareBackup could not replace {victim[0]}")
        logical.restore_node(victim[0])
        net.verify_fattree_equivalence()

    rows.append(probe.measure("sharebackup", inject, recover=recover))
    for name, tree_cls, router_cls, greedy in (
        ("fat-tree", FatTree, GlobalOptimalRerouteRouter, True),
        ("f10", F10Tree, F10LocalRerouteRouter, False),
    ):
        tree = tree_cls(TABLE3_K)
        probe_r = PermutationProbe(tree, router_cls(tree))
        rows.append(
            probe_r.measure(
                name,
                lambda t=tree, p=probe_r: t.fail_node(_pinned_core(p)),
                greedy=greedy,
            )
        )
    # One link of Aspen's duplicated A.0.0-C.0 pair.
    aspen = AspenTree(TABLE3_K)
    pair = aspen.links_between("A.0.0", "C.0")
    rows.append(
        PermutationProbe(aspen, GlobalOptimalRerouteRouter(aspen)).measure(
            "aspen", lambda: aspen.fail_link(pair[0].link_id), greedy=True
        )
    )

    value = [list(row.table_row()) for row in rows]
    errors = [
        f"{row.architecture}: measured "
        f"{(row.bandwidth_loss, row.path_dilation, row.upstream_repair)}, "
        f"paper {TABLE3[row.architecture]}"
        for row in rows
        if (row.bandwidth_loss, row.path_dilation, row.upstream_repair)
        != TABLE3[row.architecture]
    ]
    return value, errors, []


def paper_pass(inputs: PaperInputs, tracer: Tracer | None, op_id: int) -> dict:
    """Regenerate the five artifacts once (runs in a child process)."""
    runner = SweepRunner(jobs=1, cache=NullCache())
    builders = {
        "fig1a": lambda: _affected(inputs, runner, "node"),
        "fig1b": lambda: _affected(inputs, runner, "link"),
        "fig1c": lambda: _fig1c(inputs, runner),
        "sec51": lambda: _sec51(inputs, runner),
        "table3": _table3,
    }
    artifacts: dict[str, dict] = {}
    summaries = []
    started = time.perf_counter()
    with _traced(tracer, op_id):
        for name in ARTIFACTS:
            t0 = time.perf_counter()
            # The op boundary: an artifact that raises is one failed
            # op, recorded with its error; the others still run.
            try:
                value, errors, runs = builders[name]()
            except Exception as exc:  # repro: noqa[EXC001]
                value, errors, runs = None, [repr(exc)], []
            artifacts[name] = {
                "s": time.perf_counter() - t0,
                "digest": None if value is None else digest(value),
                "errors": errors,
            }
            summaries.extend(runs)
    return {
        "work_s": time.perf_counter() - started,
        "artifacts": artifacts,
        "runner": {
            "tasks": sum(summary.tasks for summary in summaries),
            "cache_hits": sum(summary.cache_hits for summary in summaries),
        },
        "layers": None if tracer is None else tracer.summary(),
    }


class PaperQuick:
    """Each op regenerates the paper once in a fresh child process."""

    def __init__(
        self, seed: int, smoke: bool, expected: dict | None, spans: Path | None
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.expected = expected
        self.spans = spans
        self.first: dict[str, str | None] | None = None

    def op(self, index: int, traced: bool) -> OpResult:
        command = [
            sys.executable, str(RUN_PY), "--child-pass", "--index", str(index),
            "--seed", str(self.seed), "--trace", "1" if traced else "0",
        ]
        if self.smoke:
            command.append("--smoke")
        if traced and self.spans is not None:
            command += ["--spans", str(self.spans)]
        started = time.perf_counter()
        report = None
        try:
            child = subprocess.run(
                command, capture_output=True, text=True, timeout=STALL_SECONDS
            )
            failure = child.stderr[-500:]
            if child.returncode == 0:
                report = json.loads(child.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            failure = repr(exc)
        cycle = time.perf_counter() - started
        if report is None:
            return OpResult(
                setup_s=0.0,
                work_s=cycle,
                samples_s=[],
                attempted=len(ARTIFACTS),
                failed=len(ARTIFACTS),
                errors=[f"child pass failed: {failure}"],
                cycle_s=cycle,
            )
        artifacts = report["artifacts"]
        digests = {name: artifacts[name]["digest"] for name in ARTIFACTS}
        if self.first is None:
            self.first = digests
        errors = []
        failed = set()
        for name in ARTIFACTS:
            if artifacts[name]["errors"]:
                failed.add(name)
                errors += [f"{name}: {e}" for e in artifacts[name]["errors"]]
            if digests[name] != self.first[name]:
                failed.add(name)
                errors.append(f"{name}: digest differs from this run's first pass")
            if self.expected and digests[name] != self.expected.get(name):
                failed.add(name)
                errors.append(f"{name}: digest differs from the committed seed-0 one")
        counters = {
            f"experiments.{name}_s": artifacts[name]["s"] for name in ARTIFACTS
        }
        counters["runner.tasks"] = report["runner"]["tasks"]
        counters["runner.cache_hits"] = report["runner"]["cache_hits"]
        counters["setup.import_s"] = report["import_s"]
        return OpResult(
            setup_s=report["setup_s"],
            work_s=report["work_s"],
            samples_s=[report["work_s"]],
            attempted=len(ARTIFACTS),
            failed=len(failed),
            errors=errors,
            digest=digest(digests),
            cycle_s=report["setup_s"] + report["work_s"],
            layers=report["layers"],
            counters=counters,
        )

    def details(self) -> dict:
        return {"artifact_digests": self.first}

    def write_spans(self) -> None:
        """Nothing to do: each traced child writes its own spans."""


# ======================================================================
# k32_storm
# ======================================================================


@dataclass(frozen=True)
class StormInputs:
    config: StudyConfig
    #: Switches that fail at ``fail_at`` and come back at ``restore_at``.
    storm: tuple[str, ...]
    fail_at: float
    restore_at: float


def storm_inputs(seed: int, smoke: bool = False) -> StormInputs:
    """A k=32 trace plus a seeded storm: one aggregation switch per pod
    and ``k/2`` core switches fail a quarter into the arrival window and
    come back at three quarters.

    The fabric and trace seed are ``bench_engine_replay.py``'s; the
    trace is 30 coflows over 1 s (662 flows) instead of 120 over 4 s, so
    a replay takes ~2 s and one run takes the median of about ten.
    """
    k, coflows, duration = (8, 20, 2.0) if smoke else (32, 30, 1.0)
    config = StudyConfig(
        k=k, hosts_per_edge=2, num_coflows=coflows, duration=duration, seed=17
    )
    half = k // 2
    rng = ensure_rng(derive_seed(seed, "k32-storm"))
    aggs = [f"A.{pod}.{int(rng.integers(half))}" for pod in range(k)]
    cores = sorted(int(c) for c in rng.choice(half * half, size=half, replace=False))
    return StormInputs(
        config,
        tuple(aggs + [f"C.{c}" for c in cores]),
        fail_at=0.25 * duration,
        restore_at=0.75 * duration,
    )


def storm_replay(inputs: StormInputs, transform=None) -> tuple[float, float, object]:
    """Build a fresh fabric and replay the storm: ``(setup_s, run_s, result)``.

    ``transform`` may rewrite the materialised trace before the replay
    (the digest-sensitivity test perturbs one flow with it).
    """
    started = time.perf_counter()
    config = inputs.config
    tree = config.build_tree(FatTree)
    specs = config.build_specs(tree)
    if transform is not None:
        specs = transform(specs)
    sim = FluidSimulation(
        tree,
        GlobalOptimalRerouteRouter(tree),
        specs,
        horizon=config.horizon,
        allocator="vectorized",
    )
    for node in inputs.storm:
        sim.fail_node_at(inputs.fail_at, node)
        sim.restore_node_at(inputs.restore_at, node)
    ready = time.perf_counter()
    result = sim.run()
    return ready - started, time.perf_counter() - ready, result


def flow_digest(result) -> str:
    """SHA-256 over ``(flow_id, finish, reroutes)`` of every flow."""
    return digest(
        [[fid, rec.finish, rec.reroutes] for fid, rec in sorted(result.flows.items())]
    )


class K32Storm:
    """Each op replays the storm once on a freshly built fabric."""

    def __init__(
        self, seed: int, smoke: bool, expected: str | None, spans: Path | None
    ) -> None:
        self.inputs = storm_inputs(seed, smoke)
        self.expected = expected
        self.spans = spans
        self.tracer = Tracer()
        self.first: str | None = None

    def op(self, index: int, traced: bool) -> OpResult:
        tracer = self.tracer if traced else None
        with _traced(tracer, index):
            setup, run, result = storm_replay(self.inputs)
        errors = []
        unfinished = sum(1 for rec in result.flows.values() if not rec.completed)
        if unfinished:
            errors.append(f"{unfinished} flows never finished")
        value = flow_digest(result)
        if self.first is None:
            self.first = value
        if value != self.first:
            errors.append("flow digest differs from this run's first replay")
        if self.expected and value != self.expected:
            errors.append("flow digest differs from the committed seed-0 one")
        return OpResult(
            setup_s=setup,
            work_s=run,
            samples_s=[run],
            attempted=1,
            failed=1 if errors else 0,
            errors=errors,
            digest=value,
            cycle_s=setup + run,
            layers=None if tracer is None else tracer.summary(),
        )

    def details(self) -> dict:
        return {"flow_digest": self.first, "storm": list(self.inputs.storm)}

    def write_spans(self) -> None:
        """Write the last traced op's spans as JSONL."""
        if self.spans is not None and self.tracer.spans:
            self.tracer.dump_jsonl(self.spans)


# ======================================================================
# recovery_burst / recovery_durable
# ======================================================================


@dataclass(frozen=True)
class RecoveryInputs:
    seed: int
    k: int
    n: int
    switches: int
    wave: int
    slots: tuple[str, ...]

    def targets(self, round_index: int) -> list[str]:
        """One wave of node-failure targets, round-robin over a seeded
        permutation of every logical slot (as the service loadgen does)."""
        rng = ensure_rng(derive_seed(self.seed, "recovery-targets", round_index))
        order = rng.permutation(len(self.slots))
        return [self.slots[int(order[i % len(self.slots)])] for i in range(self.wave)]

    def controller(self, net: ShareBackupNetwork) -> ShareBackupController:
        return ShareBackupController(
            net, degrade_to_reroute=True, rng=derive_seed(self.seed, "controller")
        )


def recovery_inputs(seed: int, smoke: bool = False) -> RecoveryInputs:
    k, n, switches, wave = (4, 1, 500, 64) if smoke else (8, 2, 10_000, 1_024)
    net = ShareBackupNetwork(k, n)
    slots = tuple(
        sorted(slot for group in net.groups.values() for slot in group.logical_slots)
    )
    return RecoveryInputs(seed, k, n, switches, wave, slots)


def reference_decisions(inputs: RecoveryInputs, targets: list[str]) -> list[tuple]:
    """The decisions a call-driven controller makes for one wave.

    The service commits failure groups concurrently but each group's
    members in report order, and groups share no state, so its decision
    multiset must equal this sequential replay's.
    """
    net = ShareBackupNetwork(inputs.k, inputs.n)
    controller = inputs.controller(net)
    by_group: dict[str, list[str]] = defaultdict(list)
    for logical in targets:
        by_group[net.group_of(logical).group_id].append(logical)
    decided = []
    for group_id in sorted(by_group):
        for logical in by_group[group_id]:
            report = controller.handle_node_failure(logical)
            decided.append((logical, report_outcome(report), report.replaced))
    return decided


async def _heartbeat_storm(
    service: RecoveryService, fleet: list[str], stats: dict[str, float]
) -> None:
    """The synthetic fleet heartbeats every millisecond, forever.

    Submission time is summed per 512-heartbeat chunk, between the
    yields that let the service's ingest loop drain the queue.
    """
    clock = service.clock
    while True:
        now = clock.now()
        chunk = time.perf_counter()
        for index, switch in enumerate(fleet):
            service.submit_heartbeat(Heartbeat(switch, now))
            if (index + 1) % 512 == 0:
                stats["submit_s"] += time.perf_counter() - chunk
                await asyncio.sleep(0)
                chunk = time.perf_counter()
        stats["submit_s"] += time.perf_counter() - chunk
        await clock.sleep(0.001)


async def recovery_round(
    inputs: RecoveryInputs,
    targets: list[str],
    tracer: Tracer | None,
    wal_path: Path | None,
) -> dict:
    """One closed-loop wave through a fresh service; returns raw results."""
    started = time.perf_counter()
    net = ShareBackupNetwork(inputs.k, inputs.n)
    wal = DecisionWAL(wal_path) if wal_path is not None else None
    service = RecoveryService(
        inputs.controller(net),
        clock=WallClock(),
        config=ServiceConfig(
            report_queue_size=max(inputs.wave, 1024),
            # Failures arrive by report; a parked boundary scan cannot
            # condemn fleet switches whose heartbeats sit behind the storm.
            scan_interval=3600.0,
        ),
        wal=wal,
    )
    fleet = service.fleet.register_many("sw-", inputs.switches)
    if tracer is not None:
        tracer.watch_queue(service.reports)
    await service.start()
    setup = time.perf_counter() - started
    stats = {"submit_s": 0.0}
    storm = asyncio.ensure_future(_heartbeat_storm(service, fleet, stats))
    try:
        await asyncio.sleep(0)
        accepted = 0
        for logical in targets:
            accepted += service.submit_failure(
                FailureReport(
                    kind="node", logical=logical, reported_at=service.clock.now()
                )
            )
        deadline = time.perf_counter() + STALL_SECONDS
        while (
            len(service.decisions) + len(service.errors) < accepted
            and time.perf_counter() < deadline
        ):
            await asyncio.sleep(0.0005)
    finally:
        storm.cancel()
        await asyncio.gather(storm, return_exceptions=True)
        await service.stop()
        if wal is not None:
            wal.close()
    decisions = service.decisions
    return {
        "setup_s": setup,
        "decisions": decisions,
        "errors": list(service.errors),
        "accepted": accepted,
        "heartbeats": service.fleet.heartbeats_recorded,
        "heartbeats_dropped": service.heartbeats.counters.dropped_oldest,
        "heartbeat_submit_s": stats["submit_s"],
        "batches": service.resolver.batches_resolved,
    }


class Recovery:
    """recovery_burst (in-memory) and recovery_durable (file-backed WAL)."""

    def __init__(
        self,
        seed: int,
        smoke: bool,
        durable: bool,
        expected: list[str] | None,
        spans: Path | None,
    ) -> None:
        self.inputs = recovery_inputs(seed, smoke)
        self.durable = durable
        self.expected = expected
        self.spans = spans
        self.tracer = Tracer()
        self.round_digests: list[str] = []

    def op(self, index: int, traced: bool) -> OpResult:
        tracer = self.tracer if traced else None
        targets = self.inputs.targets(index)
        wal_dir = None
        if self.durable:
            OUT.mkdir(parents=True, exist_ok=True)
            wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=OUT))
        wal_path = None if wal_dir is None else wal_dir / "decisions.wal"
        try:
            with _traced(tracer, index):
                raw = asyncio.run(
                    recovery_round(self.inputs, targets, tracer, wal_path)
                )
            wal_bytes = 0 if wal_path is None else wal_path.stat().st_size
        finally:
            if wal_dir is not None:
                shutil.rmtree(wal_dir, ignore_errors=True)
        decisions = raw["decisions"]
        got = [(d.logical, d.outcome, d.replaced) for d in decisions]
        want = reference_decisions(self.inputs, targets)
        matched = sum((Counter(got) & Counter(want)).values())
        errors = [f"{e['logical']}: {e['error']} {e['detail']}" for e in raw["errors"]]
        if raw["accepted"] < len(targets):
            errors.append(f"{len(targets) - raw['accepted']} reports rejected")
        if matched < len(want):
            errors.append(
                f"{len(want) - matched} of {len(want)} decisions differ from "
                "the call-driven controller's"
            )
        value = digest(sorted(map(list, got)))
        self.round_digests.append(value)
        failed = len(targets) - matched
        committed = self.expected or []
        if index < len(committed) and value != committed[index]:
            errors.append(f"round {index}: digest differs from the committed one")
            failed = len(targets)
        latencies = [d.latency for d in decisions]
        wave_s = (
            max(d.decided_at for d in decisions) - min(d.detected_at for d in decisions)
            if decisions
            else 0.0
        )
        counters = {
            "ingest.heartbeats": raw["heartbeats"],
            "ingest.heartbeats_dropped": raw["heartbeats_dropped"],
            "ingest.heartbeat_submit_s": raw["heartbeat_submit_s"],
            "resolver.batches": raw["batches"],
            "resolver.resolved": len(decisions) + len(raw["errors"]),
            "decision_latency_s": sum(latencies),
            "wal.bytes": wal_bytes,
            "decisions": len(decisions),
        }
        return OpResult(
            setup_s=raw["setup_s"],
            work_s=wave_s,
            samples_s=latencies,
            attempted=len(targets),
            failed=failed,
            errors=errors,
            digest=value,
            cycle_s=raw["setup_s"] + wave_s,
            layers=None if tracer is None else tracer.summary(),
            counters=counters,
        )

    def details(self) -> dict:
        return {"round_digests": self.round_digests[:DETAIL_ROUNDS]}

    def write_spans(self) -> None:
        """Write the last traced op's spans as JSONL."""
        if self.spans is not None and self.tracer.spans:
            self.tracer.dump_jsonl(self.spans)


def make(
    name: str,
    seed: int,
    smoke: bool = False,
    expected: object = None,
    spans: Path | None = None,
):
    """The workload object for ``name``.

    ``expected`` holds its committed seed-0 digests (``None`` disables
    the comparison); ``spans`` is where a traced run writes the last
    traced op's spans.
    """
    if name == "paper_quick":
        return PaperQuick(seed, smoke, expected, spans)
    if name == "k32_storm":
        return K32Storm(seed, smoke, expected, spans)
    if name in ("recovery_burst", "recovery_durable"):
        return Recovery(seed, smoke, name == "recovery_durable", expected, spans)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
