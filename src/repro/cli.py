"""Command-line interface: ``python -m repro <command>``.

Commands map onto the library's main entry points:

* ``info``      — build a ShareBackup network and print its inventory;
* ``cost``      — Table 2 / Figure 5 cost figures for (k, n);
* ``capacity``  — §5.1/§5.3 design space under a circuit-port budget;
* ``failover``  — run a live failover (and optional link diagnosis) on a
  freshly built network and print the controller's report;
* ``trace``     — generate synthetic coflow traces and convert between
  the JSON form and the coflow-benchmark text format;
* ``study``     — a small end-to-end failure study (affected fractions +
  recovery comparison) suitable for a quick demo;
* ``sweep``     — the paper's scenario sweeps (Fig 1a/1b/1c, §5.1
  availability) through the parallel runner: ``--jobs`` fans scenarios
  over a process pool, results are cached content-addressed under
  ``--cache-dir``, and ``--journal`` records every orchestration event
  as JSONL;
* ``chaos``     — seeded control-plane chaos campaigns
  (:mod:`repro.chaos`): N randomized fault schedules attacking the
  recovery system itself (circuit switches, backup pools, controller
  replicas, heartbeats), run through the parallel runner, with
  survival/degradation/MTTR statistics and an optional byte-reproducible
  campaign journal; ``--smoke`` is the small maximally-hostile campaign
  CI gates on;
* ``lint``      — the repository's own static-analysis pass
  (:mod:`repro.checks`): per-file rules (RNG discipline, determinism
  hazards, process-boundary safety, exception hygiene) plus
  whole-program rules over the linked project model (transitive seed
  taint, payload chasing, import cycles, dead exports), with an
  incremental cache under ``.repro-cache/lint/`` and ``text``/
  ``json``/``sarif`` output (see ``docs/static-analysis.md``).

The CLI is deliberately a thin shell over the public API — each command
body doubles as usage documentation for the corresponding library calls.

Exit codes: ``0`` success, ``1`` a run failed, ``2`` invalid arguments
(matching argparse).  Command bodies raise freely; :func:`main` converts
any exception into a one-line stderr message and a nonzero code.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]

SWEEP_STUDIES = ("fig1a", "fig1b", "fig1c", "availability")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ShareBackup (HotNets'17) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="build a network and print its inventory")
    p_info.add_argument("--k", type=int, default=8, help="fat-tree arity (even)")
    p_info.add_argument("--n", type=int, default=1, help="backups per failure group")

    p_cost = sub.add_parser("cost", help="Table 2 / Figure 5 cost figures")
    p_cost.add_argument("--k", type=int, default=48)
    p_cost.add_argument("--n", type=int, default=1)

    p_cap = sub.add_parser("capacity", help="design space under a port budget")
    p_cap.add_argument("--ports", type=int, default=32,
                       help="circuit-switch ports per side")

    p_fail = sub.add_parser("failover", help="run a live failover")
    p_fail.add_argument("--k", type=int, default=8)
    p_fail.add_argument("--n", type=int, default=1)
    p_fail.add_argument("--victim", default="A.0.1",
                        help="logical switch to fail (e.g. A.0.1, E.2.0, C.3)")
    p_fail.add_argument("--link", action="store_true",
                        help="fail the victim's first uplink instead (runs diagnosis)")

    p_trace = sub.add_parser("trace", help="generate/convert coflow traces")
    p_trace.add_argument("action", choices=("generate", "convert"))
    p_trace.add_argument("--racks", type=int, default=32)
    p_trace.add_argument("--coflows", type=int, default=100)
    p_trace.add_argument("--duration", type=float, default=60.0)
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("--in", dest="input", help="input file (convert)")
    p_trace.add_argument("--out", required=True, help="output file")
    p_trace.add_argument("--format", choices=("json", "benchmark"), default="json")

    p_study = sub.add_parser("study", help="small end-to-end failure study")
    p_study.add_argument("--k", type=int, default=6)
    p_study.add_argument("--coflows", type=int, default=60)
    p_study.add_argument("--seed", type=int, default=7)

    p_sweep = sub.add_parser(
        "sweep", help="parallel scenario sweeps through repro.runner"
    )
    p_sweep.add_argument(
        "--study", choices=SWEEP_STUDIES, default="fig1a",
        help="which experiment to sweep",
    )
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPUs, capped at 8; "
                              "1 = serial)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the result cache entirely")
    p_sweep.add_argument("--cache-dir", default=".repro-cache",
                         help="result-cache directory")
    p_sweep.add_argument("--journal", default=None, metavar="PATH",
                         help="append JSONL run-journal events to PATH")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-shard timeout in seconds")
    p_sweep.add_argument("--retries", type=int, default=2,
                         help="pool retries per shard before serial fallback")
    # study sizing (fig1a/fig1b/fig1c)
    p_sweep.add_argument("--k", type=int, default=6)
    p_sweep.add_argument("--hosts-per-edge", type=int, default=30)
    p_sweep.add_argument("--coflows", type=int, default=90)
    p_sweep.add_argument("--duration", type=float, default=12.0)
    p_sweep.add_argument("--seed", type=int, default=97)
    p_sweep.add_argument("--failure-seed", type=int, default=5)
    p_sweep.add_argument("--samples", type=int, default=3)
    p_sweep.add_argument("--rates", default=None,
                         help="comma-separated failure rates (fig1a/fig1b)")
    # availability sizing
    p_sweep.add_argument("--group", type=int, default=24,
                         help="failure-group size (availability)")
    p_sweep.add_argument("--spares", type=int, default=1,
                         help="spares per group (availability)")
    p_sweep.add_argument("--years", type=float, default=50.0,
                         help="simulated years per replica (availability)")
    p_sweep.add_argument("--replicas", type=int, default=4,
                         help="independent Monte Carlo replicas (availability)")

    p_chaos = sub.add_parser(
        "chaos", help="control-plane chaos campaigns (repro.chaos)"
    )
    p_chaos.add_argument("--k", type=int, default=6)
    p_chaos.add_argument("--n", type=int, default=1,
                         help="backups per failure group")
    p_chaos.add_argument("--scenarios", type=int, default=8,
                         help="independent fault schedules per campaign")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="campaign root seed (scenario seeds derive "
                              "from it)")
    p_chaos.add_argument("--duration", type=float, default=4.0,
                         help="workload duration per scenario (seconds)")
    p_chaos.add_argument("--coflows", type=int, default=12)
    p_chaos.add_argument("--profile",
                         choices=("mixed", "recovery-storm", "control-plane",
                                  "controller-storm"),
                         default="mixed",
                         help="fault-schedule profile")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="small fixed maximally-hostile campaign "
                              "(overrides sizing flags; the CI gate)")
    p_chaos.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPUs, capped at 8; "
                              "1 = serial)")
    p_chaos.add_argument("--no-cache", action="store_true",
                         help="bypass the result cache entirely")
    p_chaos.add_argument("--cache-dir", default=".repro-cache",
                         help="result-cache directory")
    p_chaos.add_argument("--journal", default=None, metavar="PATH",
                         help="write the deterministic campaign journal "
                              "(JSONL) to PATH")

    p_serve = sub.add_parser(
        "serve",
        help="run the asyncio recovery control-plane service (repro.service)",
    )
    p_serve.add_argument("--k", type=int, default=6, help="fat-tree arity")
    p_serve.add_argument("--n", type=int, default=1,
                         help="backups per failure group")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="controller RNG seed")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address for the HTTP API")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="bind port for the HTTP API (0 = ephemeral)")
    p_serve.add_argument("--heartbeat-queue", type=int, default=4096,
                         help="bounded heartbeat queue size (drop-oldest)")
    p_serve.add_argument("--report-queue", type=int, default=1024,
                         help="bounded failure-report queue size (reject)")
    p_serve.add_argument("--wal", default=None, metavar="PATH",
                         help="write-ahead decision log; federates the "
                              "service behind a controller cluster (epoch "
                              "fencing) and resumes any incomplete intents "
                              "found at PATH on start")
    p_serve.add_argument("--smoke", action="store_true",
                         help="CI gate: deterministic virtual-clock chaos "
                              "replay plus a wall-clock HTTP round-trip, "
                              "then exit")

    p_lint = sub.add_parser(
        "lint", help="repository invariant linter (repro.checks)"
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to check "
             "(default: src/repro, examples, benchmarks)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.add_argument(
        "--changed", action="store_true",
        help="lint only Python files modified or untracked per git "
             "(diff vs HEAD); mutually exclusive with explicit PATHs",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="format", help="report format (default: text)",
    )
    p_lint.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true",
        help="bypass the incremental lint cache",
    )
    p_lint.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="lint-cache directory "
             "(default: <repo root>/.repro-cache/lint)",
    )
    p_lint.add_argument(
        "--no-project", action="store_true",
        help="run only the per-file rules, skipping the whole-program "
             "pass and its corpus walk",
    )
    p_lint.add_argument(
        "--stats", action="store_true",
        help="print cache and run statistics to stderr",
    )

    return parser


# ----------------------------------------------------------------------
# command bodies
# ----------------------------------------------------------------------


def cmd_info(args) -> int:
    from repro.core import ImpersonationTables, ShareBackupNetwork

    net = ShareBackupNetwork(args.k, n=args.n)
    net.verify_fattree_equivalence()
    logical = net.logical
    print(f"ShareBackup network  k={args.k}  n={args.n}")
    print(f"  hosts:                 {logical.num_hosts}")
    print(f"  racks:                 {logical.num_racks}")
    print(f"  packet switches:       {len(logical.packet_switches())}")
    print(f"  backup switches:       {net.num_backup_switches}")
    print(f"  failure groups:        {len(net.groups)}")
    print(f"  circuit switches:      {net.num_circuit_switches} "
          f"({net.circuit_ports_per_side} ports/side)")
    report = ImpersonationTables(logical).tcam_report()
    print(f"  combined edge table:   {report['edge_group_entries']} entries "
          f"(TCAM fit: {report['fits']})")
    print("  logical topology:      verified == canonical fat-tree")
    return 0


def cmd_cost(args) -> int:
    from repro.cost import (
        E_DC,
        O_DC,
        aspen_extra_cost,
        fattree_cost,
        one_to_one_extra_cost,
        relative_extra_cost,
        sharebackup_extra_cost,
    )

    print(f"cost figures for k={args.k}, n={args.n} "
          f"({args.k ** 3 // 4:,} hosts)")
    for prices in (E_DC, O_DC):
        base = fattree_cost(args.k, prices)
        print(f"\n[{prices.name}] fat-tree baseline ${base:,.0f}")
        for name, extra in (
            ("sharebackup", sharebackup_extra_cost(args.k, args.n, prices)),
            ("aspen", aspen_extra_cost(args.k, prices)),
            ("1:1 backup", one_to_one_extra_cost(args.k, prices)),
        ):
            rel = relative_extra_cost(extra, args.k, prices)
            print(f"  +{name:<12} ${extra.total:>14,.0f}  ({rel:7.1%})")
    return 0


def cmd_capacity(args) -> int:
    from repro.failures import DEFAULT_FAILURE_MODEL

    model = DEFAULT_FAILURE_MODEL
    print(f"design space: circuit switches with {args.ports} ports/side "
          f"(k/2 + n + 2 <= {args.ports})")
    print(f"{'n':>3}{'max k':>7}{'hosts':>14}{'backup ratio':>14}{'group risk':>13}")
    for n in range(1, 9):
        half = args.ports - n - 2
        if half < 2:
            break
        k = 2 * half
        risk = model.concurrent_failure_probability(half, n)
        print(f"{n:>3}{k:>7}{k ** 3 // 4:>14,}{n / half:>13.2%}{risk:>13.2e}")
    return 0


def cmd_failover(args) -> int:
    from repro.core import ShareBackupController, ShareBackupNetwork

    net = ShareBackupNetwork(args.k, n=args.n)
    controller = ShareBackupController(net)
    if not net.logical.has_node(args.victim):
        print(f"error: {args.victim!r} is not a switch of the k={args.k} "
              "fat-tree", file=sys.stderr)
        return 2

    if args.link:
        neighbor = next(
            other
            for other in net.logical.neighbors(args.victim)
            if not other.startswith("H.")
        )
        end_a = _interface_toward(net, args.victim, neighbor)
        end_b = _interface_toward(net, neighbor, args.victim)
        report = controller.handle_link_failure(
            end_a, end_b, true_faulty_interfaces=(end_a,)
        )
        print(f"link failure {args.victim} -- {neighbor}")
        print(f"  replaced: {dict(report.replaced)}")
        for diag in controller.run_pending_diagnoses():
            print(f"  diagnosis: exonerated {diag.exonerated_devices()}, "
                  f"condemned {diag.condemned_devices()}")
    else:
        report = controller.handle_node_failure(args.victim)
        print(f"node failure {args.victim}")
        print(f"  replaced: {dict(report.replaced)}")
    print(f"  circuit switches reconfigured: {report.circuit_switches_touched}")
    print(f"  recovery time: {report.recovery_time * 1e3:.3f} ms")
    net.verify_fattree_equivalence()
    print("  logical topology: verified == canonical fat-tree")
    return 0


def _interface_toward(net, device: str, far: str):
    """(device, physical interface) of the link device--far, via the wiring."""
    from repro.core import ShareBackupSimulation

    shim = ShareBackupSimulation.__new__(ShareBackupSimulation)
    shim.net = net
    return shim._interface_end(device, far)


def cmd_trace(args) -> int:
    from repro.workload import (
        CoflowTraceGenerator,
        WorkloadConfig,
        load_coflow_benchmark,
        load_trace,
        save_coflow_benchmark,
        save_trace,
    )

    if args.action == "generate":
        cfg = WorkloadConfig(
            num_racks=args.racks,
            num_coflows=args.coflows,
            duration=args.duration,
            seed=args.seed,
        )
        trace = CoflowTraceGenerator(cfg).generate()
        if args.format == "json":
            save_trace(args.out, trace)
        else:
            save_coflow_benchmark(args.out, args.racks, trace)
        flows = sum(c.width for c in trace)
        print(f"wrote {len(trace)} coflows / {flows} flows to {args.out} "
              f"({args.format})")
        return 0

    if not args.input:
        print("error: convert needs --in", file=sys.stderr)
        return 2
    if args.format == "benchmark":
        trace = load_trace(args.input)
        save_coflow_benchmark(args.out, args.racks, trace)
    else:
        _racks, trace = load_coflow_benchmark(args.input)
        save_trace(args.out, trace)
    print(f"converted {len(trace)} coflows -> {args.out} ({args.format})")
    return 0


def cmd_study(args) -> int:
    from repro.analysis import affected_by_scenario
    from repro.core import ShareBackupNetwork, ShareBackupSimulation
    from repro.failures import FailureInjector
    from repro.topology import NodeKind
    from repro.workload import (
        CoflowTraceGenerator,
        WorkloadConfig,
        materialize_hosts,
    )

    net = ShareBackupNetwork(args.k, n=1)
    tree = net.logical
    cfg = WorkloadConfig(
        num_racks=tree.num_racks,
        num_coflows=args.coflows,
        duration=20.0,
        seed=args.seed,
    )
    specs = materialize_hosts(CoflowTraceGenerator(cfg).generate(), tree)
    injector = FailureInjector(
        tree, seed=args.seed, switch_kinds=(NodeKind.AGGREGATION, NodeKind.CORE)
    )
    scenario = injector.single_node_failure()
    counts = affected_by_scenario(tree, specs, scenario)
    victim = scenario.nodes[0]
    print(f"k={args.k} ShareBackup, {len(specs)} coflows, single failure: {victim}")
    print(f"  affected flows:   {counts.flow_fraction:6.1%}")
    print(f"  affected coflows: {counts.coflow_fraction:6.1%} "
          f"(amplification {counts.amplification:.1f}x)")

    sbs = ShareBackupSimulation(net, specs, horizon=100_000.0)
    sbs.inject_switch_failure(1.0, victim)
    result = sbs.run()
    stalls = [f.stalled_time for f in result.flows.values() if f.stalled_time > 0]
    reroutes = sum(f.reroutes for f in result.flows.values())
    print(f"  ShareBackup recovery: {len(result.completed_coflows())}/"
          f"{len(result.coflows)} coflows completed, {reroutes} reroutes, "
          f"worst stall {max(stalls) * 1e3:.2f} ms"
          if stalls
          else f"  ShareBackup recovery: all {len(result.coflows)} coflows "
               "completed; no flow even stalled")
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import StudyConfig
    from repro.rng import derive_seed
    from repro.runner import (
        AvailabilityPoint,
        NullCache,
        ResultCache,
        RunJournal,
        SweepRunner,
        run_affected_sweep,
        run_availability_sweep,
        run_slowdown_study,
    )

    rates = None
    if args.rates:
        try:
            rates = tuple(float(r) for r in args.rates.split(","))
        except ValueError:
            print(f"error: --rates must be comma-separated floats, "
                  f"got {args.rates!r}", file=sys.stderr)
            return 2
    if args.replicas < 1:
        print("error: --replicas must be >= 1", file=sys.stderr)
        return 2

    journal = RunJournal(args.journal)
    runner = SweepRunner(
        jobs=args.jobs,
        cache=NullCache() if args.no_cache else ResultCache(args.cache_dir),
        journal=journal,
        shard_timeout=args.timeout,
        max_retries=args.retries,
    )
    try:
        if args.study == "availability":
            points = [
                AvailabilityPoint(
                    group_size=args.group, spares=args.spares, years=args.years,
                    seed=derive_seed(args.seed, "availability", i),
                )
                for i in range(args.replicas)
            ]
            outcome = run_availability_sweep(points, runner=runner)
            print(f"availability sweep: group={args.group} spares={args.spares} "
                  f"{args.replicas} x {args.years:g} simulated years")
            for result in outcome.values:
                print(f"  exposure {result.exposure_probability:.3e}  "
                      f"({result.exposure_episodes} episodes, "
                      f"{result.failures:,} failures)")
            mean = sum(r.exposure_probability for r in outcome.values) / len(
                outcome.values
            )
            print(f"  mean exposure probability: {mean:.3e}")
        else:
            config = StudyConfig(
                k=args.k,
                hosts_per_edge=args.hosts_per_edge,
                num_coflows=args.coflows,
                duration=args.duration,
                seed=args.seed,
                failure_seed=args.failure_seed,
                failure_samples=args.samples,
            )
            if args.study == "fig1c":
                outcome = run_slowdown_study(config, runner=runner)
                print("CCT slowdown under single failures "
                      f"(k={args.k}, {args.coflows} coflows)")
                for digest in outcome.values.values():
                    print("  " + digest.row())
            else:
                kind = "node" if args.study == "fig1a" else "link"
                outcome = run_affected_sweep(
                    config, kind,
                    **({"rates": rates} if rates is not None else {}),
                    runner=runner,
                )
                for arch in sorted(outcome.values):
                    print(outcome.values[arch].table())
                    print()
        print(outcome.summary.table())
        return 0
    finally:
        journal.close()


def cmd_chaos(args) -> int:
    from repro.chaos import ChaosCampaignConfig, run_chaos_campaign
    from repro.runner import NullCache, ResultCache, SweepRunner

    if args.smoke:
        # The CI gate: small, fast, and maximally hostile — every
        # control-plane fault kind fires in every scenario.
        config = ChaosCampaignConfig(
            k=6, n=1, scenarios=2, seed=7, duration=2.0,
            num_coflows=8, profile="control-plane",
        )
    else:
        config = ChaosCampaignConfig(
            k=args.k,
            n=args.n,
            scenarios=args.scenarios,
            seed=args.seed,
            duration=args.duration,
            num_coflows=args.coflows,
            profile=args.profile,
        )
    runner = SweepRunner(
        jobs=args.jobs,
        cache=NullCache() if args.no_cache else ResultCache(args.cache_dir),
    )
    outcome = run_chaos_campaign(
        config, runner=runner, journal_path=args.journal
    )
    for index, scenario in enumerate(outcome.outcomes):
        verdict = "ok" if scenario.survived else "HUMAN INTERVENTION"
        routed = "routed" if scenario.all_traffic_routed else "STRANDED"
        print(f"  scenario {index}: {verdict:>18}  traffic {routed:>8}  "
              f"faults [{', '.join(scenario.fault_kinds)}]  "
              f"recovered {scenario.recovered}  rerouted {scenario.rerouted}  "
              f"retries {scenario.retries}")
    print(outcome.stats.table())
    print(outcome.summary.table())
    if args.journal:
        print(f"campaign journal: {args.journal}")
    return 0 if outcome.stats.human_interventions == 0 else 1


def cmd_serve(args) -> int:
    import asyncio

    if args.smoke:
        return _serve_smoke(args)

    print(f"recovery service: k={args.k} n={args.n} seed={args.seed}")
    asyncio.run(_serve_forever(args))
    return 0


def _build_service(args, config):
    """Build the service; ``--wal PATH`` federates it behind a cluster."""
    from repro.core import (
        ControllerCluster,
        ShareBackupController,
        ShareBackupNetwork,
    )
    from repro.service import DecisionWAL, RecoveryService

    net = ShareBackupNetwork(args.k, n=args.n)
    controller = ShareBackupController(
        net, degrade_to_reroute=True, rng=args.seed
    )
    cluster = wal = None
    if getattr(args, "wal", None):
        cluster = ControllerCluster(controller=controller)
        wal = DecisionWAL(args.wal)
    service = RecoveryService(
        controller, config=config, cluster=cluster, wal=wal
    )
    return net, service


async def _serve_forever(args) -> None:
    from repro.service import ServiceAPI, ServiceConfig

    import asyncio

    _net, service = _build_service(
        args,
        ServiceConfig(
            heartbeat_queue_size=args.heartbeat_queue,
            report_queue_size=args.report_queue,
        ),
    )
    api = ServiceAPI(service, host=args.host, port=args.port)
    await service.start()
    await api.start()
    if service.wal is not None:
        stats = service.wal.stats()
        print(f"decision WAL: {stats['path']}  (records={stats['records']} "
              f"incomplete={stats['incomplete']} "
              f"epoch={service.federation.epoch})")
    print(f"listening on {api.address}  (GET /healthz /metrics /decisions "
          "/events; POST /heartbeats /failures; Ctrl-C to stop)")
    try:
        await asyncio.Event().wait()  # serve until interrupted
    finally:
        await api.stop()
        await service.stop()
        if service.wal is not None:
            service.wal.close()


def _serve_smoke(args) -> int:
    """The ``service-smoke`` CI gate: both personalities, end to end.

    1. A deterministic virtual-clock replay of a maximally hostile
       (``control-plane`` profile) chaos schedule through the live
       service — every fault kind crosses the queues, the boundary
       scan, and the resolver.
    2. A wall-clock HTTP round-trip: real sockets, a posted failure, a
       decision observed on the JSONL event stream.
    """
    import asyncio

    from repro.chaos.harness import ChaosScenarioConfig
    from repro.service import run_service_replay

    config = ChaosScenarioConfig(
        k=args.k, n=args.n, seed=7, duration=0.2, profile="control-plane"
    )
    outcome = run_service_replay(config)
    print(f"replay: {len(outcome.decisions)} decisions "
          f"{outcome.outcome_counts()}  detections={len(outcome.detections)}  "
          f"errors={outcome.errors}  events={outcome.events_published}")
    if not outcome.decisions or outcome.errors:
        print("error: chaos replay produced no decisions (or errored)",
              file=sys.stderr)
        return 1

    result = asyncio.run(_smoke_http(args))
    print(f"http: decision for {result['logical']} via {result['address']} "
          f"latency={result['latency'] * 1e3:.3f} ms "
          f"stream_seq={result['stream_seq']}")
    if result.get("wal"):
        wal = result["wal"]
        print(f"wal: {wal['path']}  records={wal['records']} "
              f"commits={wal['commits']} incomplete={wal['incomplete']} "
              f"syncs={wal['syncs']}")
    print("service smoke: OK")
    return 0


async def _smoke_http(args) -> dict:
    import asyncio
    import json

    from repro.service import ServiceAPI, ServiceConfig

    # No switch heartbeats here: a live boundary scan would condemn
    # every one of them, so only the posted failure gets decided.
    net, service = _build_service(args, ServiceConfig(scan_interval=3600.0))
    api = ServiceAPI(service, host=args.host, port=0)
    await service.start()
    await api.start()
    try:
        victim = sorted(
            slot
            for group in net.groups.values()
            for slot in group.logical_slots
        )[0]
        health = await _http(api, "GET", "/healthz")
        assert health["status"] == "ok", health
        # The decision must surface on the live JSONL event stream, so
        # subscribe (the headers arrive once it is) before posting.
        reader, writer = await asyncio.open_connection(api.host, api.port)
        writer.write(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        while True:  # consume status line + headers
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if line in (b"\r\n", b"\n", b""):
                break
        posted = await _http(
            api, "POST", "/failures", {"kind": "node", "logical": victim}
        )
        assert posted.get("accepted"), posted
        stream_seq = None
        while stream_seq is None:
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            event = json.loads(line)
            if event.get("type") == "decision":
                stream_seq = event["seq"]
        writer.close()
        decisions = await _http(api, "GET", "/decisions")
        assert decisions["decisions"], decisions
        decision = decisions["decisions"][0]
        metrics = await _http(api, "GET", "/metrics")
        assert metrics["decisions"] >= 1, metrics
        if service.wal is not None:
            # Federated smoke: the decision is durably committed and the
            # federation surfaces in the metrics body.
            assert metrics["wal"]["commits"] >= 1, metrics
            assert metrics["federation"]["attached"], metrics
        return {
            "address": api.address,
            "logical": decision["logical"],
            "latency": decision["latency"],
            "stream_seq": stream_seq,
            "wal": metrics.get("wal"),
        }
    finally:
        await api.stop()
        await service.stop()
        if service.wal is not None:
            service.wal.close()


async def _http(api, method: str, path: str, body: dict | None = None) -> dict:
    """One-shot JSON request against a running ServiceAPI."""
    import asyncio
    import json

    reader, writer = await asyncio.open_connection(api.host, api.port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=10.0)
    writer.close()
    head, _, body_text = raw.partition(b"\r\n\r\n")
    return json.loads(body_text)


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.checks import (
        DEFAULT_TARGETS,
        all_rules,
        changed_source_files,
        lint_paths,
        project_rules,
        render_json,
        render_sarif,
    )

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.code}  {rule.name}  [{scope}]")
            print(f"    {rule.rationale}")
        for rule in project_rules():
            print(f"{rule.code}  {rule.name}  [whole-program]")
            print(f"    {rule.rationale}")
        return 0

    if args.changed and args.paths:
        print(
            "error: --changed picks its own targets from git; "
            "drop the explicit paths",
            file=sys.stderr,
        )
        return 2
    if args.changed:
        try:
            paths = changed_source_files()
        except RuntimeError as exc:
            print(f"error: --changed needs git: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print("clean: no changed Python files vs HEAD")
            return 0
    elif args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                f"error: no such path: "
                f"{', '.join(str(p) for p in missing)}",
                file=sys.stderr,
            )
            return 2
    else:
        # Default targets are best-effort: lint whichever exist here.
        paths = [Path(t) for t in DEFAULT_TARGETS if Path(t).exists()]
        if not paths:
            print(
                "error: no paths given and none of the default targets "
                f"({', '.join(DEFAULT_TARGETS)}) exist here; run from the "
                "repository root or pass explicit paths",
                file=sys.stderr,
            )
            return 2

    result = lint_paths(
        paths,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        project=not args.no_project,
    )
    diagnostics = result.diagnostics

    if args.format == "sarif":
        report = render_sarif(diagnostics, root=result.root)
    elif args.format == "json":
        report = render_json(diagnostics, stats=result.stats.as_dict())
    else:
        lines = [d.render() for d in diagnostics]
        if not diagnostics:
            lines.append(
                f"clean: {len(paths)} target(s), "
                f"{result.stats.linted_files} file(s)"
            )
        report = "\n".join(lines) + "\n"

    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)

    if args.stats:
        stats = result.stats
        print(
            f"lint: {stats.linted_files} linted / {stats.corpus_files} "
            f"corpus files, {stats.parsed_files} parsed, "
            f"{stats.cache_hits} cache hits, {stats.cache_misses} misses",
            file=sys.stderr,
        )
    if diagnostics:
        print(f"{len(diagnostics)} problem(s) found", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "info": cmd_info,
    "cost": cmd_cost,
    "capacity": cmd_capacity,
    "failover": cmd_failover,
    "trace": cmd_trace,
    "study": cmd_study,
    "sweep": cmd_sweep,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "lint": cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; never lets a command escape as a traceback.

    Argument problems exit ``2`` (argparse's own convention, kept for
    command-body validation too); failed runs exit ``1``.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ValueError as exc:
        # Invalid parameter combinations surface as ValueError from the
        # library's constructors (odd k, bad rates, empty traces, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Audited catch-all: the CLI boundary is the one place a failure is
    # converted to an exit code instead of propagating or journaling.
    except Exception as exc:  # repro: noqa[EXC001]
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
