"""The Figure 1(c) pipeline: CCT slowdown distributions under single failures.

Library form of the heavy benchmark: per architecture, one clean
baseline replay plus one replay per failure scenario, each compared
coflow-by-coflow.  ShareBackup runs through its control-plane adapter
(so recovery latency, spare exhaustion etc. are in the loop); the
rerouting architectures run their routers.

Like :mod:`repro.experiments.affected`, the study is in *plan /
evaluate / aggregate* form for the sweep runner: scenarios are pre-drawn
serially in :meth:`SlowdownStudy.plan`, each scenario replay is the pure
function :func:`evaluate_slowdown_payload` (one fluid simulation — the
unit of parallelism and of caching), and :meth:`SlowdownStudy.aggregate`
concatenates the per-scenario slowdown samples in plan order.  The
clean-baseline replay each scenario compares against is memoised per
worker process, so a pool of N workers pays for at most N baseline runs
per architecture and a warm cache pays for none.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import lru_cache

from ..analysis.cdf import percentile
from ..analysis.metrics import PinIndex, cct_slowdowns
from ..core.sharebackup import ShareBackupNetwork
from ..core.simadapter import ShareBackupSimulation
from ..failures.injector import FailureInjector, FailureScenario
from ..routing.reroute_f10 import F10LocalRerouteRouter
from ..routing.reroute_global import GlobalOptimalRerouteRouter
from ..simulation.engine import FluidSimulation
from ..topology.base import NodeKind
from ..topology.f10 import F10Tree
from ..topology.fattree import FatTree
from .config import StudyConfig

__all__ = [
    "SlowdownDigest",
    "SlowdownStudy",
    "PlannedReplay",
    "evaluate_slowdown_payload",
    "hottest_pod",
]

_REROUTING = {
    "fat-tree": (FatTree, GlobalOptimalRerouteRouter),
    "f10": (F10Tree, F10LocalRerouteRouter),
}

_DIGEST_LABELS = {"fat-tree": "fat-tree/global", "f10": "f10/local"}


def hottest_pod(specs, tree) -> int:
    """Pod with the largest outbound (inter-pod) byte demand."""
    pod_bytes: dict[int, float] = defaultdict(float)
    for coflow in specs:
        for flow in coflow.flows:
            src_pod = int(flow.src.split(".")[1])
            dst_pod = int(flow.dst.split(".")[1])
            if src_pod != dst_pod:
                pod_bytes[src_pod] += flow.size_bytes
    return max(pod_bytes, key=pod_bytes.get)


@dataclass(frozen=True)
class SlowdownDigest:
    """Summary of one architecture's slowdown sample."""

    architecture: str
    slowdowns: tuple[float, ...]

    @property
    def finite(self) -> tuple[float, ...]:
        return tuple(v for v in self.slowdowns if math.isfinite(v))

    @property
    def never_finished(self) -> int:
        return len(self.slowdowns) - len(self.finite)

    def row(self) -> str:
        finite = self.finite
        if not finite:
            return (
                f"{self.architecture:<26} n={len(self.slowdowns):<5} "
                f"(all {self.never_finished} never finished)"
            )
        return (
            f"{self.architecture:<26} n={len(self.slowdowns):<5} "
            f"median={percentile(finite, 50):6.2f}x  "
            f"p90={percentile(finite, 90):6.2f}x  "
            f"p99={percentile(finite, 99):6.2f}x  "
            f"max={max(finite):7.2f}x  never-finished={self.never_finished}"
        )


@dataclass(frozen=True)
class PlannedReplay:
    """One failure replay: a rerouting scenario or a ShareBackup victim."""

    task_id: str
    architecture: str  # "fat-tree" | "f10" | "sharebackup"
    scenario: FailureScenario | None  # rerouting replays
    victim: str | None  # sharebackup replays

    def payload(self, config: StudyConfig) -> dict:
        payload = {"config": asdict(config), "architecture": self.architecture}
        if self.architecture == "sharebackup":
            payload["victim"] = self.victim
        else:
            payload["scenario"] = {
                "nodes": list(self.scenario.nodes),
                "links": list(self.scenario.links),
            }
        return payload


# ----------------------------------------------------------------------
# worker-side evaluation (pure in the payload; baselines memoised)
# ----------------------------------------------------------------------


@lru_cache(maxsize=4)
def _rerouting_context(architecture: str, config_items: tuple):
    """(config, specs, baseline result, pin index) for one rerouting
    architecture; the pins are taken on the healthy baseline tree."""
    config = StudyConfig(**dict(config_items))
    tree_cls, router_cls = _REROUTING[architecture]
    baseline_tree = config.build_tree(tree_cls)
    specs = config.build_specs(baseline_tree)
    baseline = FluidSimulation(
        baseline_tree, router_cls(baseline_tree), specs, horizon=config.horizon
    ).run()
    return config, specs, baseline, PinIndex(baseline_tree, specs)


@lru_cache(maxsize=4)
def _sharebackup_context(config_items: tuple):
    """(config, specs, plain-fat-tree baseline result) for ShareBackup."""
    config = StudyConfig(**dict(config_items))
    net = ShareBackupNetwork(config.k, n=1)
    specs = config.build_specs(net.logical)
    plain = FatTree(config.k)
    baseline = FluidSimulation(
        plain, GlobalOptimalRerouteRouter(plain), specs, horizon=config.horizon
    ).run()
    return config, specs, baseline


def evaluate_slowdown_payload(payload: dict) -> dict:
    """Replay one failure; the ``slowdown`` worker of :mod:`repro.runner`.

    Returns ``{"slowdowns": [...]}`` — the per-coflow slowdown samples
    this replay contributes to its architecture's distribution
    (``inf`` marks coflows that never finished under the failure).
    """
    architecture = payload["architecture"]
    config_items = tuple(sorted(payload["config"].items()))

    if architecture == "sharebackup":
        config, specs, baseline = _sharebackup_context(config_items)
        net = ShareBackupNetwork(config.k, n=1)
        sim = ShareBackupSimulation(net, specs, horizon=config.horizon)
        sim.inject_switch_failure(0.0, payload["victim"])
        report = cct_slowdowns(baseline, sim.run())
        return {"slowdowns": report.all_slowdowns()}

    config, specs, baseline, pins = _rerouting_context(architecture, config_items)
    tree_cls, router_cls = _REROUTING[architecture]
    scenario = FailureScenario(
        nodes=tuple(payload["scenario"]["nodes"]),
        links=tuple(payload["scenario"]["links"]),
    )
    tree = config.build_tree(tree_cls)
    sim = FluidSimulation(tree, router_cls(tree), specs, horizon=config.horizon)
    for node in scenario.nodes:
        sim.fail_node_at(0.0, node)
    for link_id in scenario.links:
        sim.fail_link_at(0.0, link_id)
    report = cct_slowdowns(baseline, sim.run(), pins.affected_coflows(scenario))
    return {"slowdowns": report.affected_slowdowns()}


class SlowdownStudy:
    """Runs the CCT-slowdown comparison across the three architectures."""

    DEFAULT_VICTIMS = ("A.0.1", "E.0.0")

    def __init__(
        self,
        config: StudyConfig,
        victims: tuple[str, ...] = DEFAULT_VICTIMS,
    ):
        self.config = config
        self.victims = victims

    # ------------------------------------------------------------------

    def scenarios(self, tree, specs) -> list[FailureScenario]:
        """Single-failure sample set: the hottest pod's aggregation switch,
        random agg/core switches, and one agg–core link."""
        out = [FailureScenario(nodes=(f"A.{hottest_pod(specs, tree)}.1",))]
        injector = FailureInjector(
            tree,
            seed=self.config.failure_seed,
            switch_kinds=(NodeKind.AGGREGATION, NodeKind.CORE),
        )
        for _ in range(max(1, self.config.failure_samples - 1)):
            out.append(injector.single_node_failure())
        link = tree.links_between("A.0.0", "C.0")[0]
        out.append(FailureScenario(links=(link.link_id,)))
        return out

    # ------------------------------------------------------------------
    # plan / aggregate / run
    # ------------------------------------------------------------------

    def _plan_rerouting(self, architecture: str) -> list[PlannedReplay]:
        tree_cls, _ = _REROUTING[architecture]
        tree = self.config.build_tree(tree_cls)
        specs = self.config.build_specs(tree)
        return [
            PlannedReplay(
                task_id=f"slowdown/{architecture}/s{index}",
                architecture=architecture,
                scenario=scenario,
                victim=None,
            )
            for index, scenario in enumerate(self.scenarios(tree, specs))
        ]

    def _plan_sharebackup(self, victims: tuple[str, ...]) -> list[PlannedReplay]:
        return [
            PlannedReplay(
                task_id=f"slowdown/sharebackup/{victim}",
                architecture="sharebackup",
                scenario=None,
                victim=victim,
            )
            for victim in victims
        ]

    def plan(self) -> list[PlannedReplay]:
        """Every replay of the study, in the canonical aggregation order."""
        tasks: list[PlannedReplay] = []
        for architecture in _REROUTING:
            tasks.extend(self._plan_rerouting(architecture))
        tasks.extend(self._plan_sharebackup(self.victims))
        return tasks

    def aggregate(
        self, plan: list[PlannedReplay], outcomes: dict
    ) -> dict[str, SlowdownDigest]:
        """Concatenate per-replay samples into per-architecture digests."""
        samples: dict[str, list[float]] = defaultdict(list)
        for task in plan:
            samples[task.architecture].extend(outcomes[task.task_id]["slowdowns"])
        return {
            _DIGEST_LABELS.get(arch, arch): SlowdownDigest(arch, tuple(values))
            for arch, values in samples.items()
        }

    def _run_plan(self, plan: list[PlannedReplay]) -> dict[str, SlowdownDigest]:
        outcomes = {
            task.task_id: evaluate_slowdown_payload(task.payload(self.config))
            for task in plan
        }
        return self.aggregate(plan, outcomes)

    def run_rerouting(self, architecture: str) -> SlowdownDigest:
        if architecture not in _REROUTING:
            raise KeyError(architecture)
        plan = self._plan_rerouting(architecture)
        return self._run_plan(plan)[_DIGEST_LABELS[architecture]]

    def run_sharebackup(
        self, victims: tuple[str, ...] = DEFAULT_VICTIMS
    ) -> SlowdownDigest:
        plan = self._plan_sharebackup(victims)
        return self._run_plan(plan)["sharebackup"]

    def run(self) -> dict[str, SlowdownDigest]:
        return self._run_plan(self.plan())
