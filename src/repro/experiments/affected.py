"""The Figure 1(a)/(b) pipeline: affected fractions vs failure rate.

Pure library form of the sweep the benchmarks print: for each
architecture and each failure rate, sample scenarios, compute the
affected flow/coflow fractions on the pre-failure ECMP pins, and
aggregate.  Single-failure statistics (the paper's in-text 29.6% / 17%
points) are produced alongside.

The study is written in *plan / evaluate / aggregate* form so the sweep
runner (:mod:`repro.runner`) can execute it shard-parallel with results
bit-identical to the serial path:

* :meth:`AffectedSweepStudy.plan` pre-draws every failure scenario from
  the study's seeded injector — all randomness happens here, serially,
  so the scenario set is independent of how evaluation is scheduled;
* :func:`evaluate_affected_payload` measures one (architecture,
  scenario) pair from a JSON payload — a pure function, safe to run in
  any worker process and to cache by content;
* :meth:`AffectedSweepStudy.aggregate` folds the measurements back in
  plan order, using the same float arithmetic as the historical serial
  loop.

:meth:`AffectedSweepStudy.run` is simply plan → evaluate each in-process
→ aggregate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

from ..analysis.metrics import PinIndex
from ..failures.injector import FailureInjector, FailureScenario
from ..topology.f10 import F10Tree
from ..topology.fattree import FatTree
from .config import StudyConfig

__all__ = [
    "SweepPoint",
    "AffectedSweepResult",
    "AffectedSweepStudy",
    "PlannedEvaluation",
    "evaluate_affected_payload",
]

DEFAULT_RATES = (0.005, 0.01, 0.02, 0.03, 0.05)

TREE_CLASSES = {"fat-tree": FatTree, "f10": F10Tree}


@dataclass(frozen=True)
class SweepPoint:
    """One (rate, fractions) point, averaged over the scenario samples."""

    rate: float
    flow_fraction: float
    coflow_fraction: float

    @property
    def amplification(self) -> float:
        if self.flow_fraction == 0:
            return float("inf") if self.coflow_fraction else 1.0
        return self.coflow_fraction / self.flow_fraction


@dataclass(frozen=True)
class AffectedSweepResult:
    """One architecture's sweep plus its single-failure statistics."""

    architecture: str
    kind: str  # "node" | "link"
    points: tuple[SweepPoint, ...]
    single_failure_fractions: tuple[float, ...]  # coflow fractions

    @property
    def worst_single(self) -> float:
        return max(self.single_failure_fractions, default=0.0)

    @property
    def mean_single(self) -> float:
        if not self.single_failure_fractions:
            return 0.0
        return sum(self.single_failure_fractions) / len(self.single_failure_fractions)

    def table(self) -> str:
        lines = [
            f"[{self.architecture}] affected vs {self.kind} failure rate",
            f"{'rate':>8}{'flows':>10}{'coflows':>10}{'amplify':>10}",
        ]
        for p in self.points:
            lines.append(
                f"{p.rate:>8.3f}{p.flow_fraction:>10.3%}"
                f"{p.coflow_fraction:>10.3%}{p.amplification:>9.1f}x"
            )
        lines.append(
            f"single-{self.kind} failures: mean {self.mean_single:.1%}, "
            f"worst {self.worst_single:.1%} of coflows affected"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class PlannedEvaluation:
    """One (architecture, scenario) measurement of an affected sweep."""

    task_id: str
    architecture: str
    kind: str  # "node" | "link"
    slot: str  # "rate" | "single"
    rate: float | None
    sample: int
    scenario: FailureScenario

    def payload(self, config: StudyConfig) -> dict:
        """The JSON-safe worker input (also the cache identity)."""
        return {
            "config": asdict(config),
            "architecture": self.architecture,
            "scenario": {
                "nodes": list(self.scenario.nodes),
                "links": list(self.scenario.links),
            },
        }


@lru_cache(maxsize=4)
def _evaluation_context(architecture: str, config_items: tuple) -> PinIndex:
    """The pin index of one architecture/config's trace, memoised.

    Worker processes evaluate many scenarios of the same study; the
    fabric, trace, and ECMP pins are identical across them and dominate
    the cost, so they are pinned once per process and every scenario is
    answered by index lookups.
    """
    config = StudyConfig(**dict(config_items))
    tree = config.build_tree(TREE_CLASSES[architecture])
    return PinIndex(tree, config.build_specs(tree))


def evaluate_affected_payload(payload: dict) -> dict:
    """Measure one scenario; the ``affected`` worker of :mod:`repro.runner`.

    Returns raw integer counts (not fractions) so the result is exactly
    JSON-round-trippable and aggregation controls the float arithmetic.
    """
    pins = _evaluation_context(
        payload["architecture"], tuple(sorted(payload["config"].items()))
    )
    scenario = FailureScenario(
        nodes=tuple(payload["scenario"]["nodes"]),
        links=tuple(payload["scenario"]["links"]),
    )
    counts = pins.counts(scenario)
    return {
        "flows_total": counts.flows_total,
        "flows_affected": counts.flows_affected,
        "coflows_total": counts.coflows_total,
        "coflows_affected": counts.coflows_affected,
    }


class AffectedSweepStudy:
    """Runs the affected-fraction sweep for fat-tree and F10."""

    ARCHITECTURES = (("fat-tree", FatTree), ("f10", F10Tree))

    def __init__(self, config: StudyConfig, rates: tuple[float, ...] = DEFAULT_RATES):
        if any(not 0 < r <= 1 for r in rates):
            raise ValueError(f"rates must be in (0,1]: {rates}")
        self.config = config
        self.rates = rates

    # ------------------------------------------------------------------
    # plan / aggregate / run
    # ------------------------------------------------------------------

    def _check_kind(self, kind: str) -> None:
        if kind not in ("node", "link"):
            raise ValueError(f"kind must be node|link, got {kind!r}")

    def single_samples(self) -> int:
        return max(6, self.config.failure_samples)

    def plan(self, kind: str) -> list[PlannedEvaluation]:
        """Pre-draw every scenario of the sweep, in the canonical order.

        Per architecture: ``failure_samples`` scenarios per rate (the
        sweep curves), then the single-failure sample set — one seeded
        injector drawn in that fixed order, exactly as the serial loop
        always did, so the scenario set is a pure function of the
        config regardless of execution schedule.
        """
        self._check_kind(kind)
        cfg = self.config
        tasks: list[PlannedEvaluation] = []
        for arch, tree_cls in self.ARCHITECTURES:
            injector = FailureInjector(cfg.build_tree(tree_cls), seed=cfg.failure_seed)
            for rate_index, rate in enumerate(self.rates):
                for sample in range(cfg.failure_samples):
                    scenario = (
                        injector.node_failures_at_rate(rate)
                        if kind == "node"
                        else injector.link_failures_at_rate(rate)
                    )
                    tasks.append(
                        PlannedEvaluation(
                            task_id=(
                                f"affected/{kind}/{arch}"
                                f"/rate{rate_index}/s{sample}"
                            ),
                            architecture=arch,
                            kind=kind,
                            slot="rate",
                            rate=rate,
                            sample=sample,
                            scenario=scenario,
                        )
                    )
            for sample in range(self.single_samples()):
                scenario = (
                    injector.single_node_failure()
                    if kind == "node"
                    else injector.single_link_failure()
                )
                tasks.append(
                    PlannedEvaluation(
                        task_id=f"affected/{kind}/{arch}/single/s{sample}",
                        architecture=arch,
                        kind=kind,
                        slot="single",
                        rate=None,
                        sample=sample,
                        scenario=scenario,
                    )
                )
        return tasks

    def aggregate(self, kind: str, outcomes: dict) -> dict[str, AffectedSweepResult]:
        """Fold per-task counts back into per-architecture results.

        ``outcomes`` maps task id → the dict returned by
        :func:`evaluate_affected_payload`.  Accumulation order and
        arithmetic match the historical serial loop exactly, so a
        parallel run aggregates to bit-identical floats.
        """
        self._check_kind(kind)
        cfg = self.config

        def fractions(task_id: str) -> tuple[float, float]:
            c = outcomes[task_id]
            flows = c["flows_affected"] / c["flows_total"] if c["flows_total"] else 0.0
            coflows = (
                c["coflows_affected"] / c["coflows_total"]
                if c["coflows_total"]
                else 0.0
            )
            return flows, coflows

        results: dict[str, AffectedSweepResult] = {}
        for arch, _ in self.ARCHITECTURES:
            points = []
            for rate_index, rate in enumerate(self.rates):
                flow_sum = coflow_sum = 0.0
                for sample in range(cfg.failure_samples):
                    flows, coflows = fractions(
                        f"affected/{kind}/{arch}/rate{rate_index}/s{sample}"
                    )
                    flow_sum += flows
                    coflow_sum += coflows
                points.append(
                    SweepPoint(
                        rate,
                        flow_sum / cfg.failure_samples,
                        coflow_sum / cfg.failure_samples,
                    )
                )
            singles = [
                fractions(f"affected/{kind}/{arch}/single/s{sample}")[1]
                for sample in range(self.single_samples())
            ]
            results[arch] = AffectedSweepResult(
                architecture=arch,
                kind=kind,
                points=tuple(points),
                single_failure_fractions=tuple(singles),
            )
        return results

    def run(self, kind: str) -> dict[str, AffectedSweepResult]:
        """``kind`` is ``"node"`` (Fig 1a) or ``"link"`` (Fig 1b)."""
        plan = self.plan(kind)
        outcomes = {
            task.task_id: evaluate_affected_payload(task.payload(self.config))
            for task in plan
        }
        return self.aggregate(kind, outcomes)
