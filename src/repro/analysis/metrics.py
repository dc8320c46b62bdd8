"""Experiment metrics: affected flows/coflows and CCT slowdown.

These implement the paper's definitions verbatim (Section 2.2):

* "A flow is considered affected if it traverses a failed node or link,
  and a coflow is affected if at least one flow in its set gets
  affected."  Traversal is judged on the flow's *pre-failure* ECMP pin.
  Pins do not depend on the failure, so :class:`PinIndex` pins a trace
  once and maps every node and link to the flows crossing it; each
  scenario is then a union of lookups.
* "CCT slowdown, which is the CCT with failure divided by the CCT
  without failure."  Coflows that never finish under the failure map to
  ``inf`` — they sit at the top of the slowdown CDF.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from ..failures.injector import FailureScenario
from ..routing.ecmp import EcmpSelector
from ..simulation.engine import SimulationResult
from ..simulation.flow import CoflowSpec
from ..topology.base import segment_link
from ..topology.fattree import FatTree

__all__ = [
    "AffectedCounts",
    "PinIndex",
    "affected_by_scenario",
    "cct_slowdowns",
    "SlowdownReport",
]


@dataclass(frozen=True)
class AffectedCounts:
    """Result of one affected-fraction measurement (one Figure 1(a)/(b) point)."""

    flows_total: int
    flows_affected: int
    coflows_total: int
    coflows_affected: int

    @property
    def flow_fraction(self) -> float:
        return self.flows_affected / self.flows_total if self.flows_total else 0.0

    @property
    def coflow_fraction(self) -> float:
        return (
            self.coflows_affected / self.coflows_total if self.coflows_total else 0.0
        )

    @property
    def amplification(self) -> float:
        """Coflow-level impact over flow-level impact (the paper: 3.3×–90×)."""
        if self.flow_fraction == 0:
            return math.inf if self.coflow_fraction > 0 else 1.0
        return self.coflow_fraction / self.flow_fraction


class PinIndex:
    """Which flows' pre-failure ECMP pins cross each node and link.

    Built from one pinning pass over ``trace`` on the healthy ``tree``;
    flows are numbered in trace order.
    """

    def __init__(self, tree: FatTree, trace: Sequence[CoflowSpec]) -> None:
        if tree.failed_nodes() or tree.failed_links():
            raise ValueError("pins are taken on the pre-failure topology")
        selector = EcmpSelector(tree)
        self.coflow_ids = tuple(coflow.coflow_id for coflow in trace)
        #: Flow number → position of its coflow in the trace.
        self.coflow_of: list[int] = []
        self.by_node: dict[str, list[int]] = defaultdict(list)
        self.by_link: dict[int, list[int]] = defaultdict(list)
        for position, coflow in enumerate(trace):
            for spec in coflow.flows:
                flow = len(self.coflow_of)
                self.coflow_of.append(position)
                path = selector.select(spec.src, spec.dst, spec.flow_id)
                if path is None:
                    continue
                for node in path.nodes:
                    self.by_node[node].append(flow)
                for seg in path.segments(tree, spec.flow_id):
                    self.by_link[segment_link(seg)].append(flow)

    def affected_flows(self, scenario: FailureScenario) -> set[int]:
        """Numbers of the flows whose pins cross a failed node or link."""
        hit: set[int] = set()
        for node in scenario.nodes:
            hit.update(self.by_node.get(node, ()))
        for link_id in scenario.links:
            hit.update(self.by_link.get(link_id, ()))
        return hit

    def affected_coflows(self, scenario: FailureScenario) -> list[int]:
        """Ids of the coflows with an affected flow, in trace order."""
        positions = {self.coflow_of[flow] for flow in self.affected_flows(scenario)}
        return [self.coflow_ids[position] for position in sorted(positions)]

    def counts(self, scenario: FailureScenario) -> AffectedCounts:
        """The Figure 1(a)/(b) measurement of one scenario."""
        flows = self.affected_flows(scenario)
        return AffectedCounts(
            flows_total=len(self.coflow_of),
            flows_affected=len(flows),
            coflows_total=len(self.coflow_ids),
            coflows_affected=len({self.coflow_of[flow] for flow in flows}),
        )


def affected_by_scenario(
    tree: FatTree, trace: Sequence[CoflowSpec], scenario: FailureScenario
) -> AffectedCounts:
    """Count flows/coflows whose ECMP-pinned path crosses the scenario.

    The topology must be in the *pre-failure* state when called.  A
    study measuring many scenarios builds one :class:`PinIndex` instead.
    """
    return PinIndex(tree, trace).counts(scenario)


@dataclass(frozen=True)
class SlowdownReport:
    """CCT slowdowns of one failed run against its baseline."""

    #: coflow id → CCT(failure) / CCT(baseline); inf if unfinished under failure.
    slowdowns: dict[int, float]
    #: ids of coflows the failure actually touched (path intersection).
    affected: frozenset[int]

    def affected_slowdowns(self) -> list[float]:
        """Slowdowns of affected coflows — what Figure 1(c) plots."""
        return [self.slowdowns[c] for c in sorted(self.affected) if c in self.slowdowns]

    def all_slowdowns(self) -> list[float]:
        return [self.slowdowns[c] for c in sorted(self.slowdowns)]

    def max_slowdown(self) -> float:
        values = self.all_slowdowns()
        return max(values) if values else 1.0


def cct_slowdowns(
    baseline: SimulationResult,
    failed: SimulationResult,
    affected_coflows: Sequence[int] = (),
) -> SlowdownReport:
    """Per-coflow CCT slowdown between a baseline and a failure run.

    Coflows missing a baseline CCT (did not finish even without failure —
    trace truncated by the horizon) are excluded rather than guessed.
    """
    slowdowns: dict[int, float] = {}
    for cid, base_record in baseline.coflows.items():
        base_cct = base_record.cct
        if base_cct is None or base_cct <= 0:
            continue
        failed_record = failed.coflows.get(cid)
        if failed_record is None:
            continue
        failed_cct = failed_record.cct
        slowdowns[cid] = (
            math.inf if failed_cct is None else failed_cct / base_cct
        )
    return SlowdownReport(
        slowdowns=slowdowns, affected=frozenset(affected_coflows)
    )
