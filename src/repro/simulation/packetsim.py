"""A slotted packet-level simulator for cross-validating the fluid model.

DESIGN.md's central substitution replaces the paper's packet-level
simulator with max-min fluid rates.  This module keeps the reproduction
honest about that substitution: a small store-and-forward packet
simulator whose steady-state per-flow throughputs are compared against
:func:`repro.simulation.fairshare.max_min_rates` in the test suite.

Model (a lossless, credit-based fabric — the classic setting in which
hop-by-hop round-robin converges to max-min fairness):

* time advances in slots; every directed link transmits at most one
  packet per slot (all links have equal capacity, as in the paper's
  10 Gbps fabric);
* each directed link keeps one bounded FIFO queue *per flow*; a packet
  moves forward only when the next hop's queue for that flow has room
  (hop-by-hop backpressure — no drops);
* each link serves its flow queues in round-robin order, skipping flows
  that are empty or blocked downstream;
* sources inject greedily (infinite backlog) subject to the first hop's
  queue bound.

Throughput is measured in packets/slot over a window after a warm-up.
This is *not* a performance tool (it is thousands of times slower than
the fluid engine); it exists purely as a validation oracle on small
scenarios, which is exactly how the tests use it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..routing.paths import Path
from ..topology.base import Topology

__all__ = ["PacketFlow", "PacketLevelSimulator"]


@dataclass(frozen=True)
class PacketFlow:
    """One greedy (infinite-backlog) flow pinned to a path."""

    flow_id: int
    path: Path


@dataclass
class _FlowState:
    spec: PacketFlow
    segments: tuple[int, ...]
    #: per-hop queues: queues[i] buffers packets awaiting segment i's link
    queues: list[deque] = field(default_factory=list)
    delivered: int = 0


class PacketLevelSimulator:
    """Slotted store-and-forward simulation with per-flow backpressure."""

    def __init__(
        self,
        topo: Topology,
        flows: list[PacketFlow],
        queue_capacity: int = 4,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.topo = topo
        self.queue_capacity = queue_capacity
        self.flows: dict[int, _FlowState] = {}
        #: directed segment id -> flow ids crossing it, in round-robin order
        self._seg_flows: dict[int, list[int]] = {}
        #: round-robin cursor per segment
        self._cursor: dict[int, int] = {}
        for flow in flows:
            segments = flow.path.segments(topo, flow.flow_id)
            state = _FlowState(
                spec=flow,
                segments=segments,
                queues=[deque() for _ in segments],
            )
            self.flows[flow.flow_id] = state
            for seg in segments:
                self._seg_flows.setdefault(seg, []).append(flow.flow_id)
        for seg in self._seg_flows:
            self._cursor[seg] = 0
        self._slots = 0

    # ------------------------------------------------------------------

    def _hop_index(self, state: _FlowState, seg: int) -> int:
        return state.segments.index(seg)

    def _can_forward(self, state: _FlowState, hop: int) -> bool:
        """Queue ``hop`` has a packet and the next hop has room (or is exit)."""
        if not state.queues[hop]:
            return False
        if hop + 1 >= len(state.queues):
            return True
        return len(state.queues[hop + 1]) < self.queue_capacity

    def step(self) -> None:
        """Advance one slot: inject, then transmit one packet per link."""
        # Source injection: greedy up to the first queue's bound.
        for state in self.flows.values():
            while len(state.queues[0]) < self.queue_capacity:
                state.queues[0].append(self._slots)
        # Transmission: each directed link picks one eligible flow,
        # round-robin.  Departures are staged so that a packet cannot
        # traverse two links within one slot.
        staged: list[tuple[_FlowState, int]] = []
        for seg, flow_ids in self._seg_flows.items():
            cursor = self._cursor[seg]
            for offset in range(len(flow_ids)):
                fid = flow_ids[(cursor + offset) % len(flow_ids)]
                state = self.flows[fid]
                hop = self._hop_index(state, seg)
                if self._can_forward(state, hop):
                    staged.append((state, hop))
                    self._cursor[seg] = (cursor + offset + 1) % len(flow_ids)
                    break
        for state, hop in staged:
            packet = state.queues[hop].popleft()
            if hop + 1 < len(state.queues):
                state.queues[hop + 1].append(packet)
            else:
                state.delivered += 1
        self._slots += 1

    def run(self, slots: int) -> None:
        for _ in range(slots):
            self.step()

    # ------------------------------------------------------------------

    def throughputs(self, warmup: int, window: int) -> dict[int, float]:
        """Per-flow delivery rate (packets/slot) over a measurement window.

        Runs ``warmup`` slots, snapshots deliveries, runs ``window`` more,
        and returns the per-flow rate over the window.
        """
        if warmup < 0 or window < 1:
            raise ValueError("need warmup >= 0 and window >= 1")
        self.run(warmup)
        before = {fid: s.delivered for fid, s in self.flows.items()}
        self.run(window)
        return {
            fid: (state.delivered - before[fid]) / window
            for fid, state in self.flows.items()
        }

    @property
    def slots_elapsed(self) -> int:
        return self._slots
