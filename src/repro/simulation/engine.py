"""The fluid (flow-level) network simulator.

Methodology matches the paper's failure study (Section 2.2): coflow
traces are replayed on a topology, flows are pinned to ECMP paths, and
between events every flow progresses at its max-min fair share of the
bottleneck bandwidth.  Failures and repairs are scheduled actions that
mutate the topology; the router policy decides what happens to flows
whose paths die.  The paper "simulates the final states after failures
without the transient dynamics" — the engine supports that directly by
scheduling the failure before the first arrival and never repairing it.

Event processing order at one instant: exogenous events (arrivals,
failures, control actions) fire in schedule order, then flows are
re-pathed if the topology changed, then rates are recomputed once, then
the clock advances to the earlier of the next exogenous event and the
next flow completion.  Completions are *endogenous*: with
piecewise-constant rates they are computed, never scheduled, so no stale
completion events can exist.

Hot-path design (see ``docs/simulator.md`` for the full story): the
allocation problem stays resident as numpy arrays
(:mod:`repro.simulation.columnar`).  Segments are interned to dense
integer ids once at construction; arrivals append rows to a columnar
flow table, completions compact them out, topology changes rebuild it,
and every reallocation is one batched water-fill over the whole padded
path matrix.  Only flows whose rate actually changed are touched.
Completions come off a lazy projected-finish min-heap, and per-flow
``(updated_at, remaining_bits)`` bookkeeping means a flow's residual is
only materialised when its rate changes — there is no per-event sweep
over the active set.

The scalar from-scratch solver is retained as the *oracle*
(``allocator="oracle"``).  The batched solve reproduces it bit-for-bit
by construction (shared ripe-pass semantics), so records and monitor
streams match to the last bit, which ``tests/test_engine_incremental.py``
enforces.  :data:`ENGINE_REV` names the revision of this machinery; the
sweep-result cache folds it into every key so cached numbers can never
outlive the allocator that produced them.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..routing.paths import DirectedSegment
from ..routing.router import Router
from ..topology.base import Topology
from .columnar import ColumnarWorkspace, FlowTable, waterfill
from .events import EventQueue, SimClock
from .fairshare import AllocatorWorkspace, FairShareError, allocate_dense
from .flow import CoflowSpec, FlowPhase, FlowSpec, FlowState

__all__ = [
    "ENGINE_REV",
    "DEFAULT_ALLOCATOR",
    "FluidSimulation",
    "SimulationResult",
    "FlowRecord",
    "CoflowRecord",
]

#: Revision of the engine/allocator implementation.  Bump whenever the
#: (trace → results) map can change — the runner's content-addressed
#: cache folds this into every key (see :mod:`repro.runner.cache`).
ENGINE_REV = 3

#: Allocator mode used when :class:`FluidSimulation` is not told one.
#: "vectorized" solves the full problem as one batched numpy water-fill
#: over a persistent columnar flow table; "oracle" is the from-scratch
#: scalar reference.  The two are bit-identical by construction.
DEFAULT_ALLOCATOR = "vectorized"

_ALLOCATORS = ("vectorized", "oracle")

#: A flow is done when fewer bits than this remain (≈ one-millionth of a bit).
_COMPLETION_EPS = 1e-6
#: Ignore time deltas smaller than this (simultaneity tolerance).
_TIME_EPS = 1e-12


@dataclass
class FlowRecord:
    """Immutable-ish per-flow outcome exposed in results."""

    spec: FlowSpec
    start: float
    finish: Optional[float]
    initial_hops: Optional[int]
    final_hops: Optional[int]
    reroutes: int
    stalled_time: float

    @property
    def completed(self) -> bool:
        return self.finish is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.finish is None else self.finish - self.start

    @property
    def dilated(self) -> bool:
        """True if the flow ended on a longer path than it started on."""
        return (
            self.initial_hops is not None
            and self.final_hops is not None
            and self.final_hops > self.initial_hops
        )


@dataclass
class CoflowRecord:
    """Per-coflow outcome; CCT is the paper's application-level metric."""

    spec: CoflowSpec
    finish: Optional[float]

    @property
    def completed(self) -> bool:
        return self.finish is not None

    @property
    def cct(self) -> Optional[float]:
        """Coflow completion time: lifetime of the most long-lived flow."""
        return None if self.finish is None else self.finish - self.spec.arrival


@dataclass
class SimulationResult:
    """Everything an experiment needs from one run."""

    flows: dict[int, FlowRecord]
    coflows: dict[int, CoflowRecord]
    end_time: float
    horizon: Optional[float]
    events_processed: int
    reallocations: int

    def cct(self, coflow_id: int) -> Optional[float]:
        return self.coflows[coflow_id].cct

    def completed_coflows(self) -> list[CoflowRecord]:
        return [c for c in self.coflows.values() if c.completed]

    def unfinished_coflows(self) -> list[CoflowRecord]:
        return [c for c in self.coflows.values() if not c.completed]

    @property
    def all_completed(self) -> bool:
        return all(c.completed for c in self.coflows.values())


class FluidSimulation:
    """One end-to-end fluid simulation run.

    Args:
        topo: the (mutable) topology; failure actions mutate it in place.
            The engine restores nothing — callers own pre/post state.
        router: path policy (ECMP pinning + rerouting behaviour).
        trace: coflows to replay, in any order (arrivals are scheduled).
        horizon: optional wall-clock cut-off in simulated seconds; flows
            still running then are reported unfinished.
        allocator: "vectorized" (default, via :data:`DEFAULT_ALLOCATOR`)
            batch-solves a persistent columnar flow table with numpy;
            "oracle" recomputes the full allocation from scratch with
            the scalar solver.  Results are bit-identical in both modes.
    """

    def __init__(
        self,
        topo: Topology,
        router: Router,
        trace: Sequence[CoflowSpec],
        horizon: Optional[float] = None,
        monitor: Optional[object] = None,
        allocator: Optional[str] = None,
    ) -> None:
        self.topo = topo
        self.router = router
        self.horizon = horizon
        #: Optional :class:`repro.simulation.monitor.SimMonitor`; called
        #: with (now, flow_segments, rates) after every reallocation.
        self.monitor = monitor
        self.allocator = DEFAULT_ALLOCATOR if allocator is None else allocator
        if self.allocator not in _ALLOCATORS:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; expected one of "
                f"{_ALLOCATORS}"
            )
        self.clock = SimClock()
        self.queue = EventQueue()
        self.active: dict[int, FlowState] = {}
        self._records: dict[int, FlowRecord] = {}
        self._coflow_records: dict[int, CoflowRecord] = {}
        self._coflow_pending: dict[int, int] = {}
        self._coflow_spec: dict[int, CoflowSpec] = {}
        self._initial_hops: dict[int, Optional[int]] = {}
        # Static interning: link i's two directions are dense segment ids
        # 2i (forward) and 2i + 1, so the hot path never hashes a
        # DirectedSegment and set-up never builds one.
        links = list(topo.links.values())
        self._link_pos: dict[int, int] = {
            link.link_id: pos for pos, link in enumerate(links)
        }
        self._caps_dense: list[float] = [
            cap for link in links for cap in (link.capacity, link.capacity)
        ]
        if self.allocator == "oracle":
            self._alloc_ws = AllocatorWorkspace(len(self._caps_dense))
        else:
            self._table = FlowTable(len(self._caps_dense))
            self._columnar_ws = ColumnarWorkspace(len(self._caps_dense))
            self._caps_arr = np.asarray(self._caps_dense, dtype=np.float64)
        #: Vectorized mode: the flow table no longer reflects the active
        #: set (paths or stall states changed) and must be rebuilt.
        self._table_stale = True
        #: Flows whose allocation inputs changed since the last solve, as
        #: an insertion-ordered set (dict keys) of flow ids.
        self._dirty: dict[int, None] = {}
        #: Lazy projected-finish min-heap of (finish_time, flow_id, gen);
        #: entries whose gen no longer matches the flow's are stale.
        self._finish_heap: list[tuple[float, int, int]] = []
        self._next_seq = 0
        self._topology_dirty = False
        self._flows_dirty = False
        self._events_processed = 0
        self._reallocations = 0

        for coflow in sorted(trace, key=lambda c: (c.arrival, c.coflow_id)):
            self._coflow_spec[coflow.coflow_id] = coflow
            self.queue.schedule(
                coflow.arrival,
                lambda c=coflow: self._arrive(c),
                label=f"arrival:{coflow.coflow_id}",
            )

    # ------------------------------------------------------------------
    # scheduling API
    # ------------------------------------------------------------------

    def schedule_action(
        self, time: float, action: Callable[["FluidSimulation"], None], label: str = ""
    ) -> None:
        """Run ``action(self)`` at ``time``; topology mutations inside it
        should go through the fail/restore helpers so re-pathing triggers."""
        self.queue.schedule(time, lambda: action(self), label=label or "action")

    def fail_node_at(self, time: float, name: str) -> None:
        self.schedule_action(
            time, lambda sim: sim._mutate(lambda: sim.topo.fail_node(name)),
            label=f"fail-node:{name}",
        )

    def restore_node_at(self, time: float, name: str) -> None:
        self.schedule_action(
            time, lambda sim: sim._mutate(lambda: sim.topo.restore_node(name)),
            label=f"restore-node:{name}",
        )

    def fail_link_at(self, time: float, link_id: int) -> None:
        self.schedule_action(
            time, lambda sim: sim._mutate(lambda: sim.topo.fail_link(link_id)),
            label=f"fail-link:{link_id}",
        )

    def restore_link_at(self, time: float, link_id: int) -> None:
        self.schedule_action(
            time, lambda sim: sim._mutate(lambda: sim.topo.restore_link(link_id)),
            label=f"restore-link:{link_id}",
        )

    def _mutate(self, mutation: Callable[[], None]) -> None:
        """Apply a topology mutation and mark the run for re-pathing."""
        mutation()
        self._topology_dirty = True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        while True:
            now = self.clock.now
            if self.horizon is not None and now >= self.horizon:
                break

            fired = self._fire_due_events(now)
            if fired:
                self._after_events()

            next_completion = self._next_completion_time()
            next_event = self.queue.peek_time()
            candidates = [t for t in (next_completion, next_event) if t is not None]
            if self.horizon is not None:
                candidates = [min(t, self.horizon) for t in candidates] or [
                    self.horizon
                ]
            if not candidates:
                break  # nothing active, nothing scheduled: simulation done
            target = min(candidates)

            if target > now + _TIME_EPS:
                self.clock.advance_to(target)
            self._complete_finished()
            if (
                self.horizon is not None
                and not self.queue
                and self.clock.now >= self.horizon
            ):
                break
            if not self.queue and not self.active:
                break

        return self._build_result()

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------

    def _fire_due_events(self, now: float) -> int:
        due = self.queue.pop_due(now)
        for event in due:
            event.action()
            self._events_processed += 1
        return len(due)

    def _arrive(self, coflow: CoflowSpec) -> None:
        now = self.clock.now
        self._coflow_pending[coflow.coflow_id] = coflow.width
        for spec in coflow.flows:
            path = self.router.initial_path(spec.src, spec.dst, spec.flow_id)
            state = FlowState(
                spec=spec,
                start=now,
                remaining_bits=spec.size_bits,
                seq=self._next_seq,
                updated_at=now,
            )
            self._next_seq += 1
            if path is not None:
                segments = path.segments(self.topo, spec.flow_id)
                state.assign_path(path, segments)
                state.ipath = self._dense_path(segments)
                self._initial_hops[spec.flow_id] = path.hops
                if not path.is_operational(self.topo):
                    state.begin_stall(now)
            else:
                self._initial_hops[spec.flow_id] = None
                state.begin_stall(now)
            self.active[spec.flow_id] = state
            self._mark_dirty(spec.flow_id)
        self._flows_dirty = True

    def _after_events(self) -> None:
        if self._topology_dirty:
            self.router.on_topology_change()
            self._repath_flows()
            self._topology_dirty = False
            self._flows_dirty = True
        if self._flows_dirty:
            self._reallocate()
            self._flows_dirty = False

    def _repath_flows(self) -> None:
        """Give every broken or stalled flow a chance at a new path.

        Full sweep by design: a topology change can strand *any* flow,
        so this is a sanctioned O(active) site (PERF001) — it runs only
        on topology changes, never on the per-event hot path.
        """
        self._table_stale = True
        now = self.clock.now
        # Current load per segment from flows whose paths are intact.
        load: dict[DirectedSegment, int] = {}
        broken: list[FlowState] = []
        for fid in sorted(self.active):
            state = self.active[fid]
            if state.path is not None and state.path.is_operational(self.topo):
                if state.phase is FlowPhase.STALLED:
                    # A repair brought the stalled flow's pinned path back.
                    state.end_stall(now)
                    self._mark_dirty(fid)
                for seg in state.segments:
                    load[seg] = load.get(seg, 0) + 1
            else:
                broken.append(state)
        for state in broken:
            spec = state.spec
            self._mark_dirty(spec.flow_id)
            new_path = self.router.repath(
                spec.src, spec.dst, spec.flow_id, state.path, load
            )
            if new_path is not None and new_path.is_operational(self.topo):
                segments = new_path.segments(self.topo, spec.flow_id)
                if state.last_nodes is not None and new_path.nodes != state.last_nodes:
                    state.reroutes += 1
                state.assign_path(new_path, segments)
                state.ipath = self._dense_path(segments)
                state.end_stall(now)
                for seg in segments:
                    load[seg] = load.get(seg, 0) + 1
            else:
                state.assign_path(None, ())
                state.ipath = ()
                state.begin_stall(now)

    # ------------------------------------------------------------------
    # fluid progression
    # ------------------------------------------------------------------

    def _mark_dirty(self, fid: int) -> None:
        """Record that ``fid``'s allocation inputs changed (arrival,
        completion, re-path, stall or resume) since the last solve."""
        self._dirty[fid] = None

    def _dense_path(self, segments: tuple[DirectedSegment, ...]) -> tuple[int, ...]:
        link_pos = self._link_pos
        try:
            return tuple(
                2 * link_pos[s.link_id] + (not s.forward) for s in segments
            )
        except KeyError as exc:
            raise FairShareError(
                f"link {exc.args[0]!r} has no capacity entry"
            ) from None

    def _reallocate(self) -> None:
        if self.allocator == "oracle":
            self._reallocate_oracle()
        else:
            self._reallocate_vectorized()
        self._reallocations += 1
        if self.monitor is not None:
            self._notify_monitor()

    def _reallocate_oracle(self) -> None:
        """From-scratch reference: rebuild the whole allocation problem.

        Sanctioned O(active) site (PERF001) — being a full sweep is the
        point of the oracle.
        """
        now = self.clock.now
        self._dirty.clear()
        pairs = [
            (fid, state.ipath)
            for fid, state in self.active.items()
            if state.phase is FlowPhase.ACTIVE and state.ipath
        ]
        rates = allocate_dense(pairs, self._caps_dense, self._alloc_ws)
        for fid, state in self.active.items():
            self._apply_rate(state, rates.get(fid, 0.0), now)

    def _reallocate_vectorized(self) -> None:
        """Batch-solve the persistent columnar flow table.

        Outside topology changes the table is patched in place: dirty
        flows are only ever completions (rows compacted out) or
        arrivals (rows appended in ``seq`` order) — paths and stall
        states change *only* inside :meth:`_repath_flows`, which sets
        ``_table_stale`` to force a rebuild.  The whole problem is then
        re-solved in one batched water-fill; untouched flows re-solve
        to the same bits (the kernel is deterministic and separable),
        so filtering on ``rates != installed`` applies exactly the same
        rate changes, at the same instants, as the oracle.
        """
        now = self.clock.now
        table = self._table
        if self._table_stale:
            self._rebuild_table()
        elif self._dirty:
            active = self.active
            gone: list[int] = []
            added: list[tuple[int, int, tuple[int, ...]]] = []
            for fid in self._dirty:
                state = active.get(fid)
                if (
                    state is not None
                    and state.phase is FlowPhase.ACTIVE
                    and state.ipath
                ):
                    if fid not in table:
                        added.append((state.seq, fid, state.ipath))
                elif fid in table:
                    gone.append(fid)
            self._dirty.clear()
            if gone:
                table.discard(gone)
            added.sort()
            for _, fid, path in added:
                table.append(fid, path)
        if not len(table):
            return
        rates = waterfill(
            table.seg_matrix, self._caps_arr, self._columnar_ws, table.incidence
        )
        installed = table.rates_view
        changed = np.nonzero(rates != installed)[0]
        if changed.shape[0]:
            active = self.active
            heap = self._finish_heap
            push = heapq.heappush
            # Inlined _apply_rate body: the mirror guarantees rate !=
            # state.rate for every changed row, and .tolist()
            # round-trips float64 → Python float exactly, so this is
            # the same arithmetic minus per-flow dispatch.
            for fid, rate in zip(
                table.flow_ids[changed].tolist(), rates[changed].tolist()
            ):
                state = active[fid]
                state.settle(now)
                state.rate = rate
                gen = state.gen + 1
                state.gen = gen
                if rate > 0.0:
                    push(heap, (now + state.remaining_bits / rate, fid, gen))
            installed[changed] = rates[changed]

    def _rebuild_table(self) -> None:
        """Reconstruct the columnar table after a topology change.

        Sanctioned O(active) site (PERF001): rebuilds fire on the same
        trigger (re-pathing) as the ``_repath_flows`` sweep itself, never
        on the per-event hot path.
        """
        self._table_stale = False
        self._dirty.clear()
        active = self.active
        entries = [
            (fid, state.ipath, state.rate)
            for fid, state in active.items()
            if state.phase is FlowPhase.ACTIVE and state.ipath
        ]
        entries.sort(key=lambda e: active[e[0]].seq)
        self._table.rebuild(entries)

    def _apply_rate(self, state: FlowState, rate: float, now: float) -> None:
        """Install a new rate iff it differs bit-for-bit from the old one,
        settling the flow's residual first so the piecewise-constant
        integral stays exact.  The *iff* matters: the oracle then settles
        the same flows at the same instants as the vectorized backend's
        changed-row filter, which keeps their floating-point trajectories
        identical."""
        if rate != state.rate:
            state.settle(now)
            state.rate = rate
            state.gen += 1
            if rate > 0.0:
                heapq.heappush(
                    self._finish_heap,
                    (now + state.remaining_bits / rate, state.spec.flow_id, state.gen),
                )

    def _notify_monitor(self) -> None:
        """Monitors always see the *full* rate map (monitor contract),
        regardless of which flows the allocator re-rated.

        Sanctioned O(active) site (PERF001): only runs when a monitor is
        attached, and instrumentation wants the global view.
        """
        flow_segments = {
            fid: state.segments
            for fid, state in self.active.items()
            if state.phase is FlowPhase.ACTIVE and state.segments
        }
        rates = {fid: self.active[fid].rate for fid in flow_segments}
        self.monitor.on_reallocate(self.clock.now, flow_segments, rates)

    def _next_completion_time(self) -> Optional[float]:
        """Peek the projected-finish heap, discarding stale entries
        (superseded generation, stalled or completed flow)."""
        heap = self._finish_heap
        active = self.active
        while heap:
            t, fid, gen = heap[0]
            state = active.get(fid)
            if (
                state is None
                or gen != state.gen
                or state.phase is not FlowPhase.ACTIVE
                or state.rate <= 0.0
            ):
                heapq.heappop(heap)
                continue
            return t
        return None

    def _complete_finished(self) -> None:
        now = self.clock.now
        # A flow is done when its residue is negligible in bits, or when the
        # time to drain it is below the clock's float resolution at `now`
        # (without the latter, a sub-ulp drain time would stall the loop).
        time_floor = 4.0 * math.ulp(max(1.0, now))
        while True:
            finished = self._pop_completion_candidates(now, time_floor)
            if not finished:
                return
            for fid in finished:
                self._mark_dirty(fid)
                state = self.active.pop(fid)
                state.complete(now)
                self._records[fid] = self._record_of(state)
                coflow_id = state.spec.coflow_id
                self._coflow_pending[coflow_id] -= 1
                if self._coflow_pending[coflow_id] == 0:
                    self._coflow_records[coflow_id] = CoflowRecord(
                        spec=self._coflow_spec[coflow_id], finish=now
                    )
            # Freed bandwidth can push more flows over the line at this
            # same instant; drain iteratively until stable instead of
            # recursing — completion cascades on large traces must not
            # be bounded by the interpreter's recursion limit.
            self._reallocate()

    def _pop_completion_candidates(
        self, now: float, time_floor: float
    ) -> list[int]:
        """Pop every flow whose projected finish lands at ``now``, settle
        it, and return (sorted) the ones that really are done; the rest
        are re-queued with a freshened projection."""
        heap = self._finish_heap
        active = self.active
        finished: list[int] = []
        repush: list[tuple[float, int, int]] = []
        while heap:
            t, fid, gen = heap[0]
            state = active.get(fid)
            if (
                state is None
                or gen != state.gen
                or state.phase is not FlowPhase.ACTIVE
                or state.rate <= 0.0
            ):
                heapq.heappop(heap)
                continue
            if t > now + time_floor and t > now + _COMPLETION_EPS / state.rate:
                break
            heapq.heappop(heap)
            state.settle(now)
            if (
                state.remaining_bits <= _COMPLETION_EPS
                or state.remaining_bits / state.rate <= time_floor
            ):
                finished.append(fid)
            else:
                repush.append(
                    (now + state.remaining_bits / state.rate, fid, state.gen)
                )
        for entry in repush:
            heapq.heappush(heap, entry)
        finished.sort()
        return finished

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _record_of(self, state: FlowState) -> FlowRecord:
        stalled = state.stalled_time
        if state.phase is FlowPhase.STALLED and state._stall_began is not None:
            stalled += self.clock.now - state._stall_began  # still stalled at cut-off
        return FlowRecord(
            spec=state.spec,
            start=state.start,
            finish=state.finish,
            initial_hops=self._initial_hops.get(state.spec.flow_id),
            final_hops=state.hops if state.path is not None else None,
            reroutes=state.reroutes,
            stalled_time=stalled,
        )

    def _build_result(self) -> SimulationResult:
        flows = dict(self._records)
        for fid, state in self.active.items():  # unfinished at horizon
            flows[fid] = self._record_of(state)
        coflows = dict(self._coflow_records)
        for cid, spec in self._coflow_spec.items():
            if cid not in coflows:
                coflows[cid] = CoflowRecord(spec=spec, finish=None)
        return SimulationResult(
            flows=flows,
            coflows=coflows,
            end_time=self.clock.now,
            horizon=self.horizon,
            events_processed=self._events_processed,
            reallocations=self._reallocations,
        )
