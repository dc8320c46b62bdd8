"""Flow and coflow specifications and their runtime state.

A *flow* is a point-to-point transfer of a fixed number of bytes; a
*coflow* (Chowdhury & Stoica, HotNets'12) is the set of flows one
application stage produces, and the paper's unit of application-level
impact: "a coflow is affected if at least one flow in its set gets
affected", and CCT — the completion time of the slowest flow — is the
metric failures inflate by orders of magnitude (Figure 1c).

Specs are immutable inputs (what the workload generator emits); the
``FlowState``/runtime bookkeeping lives with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..routing.paths import Path

__all__ = ["FlowSpec", "CoflowSpec", "FlowPhase", "FlowState"]


@dataclass(frozen=True)
class FlowSpec:
    """One transfer: ``size_bytes`` from ``src`` host to ``dst`` host."""

    flow_id: int
    coflow_id: int
    src: str
    dst: str
    size_bytes: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"flow {self.flow_id}: non-positive size")
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id}: src == dst ({self.src})")

    @property
    def size_bits(self) -> float:
        return self.size_bytes * 8.0


@dataclass(frozen=True)
class CoflowSpec:
    """A set of flows released together at ``arrival`` (seconds)."""

    coflow_id: int
    arrival: float
    flows: tuple[FlowSpec, ...]

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError(f"coflow {self.coflow_id} has no flows")
        for f in self.flows:
            if f.coflow_id != self.coflow_id:
                raise ValueError(
                    f"flow {f.flow_id} claims coflow {f.coflow_id}, "
                    f"listed under {self.coflow_id}"
                )

    @property
    def width(self) -> int:
        """Number of flows — the coflow's parallelism."""
        return len(self.flows)

    @property
    def total_bytes(self) -> float:
        return sum(f.size_bytes for f in self.flows)


class FlowPhase(Enum):
    PENDING = "pending"  # coflow not arrived yet
    ACTIVE = "active"  # transferring at the allocated rate
    STALLED = "stalled"  # disconnected by failures, waiting for repair
    DONE = "done"


@dataclass
class FlowState:
    """Mutable per-flow simulation state.

    ``remaining_bits`` is *lazily* materialised: it is exact as of
    ``updated_at``, and :meth:`settle` brings it forward to any later
    instant.  The engine only settles a flow when its rate changes or it
    becomes a completion candidate, so event processing never sweeps the
    whole active set.
    """

    spec: FlowSpec
    start: float
    remaining_bits: float
    phase: FlowPhase = FlowPhase.ACTIVE
    path: Optional[Path] = None
    #: ``path`` as directed segment ids (the topology's encoding), which
    #: index the engine's capacity vector directly; the vectorized
    #: backend's :class:`~repro.simulation.columnar.FlowTable` packs
    #: exactly these ids into its segment matrix.  ``rate`` is likewise
    #: mirrored by the table's ``installed`` column, updated in the same
    #: reallocation step that settles this state.
    segments: tuple[int, ...] = ()
    rate: float = 0.0  # bits/s, piecewise constant between events
    finish: Optional[float] = None
    reroutes: int = 0
    stalled_time: float = 0.0
    #: Node sequence of the last real path held (survives stall windows, so
    #: resuming on the same path after a repair is not counted as a reroute).
    last_nodes: Optional[tuple[str, ...]] = None
    #: Arrival sequence number; the engine orders allocation inputs by it.
    seq: int = 0
    #: Simulated time ``remaining_bits`` was last materialised at.
    updated_at: float = 0.0
    #: Generation counter for projected-finish heap entries: bumped on
    #: every rate change, so stale heap entries identify themselves.
    gen: int = 0
    _stall_began: Optional[float] = None

    def assign_path(self, path: Optional[Path], segments: tuple[int, ...]) -> None:
        self.path = path
        self.segments = segments if path is not None else ()
        if path is not None:
            self.last_nodes = path.nodes

    def settle(self, now: float) -> None:
        """Materialise ``remaining_bits`` at ``now`` under the current rate."""
        if self.rate > 0.0 and now > self.updated_at:
            self.remaining_bits = max(
                0.0, self.remaining_bits - self.rate * (now - self.updated_at)
            )
        self.updated_at = now

    def begin_stall(self, now: float) -> None:
        if self.phase is FlowPhase.ACTIVE:
            self.settle(now)
            self.phase = FlowPhase.STALLED
            self._stall_began = now
            self.rate = 0.0
            self.gen += 1

    def end_stall(self, now: float) -> None:
        if self.phase is FlowPhase.STALLED:
            if self._stall_began is not None:
                self.stalled_time += now - self._stall_began
                self._stall_began = None
            self.phase = FlowPhase.ACTIVE

    def complete(self, now: float) -> None:
        self.phase = FlowPhase.DONE
        self.finish = now
        self.rate = 0.0
        self.remaining_bits = 0.0
        self.updated_at = now
        self.gen += 1

    @property
    def hops(self) -> Optional[int]:
        return self.path.hops if self.path is not None else None
