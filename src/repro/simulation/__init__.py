"""Flow-level (fluid) discrete-event simulator.

Replays coflow traces on a topology with max-min fair bandwidth sharing;
the substrate of the paper's failure study (Figure 1) and of the
ShareBackup-vs-rerouting comparisons.
"""

from .engine import (
    DEFAULT_ALLOCATOR,
    ENGINE_REV,
    CoflowRecord,
    FlowRecord,
    FluidSimulation,
    SimulationResult,
)
from .events import Event, EventQueue, SimClock
from .fairshare import FairShareError, allocate_dense, max_min_rates
from .flow import CoflowSpec, FlowPhase, FlowSpec, FlowState
from .monitor import SimMonitor, UtilizationMonitor, UtilizationReport
from .packetsim import PacketFlow, PacketLevelSimulator

__all__ = [
    "CoflowRecord",
    "CoflowSpec",
    "DEFAULT_ALLOCATOR",
    "ENGINE_REV",
    "Event",
    "EventQueue",
    "FairShareError",
    "FlowPhase",
    "FlowRecord",
    "FlowSpec",
    "FlowState",
    "FluidSimulation",
    "SimClock",
    "PacketFlow",
    "PacketLevelSimulator",
    "SimMonitor",
    "UtilizationMonitor",
    "UtilizationReport",
    "SimulationResult",
    "allocate_dense",
    "max_min_rates",
]
