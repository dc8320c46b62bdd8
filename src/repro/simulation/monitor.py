"""Run-time instrumentation for the fluid simulator.

A monitor receives a callback at every rate reallocation — the only
instants at which the fluid state changes — and can therefore compute
exact time-weighted statistics (utilisation integrals, peak concurrency)
without sampling error.  :class:`UtilizationMonitor` is the standard
implementation; experiments use it to report offered load, bottleneck
hot spots, and concurrency (the quantity that bounds CCT slowdowns under
max-min sharing — see EXPERIMENTS.md's Figure 1(c) discussion).

``flow_segments`` maps every active flow to its directed segment ids,
in the topology's encoding (:meth:`repro.topology.base.Topology.segment`),
so the hottest segment is reported as an id too.

The callback stream is part of the allocator backends' bit-identity
contract: the vectorized engine and the oracle must hand every monitor
the same ``(now, flow_segments, rates)`` sequence, floats and all
(``tests/test_engine_incremental.py`` captures and compares full
streams).  Monitors can therefore assume their statistics are
backend-independent.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Protocol

from ..topology.base import segment_link

__all__ = ["SimMonitor", "UtilizationMonitor", "UtilizationReport"]


class SimMonitor(Protocol):
    """What the engine calls after each reallocation."""

    def on_reallocate(
        self,
        now: float,
        flow_segments: Mapping[int, tuple[int, ...]],
        rates: Mapping[int, float],
    ) -> None: ...


@dataclass(frozen=True)
class UtilizationReport:
    """Digest of one run's utilisation history."""

    peak_concurrent_flows: int
    peak_segment_flows: int
    #: Directed segment id carrying the most flows (ties: highest link).
    peak_segment: int | None
    mean_throughput: float  # time-weighted aggregate bits/s
    peak_throughput: float
    busy_time: float  # span between first and last reallocation


class UtilizationMonitor:
    """Time-weighted utilisation statistics over one simulation run."""

    def __init__(self) -> None:
        self._last_time: float | None = None
        self._last_throughput = 0.0
        self._throughput_integral = 0.0
        self._start: float | None = None
        self.peak_concurrent_flows = 0
        self.peak_segment_flows = 0
        self.peak_segment: int | None = None
        self.peak_throughput = 0.0

    # ------------------------------------------------------------------

    def on_reallocate(self, now, flow_segments, rates) -> None:
        if self._start is None:
            self._start = now
        if self._last_time is not None and now > self._last_time:
            self._throughput_integral += self._last_throughput * (
                now - self._last_time
            )
        throughput = sum(rates.values())
        self._last_time = now
        self._last_throughput = throughput
        self.peak_throughput = max(self.peak_throughput, throughput)
        self.peak_concurrent_flows = max(
            self.peak_concurrent_flows, len(flow_segments)
        )
        counts: dict[int, int] = {}
        for segments in flow_segments.values():
            for seg in segments:
                counts[seg] = counts.get(seg, 0) + 1
        if counts:
            seg, count = max(
                counts.items(), key=lambda kv: (kv[1], segment_link(kv[0]))
            )
            if count > self.peak_segment_flows:
                self.peak_segment_flows = count
                self.peak_segment = seg

    # ------------------------------------------------------------------

    def report(self) -> UtilizationReport:
        busy = 0.0
        mean = 0.0
        if self._start is not None and self._last_time is not None:
            busy = self._last_time - self._start
            if busy > 0:
                mean = self._throughput_integral / busy
        return UtilizationReport(
            peak_concurrent_flows=self.peak_concurrent_flows,
            peak_segment_flows=self.peak_segment_flows,
            peak_segment=self.peak_segment,
            mean_throughput=mean,
            peak_throughput=self.peak_throughput,
            busy_time=busy,
        )
