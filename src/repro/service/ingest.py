"""Probe ingestion: bounded buffers with explicit backpressure.

The service's front door.  Heartbeats and failure reports arrive as
:class:`Probe` values through :meth:`ProbeQueue.offer` — a synchronous,
non-blocking call usable from HTTP handlers, replay timers, and load
generators alike — and are consumed by the service's ingest coroutines
via :meth:`ProbeQueue.get`, then :meth:`ProbeQueue.get_nowait` (one at
a time: failure reports) or :meth:`ProbeQueue.drain` (the whole
backlog at once: heartbeats).

Backpressure is a *policy*, not an accident (the van Adrichem/Capone
controller lineage: a controller that falls behind must shed load
somewhere, and the operator should get to choose where):

* ``drop-oldest`` — a full queue evicts its oldest entry to admit the
  new one.  Heartbeats are naturally redundant (the next round
  refreshes the same switches), so losing stale ones under a probe
  storm is the right default.
* ``reject`` — a full queue refuses the new entry and ``offer`` returns
  ``False``; the REST layer surfaces this as ``429 Too Many Requests``.
  Failure reports are not redundant, so a dedicated report queue may
  prefer pushing the retry burden back onto the reporter.

Every submitted probe is accounted for, exactly once, by the
:class:`QueueCounters` conservation law::

    submitted == rejected + dropped_oldest + dequeued
                 + lost_on_crash + len(queue)

which the hypothesis suite (``tests/test_service_backpressure.py``)
enforces under arbitrary arrival/drain interleavings — including
across a crash/restart boundary: :meth:`ProbeQueue.snapshot` captures
the counters, :meth:`ProbeQueue.restore` rebuilds an *empty* queue from
them, and the probes that were in flight at the crash move to the
``lost_on_crash`` bucket instead of silently vanishing from the books.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "OVERFLOW_POLICIES",
    "Heartbeat",
    "FailureReport",
    "Probe",
    "QueueCounters",
    "QueueFullError",
    "ProbeQueue",
]

#: The two admission policies a bounded probe queue supports.
OVERFLOW_POLICIES: tuple[str, ...] = ("drop-oldest", "reject")


@dataclass(frozen=True)
class Heartbeat:
    """One keep-alive from a (possibly synthetic) switch."""

    switch: str
    sent_at: float | None = None

    def to_dict(self) -> dict[str, object]:
        return {"type": "heartbeat", "switch": self.switch,
                "sent_at": self.sent_at}


@dataclass(frozen=True)
class FailureReport:
    """One failure report submitted to the control plane.

    ``kind`` is ``"node"`` (``logical`` names the dead logical switch)
    or ``"link"`` (``end_a``/``end_b`` name the logical devices and
    interfaces of the dead link, in the controller's
    ``(device, interface)`` shape).  ``reported_at`` is service-clock
    time at submission; decision latency is measured from it.
    """

    kind: str
    logical: str = ""
    end_a: tuple[str, tuple] | None = None
    end_b: tuple[str, tuple] | None = None
    true_faulty: tuple[tuple[str, tuple], ...] = ()
    reported_at: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("node", "link"):
            raise ValueError(f"unknown failure kind {self.kind!r}")
        if self.kind == "node" and not self.logical:
            raise ValueError("node failure report needs a logical switch")
        if self.kind == "link" and (self.end_a is None or self.end_b is None):
            raise ValueError("link failure report needs both ends")

    def to_dict(self) -> dict[str, object]:
        return {
            "type": "failure-report",
            "kind": self.kind,
            "logical": self.logical,
            "end_a": list(self.end_a) if self.end_a else None,
            "end_b": list(self.end_b) if self.end_b else None,
            "reported_at": self.reported_at,
        }


Probe = Union[Heartbeat, FailureReport]


@dataclass
class QueueCounters:
    """Exact accounting of one bounded queue's admissions.

    ``submitted`` counts every ``offer``; the other buckets partition
    it: ``rejected`` never entered, ``dropped_oldest`` entered and was
    evicted, ``dequeued`` entered and was consumed, ``lost_on_crash``
    was in flight when the process died, and the remainder is still
    queued.
    """

    submitted: int = 0
    rejected: int = 0
    dropped_oldest: int = 0
    dequeued: int = 0
    lost_on_crash: int = 0

    def accounted(self, queued_now: int) -> int:
        """Left-hand side of the conservation law, for assertions."""
        return (
            self.rejected
            + self.dropped_oldest
            + self.dequeued
            + self.lost_on_crash
            + queued_now
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "dropped_oldest": self.dropped_oldest,
            "dequeued": self.dequeued,
            "lost_on_crash": self.lost_on_crash,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "QueueCounters":
        return cls(
            submitted=int(data.get("submitted", 0)),
            rejected=int(data.get("rejected", 0)),
            dropped_oldest=int(data.get("dropped_oldest", 0)),
            dequeued=int(data.get("dequeued", 0)),
            lost_on_crash=int(data.get("lost_on_crash", 0)),
        )


class QueueFullError(Exception):
    """Raised by callers that treat a rejected offer as exceptional."""


class ProbeQueue:
    """A bounded FIFO with an explicit overflow policy.

    ``offer`` is synchronous and never blocks: the bound is enforced by
    policy (evict or reject), not by making the producer wait — a
    controller that blocks its own probe ingestion deadlocks the very
    failure detector it exists to serve.  ``get`` is the awaitable
    consumer side; a single consumer is assumed (the service's ingest
    loop), though nothing breaks with several.  ``get_nowait`` pops one
    queued probe and ``drain`` pops the whole backlog; every consumer
    path (a direct hand-off to a parked ``get`` included) books what it
    takes as ``dequeued``, so ``submitted == counters.accounted(len(q))``
    holds after every call.
    """

    def __init__(self, maxsize: int, policy: str = "drop-oldest") -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        self.maxsize = maxsize
        self.policy = policy
        self.counters = QueueCounters()
        self._items: deque[Probe] = deque()
        self._waiters: deque[asyncio.Future[Probe]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.maxsize

    def offer(self, item: Probe) -> bool:
        """Submit one probe; ``False`` means the policy rejected it."""
        self.counters.submitted += 1
        if self._waiters:
            waiter = self._next_waiter()
            if waiter is not None:
                # Direct hand-off to a parked consumer: the item never
                # occupies a queue slot, but it still counts as dequeued.
                self.counters.dequeued += 1
                waiter.set_result(item)
                return True
        if len(self._items) >= self.maxsize:
            if self.policy == "reject":
                self.counters.rejected += 1
                return False
            self._items.popleft()
            self.counters.dropped_oldest += 1
        self._items.append(item)
        return True

    async def get(self) -> Probe:
        """Await the next probe (FIFO)."""
        if self._items:
            self.counters.dequeued += 1
            return self._items.popleft()
        waiter: asyncio.Future[Probe] = (
            asyncio.get_running_loop().create_future()
        )
        self._waiters.append(waiter)
        return await waiter

    def get_nowait(self) -> Probe | None:
        """Pop the next probe without waiting, or ``None`` when empty."""
        if not self._items:
            return None
        self.counters.dequeued += 1
        return self._items.popleft()

    def drain(self) -> deque[Probe]:
        """Pop every queued probe at once, in FIFO order.

        The bulk form of :meth:`get_nowait`: the whole backlog is booked
        as ``dequeued`` in one step, so the conservation law holds after
        the call exactly as after that many single pops.
        """
        items = self._items
        self._items = deque()
        self.counters.dequeued += len(items)
        return items

    def _next_waiter(self) -> asyncio.Future[Probe] | None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():  # skip cancelled consumers
                return waiter
        return None

    # ------------------------------------------------------------------
    # the crash/restart boundary
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Durable view of this queue at a crash instant.

        Only the *accounting* survives a crash — queued probes are
        process memory and die with it.  The snapshot therefore records
        the depth (so :meth:`restore` can book it as ``lost_on_crash``)
        alongside the counters and configuration.
        """
        return {
            "maxsize": self.maxsize,
            "policy": self.policy,
            "depth": len(self._items),
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def restore(cls, snapshot: dict[str, object]) -> "ProbeQueue":
        """Rebuild an empty queue after a crash, conserving the books.

        Probes queued at the crash were submitted but never dequeued,
        rejected, or dropped; they land in ``lost_on_crash`` so the
        conservation law ``submitted == accounted`` holds across the
        restart exactly as it held before it.
        """
        queue = cls(
            int(snapshot["maxsize"]),  # type: ignore[call-overload]
            str(snapshot["policy"]),
        )
        counters = QueueCounters.from_dict(
            snapshot["counters"]  # type: ignore[arg-type]
        )
        counters.lost_on_crash += int(snapshot["depth"])  # type: ignore[call-overload]
        queue.counters = counters
        return queue
