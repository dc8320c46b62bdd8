"""The degradation ladder's audit trail.

The paper's §4 failure-handling story assumes the recovery machinery
itself is perfect: a backup is always assignable and circuit switches
always obey.  Under control-plane chaos (:mod:`repro.chaos`) that stops
being true, and the controller walks a *degradation ladder* instead of
crashing:

1. **assign-backup** — allocate a spare from the failure group and
   reconfigure the group's circuit switches (the paper's fast path),
   retrying transient circuit-switch failures per
   :class:`~repro.retry.RetryPolicy`;
2. **alternate backup** — if the wiring keeps failing (e.g. a stuck
   crosspoint on that spare's port), try the next idle spare;
3. **reroute** — with no workable spare left, hand the slot to global
   optimal rerouting (:mod:`repro.routing.reroute_global`): the
   architecture degrades to exactly the fat-tree baseline of §2.2 for
   the affected traffic, rather than stranding it;
4. **human intervention** — the true last resort, only when the
   operator has disabled graceful degradation.

Every walk down the ladder is recorded as a :class:`DegradationReport`
— one :class:`DegradationStep` per rung attempted — so a chaos campaign
can audit *why* each recovery ended where it did.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DegradationStep", "DegradationReport"]


@dataclass(frozen=True)
class DegradationStep:
    """One rung of the ladder, attempted during one recovery.

    Attributes:
        action: ``"assign-backup"`` (allocate + wire a spare),
            ``"allocate-backup"`` (the allocation itself, when it fails),
            or ``"reroute"`` (fall back to global optimal rerouting).
        target: the spare / failure group / routing domain acted on.
        attempts: circuit-reconfiguration attempts spent on this rung
            (>1 means the retry policy was exercised).
        outcome: ``"ok"``, ``"failed"``, ``"exhausted"``, or
            ``"skipped"``.
        detail: free-form context (the last error, the halt reason, ...).
    """

    action: str
    target: str
    attempts: int
    outcome: str
    detail: str = ""

    def to_dict(self) -> dict:
        # Explicit and in field order (``/events`` writes it unsorted): a
        # generic deep copy of every field dominated publishing a wave's
        # degradation events.
        return {
            "action": self.action,
            "target": self.target,
            "attempts": self.attempts,
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class DegradationReport:
    """The auditable record of one recovery's walk down the ladder.

    ``outcome`` summarises where the walk ended:

    * ``"recovered"`` — a backup switch took over (possibly after
      retries or on an alternate spare);
    * ``"rerouted"`` — no backup was workable; the affected slot was
      handed to global optimal rerouting;
    * ``"stranded"`` — no backup was workable and graceful degradation
      is disabled: the slot stays dark until repair (the legacy
      behaviour, still the default).
    """

    kind: str  # "node" | "link"
    logical: str
    time: float
    steps: tuple[DegradationStep, ...]
    outcome: str

    @property
    def degraded(self) -> bool:
        """True when the fast path (first spare, first attempt) failed."""
        if self.outcome != "recovered":
            return True
        return len(self.steps) > 1 or any(s.attempts > 1 for s in self.steps)

    @property
    def retries(self) -> int:
        """Total circuit-reconfiguration retries spent across all rungs."""
        return sum(max(0, s.attempts - 1) for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "logical": self.logical,
            "time": self.time,
            "outcome": self.outcome,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationReport":
        return cls(
            kind=data["kind"],
            logical=data["logical"],
            time=data["time"],
            outcome=data["outcome"],
            steps=tuple(DegradationStep(**s) for s in data["steps"]),
        )
