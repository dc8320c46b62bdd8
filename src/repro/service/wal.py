"""The write-ahead decision log: append-before-commit durability.

ShareBackup's §4 keeps multiple controller replicas so recovery
survives the recovery machinery itself failing.  Replicas alone are not
enough for the *service* path: a primary that crashes mid-batch in the
:class:`~repro.service.resolver.FailureGroupResolver` would otherwise
lose in-flight failures (never decided) or double-commit them (decided
by both the deposed primary and its successor).  The
:class:`DecisionWAL` closes that gap with three record types, one JSON
line each:

* ``intent`` — appended *before* the controller commit, carrying the
  serialized :class:`~repro.service.resolver.PendingFailure` payload.
  An intent without a matching commit is exactly the work a newly
  elected primary must resume.
* ``commit`` — appended after the controller commit succeeds and before
  the decision is published, carrying the decision payload.  The pair
  key ``(failure_group_id, decision_seq)`` makes replay idempotent:
  a key that is committed is never re-executed.
* ``fence`` — an audit record for a commit rejected by epoch fencing
  (a deposed primary's late write).  Fences never resurrect work; the
  intent they annotate stays incomplete until a fenced-in primary
  resumes it.

Every record carries a CRC-32 checksum over its canonical JSON body.
Opening a log recovers it line by line: a corrupt *tail* (torn final
write — the crash case) is truncated and forgotten; a corrupt record
*followed by valid ones* is real corruption and raises
:class:`WalCorruptionError` rather than silently dropping decisions
from the middle of history.

Durability is group-committed.  An append only *stages* its record:
the line is encoded once and written into the open file's buffer, and
the in-memory index sees it at once.  :meth:`DecisionWAL.sync` flushes
everything staged and makes it durable with one ``fsync``.  The
resolver stages a whole batch's intents and syncs once before the
first commit; each commit's decision callback goes through
:meth:`DecisionWAL.when_durable`, which defers it to a single
``loop.call_soon(sync)`` shared by every commit staged in the same
event-loop pass — one fsync per round of concurrent group commits,
and no callback fires before its own record is on disk.  Fences and
:meth:`DecisionWAL.close` sync at once.  The in-memory log never
stages anything, so there ``when_durable`` runs the callback inline.

All I/O here is synchronous (plain methods, never an ``await`` gap),
so SVC001's no-blocking-calls-in-coroutines rule does not apply.
"""

from __future__ import annotations

import asyncio
import json
import os
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = ["WalRecord", "WalCorruptionError", "DecisionWAL"]

#: The record vocabulary; anything else fails checksum-independent decode.
RECORD_TYPES: tuple[str, ...] = ("intent", "commit", "fence")


class WalCorruptionError(Exception):
    """A corrupt record *inside* the log (not a torn tail)."""


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry, keyed by ``(group, group_seq)``."""

    type: str  # "intent" | "commit" | "fence"
    group: str  # failure-group id
    group_seq: int  # per-group decision sequence number
    epoch: int  # fencing epoch the writer held
    data: dict

    @property
    def key(self) -> tuple[str, int]:
        return (self.group, self.group_seq)


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _crc(canonical: str) -> int:
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _encode(record: WalRecord) -> str:
    """One JSON line: the record body plus a CRC over its canonical form.

    ``crc`` sorts before every body key, so splicing it in front of the
    canonical body gives the same bytes as re-serialising the body with
    the checksum added — for one ``json.dumps`` instead of two.
    """
    canonical = _canonical(
        {
            "type": record.type,
            "group": record.group,
            "group_seq": record.group_seq,
            "epoch": record.epoch,
            "data": record.data,
        }
    )
    return f'{{"crc":{_crc(canonical)},{canonical[1:]}'


#: The keys of an encoded line; anything more or less is not a record.
_FIELDS = frozenset({"crc", "type", "group", "group_seq", "epoch", "data"})


def _is_int(value: object) -> bool:
    return type(value) is int  # bool is an int subclass; JSON true is not


def _decode(line: str) -> WalRecord | None:
    """Parse one line back into a record; ``None`` for anything torn.

    Never raises: a log's bytes are untrusted after a crash, so a
    checksum-valid line whose fields have the wrong JSON type (a float
    or boolean seq, a list where the payload dict belongs, ``Infinity``)
    or whose nesting is too deep to parse is torn like any other.
    """
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if not isinstance(payload, dict) or payload.keys() != _FIELDS:
        return None
    crc = payload.pop("crc")
    try:
        expected = _crc(_canonical(payload))
    except (TypeError, ValueError, RecursionError):
        return None
    if not _is_int(crc) or crc != expected:
        return None
    kind, group, group_seq, epoch, data = (
        payload["type"],
        payload["group"],
        payload["group_seq"],
        payload["epoch"],
        payload["data"],
    )
    if (
        kind not in RECORD_TYPES
        or not isinstance(group, str)
        or not _is_int(group_seq)
        or not _is_int(epoch)
        or not isinstance(data, dict)
    ):
        return None
    return WalRecord(kind, group, group_seq, epoch, data)


class DecisionWAL:
    """Append-before-commit decision log with idempotent replay.

    ``path=None`` keeps the log purely in memory — same semantics, no
    durability — which is what the deterministic chaos replays use (the
    crash they simulate is a *primary* crash inside one process, not a
    process crash).  With a path, records additionally persist as JSONL
    and survive a process restart once :meth:`sync` has run.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: list[WalRecord] = []
        #: intents in append order (dict preserves insertion order).
        self._intents: dict[tuple[str, int], WalRecord] = {}
        self._commits: dict[tuple[str, int], WalRecord] = {}
        self._fences: list[WalRecord] = []
        self.truncated_bytes = 0
        self._file = None
        #: Records written to the file buffer since the last fsync.
        self._staged = False
        #: Callbacks waiting for the next sync, in staging order.
        self._waiting: list[Callable[[], None]] = []
        self._sync_scheduled = False
        self.syncs = 0
        if self.path is not None:
            self._recover()
            self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Load the log, truncating a torn tail; bail on mid-log damage."""
        assert self.path is not None
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        good_bytes = 0
        bad_at: int | None = None
        offset = 0
        for chunk in raw.split(b"\n"):
            line_end = offset + len(chunk) + 1  # +1 for the newline
            if chunk:
                record = _decode(chunk.decode("utf-8", errors="replace"))
                if record is None:
                    # A record without a trailing newline is also treated
                    # as torn: the write was cut mid-line.
                    if bad_at is None:
                        bad_at = offset
                elif bad_at is not None:
                    raise WalCorruptionError(
                        f"{self.path}: valid record at byte {offset} after "
                        f"corrupt record at byte {bad_at}; refusing to "
                        "silently drop decisions from the middle of the log"
                    )
                elif line_end <= len(raw):  # complete line (newline present)
                    self._admit(record)
                    good_bytes = line_end
                else:  # valid JSON but no newline: torn mid-flush
                    if bad_at is None:
                        bad_at = offset
            offset = line_end
        if good_bytes < len(raw):
            self.truncated_bytes = len(raw) - good_bytes
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)

    def _admit(self, record: WalRecord) -> None:
        self._records.append(record)
        if record.type == "intent":
            self._intents.setdefault(record.key, record)
        elif record.type == "commit":
            self._commits.setdefault(record.key, record)
        else:
            self._fences.append(record)

    # ------------------------------------------------------------------
    # the append side (idempotent by key)
    # ------------------------------------------------------------------

    def append_intent(
        self, group: str, group_seq: int, epoch: int, payload: dict
    ) -> bool:
        """Log intent to decide ``(group, group_seq)``; no-op if known."""
        key = (group, group_seq)
        if key in self._intents or key in self._commits:
            return False
        self._append(WalRecord("intent", group, group_seq, epoch, payload))
        return True

    def append_commit(
        self, group: str, group_seq: int, epoch: int, payload: dict
    ) -> bool:
        """Log a committed decision; no-op if the key already committed."""
        key = (group, group_seq)
        if key in self._commits:
            return False
        self._append(WalRecord("commit", group, group_seq, epoch, payload))
        return True

    def append_fence(
        self, group: str, group_seq: int, epoch: int, detail: dict
    ) -> None:
        """Audit one fencing rejection (always appended; never replayed)."""
        self._append(WalRecord("fence", group, group_seq, epoch, detail))
        self.sync()

    def _append(self, record: WalRecord) -> None:
        self._admit(record)
        if self._file is not None:
            self._file.write(_encode(record) + "\n")
            self._staged = True

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Make every staged record durable, then fire waiting callbacks.

        One flush and one ``fsync`` cover everything staged since the
        last sync; with nothing staged this costs no I/O.
        """
        self._sync_scheduled = False
        if self._staged and self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.syncs += 1
        self._staged = False
        waiting, self._waiting = self._waiting, []
        for callback in waiting:
            callback()

    def when_durable(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once every record staged so far is durable.

        With nothing staged (always, for the in-memory log) it runs at
        once.  Otherwise it waits for the next :meth:`sync`; the first
        waiter of a round schedules that sync on the running loop, so
        every commit staged before the loop gets back to it shares one
        fsync.
        """
        if not self._staged:
            callback()
            return
        self._waiting.append(callback)
        if not self._sync_scheduled:
            self._sync_scheduled = True
            asyncio.get_running_loop().call_soon(self.sync)

    # ------------------------------------------------------------------
    # the replay side
    # ------------------------------------------------------------------

    def is_committed(self, group: str, group_seq: int) -> bool:
        return (group, group_seq) in self._commits

    def incomplete(self) -> list[WalRecord]:
        """Intents without commits, in original append order.

        This is the takeover work list: everything a deposed primary
        promised to decide but never durably decided.  Calling recovery
        twice is safe — once a key commits it leaves this list, so a
        second replay resumes nothing.
        """
        return [
            record
            for key, record in self._intents.items()
            if key not in self._commits
        ]

    def committed_keys(self) -> list[tuple[str, int]]:
        return list(self._commits)

    def next_seqs(self) -> dict[str, int]:
        """Per-group next decision_seq (max known + 1) for the resolver."""
        highest: dict[str, int] = {}
        for group, group_seq in (*self._intents, *self._commits):
            highest[group] = max(highest.get(group, -1), group_seq)
        return {group: seq + 1 for group, seq in highest.items()}

    @property
    def records(self) -> tuple[WalRecord, ...]:
        return tuple(self._records)

    @property
    def fences(self) -> tuple[WalRecord, ...]:
        return tuple(self._fences)

    def stats(self) -> dict:
        return {
            "records": len(self._records),
            "intents": len(self._intents),
            "commits": len(self._commits),
            "fences": len(self._fences),
            "incomplete": len(self.incomplete()),
            "truncated_bytes": self.truncated_bytes,
            "syncs": self.syncs,
            "path": str(self.path) if self.path is not None else None,
        }

    def close(self) -> None:
        """Sync whatever is staged, then release the file."""
        self.sync()
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "DecisionWAL":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
