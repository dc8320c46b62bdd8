"""Tests for :mod:`repro.service.wal` — the write-ahead decision log.

Four layers:

* the codec — checksummed JSON lines round-trip, and anything torn,
  tampered or mistyped decodes to ``None`` instead of a wrong record
  (fuzzed: the reader never raises on any text);
* recovery — a torn *tail* is truncated and forgotten (the crash case),
  while a corrupt record *followed by* valid ones raises
  :class:`WalCorruptionError` (real damage, never silently skipped);
* replay — appends are idempotent by ``(group, group_seq)``, so
  recovering twice re-executes nothing: the property the takeover path
  stakes its no-duplicate-decisions guarantee on;
* group commit — a resolver wave decides the same with a file log as
  in memory, pays one fsync per batch plus one per round, and fires no
  callback before an fsync covers its commit record.
"""

import asyncio
import itertools
import json
import os
import zlib
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import ShareBackupController, ShareBackupNetwork
from repro.rng import derive_seed, ensure_rng
from repro.service import (
    FailoverDecision,
    FailureGroupResolver,
    PendingFailure,
    VirtualClock,
)
from repro.service.wal import (
    RECORD_TYPES,
    DecisionWAL,
    WalCorruptionError,
    WalRecord,
    _decode,
    _encode,
)


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------


def _old_encode(record: WalRecord) -> str:
    """The two-pass encoding the one-pass ``_encode`` must reproduce."""
    body = {
        "type": record.type,
        "group": record.group,
        "group_seq": record.group_seq,
        "epoch": record.epoch,
        "data": record.data,
    }
    body["crc"] = zlib.crc32(_canonical(body).encode()) & 0xFFFFFFFF
    return _canonical(body)


def _signed(body: dict, crc_type: type = int) -> str:
    """A line with a valid checksum over an arbitrary body."""
    crc = zlib.crc32(_canonical(body).encode()) & 0xFFFFFFFF
    return _canonical({**body, "crc": crc_type(crc)})


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class TestCodec:
    def test_round_trip(self):
        record = WalRecord(
            "commit", "pod-0", 3, 2, {"outcome": "backup", "logical": "A.0.0"}
        )
        assert _decode(_encode(record)) == record

    def test_checksum_rejects_tampering(self):
        line = _encode(WalRecord("intent", "pod-0", 0, 1, {"kind": "node"}))
        tampered = line.replace("pod-0", "pod-1")
        assert _decode(tampered) is None

    def test_wrong_crc_rejected(self):
        payload = json.loads(_encode(WalRecord("fence", "g", 0, 1, {})))
        payload["crc"] = (payload["crc"] + 1) & 0xFFFFFFFF
        assert _decode(json.dumps(payload)) is None

    def test_non_json_and_wrong_shapes_rejected(self):
        assert _decode("not json at all") is None
        assert _decode('"a bare string"') is None
        assert _decode('{"no": "crc"}') is None
        assert _decode("[" * 100_000) is None  # too deep to parse
        good = {"type": "commit", "group": "g", "group_seq": 1, "epoch": 1,
                "data": {}}
        assert _decode(_signed(good)) is not None
        # Checksum-valid lines whose fields have the wrong JSON type.
        for field, value in [
            ("group_seq", float("inf")),
            ("group_seq", 1.7),
            ("group_seq", True),
            ("epoch", True),
            ("epoch", "1"),
            ("group", 7),
            ("type", ["commit"]),
            ("data", [["a", 1]]),
            ("data", None),
        ]:
            assert _decode(_signed({**good, field: value})) is None, field
        assert _decode(_signed({**good, "extra": 1})) is None
        assert _decode(_signed(good, crc_type=float)) is None

    def test_unknown_record_type_rejected(self):
        line = _encode(WalRecord("commit", "g", 0, 1, {}))
        payload = json.loads(line)
        # Re-sign a record with an out-of-vocabulary type: the CRC passes
        # but the vocabulary check must still refuse it.
        payload.pop("crc")
        payload["type"] = "rollback"
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["crc"] = zlib.crc32(canonical.encode()) & 0xFFFFFFFF
        assert _decode(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        ) is None


# ----------------------------------------------------------------------
# codec fuzzing: the reader meets untrusted bytes after every crash
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
records = st.builds(
    WalRecord,
    type=st.sampled_from(RECORD_TYPES),
    group=st.text(max_size=12),
    group_seq=st.integers(),
    epoch=st.integers(),
    data=st.dictionaries(st.text(max_size=6), json_values, max_size=5),
)


def _mutated(line: str) -> st.SearchStrategy[str]:
    """``line`` with one slice replaced by arbitrary text."""
    cut = st.integers(0, len(line))
    return st.tuples(cut, cut, st.text(max_size=8)).map(
        lambda t: line[: min(t[0], t[1])] + t[2] + line[max(t[0], t[1]):]
    )


#: Checksum-valid lines over arbitrary bodies with the record's keys.
resigned = st.dictionaries(
    st.sampled_from(["type", "group", "group_seq", "epoch", "data"]),
    json_values,
).map(_signed)


@given(st.text() | records.map(_encode).flatmap(_mutated) | resigned)
@settings(max_examples=200, deadline=None)
def test_decode_never_raises(line):
    record = _decode(line)
    assert record is None or isinstance(record, WalRecord)


@given(records)
@settings(max_examples=100, deadline=None)
def test_encode_round_trips_and_matches_the_two_pass_form(record):
    line = _encode(record)
    assert line == _old_encode(record)
    assert _decode(line) == record


def _valid_after_bad(raw: bytes) -> bool:
    """Whether a decodable line follows an undecodable one."""
    verdicts = [
        _decode(chunk.decode("utf-8", errors="replace")) is not None
        for chunk in raw.split(b"\n")
        if chunk
    ]
    return False in verdicts and True in verdicts[verdicts.index(False):]


def _line(record: WalRecord) -> bytes:
    return (_encode(record) + "\n").encode()


#: Crash debris: random bytes, whole records, records cut mid-write.
tails = st.lists(
    st.binary(max_size=24)
    | records.map(_line)
    | records.map(_line).flatmap(
        lambda raw: st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    ),
    max_size=4,
).map(b"".join)


@given(st.lists(records, max_size=4), tails)
@settings(max_examples=100, deadline=None)
def test_any_tail_truncates_to_a_valid_prefix_or_refuses(
    tmp_path_factory, prefix, tail
):
    path = tmp_path_factory.mktemp("wal") / "decisions.wal"
    head = b"".join(map(_line, prefix))
    path.write_bytes(head + tail)
    try:
        wal = DecisionWAL(path)
    except WalCorruptionError:
        assert _valid_after_bad(head + tail)
        return
    assert not _valid_after_bad(head + tail)
    with wal:
        kept = path.read_bytes()
        assert (head + tail).startswith(kept) and kept.startswith(head)
        assert wal.records[: len(prefix)] == tuple(prefix)
        assert wal.truncated_bytes == len(head + tail) - len(kept)
    with DecisionWAL(path) as again:
        assert again.truncated_bytes == 0
        assert again.records == wal.records


# ----------------------------------------------------------------------
# in-memory semantics
# ----------------------------------------------------------------------


class TestInMemory:
    def test_appends_are_idempotent_by_key(self):
        wal = DecisionWAL()
        assert wal.append_intent("g", 0, 1, {"p": 1})
        assert not wal.append_intent("g", 0, 1, {"p": 2})  # duplicate intent
        assert wal.append_commit("g", 0, 1, {"d": 1})
        assert not wal.append_commit("g", 0, 1, {"d": 2})  # duplicate commit
        assert not wal.append_intent("g", 0, 2, {"p": 3})  # committed already
        assert wal.stats()["records"] == 2

    def test_incomplete_is_intents_minus_commits_in_order(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {"n": 0})
        wal.append_intent("h", 0, 1, {"n": 1})
        wal.append_intent("g", 1, 1, {"n": 2})
        wal.append_commit("h", 0, 1, {})
        assert [r.key for r in wal.incomplete()] == [("g", 0), ("g", 1)]
        wal.append_commit("g", 0, 1, {})
        wal.append_commit("g", 1, 1, {})
        assert wal.incomplete() == []

    def test_fences_are_audit_only(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {})
        wal.append_fence("g", 0, 1, {"holder_epoch": 1, "current_epoch": 2})
        assert len(wal.fences) == 1
        # The fenced intent stays incomplete — fences never resolve work.
        assert [r.key for r in wal.incomplete()] == [("g", 0)]
        assert not wal.is_committed("g", 0)

    def test_next_seqs_spans_intents_and_commits(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {})
        wal.append_intent("g", 2, 1, {})
        wal.append_commit("h", 5, 1, {})
        assert wal.next_seqs() == {"g": 3, "h": 6}
        assert DecisionWAL().next_seqs() == {}

    def test_stats_shape(self):
        wal = DecisionWAL()
        wal.append_intent("g", 0, 1, {})
        assert wal.stats() == {
            "records": 1, "intents": 1, "commits": 0, "fences": 0,
            "incomplete": 1, "truncated_bytes": 0, "syncs": 0, "path": None,
        }


# ----------------------------------------------------------------------
# durability and recovery
# ----------------------------------------------------------------------


class TestRecovery:
    def test_reopen_restores_every_record(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_intent("g", 0, 1, {"kind": "node"})
            wal.append_commit("g", 0, 1, {"outcome": "backup"})
            wal.append_intent("g", 1, 1, {"kind": "node"})
            wal.append_fence("g", 1, 1, {"holder_epoch": 1})
        with DecisionWAL(path) as reopened:
            assert [r.type for r in reopened.records] == [
                "intent", "commit", "intent", "fence",
            ]
            assert reopened.is_committed("g", 0)
            assert [r.key for r in reopened.incomplete()] == [("g", 1)]
            assert reopened.truncated_bytes == 0

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_commit("g", 0, 1, {"outcome": "backup"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"commit","group":"g","gro')  # torn write
        with DecisionWAL(path) as reopened:
            assert reopened.committed_keys() == [("g", 0)]
            assert reopened.truncated_bytes > 0
        # The truncation is durable: a third open sees a clean log.
        with DecisionWAL(path) as third:
            assert third.truncated_bytes == 0
            assert third.committed_keys() == [("g", 0)]

    def test_valid_json_without_newline_is_torn(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_commit("g", 0, 1, {})
            line = _encode(WalRecord("commit", "g", 1, 1, {}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)  # no trailing newline: cut mid-flush
        with DecisionWAL(path) as reopened:
            assert reopened.committed_keys() == [("g", 0)]
            assert reopened.truncated_bytes == len(line)

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_commit("g", 0, 1, {})
            wal.append_commit("g", 1, 1, {})
        raw = path.read_text().splitlines()
        raw[0] = raw[0].replace('"epoch":1', '"epoch":9')  # breaks the CRC
        path.write_text("\n".join(raw) + "\n")
        with pytest.raises(WalCorruptionError):
            DecisionWAL(path)

    def test_missing_file_is_an_empty_log(self, tmp_path):
        wal = DecisionWAL(tmp_path / "fresh.wal")
        assert wal.records == ()
        wal.append_commit("g", 0, 1, {})
        wal.close()
        assert (tmp_path / "fresh.wal").exists()

    def test_appends_after_reopen_stay_idempotent(self, tmp_path):
        path = tmp_path / "decisions.wal"
        with DecisionWAL(path) as wal:
            wal.append_intent("g", 0, 1, {"p": 1})
            wal.append_commit("g", 0, 1, {"d": 1})
        with DecisionWAL(path) as reopened:
            assert not reopened.append_commit("g", 0, 2, {"d": 2})
            assert not reopened.append_intent("g", 0, 2, {"p": 2})
        with DecisionWAL(path) as third:
            assert third.stats()["records"] == 2  # nothing was re-appended


# ----------------------------------------------------------------------
# the idempotent-replay property
# ----------------------------------------------------------------------

# A run is a sequence of decisions; a crash may interrupt it anywhere.
decision_runs = st.lists(
    st.tuples(
        st.sampled_from(["g0", "g1", "g2"]),  # failure group
        st.booleans(),  # whether the commit landed before the crash
    ),
    min_size=0,
    max_size=40,
)


@given(decision_runs)
@settings(max_examples=100, deadline=None)
def test_double_recovery_commits_nothing_twice(tmp_path_factory, runs):
    """Recovering twice (or n times) yields zero duplicate commits.

    Model: a primary logs intent for every decision, commits some, then
    crashes.  Each successor replays ``incomplete()`` and commits it all.
    However many successors take over in sequence, each key commits
    exactly once — the at-most-once half of the takeover guarantee.
    """
    path = tmp_path_factory.mktemp("wal") / "decisions.wal"
    seqs: dict[str, int] = {}
    with DecisionWAL(path) as wal:
        for group, committed in runs:
            seq = seqs.get(group, 0)
            seqs[group] = seq + 1
            assert wal.append_intent(group, seq, 1, {"group": group})
            if committed:
                assert wal.append_commit(group, seq, 1, {"n": seq})
    committed_before = None
    for takeover in range(2):  # two successive takeovers
        with DecisionWAL(path) as wal:
            if committed_before is not None:
                # The second takeover finds the first one's work done.
                assert sorted(wal.committed_keys()) == committed_before
                assert wal.incomplete() == []
            fresh = 0
            for record in wal.incomplete():
                assert wal.append_commit(*record.key, 2, {"resumed": True})
                fresh += 1
            if committed_before is None:
                assert fresh == sum(1 for _, done in runs if not done)
            else:
                assert fresh == 0  # zero duplicate commits on re-recovery
            committed_before = sorted(wal.committed_keys())
    assert committed_before is not None
    assert len(committed_before) == len(runs)


# ----------------------------------------------------------------------
# group commit through the resolver
# ----------------------------------------------------------------------


def _resolve_wave(wal: DecisionWAL, fired: list, seed: int = 0) -> list[str]:
    """Resolve one seeded 1,024-report k=8, n=2 wave as one batch.

    Appends what the resolver's callbacks receive to ``fired``, in
    firing order: each decision, or a ``(pending, exception)`` pair for
    a tombstoned failure.  Returns each target's failure group.
    """
    net = ShareBackupNetwork(8, 2)
    slots = sorted(
        slot for group in net.groups.values() for slot in group.logical_slots
    )
    order = ensure_rng(derive_seed(seed, "wal-wave")).permutation(len(slots))
    targets = [slots[int(order[i % len(slots)])] for i in range(1024)]
    controller = ShareBackupController(
        net, degrade_to_reroute=True, rng=derive_seed(seed, "controller")
    )
    resolver = FailureGroupResolver(
        controller,
        VirtualClock(),
        on_decision=fired.append,
        on_error=lambda pending, exc: fired.append((pending, exc)),
        wal=wal,
    )
    for logical in targets:
        resolver.submit(PendingFailure(kind="node", logical=logical))
    asyncio.run(resolver.resolve_backlog())
    return [net.group_of(logical).group_id for logical in targets]


class TestGroupCommit:
    def test_in_memory_log_runs_callbacks_inline(self):
        wal, fired = DecisionWAL(), []
        wal.append_commit("g", 0, 1, {})
        wal.when_durable(lambda: fired.append("now"))
        assert fired == ["now"]

    def test_waiters_share_one_sync_in_staging_order(self, tmp_path):
        async def scenario(wal, fired):
            for seq in range(3):
                wal.append_commit("g", seq, 1, {})
                wal.when_durable(lambda seq=seq: fired.append(seq))
            assert fired == [] and wal.syncs == 0  # staged, not durable
            await asyncio.sleep(0)
            assert fired == [0, 1, 2] and wal.syncs == 1
            wal.when_durable(lambda: fired.append("idle"))
            assert fired[-1] == "idle" and wal.syncs == 1

        fired: list = []
        with DecisionWAL(tmp_path / "decisions.wal") as wal:
            asyncio.run(scenario(wal, fired))
            wal.append_fence("g", 3, 1, {})  # durable on return
            assert wal.syncs == 2
            wal.append_commit("g", 4, 1, {})
        assert wal.syncs == 3  # close() synced the last commit
        with DecisionWAL(tmp_path / "decisions.wal") as reopened:
            assert len(reopened.records) == 5

    def test_file_log_decides_like_the_in_memory_log(self, tmp_path):
        in_memory: list = []
        _resolve_wave(DecisionWAL(), in_memory)
        durable: list = []
        with DecisionWAL(tmp_path / "decisions.wal") as wal:
            groups = _resolve_wave(wal, durable)
        assert len(durable) == len(groups) == 1024
        assert all(isinstance(d, FailoverDecision) for d in durable)
        # Same decisions in the same order, per group and overall; on
        # one virtual clock even the stamps match.
        assert durable == in_memory

    def test_one_fsync_per_batch_and_per_round(self, tmp_path):
        with DecisionWAL(tmp_path / "decisions.wal") as wal:
            groups = _resolve_wave(wal, [])
            assert wal.stats()["syncs"] == 1 + max(Counter(groups).values())
            assert wal.stats()["commits"] == 1024

    def test_every_callback_follows_the_fsync_of_its_commit(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "decisions.wal"
        # fsyncs enter as the durable file size, callbacks as what fired.
        timeline: list = []
        real_fsync = os.fsync

        def recording_fsync(fd: int) -> None:
            real_fsync(fd)
            timeline.append(os.fstat(fd).st_size)

        monkeypatch.setattr("repro.service.wal.os.fsync", recording_fsync)
        # Every 97th commit fails terminally: its tombstone's error
        # callback must wait for durability like a decision does.
        calls = itertools.count()
        handle = ShareBackupController.handle_node_failure

        def poisoned(controller, logical, **kwargs):
            if next(calls) % 97 == 0:
                raise RuntimeError("poisoned")
            return handle(controller, logical, **kwargs)

        monkeypatch.setattr(
            ShareBackupController, "handle_node_failure", poisoned
        )
        with DecisionWAL(path) as wal:
            _resolve_wave(wal, timeline)
        # Commit records in file order, each with the offset it ends at.
        commits, end = [], 0
        for line in path.read_bytes().splitlines(keepends=True):
            end += len(line)
            record = _decode(line.decode())
            if record is not None and record.type == "commit":
                commits.append((record, end))
        fired = [item for item in timeline if not isinstance(item, int)]
        assert len(fired) == len(commits) == 1024
        durable = 0
        for item in timeline:
            if isinstance(item, int):
                durable = item
                continue
            # Callbacks fire in staging order, so the next commit record
            # is this callback's, and an fsync has already covered it.
            record, end = commits.pop(0)
            assert end <= durable
            if isinstance(item, FailoverDecision):
                assert record.data == item.to_dict()
            else:
                assert record.data["error"] == type(item[1]).__name__
        assert sum(isinstance(item, tuple) for item in fired) == 11
