"""A real ``kill -9`` of a real recovery-service process over a file WAL.

Every other crash test deposes a primary inside one process.  Here the
child (``tests/wal_crash_driver.py``) is SIGKILLed right after it
publishes its j-th decision of a 1,024-report wave, then restarted over
the same log.  A kill keeps the page cache, so this checks that every
record is handed to the OS before its decision is published, and that
the restart recovers and resumes the rest — not that ``fsync`` reaches
the disk.

It does not compare against an uncrashed run: a restarted process
builds a fresh network and does not re-apply the commits already in
the log, so resumed failures may decide differently.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.service.wal import DecisionWAL, _decode

DRIVER = Path(__file__).with_name("wal_crash_driver.py")
SRC = Path(repro.__file__).resolve().parents[1]
WAVE = 1024
TIMEOUT_S = 120.0


def _child(path: Path, seed: int, stderr: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    with open(stderr, "ab") as err:
        return subprocess.Popen(
            [sys.executable, str(DRIVER), str(path), str(seed)],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            text=True,
        )


def _kill_after(path: Path, seed: int, j: int, stderr: Path) -> list[dict]:
    """Run the first incarnation; SIGKILL it after its j-th decision."""
    proc = _child(path, seed, stderr)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)  # a hung child
    watchdog.start()
    published: list[dict] = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            event = json.loads(line)
            if event["type"] == "decision":
                published.append(event)
                if len(published) == j:
                    proc.send_signal(signal.SIGKILL)
                    break
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait(TIMEOUT_S)
        proc.stdout.close()
    assert len(published) == j, stderr.read_text()
    assert proc.returncode == -signal.SIGKILL
    return published


def _restart(path: Path, seed: int, stderr: Path) -> list[dict]:
    """Run an incarnation over the existing log to completion."""
    proc = _child(path, seed, stderr)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait(TIMEOUT_S)
    assert proc.returncode == 0, stderr.read_text()
    events = [json.loads(line) for line in out.splitlines()]
    assert events[0]["type"] == "open"
    assert events[-1]["type"] == "settled"
    return events


def _log_records(path: Path) -> list:
    records = [_decode(line) for line in path.read_text().splitlines()]
    assert None not in records
    return records


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigkill_mid_wave_then_restart(tmp_path, seed):
    path = tmp_path / "decisions.wal"
    stderr = tmp_path / "stderr.txt"
    j = random.Random(seed).randrange(1, WAVE // 2)
    published = _kill_after(path, seed, j, stderr)

    # The log as the kill left it opens cleanly, torn tail and all (a
    # copy, so the restart below meets the tail itself).
    snapshot = tmp_path / "snapshot.wal"
    shutil.copyfile(path, snapshot)
    with DecisionWAL(snapshot) as crashed:
        left = len(crashed.incomplete())
    # Every intent of the wave was durable before the first commit, and
    # the kill landed long before the wave could finish.
    assert left > 0

    events = _restart(path, seed, stderr)
    opened, settled = events[0], events[-1]
    assert opened["incomplete"] == left  # the resume path really ran
    resumed = [e for e in events if e["type"] == "decision"]
    assert settled["incomplete"] == 0
    assert settled["decisions"] == len(resumed)

    records = _log_records(path)
    commits = [r for r in records if r.type == "commit"]
    # Every published decision, from either incarnation, was logged.
    logged = {json.dumps(r.data, sort_keys=True) for r in commits}
    for decision in published + resumed:
        assert json.dumps(decision, sort_keys=True) in logged
    # No key commits twice across incarnations, and nothing is left.
    assert max(Counter(r.key for r in commits).values()) == 1
    intents = {r.key for r in records if r.type == "intent"}
    assert len(intents) == WAVE
    assert intents == {r.key for r in commits}
    with DecisionWAL(path) as reopened:
        assert reopened.incomplete() == []
        assert reopened.truncated_bytes == 0
