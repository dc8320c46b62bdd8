"""Child process for ``tests/test_wal_crash.py``: one recovery service
over a file-backed decision WAL, built as ``repro serve --wal`` builds
it (a controller cluster plus the log).

Run as ``python tests/wal_crash_driver.py WAL_PATH SEED`` with ``src``
on ``PYTHONPATH``.  On a fresh log it submits a seeded 1,024-report
k=8, n=2 wave with the boundary scan parked; over an existing log it
submits nothing and only resumes what the log left incomplete.  It
prints one JSON line per event, flushed at once:

* ``{"type": "open", ...}`` — the log's stats as reopened;
* every ``decision`` event as it leaves the service's event stream;
* ``{"type": "settled", ...}`` — all work decided and the log closed.
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.core import ControllerCluster, ShareBackupController, ShareBackupNetwork
from repro.rng import derive_seed, ensure_rng
from repro.service import (
    DecisionWAL,
    FailureReport,
    RecoveryService,
    ServiceConfig,
)
from repro.service.events import Subscription

K, N, WAVE = 8, 2, 1024


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event, sort_keys=True) + "\n")
    sys.stdout.flush()


def wave(net: ShareBackupNetwork, seed: int) -> list[str]:
    """``WAVE`` node-failure targets, round-robin over a seeded
    permutation of every logical slot."""
    slots = sorted(
        slot for group in net.groups.values() for slot in group.logical_slots
    )
    order = ensure_rng(derive_seed(seed, "wal-crash-wave")).permutation(len(slots))
    return [slots[int(order[i % len(slots)])] for i in range(WAVE)]


async def print_decisions(events: Subscription) -> None:
    async for event in events:
        if event.get("type") == "decision":
            emit(event)


async def main(path: str, seed: int) -> None:
    net = ShareBackupNetwork(K, N)
    controller = ShareBackupController(
        net, degrade_to_reroute=True, rng=derive_seed(seed, "controller")
    )
    wal = DecisionWAL(path)
    stats = wal.stats()
    emit({"type": "open", **stats})
    service = RecoveryService(
        controller,
        config=ServiceConfig(report_queue_size=WAVE, scan_interval=3600.0),
        cluster=ControllerCluster(controller=controller),
        wal=wal,
    )
    printer = asyncio.ensure_future(
        print_decisions(service.bus.subscribe(maxsize=4 * WAVE))
    )
    await service.start()
    expected = stats["incomplete"]
    if stats["records"] == 0:
        for logical in wave(net, seed):
            assert service.submit_failure(FailureReport(kind="node", logical=logical))
        expected = WAVE
    while len(service.decisions) + len(service.errors) < expected:
        await asyncio.sleep(0.001)
    await service.stop()
    await printer
    wal.close()
    emit({"type": "settled", "decisions": len(service.decisions), **wal.stats()})


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1], int(sys.argv[2])))
