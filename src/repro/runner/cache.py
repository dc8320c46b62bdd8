"""Content-addressed result cache for sweep tasks.

A task's cache key is the SHA-256 of its canonical JSON description:
worker kind, full payload (topology parameters, failure scenario,
workload seed — everything the worker reads), and a code-version tag.
Two consequences:

* re-running any benchmark after an *unrelated* change is near-instant —
  every task keys to the same entry and the runner never touches a
  simulator;
* any change that *does* alter a task's inputs changes its key, so stale
  results cannot be served by construction.  Changes to the simulation
  *code* itself are not visible in payloads; two version tokens cover
  them: :data:`CACHE_VERSION` (bump whenever the semantics of any worker
  change) and ``repro.simulation.ENGINE_REV`` (bumped alongside any
  fluid-engine/allocator change that can alter the trace → results map),
  both folded into every key.

Entries are one JSON file each under ``.repro-cache/<kind>/<kk>/<key>.json``
(two-level fan-out keeps directories small), written atomically via a
temp file + rename so concurrent runs can share a cache directory.
Corrupt or truncated entries read as misses and are deleted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

__all__ = ["CACHE_VERSION", "MISS", "cache_key", "ResultCache", "NullCache"]

#: Bump when the meaning of any worker's (payload → result) map changes.
CACHE_VERSION = 1

#: Sentinel distinguishing "no entry" from a legitimately-None result.
MISS = object()


def _engine_rev() -> int:
    """The engine's code-version token, looked up late so tests can
    monkeypatch ``repro.simulation.ENGINE_REV`` and see keys change."""
    from .. import simulation

    return int(simulation.ENGINE_REV)


def cache_key(
    kind: str,
    payload: dict,
    version: int = CACHE_VERSION,
    engine_rev: int | None = None,
) -> str:
    """The content address of one task.

    ``payload`` must be plain JSON: anything else (a set, a callable, a
    numpy scalar) raises :class:`TypeError` rather than being stringified
    into a key that differs between interpreters.
    """
    canonical = json.dumps(
        {
            "engine_rev": _engine_rev() if engine_rev is None else engine_rev,
            "kind": kind,
            "payload": payload,
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed task-result store."""

    def __init__(self, root: str | Path = ".repro-cache") -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        safe_kind = kind.replace(":", "_").replace("/", "_").replace(".", "_")
        return self.root / safe_kind / key[:2] / f"{key}.json"

    def get(self, kind: str, key: str) -> object:
        """The cached result for ``key``, or :data:`MISS`."""
        path = self._path(kind, key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
            return entry["result"]
        except FileNotFoundError:
            return MISS
        except (json.JSONDecodeError, KeyError, OSError):
            # Truncated write from a killed run; purge and recompute.
            with contextlib.suppress(OSError):
                path.unlink()
            return MISS

    def put(self, kind: str, key: str, payload: dict, result: object) -> None:
        """Store ``result`` atomically (concurrent writers both win)."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "kind": kind, "payload": payload, "result": result}
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(
            1 for p in self.root.rglob("*.json") if not p.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class NullCache:
    """Cache interface that never hits and never stores (``--no-cache``)."""

    root = None

    def get(self, kind: str, key: str) -> object:
        return MISS

    def put(self, kind: str, key: str, payload: dict, result: object) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
