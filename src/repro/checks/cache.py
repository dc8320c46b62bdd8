"""Incremental lint cache under ``.repro-cache/lint/``.

Same invalidation discipline as the runner's result cache
(:mod:`repro.runner.cache`): an entry is keyed by a content hash plus a
revision token, entries are immutable JSON blobs written atomically,
and a corrupt or unreadable entry is treated as a miss and purged —
the cache can only ever cost a re-parse, never wrong results.

One entry per source file stores *both* products of parsing it:

* the per-file diagnostics (post-suppression — a ``noqa`` edit changes
  the content hash, so stale suppression state cannot survive), and
* the :class:`~repro.checks.callgraph.ModuleSummary` the project model
  links.

Bundling them means a warm run rebuilds the whole-program model and
replays per-file findings without calling the parser once — the
property the test suite pins down by counting
``FileContext.from_source`` calls.

The effective revision is :func:`checks_rev`: the manual
:data:`CHECKS_REV` token (bump it when rule *behaviour* changes
without a code being added or removed) combined with the sorted
registered rule codes, so merely registering a new rule invalidates
every entry automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import ModuleSummary
from .diagnostics import Diagnostic
from .registry import all_rule_codes

__all__ = ["CHECKS_REV", "checks_rev", "LintCache", "CacheStats", "CachedFile"]

#: Manual revision token — bump when rule logic changes in a way the
#: registered-code list does not capture.
CHECKS_REV = "2026.08-6"

#: Cache file-format version (breaking layout changes only).
_FORMAT = 1


def checks_rev() -> str:
    """The effective invalidation token: manual rev + registered codes.

    Looked up at call time, not import time, so rules registered after
    this module is imported still participate.
    """
    return CHECKS_REV + ":" + ",".join(all_rule_codes())


@dataclass
class CacheStats:
    """Hit/miss counters for one lint run."""

    hits: int = 0
    misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


@dataclass(frozen=True)
class CachedFile:
    """Everything one parse of one file produced."""

    diagnostics: tuple[Diagnostic, ...]
    summary: ModuleSummary


@dataclass
class LintCache:
    """Content-addressed store of :class:`CachedFile` entries."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def key(
        self,
        content: str,
        module: str | None,
        category: str | None,
        path: str = "",
    ) -> str:
        digest = hashlib.sha256()
        header = json.dumps(
            {
                "format": _FORMAT,
                "rev": checks_rev(),
                "module": module,
                "category": category,
                # The (repo-relative) path participates so two
                # byte-identical files each keep their own entry —
                # diagnostics and summaries carry the path inside them.
                "path": path,
            },
            sort_keys=True,
        )
        digest.update(header.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(content.encode("utf-8"))
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self,
        content: str,
        module: str | None,
        category: str | None,
        path: str = "",
    ) -> CachedFile | None:
        """The cached products for this exact content, or ``None``."""
        entry_path = self._entry_path(
            self.key(content, module, category, path)
        )
        try:
            raw = json.loads(entry_path.read_text(encoding="utf-8"))
            diagnostics = tuple(
                Diagnostic.from_dict(d) for d in raw["diagnostics"]
            )
            summary = ModuleSummary.from_json(raw["summary"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt entry: purge and treat as a miss.
            try:
                entry_path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return CachedFile(diagnostics=diagnostics, summary=summary)

    def put(
        self,
        content: str,
        module: str | None,
        category: str | None,
        entry: CachedFile,
        path: str = "",
    ) -> None:
        """Persist ``entry`` atomically (write-to-temp, then rename)."""
        entry_path = self._entry_path(
            self.key(content, module, category, path)
        )
        payload = json.dumps(
            {
                "diagnostics": [d.to_dict() for d in entry.diagnostics],
                "summary": entry.summary.to_json(),
            },
            sort_keys=True,
        )
        entry_path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = entry_path.with_suffix(
            f".tmp-{os.getpid()}-{id(entry) & 0xFFFF:x}"
        )
        tmp_path.write_text(payload, encoding="utf-8")
        os.replace(tmp_path, entry_path)
