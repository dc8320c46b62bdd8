"""Golden SARIF snapshot: one finding per rule family, end to end.

The unit tests in ``test_checks_project.py`` pin individual SARIF
fields; this test pins the *whole document* — envelope, rule
catalogue, result ordering, URIs — against a committed snapshot
(``tests/data/golden_lint.sarif``) so any renderer or pipeline change
that reshapes the output shows up as a reviewable diff rather than a
silent drift.

The fixture repository seeds exactly one finding in each rule family:
``RNG001`` (module-global draw), ``PROC001`` (lambda to a process
pool), ``SVC001`` (blocking call in a coroutine), and ``PERF002``
(per-element loop in the columnar core).

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_sarif_golden.py
"""

import os
from pathlib import Path
from textwrap import dedent

from repro.checks import lint_paths, render_sarif

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_lint.sarif"

#: One file per seeded family; module names matter (rule scopes).
FIXTURE_FILES = {
    "pyproject.toml": "[project]\nname = 'golden-fixture'\n",
    "src/repro/__init__.py": "",
    "src/repro/runner/__init__.py": "",
    "src/repro/service/__init__.py": "",
    "src/repro/simulation/__init__.py": "",
    # RNG001: a module-global draw, invisible to seed derivation.
    "src/repro/util.py": """\
        import random

        _JITTER = random.random()
        """,
    # PROC001: a lambda shipped across the process boundary.
    "src/repro/runner/jobs.py": """\
        def _fan_out(pool, items):
            return pool.map(lambda item: item + 1, items)
        """,
    # SVC001: a blocking sleep on the shared event loop.
    "src/repro/service/worker.py": """\
        import time


        async def _drain() -> None:
            time.sleep(0.1)
        """,
    # PERF002: a per-element loop in the columnar core.
    "src/repro/simulation/columnar.py": """\
        def _total(rows):
            total = 0
            for row in rows:
                total += row
            return total
        """,
}

SEEDED_CODES = {"RNG001", "PROC001", "SVC001", "PERF002"}


def _build_fixture(tmp_path: Path) -> Path:
    for rel, content in FIXTURE_FILES.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(dedent(content), encoding="utf-8")
    return tmp_path / "src"


def test_sarif_snapshot_one_finding_per_family(tmp_path):
    src = _build_fixture(tmp_path)
    result = lint_paths([src], use_cache=False)

    # The fixture must stay honest before the snapshot means anything:
    # exactly the four seeded families, one finding each.
    assert {d.code for d in result.diagnostics} == SEEDED_CODES
    assert len(result.diagnostics) == len(SEEDED_CODES)

    document = render_sarif(result.diagnostics, root=result.root)

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(document, encoding="utf-8")

    assert GOLDEN.exists(), (
        "no golden snapshot committed; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    assert document == GOLDEN.read_text(encoding="utf-8")
