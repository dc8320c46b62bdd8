"""The numeric kernel analyzer: NUM001–NUM003 (repro.checks.numeric).

Three layers, mirroring the analyzer's own structure:

* extraction — ``collect_kernel_specs`` / ``analyze_kernels`` over
  synthetic fixtures, plus JSON round-trips of the cached facts;
* judgement — the project rules over small in-repo-shaped packages
  (a ``repro/simulation/columnar.py`` written into a temp dir so the
  module name, and therefore the rule scope, resolves for real);
* the seeded-bug gauntlet — three mutations of the *actual* shipped
  water-fill kernel, each of which must trip exactly its rule, plus the
  warm-cache replay that must reproduce the findings with zero parses.
"""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.checks import lint_paths
from repro.checks.context import FileContext
from repro.checks.numeric import (
    NumericIssue,
    NumericSummary,
    ParsedKernelSpec,
    analyze_kernels,
    collect_kernel_specs,
)
from repro.simulation.kernels import (
    KERNEL_REGISTRY,
    ArraySpec,
    KernelSpec,
    kernel,
)

COLUMNAR = Path(__file__).resolve().parent.parent / (
    "src/repro/simulation/columnar.py"
)


def ctx_for(source, module="repro.simulation.columnar"):
    return FileContext.from_source(
        dedent(source), path="columnar.py", module=module
    )


def lint_package(tmp_path, sources):
    """Lint ``{relpath: source}`` laid out as a repro package tree."""
    paths = []
    for rel, source in sources.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        for ancestor in target.parents:
            if ancestor == tmp_path:
                break
            init = ancestor / "__init__.py"
            if not init.exists():
                init.write_text("")
        target.write_text(dedent(source))
        paths.append(target)
    return lint_paths(paths, cache_dir=tmp_path / ".cache")


def codes(result):
    return {d.code for d in result.diagnostics}


# ----------------------------------------------------------------------
# the runtime registry decorator
# ----------------------------------------------------------------------


class TestKernelRegistry:
    def test_registration_is_inert_and_recorded(self):
        spec: ArraySpec = ("float64", ("n",))

        @kernel(arrays={"x": spec}, returns=("float64", ("n",)))
        def doubled(x):
            return x + x

        key = f"{doubled.__module__}.{doubled.__qualname__}"
        assert doubled.__repro_kernel__ is True
        assert doubled(2) == 4  # the function object is unchanged
        recorded = KERNEL_REGISTRY[key]
        assert isinstance(recorded, KernelSpec)
        assert recorded.arrays == {"x": ("float64", ("n",))}
        assert recorded.returns == ("float64", ("n",))

    def test_bare_kernel_registers_empty_contract(self):
        @kernel()
        def scalar_only(a, b):
            return a + b

        key = f"{scalar_only.__module__}.{scalar_only.__qualname__}"
        assert KERNEL_REGISTRY[key].arrays == {}
        assert KERNEL_REGISTRY[key].returns is None

    def test_shipped_kernels_are_registered(self):
        import repro.simulation.columnar  # noqa: F401
        import repro.simulation.fairshare  # noqa: F401

        assert (
            "repro.simulation.columnar._waterfill_passes" in KERNEL_REGISTRY
        )
        assert (
            "repro.simulation.fairshare._solve_component" in KERNEL_REGISTRY
        )


# ----------------------------------------------------------------------
# spec parsing (decorator literals, no import)
# ----------------------------------------------------------------------


class TestCollectKernelSpecs:
    def test_parses_dtypes_dims_and_offsets(self):
        ctx = ctx_for(
            """
            from .kernels import kernel

            @kernel(
                arrays={
                    "m": ("int64", ("rows", "width")),
                    "r": ("float64", ("segments+1",)),
                    "w": ("float64", (8,)),
                },
                returns=("float64", ("rows",)),
            )
            def f(m, r, w):
                pass
            """
        )
        specs = collect_kernel_specs(ctx)
        spec = specs["f"]
        assert isinstance(spec, ParsedKernelSpec)
        assert spec.arrays["m"] == ("int64", (("rows", 0), ("width", 0)))
        assert spec.arrays["r"] == ("float64", (("segments", 1),))
        assert spec.arrays["w"] == ("float64", (8,))
        assert spec.returns == ("float64", (("rows", 0),))

    def test_bare_decorator_and_non_kernels(self):
        ctx = ctx_for(
            """
            from .kernels import kernel

            @kernel()
            def bare(xs):
                pass

            def plain(xs):
                pass
            """
        )
        specs = collect_kernel_specs(ctx)
        assert specs["bare"].arrays == {}
        assert "plain" not in specs

    def test_computed_specs_degrade_to_unknown(self):
        ctx = ctx_for(
            """
            from .kernels import kernel

            DIMS = ("rows",)

            @kernel(arrays={"x": ("float64", DIMS)})
            def f(x):
                pass
            """
        )
        # The dims tuple is not a literal: dtype survives, dims do not.
        assert collect_kernel_specs(ctx)["f"].arrays["x"] == (
            "float64",
            None,
        )


# ----------------------------------------------------------------------
# cached-fact JSON round-trips
# ----------------------------------------------------------------------


class TestFactRoundTrips:
    def test_summary_round_trip(self):
        summary = NumericSummary(
            issues=(
                NumericIssue(
                    kind="narrowing", lineno=3, col=5, detail="x into y"
                ),
                NumericIssue(kind="shape", lineno=9, col=1, detail="a vs b"),
            ),
        )
        assert NumericSummary.from_json(summary.to_json()) == summary

    def test_empty_summary_round_trip(self):
        assert NumericSummary.from_json(NumericSummary().to_json()) == (
            NumericSummary()
        )

    def test_real_kernel_facts_survive_the_cache_shape(self):
        import json

        ctx = FileContext.from_source(
            COLUMNAR.read_text(encoding="utf-8"),
            path=str(COLUMNAR),
            module="repro.simulation.columnar",
        )
        facts = analyze_kernels(ctx)
        assert set(facts) == {
            "_waterfill_passes",
            "_column_min",
            "_column_any",
        }
        for name, summary in facts.items():
            assert summary.issues == (), (name, summary.issues)
            wire = json.loads(json.dumps(summary.to_json()))
            assert NumericSummary.from_json(wire) == summary


# ----------------------------------------------------------------------
# extraction findings on synthetic kernels
# ----------------------------------------------------------------------


def kernel_issues(source, name="f"):
    summary = analyze_kernels(ctx_for(source))[name]
    return [(issue.kind, issue.detail) for issue in summary.issues]


class TestAbstractInterpretation:
    def test_clean_kernel_has_no_issues(self):
        assert (
            kernel_issues(
                """
                import numpy as np
                from .kernels import kernel

                @kernel(arrays={
                    "a": ("float64", ("n",)),
                    "b": ("float64", ("n",)),
                    "out": ("float64", ("n",)),
                })
                def f(a, b, out):
                    np.divide(a, b, out=out)
                    np.maximum(out, 0.0, out=out)
                    total = out.sum()
                    alias = out
                    return alias[0] + total
                """
            )
            == []
        )

    def test_float_into_int_out_is_narrowing(self):
        issues = kernel_issues(
            """
            import numpy as np
            from .kernels import kernel

            @kernel(arrays={
                "a": ("int64", ("n",)),
                "b": ("int64", ("n",)),
            })
            def f(a, b):
                np.divide(a, b, out=a)
            """
        )
        assert [kind for kind, _ in issues] == ["narrowing"]

    def test_subscript_store_narrowing(self):
        issues = kernel_issues(
            """
            import numpy as np
            from .kernels import kernel

            @kernel(arrays={
                "a": ("float64", ("n",)),
                "out": ("int32", ("n",)),
            })
            def f(a, out):
                out[:] = a
            """
        )
        assert [kind for kind, _ in issues] == ["narrowing"]

    def test_symbolic_broadcast_mismatch(self):
        issues = kernel_issues(
            """
            import numpy as np
            from .kernels import kernel

            @kernel(arrays={
                "m": ("float64", ("rows", "width")),
                "v": ("float64", ("rows",)),
            })
            def f(m, v):
                return m + v
            """
        )
        assert [kind for kind, _ in issues] == ["shape"]
        assert "(rows, width) vs (rows,)" in issues[0][1]

    def test_newaxis_fixes_the_broadcast(self):
        assert (
            kernel_issues(
                """
                import numpy as np
                from .kernels import kernel

                @kernel(arrays={
                    "m": ("float64", ("rows", "width")),
                    "v": ("float64", ("rows",)),
                })
                def f(m, v):
                    return m + v[:, None]
                """
            )
            == []
        )

    def test_shape_arithmetic_unifies_with_offsets(self):
        # remaining.shape[0] - 1 == segments, so minlength=segments + 1
        # lines the bincount result back up with the declared arrays.
        assert (
            kernel_issues(
                """
                import numpy as np
                from .kernels import kernel

                @kernel(arrays={
                    "ids": ("int64", ("n",)),
                    "remaining": ("float64", ("segments+1",)),
                })
                def f(ids, remaining):
                    num_segments = remaining.shape[0] - 1
                    counts = np.bincount(ids, minlength=num_segments + 1)
                    remaining -= counts
                """
            )
            == []
        )

    def test_axis_out_of_range(self):
        issues = kernel_issues(
            """
            import numpy as np
            from .kernels import kernel

            @kernel(arrays={"m": ("float64", ("rows", "width"))})
            def f(m):
                return np.sum(m, axis=2)
            """
        )
        assert [kind for kind, _ in issues] == ["shape"]

    def test_view_aliased_out_is_a_hazard(self):
        issues = kernel_issues(
            """
            import numpy as np
            from .kernels import kernel

            @kernel(arrays={"m": ("float64", ("rows", "width"))})
            def f(m):
                acc = m[:, 0]
                np.minimum(acc, m[:, 1], out=acc)
                return m.sum()
            """
        )
        assert "alias" in [kind for kind, _ in issues]

    def test_copy_breaks_the_alias(self):
        assert (
            kernel_issues(
                """
                import numpy as np
                from .kernels import kernel

                @kernel(arrays={"m": ("float64", ("rows", "width"))})
                def f(m):
                    acc = m[:, 0].copy()
                    np.minimum(acc, m[:, 1], out=acc)
                    return m.sum()
                """
            )
            == []
        )

    def test_disjoint_columns_do_not_alias(self):
        # Writes to column 0, reads column 1: provably disjoint.
        assert (
            kernel_issues(
                """
                import numpy as np
                from .kernels import kernel

                @kernel(arrays={
                    "m": ("float64", ("rows", "width")),
                    "v": ("float64", ("rows",)),
                })
                def f(m, v):
                    np.maximum(m[:, 0], v, out=m[:, 0])
                    return m[:, 1]
                """
            )
            == []
        )

    def test_raise_context_calls_are_exempt(self):
        assert (
            kernel_issues(
                """
                from .kernels import kernel

                @kernel()
                def f(xs):
                    if not xs:
                        raise RuntimeError("empty input")
                    return xs[0]
                """
            )
            == []
        )

    def test_local_kernel_calls_are_safe_and_shapes_flow(self):
        assert (
            kernel_issues(
                """
                import numpy as np
                from .kernels import kernel

                @kernel(
                    arrays={"m": ("float64", ("rows", "width"))},
                    returns=("float64", ("rows",)),
                )
                def col_min(m):
                    out = m[:, 0].copy()
                    for column in range(1, m.shape[1]):
                        np.minimum(out, m[:, column], out=out)
                    return out

                @kernel(arrays={"m": ("float64", ("rows", "width"))})
                def f(m):
                    level = col_min(m)
                    return m - level[:, None]
                """
            )
            == []
        )


# ----------------------------------------------------------------------
# whole-program judgement (rule scope, cross-module calls, noqa)
# ----------------------------------------------------------------------


SAFE_KERNEL = """
    import numpy as np
    from .kernels import kernel

    @kernel(arrays={"a": ("float64", ("n",)), "b": ("float64", ("n",))})
    def f(a, b):
        np.divide(a, b, out=b)
"""

NARROWING_KERNEL = """
    import numpy as np
    from .kernels import kernel

    @kernel(arrays={"a": ("int64", ("n",)), "b": ("int64", ("n",))})
    def f(a, b):
        np.divide(a, b, out=a)
"""


class TestNumericRules:
    def test_scope_excludes_other_modules(self, tmp_path):
        in_scope = lint_package(
            tmp_path / "a", {"repro/simulation/columnar.py": NARROWING_KERNEL}
        )
        out_of_scope = lint_package(
            tmp_path / "b", {"repro/simulation/elsewhere.py": NARROWING_KERNEL}
        )
        assert "NUM001" in codes(in_scope)
        assert "NUM001" not in codes(out_of_scope)

    def test_cross_module_kernel_call_allowed(self, tmp_path):
        result = lint_package(
            tmp_path,
            {
                "repro/simulation/columnar.py": """
                    from .kernels import kernel
                    from .helpers import clamp

                    @kernel()
                    def f(x):
                        return clamp(x)
                """,
                "repro/simulation/helpers.py": """
                    from .kernels import kernel

                    @kernel()
                    def clamp(x):
                        return max(x, 0)
                """,
            },
        )
        assert not {c for c in codes(result) if c.startswith("NUM")}

    def test_noqa_suppresses_with_audit_trail(self, tmp_path):
        result = lint_package(
            tmp_path,
            {
                "repro/simulation/columnar.py": """
                    import numpy as np
                    from .kernels import kernel

                    @kernel(arrays={
                        "counts": ("int64", ("n",)),
                        "out": ("int64", ("n",)),
                    })
                    def f(counts, out):
                        # interim: truncation is the point of this fixture
                        np.divide(counts, 2.0, out=out)  # repro: noqa[NUM001]
                """,
            },
        )
        assert "NUM001" not in codes(result)


# ----------------------------------------------------------------------
# the seeded-bug gauntlet over the real shipped kernel
# ----------------------------------------------------------------------


MUTATIONS = {
    "NUM001": (
        "        np.divide(remaining, counts, out=share)",
        "        share32 = np.empty(share.shape[0], dtype=np.float32)\n"
        "        np.divide(remaining, counts, out=share32)\n"
        "        share[:] = share32",
    ),
    "NUM002": (
        "        tight = shares == level[:, None]",
        "        tight = shares == level",
    ),
    "NUM003": (
        "    out = matrix[:, 0].copy()",
        "    out = matrix[:, 0]",
    ),
}


def mutated_columnar(code):
    source = COLUMNAR.read_text(encoding="utf-8")
    old, new = MUTATIONS[code]
    assert old in source, f"mutation anchor for {code} drifted"
    return source.replace(old, new)


class TestSeededBugs:
    @pytest.mark.parametrize("code", sorted(MUTATIONS))
    def test_mutation_trips_exactly_its_rule(self, tmp_path, code):
        result = lint_package(
            tmp_path,
            {"repro/simulation/columnar.py": mutated_columnar(code)},
        )
        num_codes = {c for c in codes(result) if c.startswith("NUM")}
        assert code in num_codes
        # The mutation must not shotgun unrelated kernel rules; NUM002's
        # broken broadcast legitimately cascades (the mis-shaped mask
        # feeds a 2-D bincount) but stays within its own code.
        assert num_codes == {code}

    def test_shipped_kernel_is_clean(self, tmp_path):
        result = lint_package(
            tmp_path,
            {
                "repro/simulation/columnar.py": COLUMNAR.read_text(
                    encoding="utf-8"
                )
            },
        )
        assert not {c for c in codes(result) if c.startswith("NUM")}

    def test_warm_replay_reproduces_findings_without_parsing(
        self, tmp_path
    ):
        target = tmp_path / "repro" / "simulation" / "columnar.py"
        target.parent.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (target.parent / "__init__.py").write_text("")
        target.write_text(mutated_columnar("NUM003"))
        cache = tmp_path / ".cache"
        cold = lint_paths([target], cache_dir=cache)
        warm = lint_paths([target], cache_dir=cache)
        assert cold.stats.parsed_files == 1
        assert warm.stats.parsed_files == 0
        as_tuples = lambda result: [  # noqa: E731
            (d.code, d.path, d.line, d.col, d.message)
            for d in result.diagnostics
        ]
        assert as_tuples(warm) == as_tuples(cold)
        assert any(d.code == "NUM003" for d in warm.diagnostics)
