"""Tests for :mod:`repro.checks` — the repository invariant linter.

Three layers:

* engine-level: ``check_source`` with explicit ``module=`` exercises
  rule scoping without touching the filesystem;
* fixture-level: each rule gets at least one seeded-violation file in
  ``tmp_path`` (module unknown → every rule applies strictly) and the
  CLI must exit 1 with exactly the expected codes;
* repository-level: ``repro lint`` over the real ``src/repro`` tree
  must exit 0 — the linter gates the code it ships with.
"""

import ast
from pathlib import Path
from textwrap import dedent

import pytest

import repro
from repro.checks import (
    DEFAULT_TARGETS,
    Rule,
    all_rule_codes,
    all_rules,
    check_source,
    get_rule,
    iter_source_files,
    module_name_for,
    project_rules,
)
from repro.cli import main

SRC = Path(repro.__file__).parent

EXPECTED_CODES = {
    "RNG001", "RNG002",
    "DET001", "DET002", "DET003",
    "PROC001", "PROC002",
    "EXC001", "EXC002",
    "CHS001",
    "PERF001", "PERF002",
    "SVC001", "SVC014",
}

PROJECT_CODES = {
    "RNG010", "PROC010", "CHS010", "IMP001", "DEAD001",
    "SVC010", "SVC011", "SVC012", "SVC013",
}


def codes(diagnostics):
    return {d.code for d in diagnostics}


def lint_file(tmp_path, source, name="fixture.py"):
    """Write ``source`` under ``tmp_path`` and run ``repro lint`` on it."""
    path = tmp_path / name
    path.write_text(dedent(source))
    return main(["lint", str(path)])


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert {r.code for r in all_rules()} == EXPECTED_CODES

    def test_rules_sorted_by_code(self):
        listed = [r.code for r in all_rules()]
        assert listed == sorted(listed)

    def test_all_expected_project_rules_registered(self):
        assert {r.code for r in project_rules()} == PROJECT_CODES

    def test_all_rule_codes_covers_both_families(self):
        assert set(all_rule_codes()) == EXPECTED_CODES | PROJECT_CODES
        assert all_rule_codes() == sorted(all_rule_codes())

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("rng001").code == "RNG001"

    def test_get_rule_finds_project_rules(self):
        assert get_rule("imp001").code == "IMP001"

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")

    def test_every_rule_documents_itself(self):
        for rule in [*all_rules(), *project_rules()]:
            assert rule.name
            assert rule.rationale


# ----------------------------------------------------------------------
# scoping
# ----------------------------------------------------------------------


class TestScoping:
    WALL_CLOCK = """\
        import time

        def measure():
            return time.time()
        """

    def test_unknown_module_gets_every_rule(self):
        diags = check_source(dedent(self.WALL_CLOCK), module=None)
        assert "DET001" in codes(diags)

    def test_scoped_rule_silent_outside_scope(self):
        diags = check_source(
            dedent(self.WALL_CLOCK), module="repro.topology.fattree"
        )
        assert "DET001" not in codes(diags)

    def test_scoped_rule_fires_inside_scope(self):
        diags = check_source(
            dedent(self.WALL_CLOCK), module="repro.simulation.engine"
        )
        assert "DET001" in codes(diags)

    def test_exempt_module_wins(self):
        source = """\
            import random

            def draw():
                return random.random()
            """
        assert "RNG001" in codes(check_source(dedent(source), module=None))
        assert not codes(check_source(dedent(source), module="repro.rng"))

    def test_benchmarks_category_exempt_from_determinism(self):
        # A benchmark's whole job is to read the clock.
        diags = check_source(dedent(self.WALL_CLOCK), category="benchmarks")
        assert "DET001" not in codes(diags)

    def test_examples_category_exempt_from_determinism(self):
        diags = check_source(dedent(self.WALL_CLOCK), category="examples")
        assert "DET001" not in codes(diags)

    def test_src_category_keeps_determinism_rules(self):
        diags = check_source(dedent(self.WALL_CLOCK), category="src")
        assert "DET001" in codes(diags)

    def test_category_exemption_does_not_silence_other_rules(self):
        source = """\
            import random

            def jitter(seed):
                return random.uniform(0.0, 1.0)
            """
        diags = check_source(dedent(source), category="benchmarks")
        assert "RNG001" in codes(diags)

    def test_module_name_for_anchors_at_repro(self):
        path = Path("/anywhere/src/repro/simulation/engine.py")
        assert module_name_for(path) == "repro.simulation.engine"

    def test_module_name_for_init_is_package(self):
        path = Path("/x/src/repro/runner/__init__.py")
        assert module_name_for(path) == "repro.runner"

    def test_module_name_for_outside_package_is_none(self):
        assert module_name_for(Path("/tmp/scratch/fixture.py")) is None


# ----------------------------------------------------------------------
# one seeded-violation fixture per rule
# ----------------------------------------------------------------------


class TestRuleFixtures:
    def test_rng001_stdlib_global(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            import random

            def jitter(seed):
                return random.uniform(0.0, 1.0)
            """,
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "RNG001" in out
        assert "ensure_rng" in out

    def test_rng001_numpy_default_rng(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            import numpy as np

            GEN = np.random.default_rng()
            """,
        )
        assert exit_code == 1
        assert "RNG001" in capsys.readouterr().out

    def test_rng001_resolves_import_aliases(self):
        source = """\
            from numpy import random as npr

            def draw(seed):
                return npr.standard_normal()
            """
        assert "RNG001" in codes(check_source(dedent(source)))

    def test_rng002_unseeded_public_function(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            from repro.rng import ensure_rng

            def make_trace(n):
                gen = ensure_rng(None)
                return [gen.random() for _ in range(n)]
            """,
        )
        assert exit_code == 1
        assert "RNG002" in capsys.readouterr().out

    def test_rng002_seed_parameter_is_enough(self):
        source = """\
            from repro.rng import ensure_rng

            def make_trace(n, seed=0):
                gen = ensure_rng(seed)
                return [gen.random() for _ in range(n)]
            """
        assert "RNG002" not in codes(check_source(dedent(source)))

    def test_rng002_threaded_state_is_enough(self):
        source = """\
            from repro.rng import ensure_rng

            class Generator:
                def generate(self):
                    gen = ensure_rng(self.cfg.seed)
                    return gen.random()
            """
        assert "RNG002" not in codes(check_source(dedent(source)))

    def test_rng002_private_functions_ignored(self):
        source = """\
            from repro.rng import ensure_rng

            def _helper():
                return ensure_rng(None).random()
            """
        assert "RNG002" not in codes(check_source(dedent(source)))

    def test_det001_wall_clock(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            import time

            def run_event(seed):
                return {"finished_at": time.time()}
            """,
        )
        assert exit_code == 1
        assert "DET001" in capsys.readouterr().out

    def test_det001_datetime_now(self):
        source = """\
            import datetime

            def stamp(seed):
                return datetime.datetime.now()
            """
        assert "DET001" in codes(check_source(dedent(source)))

    def test_det002_for_over_set(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def emit(edges, seed):
                out = []
                for edge in set(edges):
                    out.append(edge)
                return out
            """,
        )
        assert exit_code == 1
        assert "DET002" in capsys.readouterr().out

    def test_det002_list_of_set_literal(self):
        source = """\
            def order(seed):
                return list({"a", "b", "c"})
            """
        assert "DET002" in codes(check_source(dedent(source)))

    def test_det002_sorted_set_is_fine(self):
        source = """\
            def order(items, seed):
                return sorted(set(items))
            """
        assert "DET002" not in codes(check_source(dedent(source)))

    def test_det003_popitem(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def drain(pending, seed):
                while pending:
                    key, value = pending.popitem()
                    yield key, value
            """,
        )
        assert exit_code == 1
        assert "DET003" in capsys.readouterr().out

    def test_proc001_lambda_to_submit(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def fan_out(pool, shard):
                return pool.submit(lambda: shard)
            """,
        )
        assert exit_code == 1
        assert "PROC001" in capsys.readouterr().out

    def test_proc001_nested_function_to_submit(self):
        source = """\
            def fan_out(pool, shard):
                def work():
                    return shard
                return pool.submit(work)
            """
        assert "PROC001" in codes(check_source(dedent(source)))

    def test_proc001_module_level_function_is_fine(self):
        source = """\
            def work(shard):
                return shard

            def fan_out(pool, shard):
                return pool.submit(work, shard)
            """
        assert "PROC001" not in codes(check_source(dedent(source)))

    def test_proc002_lambda_in_payload(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def build(seed):
                return make_task(payload={"fn": lambda x: x})
            """,
        )
        assert exit_code == 1
        assert "PROC002" in capsys.readouterr().out

    def test_proc002_set_in_task_positional_payload(self):
        source = """\
            def build(Task, seed):
                return Task("kind", "t0", {"edges": {1, 2, 3}})
            """
        assert "PROC002" in codes(check_source(dedent(source)))

    def test_proc002_bytes_in_payload(self):
        source = """\
            def build(seed):
                return make_task(payload={"blob": b"raw"})
            """
        assert "PROC002" in codes(check_source(dedent(source)))

    def test_proc002_json_safe_payload_is_fine(self):
        source = """\
            def build(seed):
                return make_task(payload={"k": 4, "rate": 0.5, "tag": "x"})
            """
        assert "PROC002" not in codes(check_source(dedent(source)))

    def test_exc001_silent_broad_except(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def guarded(step, seed):
                try:
                    step()
                except Exception:
                    pass
            """,
        )
        assert exit_code == 1
        assert "EXC001" in capsys.readouterr().out

    def test_exc001_reraise_is_fine(self):
        source = """\
            def guarded(step, seed):
                try:
                    step()
                except Exception:
                    raise
            """
        assert "EXC001" not in codes(check_source(dedent(source)))

    def test_exc001_journal_record_is_fine(self):
        source = """\
            def guarded(step, journal, seed):
                try:
                    step()
                except Exception as exc:
                    journal.record("shard_failed", error=repr(exc))
            """
        assert "EXC001" not in codes(check_source(dedent(source)))

    def test_exc001_raise_inside_nested_def_not_enough(self):
        source = """\
            def guarded(step, seed):
                try:
                    step()
                except Exception:
                    def later():
                        raise RuntimeError("too late")
            """
        assert "EXC001" in codes(check_source(dedent(source)))

    def test_exc002_bare_except(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def guarded(step, seed):
                try:
                    step()
                except:
                    return None
            """,
        )
        assert exit_code == 1
        assert "EXC002" in capsys.readouterr().out

    def test_chs001_direct_reconfigure(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def hotfix(net):
                net.circuit_switches["cs-E0"].reconfigure({("d", 0): None})
            """,
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "CHS001" in out
        assert "ShareBackupController" in out

    def test_chs001_raw_failover(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def recover(net, spare):
                net.failover("E.0.0", spare)
            """,
        )
        assert exit_code == 1
        assert "CHS001" in capsys.readouterr().out

    def test_chs001_connect_on_circuit_switch_receiver(self):
        source = """\
            def rewire(cs):
                cs.connect(("d", 0), ("u", 0))
            """
        assert "CHS001" in codes(check_source(dedent(source)))

    def test_chs001_connect_on_unrelated_receiver_is_fine(self):
        source = """\
            def open_db(client):
                return client.connect("localhost")
            """
        assert "CHS001" not in codes(check_source(dedent(source)))

    def test_perf001_full_active_sweep_fires(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            class FluidSimulation:
                def _throttle_everything(self):
                    for fid, state in self.active.items():
                        state.rate = 0.0
            """,
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "PERF001" in out
        assert "_throttle_everything" in out

    def test_perf001_catches_wrapped_iteration(self):
        source = """\
            class FluidSimulation:
                def _scan(self):
                    return [fid for fid in sorted(self.active)]
            """
        assert "PERF001" in codes(check_source(dedent(source)))

    def test_perf001_sanctioned_helpers_are_fine(self):
        source = """\
            class FluidSimulation:
                def _repath_flows(self):
                    for fid in sorted(self.active):
                        pass

                def _reallocate_oracle(self):
                    return [s.ipath for s in self.active.values()]

                def _notify_monitor(self):
                    return {f: s for f, s in self.active.items()}

                def _build_result(self):
                    for fid, state in self.active.items():
                        pass
            """
        assert "PERF001" not in codes(check_source(dedent(source)))

    def test_perf001_other_classes_and_attrs_are_fine(self):
        source = """\
            class PacketLevelSimulator:
                def sweep(self):
                    for f in self.active:
                        pass

            class FluidSimulation:
                def _drain(self):
                    for comp in self.components:
                        pass
                    for fid in affected:
                        pass
            """
        assert "PERF001" not in codes(check_source(dedent(source)))

    def test_perf001_scoped_to_simulation_modules(self):
        source = """\
            class FluidSimulation:
                def _helper(self):
                    for fid in self.active:
                        pass
            """
        assert "PERF001" in codes(
            check_source(dedent(source), module="repro.simulation.engine")
        )
        assert "PERF001" not in codes(
            check_source(dedent(source), module="repro.experiments.slowdown")
        )

    def test_perf002_per_row_loop_fires(self):
        source = """\
            def waterfill(seg_matrix, capacities):
                total = 0.0
                for row in seg_matrix:
                    total += row.min()
                return total
            """
        diags = check_source(
            dedent(source), module="repro.simulation.columnar"
        )
        matches = [d for d in diags if d.code == "PERF002"]
        assert len(matches) == 1
        assert "waterfill" in matches[0].message

    def test_perf002_catches_comprehensions_and_module_level(self):
        source = """\
            levels = [row.min() for row in ALIVE]

            def extract(table, rates):
                return {fid: r for fid, r in zip(table.flow_ids, rates)}
            """
        diags = check_source(
            dedent(source), module="repro.simulation.columnar"
        )
        assert len([d for d in diags if d.code == "PERF002"]) == 2

    def test_perf002_range_loops_are_fine(self):
        source = """\
            def _reduce_columns(op, matrix):
                out = matrix[:, 0].copy()
                for column in range(1, matrix.shape[1]):
                    op(out, matrix[:, column], out=out)
                return out
            """
        assert "PERF002" not in codes(
            check_source(dedent(source), module="repro.simulation.columnar")
        )

    def test_perf002_sanctioned_patch_helpers_are_fine(self):
        source = """\
            class FlowTable:
                def append(self, flow_id, path):
                    for seg in path:
                        self.incidence[seg] += 1

                def discard(self, flow_ids):
                    gone = [fid for fid in flow_ids if fid in self._members]

                def rebuild(self, entries):
                    for row, (fid, path, rate) in enumerate(entries):
                        pass

            def pack_paths(paths, num_segments):
                for row, path in enumerate(paths):
                    pass
            """
        assert "PERF002" not in codes(
            check_source(dedent(source), module="repro.simulation.columnar")
        )

    def test_perf002_scoped_to_the_columnar_module(self):
        source = """\
            def solve(rows):
                return [r.min() for r in rows]
            """
        assert "PERF002" in codes(
            check_source(dedent(source), module="repro.simulation.columnar")
        )
        assert "PERF002" not in codes(
            check_source(dedent(source), module="repro.simulation.engine")
        )
        # No structural anchor means no firing on unresolved modules
        # (the CLI lints benchmarks/ and examples/ with module=None).
        assert "PERF002" not in codes(check_source(dedent(source)))

    def test_chs001_exempt_inside_repro_core(self):
        source = """\
            def failover(self, logical, spare):
                for cs in self.circuit_switches_of(logical):
                    cs.reconfigure({})
            """
        assert "CHS001" not in codes(
            check_source(dedent(source), module="repro.core.sharebackup")
        )
        assert "CHS001" in codes(
            check_source(dedent(source), module="repro.chaos.harness")
        )

    def test_svc001_time_sleep_in_coroutine_fires(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            import time

            async def drain_loop(queue):
                while True:
                    time.sleep(0.1)
            """,
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "SVC001" in out
        assert "time.sleep" in out

    def test_svc001_sync_io_in_coroutine_fires(self):
        source = """\
            async def dump(path, payload):
                with open(path, "w") as fh:
                    fh.write(payload)
                path.write_text(payload)
            """
        diagnostics = [
            d
            for d in check_source(
                dedent(source), module="repro.service.service"
            )
            if d.code == "SVC001"
        ]
        assert len(diagnostics) == 2  # open() and .write_text()

    def test_svc001_sync_functions_are_fine(self):
        source = """\
            import time

            def snapshot():
                time.sleep(0.1)
                return open("state.json").read()
            """
        assert "SVC001" not in codes(
            check_source(dedent(source), module="repro.service.service")
        )

    def test_svc001_awaiting_the_clock_is_fine(self):
        source = """\
            async def scan_loop(self):
                while True:
                    await self.clock.sleep(self.interval)
                    await self._scan_once()
            """
        assert "SVC001" not in codes(
            check_source(dedent(source), module="repro.service.service")
        )

    def test_svc001_scoped_to_service_modules(self):
        source = """\
            import time

            async def worker():
                time.sleep(1.0)
            """
        assert "SVC001" in codes(
            check_source(dedent(source), module="repro.service.resolver")
        )
        assert "SVC001" not in codes(
            check_source(dedent(source), module="repro.experiments.sweep")
        )

    def test_svc014_commit_outside_resolver_fires(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            def recover(controller, name):
                return controller.handle_node_failure(name)
            """,
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "SVC014" in out
        assert "handle_node_failure" in out

    def test_svc014_commit_sanctioned_in_resolver(self):
        source = """\
            def _commit(self, pending):
                return self.controller.handle_node_failure(pending.logical)
            """
        assert "SVC014" not in codes(
            check_source(dedent(source), module="repro.service.resolver")
        )
        assert "SVC014" in codes(
            check_source(dedent(source), module="repro.service.service")
        )

    def test_svc014_cluster_mutation_outside_federation_fires(self):
        source = """\
            def chaos_step(self):
                self.cluster.fail_primary()
                self.cluster.restore_replica("c1")
            """
        diagnostics = [
            d
            for d in check_source(
                dedent(source), module="repro.service.replay"
            )
            if d.code == "SVC014"
        ]
        assert len(diagnostics) == 2
        assert "SVC014" not in codes(
            check_source(dedent(source), module="repro.service.federation")
        )

    def test_svc014_direct_epoch_write_fires(self):
        source = """\
            def depose(cluster):
                cluster.epoch += 1
                cluster._primary = None
            """
        diagnostics = [
            d
            for d in check_source(
                dedent(source), module="repro.service.service"
            )
            if d.code == "SVC014"
        ]
        assert len(diagnostics) == 2

    def test_svc014_scoped_to_service_modules(self):
        source = """\
            def run(controller, cluster):
                controller.handle_node_failure("A.0.0")
                cluster.fail_primary()
            """
        assert "SVC014" not in codes(
            check_source(dedent(source), module="repro.experiments.sweep")
        )

    def test_svc014_reading_cluster_state_is_fine(self):
        source = """\
            def metrics(self):
                return {
                    "epoch": self.cluster.epoch,
                    "elections": self.cluster.elections,
                }
            """
        assert "SVC014" not in codes(
            check_source(dedent(source), module="repro.service.service")
        )


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_noqa_suppresses_named_code(self, tmp_path, capsys):
        exit_code = lint_file(
            tmp_path,
            """\
            import random

            def jitter(seed):
                return random.uniform(0.0, 1.0)  # repro: noqa[RNG001]
            """,
        )
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out

    def test_noqa_is_line_scoped(self):
        source = """\
            import random

            def jitter(seed):
                a = random.random()  # repro: noqa[RNG001]
                b = random.random()
                return a + b
            """
        diags = [d for d in check_source(dedent(source)) if d.code == "RNG001"]
        assert [d.line for d in diags] == [5]

    def test_noqa_suppresses_svc001(self):
        source = """\
            import time

            async def settle():
                time.sleep(0.01)  # repro: noqa[SVC001]
            """
        assert "SVC001" not in codes(
            check_source(dedent(source), module="repro.service.clock")
        )

    def test_noqa_wrong_code_does_not_suppress(self):
        source = """\
            import random

            def jitter(seed):
                return random.random()  # repro: noqa[DET001]
            """
        assert "RNG001" in codes(check_source(dedent(source)))

    def test_noqa_wildcard(self):
        source = """\
            import random

            def jitter(seed):
                return random.random()  # repro: noqa[*]
            """
        assert not codes(check_source(dedent(source)))

    def test_noqa_comma_separated_codes(self):
        source = """\
            import time

            def run_event(seed):
                return time.time()  # repro: noqa[DET001, RNG001]
            """
        assert not codes(check_source(dedent(source)))

    def test_noqa_on_closing_line_of_multiline_call(self):
        # The diagnostic anchors at the call's first line, but the
        # marker trails the closing paren three lines later — the
        # suppression span must cover the whole statement.
        source = """\
            import random

            def jitter(seed):
                return random.uniform(
                    0.0,
                    1.0,
                )  # repro: noqa[RNG001]
            """
        assert "RNG001" not in codes(check_source(dedent(source)))

    def test_noqa_on_middle_line_of_multiline_call(self):
        source = """\
            import random

            def jitter(seed):
                return random.uniform(
                    0.0,  # repro: noqa[RNG001]
                    1.0,
                )
            """
        assert "RNG001" not in codes(check_source(dedent(source)))

    def test_noqa_on_decorator_line_suppresses_def_diagnostic(self):
        # No shipped rule anchors at a def today, so pin the span
        # semantics with a throwaway (unregistered) rule that does.
        diags = check_source(
            dedent(self.DECORATED), rules=[self._DefAnchoredRule()]
        )
        assert codes(diags) == set()

    def test_noqa_inside_body_does_not_suppress_def_diagnostic(self):
        diags = check_source(
            dedent(self.DECORATED_BODY_NOQA), rules=[self._DefAnchoredRule()]
        )
        assert codes(diags) == {"TST001"}

    DECORATED = """\
        import functools

        @functools.cache  # repro: noqa[TST001]
        def compute():
            return 1
        """

    DECORATED_BODY_NOQA = """\
        import functools

        @functools.cache
        def compute():
            return 1  # repro: noqa[TST001]
        """

    class _DefAnchoredRule(Rule):
        code = "TST001"
        name = "test-def-anchor"
        rationale = "exercises decorator-aware suppression spans"

        def check(self, ctx):
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.FunctionDef):
                    yield self.diagnostic(ctx, node, "def found")


# ----------------------------------------------------------------------
# engine + CLI behaviour
# ----------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_yields_syn001(self, tmp_path, capsys):
        exit_code = lint_file(tmp_path, "def broken(:\n")
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "SYN001" in out

    def test_diagnostics_sorted_by_location(self):
        source = """\
            import random

            def b(seed):
                return random.random()

            def a(seed):
                return random.random()
            """
        diags = check_source(dedent(source))
        assert diags == sorted(diags)

    def test_iter_source_files_skips_pycache(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        cached = tmp_path / "__pycache__"
        cached.mkdir()
        (cached / "skip.py").write_text("x = 2\n")
        found = iter_source_files([tmp_path])
        assert [p.name for p in found] == ["keep.py"]

    def test_render_format(self):
        source = "import random\nrandom.seed(7)\n"
        (diag,) = check_source(source, path="fx.py")
        assert diag.render() == f"fx.py:2:1: RNG001 {diag.message}"


class TestCli:
    def test_clean_repository_exits_zero(self, capsys):
        exit_code = main(["lint", str(SRC)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "clean" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        exit_code = main(["lint", str(tmp_path / "no-such-dir")])
        assert exit_code == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--bogus-flag"])
        assert excinfo.value.code == 2

    def test_default_targets_resolve_from_repo_root(self, monkeypatch, capsys):
        repo_root = SRC.parent.parent
        assert (repo_root / DEFAULT_TARGETS[0]).is_dir()
        monkeypatch.chdir(repo_root)
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_default_targets_absent_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "default targets" in capsys.readouterr().err

    def test_problem_count_on_stderr(self, tmp_path, capsys):
        fixture = tmp_path / "two.py"
        fixture.write_text(
            "import random\na = random.random()\nb = random.random()\n"
        )
        exit_code = main(["lint", str(fixture)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "2 problem(s) found" in captured.err
        assert captured.out.count("RNG001") == 2

    def test_list_rules_exits_zero_and_names_every_code(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in EXPECTED_CODES | PROJECT_CODES:
            assert code in out
        assert "[whole-program]" in out
