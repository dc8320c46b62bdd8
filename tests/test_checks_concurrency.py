"""Tests for the concurrency analysis layer (SVC010–SVC013).

Five layers, mirroring the architecture:

* CFG-level: :func:`repro.checks.cfg.build_cfg` segments an
  ``async def`` at its awaits, tracks lexical lock regions, and emits
  shared-state reads/writes in evaluation order;
* extraction-level: :func:`repro.checks.concurrency.analyze_function`
  turns one coroutine into stale-write candidates, spawn sites, lock
  violations, and global mutations — positive *and* negative fixtures
  per fact, plus JSON round-trips for the lint cache;
* judgement-level: the :class:`InterferenceEngine` closure over
  ``ProjectModel`` fixtures — who interleaves with whom, and when a
  stale-write candidate gains a witness;
* mutation-level: seeded interleaving bugs injected into the *real*
  ``repro.service`` sources (a sequence counter split across an await;
  a leaked ``ensure_future``; a lock held across a queue ``get``; a
  module-level list appended to by a resolver coroutine) must be
  flagged by the new rules, and the unmutated sources must stay clean;
* pipeline-level: scope filtering, noqa auditability, warm-cache
  replay of concurrency facts, SARIF catalogue coverage, and the
  ``repro lint --changed`` git-scoped fast path.
"""

import ast
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.checks import lint_paths
from repro.checks.cfg import (
    Block,
    ControlFlowGraph,
    Op,
    blocking_call_reason,
    build_cfg,
    dotted_name,
)
from repro.checks.concurrency import (
    ConcurrencySummary,
    GlobalMutation,
    InterferenceEngine,
    LockViolation,
    SpawnSite,
    StaleWrite,
    lock_attribute_names,
    module_global_names,
)
from repro.checks.context import FileContext
from repro.checks.engine import changed_source_files
from repro.checks.project import ProjectModel
from repro.checks.rules.concurrency import (
    AwaitInterference,
    CoroutineGlobalMutation,
    FireAndForgetTask,
    LockDiscipline,
)
from repro.checks.sarif import render_sarif
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SERVICE_DIR = REPO_ROOT / "src" / "repro" / "service"

NEW_CODES = ("SVC010", "SVC011", "SVC012", "SVC013")


def ctx_of(source, module="repro.service.fix"):
    return FileContext.from_source(
        source,
        path="src/" + (module or "fix").replace(".", "/") + ".py",
        module=module,
        category="src",
    )


def cfg_of(source, *, module_globals=frozenset(), lock_names=frozenset()):
    ctx = ctx_of(source)
    fn = next(
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.AsyncFunctionDef)
    )
    return build_cfg(
        fn,
        resolve=ctx.resolve,
        module_globals=module_globals,
        lock_names=lock_names,
        blocking_call=lambda node: blocking_call_reason(ctx.resolve, node),
    )


def summary_of(source, qualname, module="repro.service.fix"):
    """The ConcurrencySummary of one function, through the real
    callgraph extraction plumbing (module globals, class lock names)."""
    from repro.checks.callgraph import summarize

    module_summary = summarize(ctx_of(source, module))
    (fn,) = [f for f in module_summary.functions if f.qualname == qualname]
    assert fn.is_async and fn.concurrency is not None
    return fn.concurrency


def model_of(**sources):
    return ProjectModel.from_sources(
        {name.replace("__", "."): src for name, src in sources.items()}
    )


def rule_codes(model):
    found = []
    for rule in (
        AwaitInterference(),
        FireAndForgetTask(),
        LockDiscipline(),
        CoroutineGlobalMutation(),
    ):
        found.extend(d.code for d in rule.check(model))
    return sorted(found)


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


class TestCfg:
    def test_straight_line_segments(self):
        cfg = cfg_of(
            "async def f(self):\n"
            "    a = self.x\n"
            "    await self.q.get()\n"
            "    self.x = a\n"
        )
        assert isinstance(cfg, ControlFlowGraph)
        assert cfg.await_count == 1
        assert cfg.segment_count() == 2
        # (self.q is also read as the awaited call's receiver)
        kinds = [
            (op.kind, op.var)
            for op in cfg.all_ops()
            if op.var in ("self.x", "")
        ]
        assert kinds == [("read", "self.x"), ("await", ""), ("write", "self.x")]

    def test_blocks_carry_explicit_successors(self):
        cfg = cfg_of(
            "async def f(self, flag):\n"
            "    if flag:\n"
            "        await self.q.get()\n"
            "    self.x = 1\n"
        )
        entry = cfg.blocks[cfg.entry]
        assert isinstance(entry, Block)
        assert len(entry.succs) == 2  # then / else arms
        # Every block index referenced actually exists.
        for block in cfg.blocks:
            for succ in block.succs:
                assert 0 <= succ < len(cfg.blocks)

    def test_augassign_is_read_then_write(self):
        cfg = cfg_of("async def f(self):\n    self.count += 1\n")
        kinds = [(op.kind, op.var) for op in cfg.all_ops()]
        assert kinds == [("read", "self.count"), ("write", "self.count")]

    def test_mutator_method_is_atomic_read_write(self):
        cfg = cfg_of("async def f(self):\n    self.items.append(1)\n")
        kinds = [(op.kind, op.var) for op in cfg.all_ops()]
        assert ("write", "self.items") in kinds

    def test_subscript_store_mutates_container(self):
        cfg = cfg_of("async def f(self, k):\n    self.table[k] = 1\n")
        assert [(op.kind, op.var) for op in cfg.all_ops()] == [
            ("read", "self.table"),
            ("write", "self.table"),
        ]

    def test_module_global_reads_and_shadowing(self):
        src = (
            "async def f():\n"
            "    x = LIMIT\n"          # module global: read
            "    LIMIT2 = 5\n"         # local binding shadows
            "    y = LIMIT2\n"
            "    return x + y\n"
        )
        cfg = cfg_of(src, module_globals=frozenset({"LIMIT", "LIMIT2"}))
        vars_read = [op.var for op in cfg.all_ops() if op.kind == "read"]
        assert vars_read == ["g:LIMIT"]

    def test_lock_region_tracks_held_locks(self):
        cfg = cfg_of(
            "async def f(self):\n"
            "    async with self._lock:\n"
            "        await self.q.get()\n"
            "    await self.q.get()\n"
        )
        awaits = [op for op in cfg.all_ops() if op.kind == "await"]
        # enter, guarded get, unguarded get
        assert [op.locks for op in awaits] == [
            (), ("self._lock",), ()
        ]

    def test_constructor_known_lock_names_extend_heuristic(self):
        cfg = cfg_of(
            "async def f(self):\n"
            "    async with self._gate:\n"
            "        await self.q.get()\n",
            lock_names=frozenset({"_gate"}),
        )
        guarded = [op for op in cfg.all_ops() if op.locks]
        assert guarded and guarded[0].locks == ("self._gate",)

    def test_unbounded_await_classification(self):
        src = (
            "import asyncio\n"
            "async def f(self, fut):\n"
            "    await fut\n"
            "    await self.q.get()\n"
            "    await asyncio.wait_for(self.q.get(), timeout=1)\n"
            "    await asyncio.gather(self.a(), self.b())\n"
        )
        ctx = ctx_of(src)
        fn = next(
            n for n in ast.walk(ctx.tree)
            if isinstance(n, ast.AsyncFunctionDef)
        )
        cfg = build_cfg(fn, resolve=ctx.resolve)
        reasons = [op.unbounded for op in cfg.all_ops() if op.kind == "await"]
        assert reasons == [
            "a bare future/awaitable", ".get()", "", "asyncio.gather()"
        ]

    def test_code_after_return_is_unreachable(self):
        cfg = cfg_of(
            "async def f(self):\n"
            "    a = self.x\n"
            "    await self.q.get()\n"
            "    return None\n"
            "    self.x = a\n"
        )
        # The write exists but sits in a block no edge reaches.
        write_blocks = [
            block.index
            for block in cfg.blocks
            if any(op.kind == "write" for op in block.ops)
        ]
        reachable = {cfg.entry}
        frontier = [cfg.entry]
        while frontier:
            for succ in cfg.blocks[frontier.pop()].succs:
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        assert write_blocks and not set(write_blocks) <= reachable

    def test_async_for_iteration_is_a_suspension_point(self):
        cfg = cfg_of(
            "async def f(self):\n"
            "    async for item in self.stream:\n"
            "        self.x = item\n"
        )
        assert cfg.await_count >= 1

    def test_dotted_name_helper(self):
        expr = ast.parse("self._lock.inner", mode="eval").body
        assert dotted_name(expr) == "self._lock.inner"
        call = ast.parse("f()", mode="eval").body
        assert dotted_name(call) == ""

    def test_op_is_frozen_and_hashable(self):
        op = Op("await", "", 3, 1, locks=("self._lock",), unbounded=".get()")
        assert {op: "x"}[op] == "x"


# ----------------------------------------------------------------------
# stale-write extraction (SVC010 candidates)
# ----------------------------------------------------------------------


class TestStaleWrites:
    def stale(self, body):
        return summary_of(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            + "".join(f"        {line}\n" for line in body),
            "S.f",
        ).stale_writes

    def test_split_counter_across_await(self):
        (cand,) = self.stale(
            ["current = self.total",
             "await self.q.get()",
             "self.total = current + 1"]
        )
        assert cand.var == "self.total"
        assert cand.read_line == 4
        assert cand.lineno == 6

    def test_reread_after_await_is_clean(self):
        assert self.stale(
            ["await self.q.get()",
             "self.total = self.total + 1"]
        ) == ()

    def test_atomic_augassign_is_clean(self):
        assert self.stale(
            ["await self.q.get()",
             "self.total += 1"]
        ) == ()

    def test_lock_region_suppresses_promotion(self):
        assert self.stale(
            ["async with self._lock:",
             "    current = self.total",
             "    await asyncio.wait_for(self.q.get(), 1)",
             "    self.total = current + 1"]
        ) == ()

    def test_await_on_one_branch_still_flags(self):
        (cand,) = self.stale(
            ["current = self.total",
             "if self.flag:",
             "    await self.q.get()",
             "self.total = current + 1"]
        )
        assert cand.var == "self.total"

    def test_loop_carried_staleness(self):
        (cand,) = self.stale(
            ["current = self.total",
             "while True:",
             "    await self.q.get()",
             "    self.total = current + 1"]
        )
        assert cand.var == "self.total"

    def test_write_before_await_is_clean(self):
        assert self.stale(
            ["self.total = 1",
             "await self.q.get()"]
        ) == ()

    def test_await_expression_value_feeding_write(self):
        # ``self._wakeup = None`` after ``await self._wakeup`` — the
        # resolver's real shape; a candidate, silenced only by the
        # interference engine when no second writer exists.
        (cand,) = self.stale(
            ["await self._wakeup",
             "self._wakeup = None"]
        )
        assert cand.var == "self._wakeup"


# ----------------------------------------------------------------------
# spawn-site extraction (SVC011 material + engine roots)
# ----------------------------------------------------------------------


class TestSpawnScan:
    def spawns(self, source, qualname="S.f"):
        return summary_of(source, qualname).spawns

    def test_discarded_create_task(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        asyncio.create_task(self.worker())\n"
        )
        assert site.discarded and site.via == "asyncio.create_task"
        assert site.refs == ("method:worker",)

    def test_kept_handle_is_not_discarded(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        self._task = asyncio.create_task(self.worker())\n"
        )
        assert not site.discarded

    def test_handle_stored_via_append_is_not_discarded(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        self._tasks.append(asyncio.create_task(self.worker()))\n"
        )
        assert not site.discarded

    def test_bare_comprehension_discards_every_handle(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        [asyncio.ensure_future(c) for c in (self.a(), self.b())]\n"
        )
        assert site.discarded
        # statement-level fallback names the coroutines being launched
        assert site.refs == ("method:a", "method:b")

    def test_awaited_gather_is_not_discarded_but_still_spawns(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        await asyncio.gather(self.a(), self.b())\n"
        )
        assert not site.discarded
        assert site.via == "asyncio.gather"
        assert site.refs == ("method:a", "method:b")

    def test_taskgroup_spawn_is_supervised(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        async with asyncio.TaskGroup() as tg:\n"
            "            tg.create_task(self.worker())\n"
        )
        assert not site.discarded and site.via == ".create_task()"

    def test_spawn_in_loop_is_multi(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        for _ in range(3):\n"
            "            self._ts.append(asyncio.create_task(self.worker()))\n"
        )
        assert site.multi

    def test_comprehension_with_direct_call_args_is_multi(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self, items):\n"
            "        self._ts = [asyncio.create_task(self.w(i)) for i in items]\n"
        )
        assert site.multi and site.refs == ("method:w",)

    def test_duplicate_gather_targets_are_multi(self):
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        await asyncio.gather(self.w(), self.w())\n"
        )
        assert site.multi

    def test_singleton_fanout_comprehension_is_not_multi(self):
        # The RecoveryService.start shape: each coroutine named once.
        (site,) = self.spawns(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        self._ts = [\n"
            "            asyncio.ensure_future(c)\n"
            "            for c in (self.a(), self.b())\n"
            "        ]\n"
        )
        assert not site.multi and not site.discarded


# ----------------------------------------------------------------------
# lock discipline extraction (SVC012)
# ----------------------------------------------------------------------


class TestLockViolations:
    def violations(self, source, qualname="S.f"):
        return summary_of(source, qualname).lock_violations

    def test_unbounded_get_under_lock(self):
        (violation,) = self.violations(
            "class S:\n"
            "    async def f(self):\n"
            "        async with self._lock:\n"
            "            item = await self.q.get()\n"
        )
        assert violation.kind == "unbounded-await"
        assert violation.lock == "self._lock"
        assert violation.what == ".get()"

    def test_bounded_wait_under_lock_is_fine(self):
        assert self.violations(
            "import asyncio\n"
            "class S:\n"
            "    async def f(self):\n"
            "        async with self._lock:\n"
            "            item = await asyncio.wait_for(self.q.get(), 1)\n"
        ) == ()

    def test_blocking_call_under_lock(self):
        (violation,) = self.violations(
            "import time\n"
            "class S:\n"
            "    async def f(self):\n"
            "        async with self._lock:\n"
            "            time.sleep(1)\n"
        )
        assert violation.kind == "blocking-call"
        assert "time.sleep" in violation.what

    def test_lock_from_constructor_evidence(self):
        # ``_gate`` carries no lock-ish name; only the ``asyncio.Lock()``
        # assignment in __init__ marks it — the callgraph plumbing must
        # thread that through to the CFG.
        (violation,) = self.violations(
            "import asyncio\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._gate = asyncio.Lock()\n"
            "    async def f(self):\n"
            "        async with self._gate:\n"
            "            item = await self.q.get()\n"
        )
        assert violation.lock == "self._gate"

    def test_bare_acquire_without_release_path(self):
        (violation,) = self.violations(
            "class S:\n"
            "    async def f(self):\n"
            "        await self._lock.acquire()\n"
            "        self.total += 1\n"
            "        self._lock.release()\n"
        )
        assert violation.kind == "unreleased-acquire"
        assert violation.lock == "self._lock"

    def test_acquire_followed_by_try_finally_is_fine(self):
        assert self.violations(
            "class S:\n"
            "    async def f(self):\n"
            "        await self._lock.acquire()\n"
            "        try:\n"
            "            self.total += 1\n"
            "        finally:\n"
            "            self._lock.release()\n"
        ) == ()

    def test_acquire_inside_guarded_try_is_fine(self):
        assert self.violations(
            "class S:\n"
            "    async def f(self):\n"
            "        try:\n"
            "            await self._lock.acquire()\n"
            "            self.total += 1\n"
            "        finally:\n"
            "            self._lock.release()\n"
        ) == ()


# ----------------------------------------------------------------------
# module-global mutation extraction (SVC013)
# ----------------------------------------------------------------------


class TestGlobalMutations:
    def mutations(self, source, qualname="f"):
        return summary_of(source, qualname).global_mutations

    def test_global_augassign(self):
        (mutation,) = self.mutations(
            "COUNT = 0\n"
            "async def f():\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
        )
        assert mutation.name == "COUNT"
        assert mutation.how == "augmented assignment"

    def test_mutator_call_on_module_global(self):
        (mutation,) = self.mutations(
            "PENDING = []\n"
            "async def f(item):\n"
            "    PENDING.append(item)\n"
        )
        assert mutation.how == ".append() call"

    def test_item_assignment_on_module_global(self):
        (mutation,) = self.mutations(
            "TABLE = {}\n"
            "async def f(k, v):\n"
            "    TABLE[k] = v\n"
        )
        assert mutation.how == "item assignment"

    def test_local_shadow_is_clean(self):
        assert self.mutations(
            "PENDING = []\n"
            "async def f(item):\n"
            "    PENDING = []\n"
            "    PENDING.append(item)\n"
        ) == ()

    def test_read_only_use_is_clean(self):
        assert self.mutations(
            "LIMIT = 10\n"
            "async def f(n):\n"
            "    return n < LIMIT\n"
        ) == ()

    def test_module_global_names_excludes_all_and_imports(self):
        tree = ast.parse(
            "import os\n__all__ = ['f']\nX = 1\nY: int = 2\n"
        )
        assert module_global_names(tree) == frozenset({"X", "Y"})

    def test_lock_attribute_names_from_constructors(self):
        source = (
            "import asyncio\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._gate = asyncio.Lock()\n"
            "        self._cond = asyncio.Condition()\n"
            "        self.data = {}\n"
        )
        ctx = ctx_of(source)
        cls = next(
            n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)
        )
        assert lock_attribute_names(cls, ctx.resolve) == frozenset(
            {"_gate", "_cond"}
        )


# ----------------------------------------------------------------------
# the interference engine
# ----------------------------------------------------------------------


PUMP_DRAIN = (
    "import asyncio\n"
    "class S:\n"
    "    async def start(self):\n"
    "        self._t = asyncio.create_task(self.pump())\n"
    "        await self.drain()\n"
    "    async def pump(self):\n"
    "        while True:\n"
    "            self.pending.append(1)\n"
    "            await self.q.get()\n"
    "    async def drain(self):\n"
    "        items = list(self.pending)\n"
    "        await self.q.get()\n"
    "        self.pending = []\n"
)


class TestInterferenceEngine:
    def test_concurrent_closure_from_spawn_roots(self):
        model = model_of(repro__service__fix=PUMP_DRAIN)
        engine = InterferenceEngine(model)
        names = {key[1] for key in engine.concurrent}
        assert "S.pump" in names
        assert "S.start" not in names  # nothing spawns start

    def test_witness_across_coroutines(self):
        model = model_of(repro__service__fix=PUMP_DRAIN)
        engine = InterferenceEngine(model)
        key = ("repro.service.fix", "S.drain")
        witness = engine.interference_witness(key, "self.pending")
        assert witness == ("repro.service.fix", "S.pump")

    def test_single_instance_sole_writer_has_no_witness(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class R:\n"
                "    async def start(self):\n"
                "        self._task = asyncio.create_task(self.run())\n"
                "    async def run(self):\n"
                "        await self._wakeup\n"
                "        self._wakeup = None\n"
            )
        )
        engine = InterferenceEngine(model)
        key = ("repro.service.fix", "R.run")
        assert engine.interference_witness(key, "self._wakeup") is None

    def test_multi_spawned_coroutine_interferes_with_itself(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class S:\n"
                "    async def start(self, items):\n"
                "        ts = [asyncio.create_task(self.w(i)) for i in items]\n"
                "        await asyncio.gather(*ts)\n"
                "    async def w(self, i):\n"
                "        current = self.total\n"
                "        await self.q.get()\n"
                "        self.total = current + i\n"
            )
        )
        engine = InterferenceEngine(model)
        key = ("repro.service.fix", "S.w")
        assert engine.concurrent[key] is True
        assert engine.interference_witness(key, "self.total") == key

    def test_multiness_propagates_through_calls(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class S:\n"
                "    async def start(self, items):\n"
                "        for i in items:\n"
                "            self._ts.append(asyncio.create_task(self.w(i)))\n"
                "    async def w(self, i):\n"
                "        await self.inner()\n"
                "    async def inner(self):\n"
                "        current = self.total\n"
                "        await self.q.get()\n"
                "        self.total = current + 1\n"
            )
        )
        engine = InterferenceEngine(model)
        key = ("repro.service.fix", "S.inner")
        assert engine.concurrent[key] is True

    def test_same_attribute_in_different_classes_never_interferes(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class A:\n"
                "    async def start(self):\n"
                "        self._t = asyncio.create_task(self.w())\n"
                "    async def w(self):\n"
                "        self.total = 1\n"
                "        await self.q.get()\n"
                "class B:\n"
                "    async def f(self):\n"
                "        current = self.total\n"
                "        await self.q.get()\n"
                "        self.total = current + 1\n"
            )
        )
        engine = InterferenceEngine(model)
        key = ("repro.service.fix", "B.f")
        assert engine.interference_witness(key, "self.total") is None


# ----------------------------------------------------------------------
# the four rules, over model fixtures
# ----------------------------------------------------------------------


class TestSvc010:
    def test_fires_with_cross_coroutine_witness(self):
        model = model_of(repro__service__fix=PUMP_DRAIN)
        (diag,) = AwaitInterference().check(model)
        assert diag.code == "SVC010"
        assert diag.path == "src/repro/service/fix.py"
        assert "self.pending" in diag.message
        assert "S.pump" in diag.message

    def test_silent_without_spawns(self):
        model = model_of(
            repro__service__fix=(
                "class S:\n"
                "    async def f(self):\n"
                "        current = self.total\n"
                "        await self.q.get()\n"
                "        self.total = current + 1\n"
            )
        )
        assert list(AwaitInterference().check(model)) == []

    def test_silent_for_single_instance_sole_writer(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class R:\n"
                "    async def start(self):\n"
                "        self._task = asyncio.create_task(self.run())\n"
                "    async def run(self):\n"
                "        await self._wakeup\n"
                "        self._wakeup = None\n"
            )
        )
        assert list(AwaitInterference().check(model)) == []

    def test_names_self_interference(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class S:\n"
                "    async def start(self, items):\n"
                "        ts = [asyncio.create_task(self.w(i)) for i in items]\n"
                "        await asyncio.gather(*ts)\n"
                "    async def w(self, i):\n"
                "        current = self.total\n"
                "        await self.q.get()\n"
                "        self.total = current + i\n"
            )
        )
        (diag,) = AwaitInterference().check(model)
        assert "another instance of itself" in diag.message


class TestSvc011:
    def test_fires_on_discarded_task(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class S:\n"
                "    async def f(self):\n"
                "        asyncio.create_task(self.worker())\n"
                "    async def worker(self):\n"
                "        await self.q.get()\n"
            )
        )
        (diag,) = FireAndForgetTask().check(model)
        assert diag.code == "SVC011"
        assert diag.line == 4

    def test_silent_when_handle_kept(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class S:\n"
                "    async def f(self):\n"
                "        self._t = asyncio.create_task(self.worker())\n"
                "    async def worker(self):\n"
                "        await self.q.get()\n"
            )
        )
        assert list(FireAndForgetTask().check(model)) == []


class TestSvc012:
    def test_fires_on_unbounded_await_under_lock(self):
        model = model_of(
            repro__service__fix=(
                "class S:\n"
                "    async def f(self):\n"
                "        async with self._lock:\n"
                "            item = await self.q.get()\n"
            )
        )
        (diag,) = LockDiscipline().check(model)
        assert diag.code == "SVC012"
        assert "self._lock" in diag.message

    def test_fires_on_unreleased_acquire(self):
        model = model_of(
            repro__service__fix=(
                "class S:\n"
                "    async def f(self):\n"
                "        await self._lock.acquire()\n"
                "        self._lock.release()\n"
            )
        )
        (diag,) = LockDiscipline().check(model)
        assert "deadlocks" in diag.message

    def test_silent_for_disciplined_lock_use(self):
        model = model_of(
            repro__service__fix=(
                "import asyncio\n"
                "class S:\n"
                "    async def f(self):\n"
                "        async with self._lock:\n"
                "            self.total += 1\n"
            )
        )
        assert list(LockDiscipline().check(model)) == []


class TestSvc013:
    def test_fires_on_coroutine_global_mutation(self):
        model = model_of(
            repro__service__fix=(
                "PENDING = []\n"
                "async def f(item):\n"
                "    PENDING.append(item)\n"
            )
        )
        (diag,) = CoroutineGlobalMutation().check(model)
        assert diag.code == "SVC013"
        assert "PENDING" in diag.message

    def test_silent_for_sync_function_mutation(self):
        # Module state mutated from *sync* code is the registry pattern
        # (rules register at import time) — not this rule's business.
        model = model_of(
            repro__service__fix=(
                "PENDING = []\n"
                "def f(item):\n"
                "    PENDING.append(item)\n"
            )
        )
        assert list(CoroutineGlobalMutation().check(model)) == []


# ----------------------------------------------------------------------
# seeded-bug mutations of the real service sources
# ----------------------------------------------------------------------


def _real_source(name):
    return (SERVICE_DIR / name).read_text(encoding="utf-8")


def _service_model(**overrides):
    sources = {
        f"repro.service.{path.stem}": _real_source(path.name)
        for path in sorted(SERVICE_DIR.glob("*.py"))
    }
    sources.update(overrides)
    return ProjectModel.from_sources(sources)


class TestSeededBugMutations:
    def test_unmutated_service_sources_are_clean(self):
        assert rule_codes(_service_model()) == []

    def test_seq_counter_split_across_await_is_flagged(self):
        source = _real_source("resolver.py")
        anchor = (
            "            self._on_decision(decision)\n"
            "            await asyncio.sleep(0)\n"
        )
        assert anchor in source, "resolver decision loop moved; update test"
        buggy = source.replace(
            anchor,
            "            self._on_decision(decision)\n"
            "            seq_snapshot = self._seq\n"
            "            await asyncio.sleep(0)\n"
            "            self._seq = seq_snapshot + 1\n",
        )
        codes = rule_codes(
            _service_model(**{"repro.service.resolver": buggy})
        )
        assert "SVC010" in codes

    def test_leaked_ensure_future_is_flagged(self):
        source = _real_source("service.py")
        anchor = "        self._tasks = [\n"
        assert anchor in source, "service start() moved; update test"
        buggy = source.replace(anchor, "        [\n")
        codes = rule_codes(
            _service_model(**{"repro.service.service": buggy})
        )
        assert "SVC011" in codes

    def test_lock_held_across_report_get_is_flagged(self):
        source = _real_source("service.py")
        init_anchor = "        self.reports = ProbeQueue(\n"
        loop_anchor = "            probe = await self.reports.get()\n"
        assert init_anchor in source, "service __init__ moved; update test"
        assert loop_anchor in source, "service report loop moved; update test"
        buggy = source.replace(
            init_anchor,
            "        self._report_lock = asyncio.Lock()\n" + init_anchor,
        ).replace(
            loop_anchor,
            "            async with self._report_lock:\n"
            "                probe = await self.reports.get()\n",
        )
        codes = rule_codes(
            _service_model(**{"repro.service.service": buggy})
        )
        assert codes == ["SVC012"]

    def test_resolver_appending_to_module_list_is_flagged(self):
        source = _real_source("resolver.py")
        global_anchor = '    "report_outcome",\n]\n'
        commit_anchor = "            self._on_decision(decision)\n"
        assert global_anchor in source, "resolver __all__ moved; update test"
        assert commit_anchor in source, "resolver commit moved; update test"
        buggy = source.replace(
            global_anchor, global_anchor + "\n_DECIDED_GROUPS = []\n"
        ).replace(
            commit_anchor,
            "            _DECIDED_GROUPS.append(group_id)\n" + commit_anchor,
        )
        codes = rule_codes(
            _service_model(**{"repro.service.resolver": buggy})
        )
        assert codes == ["SVC013"]


# ----------------------------------------------------------------------
# summary round-trips (lint-cache food)
# ----------------------------------------------------------------------


class TestRoundTrips:
    def test_concurrency_summary_round_trips_through_json(self):
        summary = summary_of(
            "import asyncio\n"
            "PENDING = []\n"
            "class S:\n"
            "    async def f(self):\n"
            "        global PENDING\n"
            "        PENDING = []\n"
            "        asyncio.create_task(self.w())\n"
            "        current = self.total\n"
            "        async with self._lock:\n"
            "            await self.q.get()\n"
            "        await self.q.get()\n"
            "        self.total = current + 1\n",
            "S.f",
        )
        restored = ConcurrencySummary.from_json(
            json.loads(json.dumps(summary.to_json()))
        )
        assert restored == summary
        assert summary.spawns and summary.stale_writes
        assert summary.lock_violations and summary.global_mutations

    def test_site_dataclasses_round_trip(self):
        sites = [
            StaleWrite(var="self.total", read_line=3, lineno=5, col=9),
            SpawnSite(
                lineno=4, col=9, via="asyncio.create_task",
                refs=("method:w",), multi=True, discarded=False,
            ),
            LockViolation(
                kind="unbounded-await", lock="self._lock",
                what=".get()", lineno=6, col=20,
            ),
            GlobalMutation(
                name="PENDING", how=".append() call", lineno=7, col=9
            ),
        ]
        for site in sites:
            restored = type(site).from_json(
                json.loads(json.dumps(site.to_json()))
            )
            assert restored == site

    def test_sync_function_has_no_concurrency_summary(self):
        from repro.checks.callgraph import summarize

        module_summary = summarize(
            ctx_of("def f():\n    return 1\n")
        )
        (fn,) = module_summary.functions
        assert not fn.is_async and fn.concurrency is None


# ----------------------------------------------------------------------
# pipeline: scope, suppression, warm cache, SARIF
# ----------------------------------------------------------------------


LEAKY = (
    "import asyncio\n"
    "class S:\n"
    "    async def f(self):\n"
    "        asyncio.create_task(self.worker())\n"
    "    async def worker(self):\n"
    "        await asyncio.sleep(0)\n"
)


def _repo_with(tmp_path, rel_path, source):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestPipeline:
    def test_svc_rules_report_in_service_scope(self, tmp_path):
        _repo_with(tmp_path, "src/repro/service/leaky.py", LEAKY)
        result = lint_paths([tmp_path / "src"], cache_dir=tmp_path / "c")
        assert [d.code for d in result.diagnostics] == ["SVC011"]

    def test_svc_rules_silent_outside_scope(self, tmp_path):
        # Same bug under repro.runner — not these rules' beat.
        _repo_with(tmp_path, "src/repro/runner/leaky.py", LEAKY)
        result = lint_paths([tmp_path / "src"], cache_dir=tmp_path / "c")
        assert result.diagnostics == []

    def test_noqa_audits_a_finding(self, tmp_path):
        audited = LEAKY.replace(
            "asyncio.create_task(self.worker())",
            "asyncio.create_task(self.worker())  # repro: noqa[SVC011]",
        )
        _repo_with(tmp_path, "src/repro/service/leaky.py", audited)
        result = lint_paths([tmp_path / "src"], cache_dir=tmp_path / "c")
        assert result.diagnostics == []

    def test_warm_run_replays_concurrency_facts_without_parsing(
        self, tmp_path, monkeypatch
    ):
        _repo_with(tmp_path, "src/repro/service/leaky.py", LEAKY)
        cold = lint_paths([tmp_path / "src"], cache_dir=tmp_path / "c")
        assert [d.code for d in cold.diagnostics] == ["SVC011"]

        def exploding(*args, **kwargs):
            raise AssertionError("warm lint run must not parse")

        monkeypatch.setattr(FileContext, "from_source", exploding)
        warm = lint_paths([tmp_path / "src"], cache_dir=tmp_path / "c")
        assert warm.stats.parsed_files == 0
        assert warm.diagnostics == cold.diagnostics

    def test_sarif_catalogue_includes_concurrency_rules(self):
        doc = json.loads(render_sarif([]))
        listed = {
            rule["id"] for rule in doc["runs"][0]["tool"]["driver"]["rules"]
        }
        assert set(NEW_CODES) <= listed


# ----------------------------------------------------------------------
# repro lint --changed
# ----------------------------------------------------------------------

needs_git = pytest.mark.skipif(
    shutil.which("git") is None, reason="git not installed"
)


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@e.st", "-c", "user.name=t", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


def _git_repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "committed.py").write_text("import random\nV = random.random()\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    return src


@needs_git
class TestLintChanged:
    def test_changed_source_files_sees_modified_and_untracked(self, tmp_path):
        src = _git_repo(tmp_path)
        assert changed_source_files(tmp_path) == []
        (src / "committed.py").write_text("def quiet():\n    return 1\n")
        (src / "fresh.py").write_text("def f():\n    return 2\n")
        (src / "notes.txt").write_text("not python\n")
        changed = {p.name for p in changed_source_files(tmp_path)}
        assert changed == {"committed.py", "fresh.py"}

    def test_changed_raises_outside_a_work_tree(self, tmp_path):
        with pytest.raises(RuntimeError):
            changed_source_files(tmp_path)

    def test_cli_changed_scopes_to_modified_files(
        self, tmp_path, monkeypatch, capsys
    ):
        src = _git_repo(tmp_path)
        # committed.py keeps its RNG001; the new file carries its own.
        (src / "fresh.py").write_text("import random\nW = random.random()\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "committed.py" not in out  # unchanged → out of scope

    def test_cli_changed_clean_tree_exits_zero(
        self, tmp_path, monkeypatch, capsys
    ):
        _git_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed", "--no-cache"]) == 0
        assert "no changed Python files" in capsys.readouterr().out

    def test_cli_changed_rejects_explicit_paths(self, tmp_path, monkeypatch):
        _git_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed", "src"]) == 2

    def test_cli_changed_outside_work_tree_is_usage_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed"]) == 2
