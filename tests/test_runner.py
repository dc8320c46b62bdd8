"""repro.runner: sharding, caching, journalling, fault tolerance, and
serial/parallel bit-equivalence on a seeded mini Figure 1(a) sweep.

The fault-injection workers live in :mod:`repro.runner.testing` (inside
the package, so pool subprocesses can import them under any start
method); every test runs a real :class:`SweepRunner`, not mocks.
"""

import json
import os

import pytest

from repro.experiments import AffectedSweepStudy, StudyConfig
from repro.runner import (
    EVENTS,
    MISS,
    AvailabilityPoint,
    NullCache,
    ResultCache,
    RunJournal,
    RunnerError,
    SweepRunner,
    Task,
    cache_key,
    plan_shards,
    run_affected_sweep,
    run_availability_sweep,
)
from repro.runner.testing import attempt_count

#: A Fig-1(a) sweep small enough for the test suite (seconds, not minutes).
MINI = StudyConfig(
    k=4, hosts_per_edge=8, num_coflows=20, duration=5.0,
    seed=97, failure_seed=5, failure_samples=2,
)
MINI_RATES = (0.02, 0.05)


def make_runner(tmp_path, **kw):
    """A runner with test-friendly defaults: no real backoff sleeps,
    journal + cache confined to ``tmp_path``."""
    kw.setdefault("cache", ResultCache(tmp_path / "cache"))
    kw.setdefault("journal", RunJournal(None))
    kw.setdefault("sleep", lambda s: None)
    return SweepRunner(**kw)


def tiny_tasks(n=6):
    return [
        Task(f"t{i}", "testing-flaky", {"counter_file": "", "fail_times": 0})
        for i in range(n)
    ]


class TestShardPlanning:
    def test_contiguous_cover_and_balance(self):
        tasks = tiny_tasks(11)
        shards = plan_shards(tasks, jobs=2, shards_per_job=2)
        flat = [t for s in shards for t in s.tasks]
        assert flat == tasks  # order-preserving, exactly once each
        sizes = [s.size for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert len(shards) == 4

    def test_never_more_shards_than_tasks(self):
        assert len(plan_shards(tiny_tasks(3), jobs=8)) == 3

    def test_seeds_are_distinct_and_deterministic(self):
        a = plan_shards(tiny_tasks(8), jobs=4, root_seed=1)
        b = plan_shards(tiny_tasks(8), jobs=4, root_seed=1)
        c = plan_shards(tiny_tasks(8), jobs=4, root_seed=2)
        assert [s.seed for s in a] == [s.seed for s in b]
        assert len({s.seed for s in a}) == len(a)
        assert [s.seed for s in a] != [s.seed for s in c]

    def test_max_shard_size_caps(self):
        shards = plan_shards(tiny_tasks(10), jobs=1, shards_per_job=1,
                             max_shard_size=3)
        assert all(s.size <= 3 for s in shards)

    def test_duplicate_task_ids_rejected(self):
        tasks = tiny_tasks(2) + tiny_tasks(1)
        with pytest.raises(ValueError, match="duplicate task_id"):
            plan_shards(tasks, jobs=2)

    def test_empty_plan(self):
        assert plan_shards([], jobs=4) == []


class TestResultCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("k", {"a": 1})
        assert cache.get("k", key) is MISS
        cache.put("k", key, {"a": 1}, {"out": [1, 2]})
        assert cache.get("k", key) == {"out": [1, 2]}
        assert len(cache) == 1

    def test_key_depends_on_kind_payload_and_version(self):
        base = cache_key("k", {"a": 1})
        assert cache_key("k2", {"a": 1}) != base
        assert cache_key("k", {"a": 2}) != base
        assert cache_key("k", {"a": 1}, version=99) != base
        # key order in the payload dict must not matter
        assert cache_key("k", {"a": 1, "b": 2}) == cache_key("k", {"b": 2, "a": 1})

    @pytest.mark.parametrize(
        "value",
        [{"E.0.0", "A.0.1", "C.1"}, lambda: None],
        ids=["set", "lambda"],
    )
    def test_non_json_payload_is_rejected(self, value):
        # Stringified, a set's iteration order or a lambda's address would
        # key the same payload differently in every interpreter.
        with pytest.raises(TypeError):
            cache_key("k", {"switches": value})

    def test_key_depends_on_engine_rev(self, monkeypatch):
        base = cache_key("k", {"a": 1})
        assert cache_key("k", {"a": 1}, engine_rev=999) != base
        # The default rev is read late from repro.simulation, so a code
        # change there (modelled by monkeypatching) re-keys everything.
        monkeypatch.setattr("repro.simulation.ENGINE_REV", 999)
        assert cache_key("k", {"a": 1}) != base
        assert cache_key("k", {"a": 1}) == cache_key("k", {"a": 1}, engine_rev=999)

    def test_engine_rev_bump_misses_warm_cache(self, tmp_path, monkeypatch):
        import repro.simulation

        runner = make_runner(tmp_path)
        tasks = [
            Task(f"t{i}", "testing-flaky",
                 {"counter_file": str(tmp_path / f"c{i}"), "fail_times": 0})
            for i in range(3)
        ]
        cold = runner.run(tasks)
        assert cold.summary.cache_hits == 0
        warm = runner.run(tasks)
        assert warm.summary.cache_hits == len(tasks)
        monkeypatch.setattr(
            repro.simulation, "ENGINE_REV", repro.simulation.ENGINE_REV + 1
        )
        bumped = runner.run(tasks)  # same payloads, new engine rev
        assert bumped.summary.cache_hits == 0
        assert bumped.summary.cache_misses == len(tasks)

    def test_corrupt_entry_reads_as_miss_and_is_purged(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("k", {})
        cache.put("k", key, {}, 42)
        path = next(p for p in tmp_path.rglob("*.json"))
        path.write_text("{truncated")
        assert cache.get("k", key) is MISS
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put("k", cache_key("k", {"i": i}), {"i": i}, i)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_null_cache_never_hits(self, tmp_path):
        cache = NullCache()
        cache.put("k", "key", {}, 1)
        assert cache.get("k", "key") is MISS
        assert len(cache) == 0


class TestJournal:
    def test_rejects_unknown_event(self):
        with pytest.raises(ValueError, match="unknown journal event"):
            RunJournal(None).record("made_up_event")

    def test_counters_and_events(self):
        journal = RunJournal(None, clock=lambda: 123.0)
        journal.record("run_start", tasks=1)
        journal.record("cache_miss", task_id="t")
        assert journal.counters["run_start"] == 1
        assert journal.events[1] == {"ts": 123.0, "event": "cache_miss",
                                     "task_id": "t"}

    def test_file_is_parseable_jsonl(self, tmp_path):
        path = tmp_path / "deep" / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record("run_start", tasks=0)
            journal.record("run_finish", tasks=0)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in lines] == ["run_start", "run_finish"]


class TestEquivalence:
    """The ISSUE's headline guarantee: parallel == serial, bit for bit."""

    def test_parallel_matches_serial_and_legacy_pipeline(self, tmp_path):
        serial = run_affected_sweep(
            MINI, "node", rates=MINI_RATES,
            runner=make_runner(tmp_path / "s", jobs=1, cache=NullCache()),
        ).values
        parallel = run_affected_sweep(
            MINI, "node", rates=MINI_RATES,
            runner=make_runner(tmp_path / "p", jobs=4, cache=NullCache()),
        ).values
        legacy = AffectedSweepStudy(MINI, rates=MINI_RATES).run("node")

        assert set(parallel) == set(serial) == set(legacy) >= {"fat-tree", "f10"}
        # dataclass equality is exact float equality — bit-identical
        assert parallel == serial == legacy

    def test_parallel_matches_serial_for_links(self, tmp_path):
        serial = run_affected_sweep(
            MINI, "link", rates=MINI_RATES,
            runner=make_runner(tmp_path / "s", jobs=1, cache=NullCache()),
        ).values
        parallel = run_affected_sweep(
            MINI, "link", rates=MINI_RATES,
            runner=make_runner(tmp_path / "p", jobs=3, cache=NullCache()),
        ).values
        assert parallel == serial

    def test_availability_sweep_results_in_point_order(self, tmp_path):
        points = [AvailabilityPoint(4, 1, years=0.5, seed=s) for s in (1, 2)]
        outcome = run_availability_sweep(
            points, runner=make_runner(tmp_path, jobs=2)
        )
        rerun = run_availability_sweep(
            points, runner=make_runner(tmp_path, jobs=1)
        )
        assert outcome.values == rerun.values  # second run from cache
        assert rerun.summary.cache_hits == len(points)


class TestCaching:
    def test_warm_rerun_touches_zero_simulations(self, tmp_path):
        cold = run_affected_sweep(
            MINI, "node", rates=MINI_RATES,
            runner=make_runner(tmp_path, jobs=2),
        )
        assert cold.summary.cache_hits == 0
        assert cold.summary.executed == cold.summary.tasks > 0

        journal = RunJournal(None)
        warm = run_affected_sweep(
            MINI, "node", rates=MINI_RATES,
            runner=make_runner(tmp_path, jobs=2, journal=journal),
        )
        assert warm.values == cold.values
        assert warm.summary.cache_hits == warm.summary.tasks
        assert warm.summary.executed == 0
        assert warm.summary.shards == 0  # no shard ever started
        assert warm.summary.hit_rate == 1.0
        assert journal.counters["shard_start"] == 0
        assert journal.counters["cache_hit"] == warm.summary.tasks

    def test_no_cache_mode_always_recomputes(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1, cache=NullCache())
        tasks = [Task("a", "testing-flaky",
                      {"counter_file": str(tmp_path / "c"), "fail_times": 0})]
        runner.run(tasks)
        second = runner.run(tasks)
        assert second.summary.cache_hits == 0
        assert attempt_count(tmp_path / "c") == 2

    def test_payload_change_changes_key(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1)
        base = {"counter_file": str(tmp_path / "c"), "fail_times": 0}
        runner.run([Task("a", "testing-flaky", base)])
        bumped = runner.run([Task("a", "testing-flaky",
                                  {**base, "value": "other"})])
        assert bumped.summary.cache_misses == 1  # different payload → miss


class TestFaultTolerance:
    def test_flaky_shard_retried_until_success(self, tmp_path):
        counter = tmp_path / "attempts"
        journal = RunJournal(None)
        runner = make_runner(tmp_path, jobs=1, journal=journal, max_retries=2)
        result = runner.run([
            Task("flaky", "testing-flaky",
                 {"counter_file": str(counter), "fail_times": 2}),
        ])
        assert result["flaky"]["attempts"] == 3
        assert attempt_count(counter) == 3
        assert result.summary.retries == 2
        assert result.summary.failed_shards == 0
        assert journal.counters["shard_retry"] == 2
        retry = next(e for e in journal.events if e["event"] == "shard_retry")
        assert "InjectedFault" in retry["error"]
        assert retry["backoff"] == pytest.approx(0.5)

    def test_exhausted_retries_raise_runner_error(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1, max_retries=1)
        always_failing = Task(
            "doomed", "testing-flaky",
            {"counter_file": str(tmp_path / "c"), "fail_times": 99},
        )
        with pytest.raises(RunnerError, match="InjectedFault"):
            runner.run([always_failing])

    def test_raise_on_failure_false_returns_partial(self, tmp_path):
        runner = make_runner(tmp_path, jobs=1, max_retries=0,
                             shards_per_job=1, max_shard_size=1)
        tasks = [
            Task("ok", "testing-flaky",
                 {"counter_file": str(tmp_path / "a"), "fail_times": 0}),
            Task("doomed", "testing-flaky",
                 {"counter_file": str(tmp_path / "b"), "fail_times": 99}),
        ]
        result = runner.run(tasks, raise_on_failure=False)
        assert result["ok"]["attempts"] == 1
        assert "doomed" not in result.results
        assert result.summary.failed_shards == 1

    def test_crashing_subprocess_degrades_to_serial(self, tmp_path):
        """A shard poisonous to the pool but fine in-process must land via
        the serial fallback, not take the sweep down."""
        journal = RunJournal(None)
        runner = make_runner(tmp_path, jobs=2, journal=journal, max_retries=1)
        result = runner.run([
            Task("poison", "testing-subprocess-crash",
                 {"main_pid": os.getpid()}),
        ])
        assert result["poison"]["pid"] == os.getpid()  # ran in-process
        assert result.summary.serial_fallbacks == 1
        assert result.summary.retries == 1
        assert result.summary.failed_shards == 0
        assert journal.counters["shard_serial_fallback"] == 1

    def test_shard_timeout_recovers_the_sweep(self, tmp_path):
        """A hung shard is abandoned at the deadline and (here) finishes
        via the serial fallback; innocents still complete."""
        journal = RunJournal(None)
        runner = make_runner(
            tmp_path, jobs=2, journal=journal, max_retries=0,
            shard_timeout=0.35, shards_per_job=1, max_shard_size=1,
        )
        result = runner.run([
            Task("slow", "testing-sleep", {"seconds": 1.5}),
            Task("fast", "testing-sleep", {"seconds": 0.0}),
        ])
        assert result["slow"]["slept"] == 1.5
        assert result["fast"]["slept"] == 0.0
        assert result.summary.serial_fallbacks >= 1
        assert any(e["event"] == "shard_serial_fallback"
                   for e in journal.events)


class TestJournalSchema:
    def test_end_to_end_journal_schema(self, tmp_path):
        """Run a real mini-sweep with a journal file and validate every
        record against the documented schema."""
        path = tmp_path / "journal.jsonl"
        outcome = run_affected_sweep(
            MINI, "node", rates=(0.02,),
            runner=make_runner(tmp_path, jobs=2, journal=RunJournal(path)),
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]

        for record in records:
            assert record["event"] in EVENTS
            assert isinstance(record["ts"], float)
        assert records[0]["event"] == "run_start"
        assert records[-1]["event"] == "run_finish"

        for record in records:
            if record["event"] in ("cache_hit", "cache_miss", "cache_store"):
                assert record["task_id"]
            if record["event"] in ("shard_start", "shard_finish"):
                assert isinstance(record["shard_id"], int)
                assert isinstance(record["attempt"], int)

        # the run_finish record embeds the summary verbatim
        finish = records[-1]
        for field, value in outcome.summary.to_dict().items():
            assert finish[field] == value

        # journal counters agree with the summary
        events = [r["event"] for r in records]
        assert events.count("cache_miss") == outcome.summary.cache_misses
        assert events.count("shard_start") == outcome.summary.shards
        assert events.count("shard_finish") == outcome.summary.shards
        assert events.count("cache_store") == outcome.summary.tasks


class TestRunnerValidation:
    def test_bad_constructor_args_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=-1)
        with pytest.raises(ValueError):
            SweepRunner(max_retries=-1)
        with pytest.raises(ValueError):
            SweepRunner(shard_timeout=0)

    def test_empty_task_list(self, tmp_path):
        result = make_runner(tmp_path, jobs=2).run([])
        assert result.results == {}
        assert result.summary.tasks == 0

    def test_task_validation(self):
        with pytest.raises(ValueError, match="task_id"):
            Task("", "kind", {})
        with pytest.raises(ValueError, match="kind"):
            Task("id", "", {})


class TestWorkers:
    """Direct coverage of the worker-dispatch API (resolve/execute)."""

    def test_resolve_worker_alias(self):
        from repro.runner.testing import flaky_payload
        from repro.runner.workers import resolve_worker

        assert resolve_worker("testing-flaky") is flaky_payload

    def test_resolve_worker_explicit_path(self):
        from repro.runner.testing import sleep_payload
        from repro.runner.workers import resolve_worker

        fn = resolve_worker("repro.runner.testing:sleep_payload")
        assert fn is sleep_payload

    def test_resolve_worker_rejects_garbage(self):
        from repro.runner.workers import resolve_worker

        with pytest.raises(ValueError, match="unknown worker kind"):
            resolve_worker("not-an-alias-or-path")
        with pytest.raises(ValueError, match="does not exist"):
            resolve_worker("repro.runner.testing:no_such_worker")

    def test_execute_task_runs_in_process(self, tmp_path):
        from repro.runner.workers import execute_task

        counter = tmp_path / "attempts"
        result = execute_task(
            "testing-flaky",
            {"counter_file": str(counter), "fail_times": 0, "value": "v"},
        )
        assert result == {"attempts": 1, "value": "v"}
        assert attempt_count(counter) == 1

    def test_shard_seed_scoped_to_shard_execution(self):
        from repro.runner.workers import execute_shard, shard_seed

        assert shard_seed() is None
        shard = {
            "seed": 1234,
            "tasks": [
                {
                    "task_id": "t0",
                    "kind": "repro.runner.testing:sleep_payload",
                    "payload": {"seconds": 0.0},
                }
            ],
        }
        results = execute_shard(shard)
        assert results == {"t0": {"slept": 0.0}}
        # The ambient seed is cleared once the shard finishes.
        assert shard_seed() is None
