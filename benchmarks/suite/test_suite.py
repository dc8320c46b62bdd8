"""Tests of the benchmark suite itself, at smoke sizes.

    pytest benchmarks/suite -q
"""

import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import pytest
import run
import tracer
import workloads

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "benchmarks/suite/run.py"]
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert tuple(_names("workloads")) == workloads.WORKLOADS
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    every = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    assert set(run.LAYER_MOVES) == set(_names("per_layer"))
    for metric, workload in run.LAYER_MOVES.values():
        assert metric in _names("end_to_end")
        assert workload in _names("workloads")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    child = subprocess.run(
        [sys.executable, str(run.SUITE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_untraced_op_installs_no_wrappers():
    before = tracer.snapshot()
    during = []

    def look(specs):
        during.append(tracer.snapshot())
        return specs

    workloads.storm_replay(workloads.storm_inputs(0, smoke=True), transform=look)
    assert during == [before]
    assert tracer.snapshot() == before


def test_traced_op_wraps_then_restores_every_public_callable():
    before = tracer.snapshot()
    with tracer.Tracer().active(0):
        inside = tracer.snapshot()
        assert inside.keys() == before.keys()
        assert all(inside[key] is not before[key] for key in before)
    assert tracer.snapshot() == before

    storm = workloads.make("k32_storm", 0, smoke=True)
    layers = storm.op(1, traced=True).layers
    assert tracer.snapshot() == before
    for layer in ("routing.initial_path", "simulation.waterfill", "topology.build"):
        assert layers["calls"][layer] > 0
    # Self-times of the layers inside simulation.run add up to it.
    busy = layers["busy"]["simulation.run"]
    assert layers["run_self_s"] == pytest.approx(busy, rel=0.05)


def test_durable_service_spans_share_the_wal_key():
    durable = workloads.make("recovery_durable", 0, smoke=True)
    assert durable.op(1, traced=True).failed == 0
    spans = durable.tracer.spans
    commits = {row[4] for row in spans if row[0] == "wal.append_commit"}
    decided = {row[4] for row in spans if row[0] == "controller.handle_node_failure"}
    assert decided and decided <= commits
    waits = [row for row in spans if row[0] == "ingest.report_wait"]
    assert len(waits) == durable.inputs.wave


def test_one_flow_size_changes_the_storm_digest():
    inputs = workloads.storm_inputs(0, smoke=True)

    def bigger_first_flow(specs):
        coflow = specs[0]
        flow = replace(coflow.flows[0], size_bytes=2 * coflow.flows[0].size_bytes)
        return [replace(coflow, flows=(flow,) + coflow.flows[1:])] + specs[1:]

    _, _, base = workloads.storm_replay(inputs)
    _, _, again = workloads.storm_replay(inputs)
    _, _, perturbed = workloads.storm_replay(inputs, transform=bigger_first_flow)
    assert workloads.flow_digest(base) == workloads.flow_digest(again)
    assert workloads.flow_digest(base) != workloads.flow_digest(perturbed)


def test_digest_mismatch_counts_as_failed_ops():
    storm = workloads.make("k32_storm", 0, smoke=True, expected="0" * 64)
    assert storm.op(0, traced=False).failed == 1
    burst = workloads.make("recovery_burst", 0, smoke=True, expected=["0" * 64])
    assert burst.op(0, traced=False).failed == burst.inputs.wave


def test_wal_does_not_change_decisions():
    burst = workloads.make("recovery_burst", 3, smoke=True)
    durable = workloads.make("recovery_durable", 3, smoke=True)
    for index in range(2):
        a, b = burst.op(index, False), durable.op(index, False)
        assert a.failed == b.failed == 0
        assert a.digest == b.digest


def test_committed_digests_cover_every_workload():
    digests = json.loads(run.BASELINE_PATH.read_text())["digests"]
    assert set(digests["paper_quick"]) == set(workloads.ARTIFACTS)
    assert isinstance(digests["k32_storm"], str)
    assert len(digests["recovery"]) == workloads.DETAIL_ROUNDS


def _result_file(path, values: list[float], failed: int = 0) -> str:
    """A one-workload result file with one metric, latency_p50_ms."""
    runs = [
        {"result": {"metrics": {"latency_p50_ms": {"value": v, "unit": "ms"}}}}
        for v in values
    ]
    summary = {
        "metrics": {"latency_p50_ms": {**run.spread(values), "unit": "ms"}},
        "attempted": 10,
        "failed": failed,
    }
    path.write_text(
        json.dumps({"workloads": {"k32_storm": {"runs": runs, "summary": summary}}})
    )
    return str(path)


def test_compare_judges_each_metric_against_its_bound(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    a = _result_file(tmp_path / "a.json", steady)

    assert run.compare(a, _result_file(tmp_path / "b.json", steady), SPEC) == 0
    assert "ok" in capsys.readouterr().out

    slower = _result_file(tmp_path / "c.json", [1.5 * v for v in steady])
    assert run.compare(a, slower, SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out

    noisy = _result_file(tmp_path / "d.json", [60.0, 90.0, 100.0, 140.0, 170.0])
    assert run.compare(a, noisy, SPEC) == 0
    assert "unresolved" in capsys.readouterr().out

    failing = _result_file(tmp_path / "e.json", steady, failed=1)
    assert run.compare(a, failing, SPEC) == 1
