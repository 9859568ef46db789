"""Tests of the benchmark itself, at toy size (n <= 4, one 2x2 matrix).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import job
import run
import spans
import workloads
from resonance import table1

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_trace_nests_and_self_times_fit_in_wall(workload):
    result, tracer = job.run_job(workload, seed=5, trace=True, toy=True)
    assert result["failures"] == []
    assert result["attempted"] >= 1
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["workload"]
    for s in tracer.spans:
        assert s.run == tracer.run_id
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own.values())
    assert sum(t for i, t in own.items() if by_id[i].parent is not None) <= result["wall_s"]
    assert sum(own.values()) == pytest.approx(roots[0].duration)
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert names <= set(result["layers"])


def test_nested_nbc_search_is_not_counted_twice():
    result, tracer = job.run_job("betti7", seed=0, trace=True, toy=True)
    layers = result["layers"]
    inner = [
        s for s in tracer.spans
        if s.name == "nbc.betti_via_nbc" and tracer.spans[s.parent].name == "nbc.charpoly_via_nbc"
    ]
    assert len(inner) == 1
    assert layers["nbc.charpoly_via_nbc.sets"] == table1.GOLDEN_REGIONS[4]
    assert layers["nbc.betti_via_nbc.sets"] == sum(workloads.golden_betti(4, 3))


def test_traced_counts_match_the_golden_polynomial():
    layers = job.run_job("ff6", seed=0, trace=True, toy=True)[0]["layers"]
    betti = workloads.golden_betti(4)
    for q in (5, 7, 11, 13, 17):
        chi = sum((-1) ** i * b * q ** (4 - i) for i, b in enumerate(betti))
        assert layers[f"arrangement.count_points_avoiding.q{q}.points"] == chi
    assert layers["arrangement.count_points_avoiding.calls"] == 5


def test_injected_wrong_golden_value_is_a_failure(monkeypatch):
    monkeypatch.setitem(table1.GOLDEN_REGIONS, 3, table1.GOLDEN_REGIONS[3] + 1)
    result, _ = job.run_job("regions6", seed=0, trace=False, toy=True)
    assert result["attempted"] == 8
    assert [f.split(":")[0] for f in result["failures"]] == ["enumerate_chambers_bruteforce(3)"]
    _, attempted, failures = run.summarize([dict(result, setup_s=0.1)], [0.1])
    assert len(failures) / attempted == 1 / 8


def test_raising_call_is_a_failure_not_a_crash():
    check = workloads.Checker()
    check.expect("boom", lambda: 1 // 0, 0)
    check.expect("fine", lambda: 2, 2)
    assert check.attempted == 2
    assert check.failures == ["boom: raised ZeroDivisionError: integer division or modulo by zero"]


def test_embed_inputs_follow_the_seed():
    assert workloads.embed_inputs(7) == workloads.embed_inputs(7)
    assert workloads.embed_inputs(7) != workloads.embed_inputs(8)
    assert [a for _, _, a in workloads.embed_inputs(7)] == [50, 90, 130, 170, 210]


def _run(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "2", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_the_metrics_benchmark_json_names(trace, section):
    proc = _run(HERE.parent, "--workload", "embed", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC[section]}


def test_runner_refuses_without_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "regions6", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
