"""Smoke tests of the benchmark itself, on tiny windows.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import check_output, expected_facts
from gen import WHY, make_workload
from tracing import PassStats, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _tiny_args(workload, trace=0):
    return ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--scale", "tiny"]


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WHY)


@pytest.mark.parametrize("workload", list(WHY))
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(*_tiny_args(workload, trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_traced_self_times_nest():
    proc = _bench(*_tiny_args("oracle-check", trace=1))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((BENCH / "results" / "oracle-check-seed3-trace1.json").read_text())
    assert record["trace_checks_ok"] and not record["trace_check_failures"]
    assert all(record["counts_repeat"].values())


def test_removed_function_drops_its_metric():
    tracer = Tracer()
    tracer.wrapped = {"graph.build_graph", "models.boundary_probe"}  # no graph.cover_edge
    metrics = layer_metrics(tracer, PassStats())
    assert "graph.builds" in metrics and "graph.self_s" in metrics
    assert "graph.pair_tests" not in metrics and "graph.edge_yield" not in metrics
    assert "topology.self_s" not in metrics


def test_generator_is_deterministic_per_seed():
    for name in WHY:
        a, b, c = (make_workload(name, s) for s in (7, 7, 8))
        assert a == b
        assert a.configs != c.configs or a.ops != c.ops
        for seed in range(40):  # V stays in its band for every seed
            make_workload(name, seed)


def test_wrong_edge_count_is_a_failure(tmp_path):
    workload = make_workload("value-ladder", 3, "tiny")
    cli = run.import_divgraph()
    paths = run.write_configs(workload, tmp_path)
    op = next(o for o in workload.ops if o.command == "graph")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([op.command, "--config", str(paths[op.config]), *op.extra]) == 0
    text = out.getvalue()
    facts = expected_facts(workload.configs[op.config])
    assert check_output(op, text, facts) is None
    wrong = text.replace(f'"edge_count": {facts["edge_count"]}',
                         f'"edge_count": {facts["edge_count"] + 1}', 1)
    assert wrong != text
    assert "edge_count" in check_output(op, wrong, facts)
    assert "not valid JSON" in check_output(op, "{" + text, facts)


def test_mutated_stdout_counts_in_ok_ops(monkeypatch):
    cli = run.import_divgraph()
    real_main = cli.main
    calls = []

    def flaky_main(argv):
        # every op's second run prints one byte more than its first
        calls.append(argv[0])
        code = real_main(argv)
        if calls.count(argv[0]) == 2:
            print()
        return code

    monkeypatch.setattr(cli, "main", flaky_main)
    args = argparse.Namespace(workload="zxq-explicit", seed=3, seconds=1.0, trace=0,
                              scale="tiny")
    result, record, _ = run.run(args)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["ok_ops"]["value"] < 1
    assert any("differs" in f["reason"] for f in record["failures"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _bench(*_tiny_args("value-ladder"), cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
