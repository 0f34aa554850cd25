"""Self-tests of the benchmark: its gate catches wrong answers, and what it
prints matches BENCHMARK.json. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import workloads as w  # noqa: E402
from linforest import SweepConfig, perfect_kary_l  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_TREE = w.SingleTreeSpec(n=2000, hc_n=200, star_n=50, spider_legs=(5,) * 8, kary=(2, 8), setups=1)


def _tiny_sweep(config: SweepConfig) -> w.SweepSpec:
    clean = w.verify_theorems(5, replace(config, upper_slack=0))
    fingerprint = {k: (c.checked, c.saturated) for k, c in clean.counts.items()}
    return w.SweepSpec(n_min=2, n_max=5, config=config, fingerprint=fingerprint)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(w.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(w.LAYER_METRICS)
    assert set(w.PREDICTIONS) == {name for name, _, _ in w.LAYER_METRICS}
    assert [x["name"] for x in SPEC["workloads"]] == ["sweep-checks", "single-tree"]


def test_sweep_gate_passes_clean_run():
    gate = w.Gate()
    w.measure_sweep(_tiny_sweep(SweepConfig(leaf_exchange_all_pairs=True)), 0, 0, gate)
    assert gate.failed == 0 and gate.attempted == w.cayley_total(2, 5)


def test_sweep_gate_catches_tightened_bounds():
    gate = w.Gate()
    spec = _tiny_sweep(SweepConfig(leaf_exchange_all_pairs=True, upper_slack=1))
    w.measure_sweep(spec, 0, 0, gate)
    assert gate.error_rate > 0


def test_sweep_gate_catches_changed_fingerprint():
    spec = _tiny_sweep(SweepConfig(leaf_exchange_all_pairs=True))
    checked, saturated = spec.fingerprint["diameter"]
    spec = replace(spec, fingerprint={**spec.fingerprint, "diameter": (checked, saturated + 1)})
    gate = w.Gate()
    w.measure_sweep(spec, 0, 0, gate)
    assert gate.failed == 1


def test_closed_form_check_catches_wrong_formula():
    gate = w.Gate()
    w.check_closed_form(TINY_TREE, gate)
    assert gate.failed == 0
    w.check_closed_form(TINY_TREE, gate, lambda n, k: perfect_kary_l(n, k) + 1)
    assert gate.failed == 1


def test_completion_check_catches_an_edge_of_the_tree():
    g = w.star_graph(5)
    gate = w.Gate()
    w.check_completion("star", g, ((1, 2), (2, 3), (3, 4)), 3, gate)
    assert gate.failed == 0
    w.check_completion("star", g, ((0, 1), (2, 3), (3, 4)), 3, gate)
    assert gate.failed == 1


def test_single_tree_reports_declared_metrics():
    gate = w.Gate()
    result = w.measure_single(TINY_TREE, 5, 0, gate)
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result.metrics.values())
    assert gate.failed == 0 and gate.attempted > 0


def test_single_tree_trace_reports_declared_metrics():
    gate = w.Gate()
    result = w.trace_single(TINY_TREE, 5, gate)
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert gate.failed == 0
    assert result.metrics["forest.hc_construct.star.s"] > 0


def test_replay_counts_leaf_exchange_calls():
    spec = _tiny_sweep(SweepConfig(leaf_exchange_all_pairs=True))
    gate = w.Gate()
    trees, calls = w.replay_sweep(spec, Tracer(), gate)
    assert trees == w.cayley_total(2, 5) and calls > 0 and gate.failed == 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    spans = {s.name: s for s in tracer.closed()}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["inner"].op == spans["outer"].op
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(spans["inner"].duration)
    assert self_s["outer"] == pytest.approx(spans["outer"].duration - spans["inner"].duration)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run("--workload", "sweep-checks", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


def test_fails_without_the_program():
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "sweep-checks", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
