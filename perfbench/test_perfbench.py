"""Tests of the benchmark itself: seeded inputs, fingerprints, smoke runs,
the tracer, and agreement with BENCHMARK.json."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMOKE_OPS = 2


def _round(workload: str, seed: int) -> dict:
    return worker.run_round(ROOT, workload, seed, 0, trace=False, max_ops=SMOKE_OPS)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--ops", str(SMOKE_OPS)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_seed_fixes_inputs_and_fingerprint(workload):
    first, again, other = _round(workload, 7), _round(workload, 7), _round(workload, 8)
    assert first["failed"] == 0, first["failures"]
    assert first["inputs"] == again["inputs"]
    assert first["fingerprint"] == again["fingerprint"]
    assert first["inputs"] != other["inputs"]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_run_has_no_failures(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_traced_smoke_run_reports_every_layer_metric():
    result = _run("project", 1)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in tracer.metric_names()}
    assert result["metrics"]["projection.project_to_component.calls"]["value"] == SMOKE_OPS
    assert result["metrics"]["saturation.FlatFactBase.calls"]["value"] == 0
    # presets are loaded while the inputs are made, never in the timed region
    assert result["metrics"]["dsl.load_theory.calls"]["value"] == 0
    assert result["metrics"]["setup.dsl.load_theory.calls"]["value"] > 0


def test_per_pass_counts_whole_classify_cycles_only():
    cycle = [float(k) for k in range(workloads.CLASSIFY_ROUNDS)]
    for extra in (1, 2):
        # rounds past the last whole cycle repeat its first inputs
        assert run.per_pass("classify", cycle + [1000.0] * extra) == sum(cycle)
    assert run.per_pass("classify", cycle + cycle) == sum(cycle)
    assert run.per_pass("entail", [1.0, 2.0, 6.0]) == 3.0


def test_smooth_quantile_weighs_neighbouring_ranks():
    xs = [float(k) for k in range(101)]
    assert run.smooth_quantile(xs, 0.5) == pytest.approx(50.0)
    assert run.smooth_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    # a gap at the median: the estimate lies between the clusters
    assert 1.0 < run.smooth_quantile([1.0] * 10 + [9.0] * 10, 0.5) < 9.0
    assert run.smooth_quantile(xs, 0.25) < run.smooth_quantile(xs, 0.75)


def test_classify_runs_stop_at_cycle_boundaries():
    n = workloads.CLASSIFY_ROUNDS
    late = run.STOP_AFTER_S + 1
    assert not run.should_stop("classify", n - 1, n, late, 20)
    assert not run.should_stop("classify", n + 1, n, late, 20)
    assert run.should_stop("classify", n, n, 21, 20)
    assert not run.should_stop("classify", n, n, 19, 20)
    assert run.should_stop("project", 7, 6, 21, 20)
    assert not run.should_stop("project", 5, 6, 21, 20)


def test_tracer_drops_missing_names_and_restores(monkeypatch):
    ctx = workloads.Context(ROOT)
    monkeypatch.setattr(tracer, "TARGETS",
                        tracer.TARGETS + (("saturation", "no_such_function", None),))
    original = ctx.lv.classification.classify
    t = tracer.Tracer(ctx.lv)
    t.install()
    try:
        t.active = True
        ctx.lv.classification.classify(ctx.lv.presets.maltsev())
        t.active = False
    finally:
        t.uninstall()
    assert ctx.lv.classification.classify is original
    assert any("no_such_function" in note for note in t.notes)
    metrics = t.layer_metrics()
    assert metrics["saturation.no_such_function.calls"] == 0
    assert metrics["classification.classify.calls"] == 1
    assert metrics["derivatives.iterate.calls"] >= 2
    assert 0 < sum(v for k, v in metrics.items() if k.endswith(".self_s")) < 60


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_names()
