"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((BENCH / "benchmark_notes.json").read_text())


@functools.cache
def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one smoke-size run; returns its result line and result set."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(run.result_path(workload, 3, True, bool(trace)).read_text())


@pytest.fixture(scope="module", params=workloads.NAMES)
def untraced(request):
    return request.param, smoke(request.param, 0)


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced(request):
    return request.param, smoke(request.param, 1)


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    _, (line, _) = untraced
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    workload, (line, result) = traced
    assert line["correct"] and line["failed"] == 0
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # Layers the workload does not run read 0; the threads' speed-up is
    # measured on every workload.
    assert line["metrics"]["parallel.speedup_2t"]["value"] > 0
    assert result["probe"]["threads_agree"]
    if workload == "screen":
        assert line["metrics"]["cli.self_s"]["value"] == 0.0  # screen runs no CLI
    assert result["missing_functions"] == []
    ids = {s["id"] for s in result["spans"]}
    assert all(s["parent"] in ids for s in result["spans"] if s["parent"] is not None)
    assert all(s["run_id"] for s in result["spans"])


# The pipeline's layer times, one per stage; varbase is left out because
# its calls run inside the spectral layer's.
PIPELINE_STAGE_TIMES = (
    "forest.train_s", "forest.predict_s", "forest.oob_s", "trend.fit_s",
    "spectral.unconditional_s", "spectral.conditional_s", "varx.fit_s", "varx.bootstrap_s",
    "varx.bias_correct_s", "varx.irf_fevd_s", "panel.io_s", "synth.generate_s",
    "features.aggregate_s", "hpfilter.s", "metrics.s",
)


def test_pipeline_layers_and_self_time_add_up_to_the_wall_time():
    line, result = smoke("pipeline", 1)
    metrics = {m: v["value"] for m, v in line["metrics"].items()}
    spans = result["spans"]
    root = next(s for s in spans if s["parent"] is None)
    cli = next(s for s in spans if s["name"] == "cli:main")
    cli_s = cli["end"] - cli["start"]
    # The benchmark's own work (clearing the out-dir, hashing and checking
    # the outputs) stays outside the CLI's span, so outside cli.self_s.
    assert cli["parent"] == root["id"] and cli_s < root["end"] - root["start"]
    # The per-layer times and the CLI's own time account for the CLI's wall
    # time: only the feature aggregation inside the synthetic panel's
    # generation counts twice, a few percent at most.
    total = sum(metrics[name] for name in PIPELINE_STAGE_TIMES) + metrics["cli.self_s"]
    assert total == pytest.approx(cli_s, rel=0.05)
    # Every stage runs inside a traced layer: the CLI's own time is small.
    assert metrics["cli.self_s"] < 0.1 * cli_s
    assert metrics["forest.trees"] == 120 and metrics["trend.fits"] == 4
    assert metrics["forest.predict_calls"] == 52


def test_a_wrong_expectation_fails_the_operation_without_aborting(monkeypatch):
    inputs = workloads.build_screen(0, smoke=True)
    monkeypatch.setattr(workloads, "LASSO_GAP_LIMIT", -1.0)  # cannot be met
    ops = [run.run_op("screen", inputs, 1), run.run_op("screen", inputs, 2)]
    run.judge(ops, None)
    for op in ops:
        assert op["error"] is None
        assert op["failed_because"] == ["check lasso_certified"]
        assert {c["name"]: c["passed"] for c in op["checks"]} == {
            "gc_temperature_hit": True, "gc_given_wind_hit": True,
            "lasso_certified": False, "bias_corrected_stable": True,
            "gc_null_drivers_few": True}
    # Both thread counts give one digest.
    assert ops[0]["digest"] == ops[1]["digest"]
    for op in ops:
        op["reference_s"] = 1.0
    result = {"ops": ops, "trace": False, "peak_rss_mb": 1.0, "setup_s": [1.0]}
    summary = run.summarize(result)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (False, 2, 2)


def test_a_digest_that_differs_between_runs_fails_the_operation():
    op = {"error": None, "checks": [], "digest": "b"}
    run.judge([op], "a")
    assert op["failed_because"] == ["digest differs from an earlier run of this seed"]


def test_a_missing_function_reports_its_metrics_absent(monkeypatch):
    from climdemand import forest

    monkeypatch.delattr(forest, "predict")
    tracer = tracing.Tracer()
    inputs = workloads.build_screen(0, smoke=True)
    with tracer:
        tracer.root("screen", "test", lambda: workloads.run_screen(inputs, 1))
    assert tracer.missing == ["forest.predict"]
    metrics = tracing.layer_metrics(tracer.spans, tracer.missing)
    assert not any(name.startswith("forest.predict") for name in metrics)
    # The result line still carries them, reading 0.
    line = run.summarize({"ops": [], "trace": True, "layer_metrics": metrics})
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert line["metrics"]["forest.predict_s"]["value"] == 0.0
    assert metrics["forest.trees"] == 30
    assert metrics["spectral.replicates"] == 12 * 100
    assert metrics["sparsevar.fits"] == 16 * 4 + 1
    assert metrics["diagnostics.tests"] == 2


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span(0, "root", "r", None, 0.0, 10.0),
             tracing.Span(1, "a", "r", 0, 1.0, 4.0),
             tracing.Span(2, "b", "r", 0, 3.0, 6.0),
             tracing.Span(3, "c", "r", 1, 1.5, 2.0)]
    assert tracing.self_time(spans[0], spans) == pytest.approx(5.0)


def _records(parent, change):
    return [{"pair": i, "workload": "w", "side": side,
             "summary": {"failed": 0, "metrics": {"wall_s": {"value": value}}}}
            for i, (p, c) in enumerate(zip(parent, change))
            for side, value in (("parent", p), ("change", c))]


@pytest.mark.parametrize("parent, change, claimed, expected", [
    ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)], True, "improved"),
    ([10.0] * 8 + [7.0] * 2, [9.0] * 8 + [11.0] * 2, True, "not shown"),
    ([10.0 + 0.01 * i for i in range(10)], [10.0 + 0.01 * i for i in range(10)], False, "unchanged"),
    ([10.0 + 0.01 * i for i in range(10)], [13.0 + 0.01 * i for i in range(10)], False, "worse"),
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, False, "unresolved"),
])
def test_compare_verdicts(parent, change, claimed, expected):
    spec = [{"name": "wall_s", "better": "lower", "bound": 0.1}]
    claim = ("wall_s", "w") if claimed else ("cpu_s", "w")
    result = compare.analyse(_records(parent, change), spec, claim)
    assert result["w"]["wall_s"]["status"] == expected


def test_benchmark_json_matches_the_notes():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(NOTES["per_layer"])
    assert set(NOTES["workloads"]) == set(workloads.NAMES)
    assert NOTES["held_out_seed"] not in range(20)


def test_without_the_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "screen", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
