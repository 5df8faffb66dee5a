"""Tests of the benchmark itself, on the smoke-size workloads.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_what_the_benchmark_reports():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.METRICS)
    assert all(m["unit"] == spans.unit(m["name"]) for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    result = result_line(bench("--workload", workload, "--scale", "smoke",
                               "--seconds", "0.5", "--seed", "3"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload, layer", [
    ("rates-sweep", "graph.calls"), ("smallnoise-chains", "posterior.steps"),
    ("moons-posterior", "spectral.arpack_calls"), ("channel-map", "models.sparse_factor_calls"),
])
def test_smoke_traced(workload, layer):
    result = result_line(bench("--workload", workload, "--scale", "smoke",
                               "--seconds", "0.5", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics[layer]["value"] > 0


def test_missing_entry_point_reports_zero_calls():
    from graphssl.cli import main

    entries = spans.ENTRY_POINTS + (("models", "span", "graphssl.models:no_such_solver",
                                     "gone"),)
    tracer = spans.Tracer(entries)
    config = run.write_config("channel-map", "smoke", run.REFERENCE_SEED, "test-missing")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer:
            code = tracer.root(main, ["channel", "--config", str(config),
                                      "--out", str(config.parent / "out")])
    assert code == 0
    assert tracer.missing == ["graphssl.models:no_such_solver"]
    assert any("no_such_solver" in str(w.message) for w in caught)
    assert tracer.metrics(1.0, 0, 0)["models.calls"] > 0
    # the wrappers are gone after the traced run
    import graphssl.models
    assert graphssl.models.sparse_probit_map.__module__ == "graphssl.models"


def test_output_check_rejects_a_wrong_answer(tmp_path):
    reference = run.load_reference("smoke")
    config = run.write_config("rates-sweep", "smoke", run.REFERENCE_SEED, "test-wrong")
    out = tmp_path / "out"
    seconds, error = run.run_experiment("rates-sweep", config, out)
    assert error is None
    assert run.check_outputs("rates-sweep", out, run.REFERENCE_SEED, reference) == []
    lines = (out / "errors.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-4))
    lines[5] = ",".join(cells)
    (out / "errors.csv").write_text("\n".join(lines) + "\n")
    problems = run.check_outputs("rates-sweep", out, run.REFERENCE_SEED, reference)
    assert len(problems) == 1 and "mean_error" in problems[0]


def test_output_check_rejects_a_wrong_posterior_summary(tmp_path):
    reference = run.load_reference("smoke")
    se = reference["workloads"]["moons-posterior"]["se"][0]["offcurve_certainty"]
    assert se > 0
    config = run.write_config("moons-posterior", "smoke", run.REFERENCE_SEED, "test-wrong")
    out = tmp_path / "out"
    seconds, error = run.run_experiment("moons-posterior", config, out)
    assert error is None
    assert run.check_outputs("moons-posterior", out, run.REFERENCE_SEED, reference) == []
    lines = (out / "summary.csv").read_text().splitlines()
    cells = lines[1].split(",")
    value = float(cells[5])
    cells[5] = repr(value + (-1 if value > 0.5 else 1) * 5.5 * se)
    lines[1] = ",".join(cells)
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    problems = run.check_outputs("moons-posterior", out, run.REFERENCE_SEED, reference)
    assert any("offcurve_certainty=" in p and "reference" in p for p in problems)


def test_reference_without_standard_errors_fails_the_check():
    ref = run.load_reference("smoke")["workloads"]["moons-posterior"]
    rows = ref["summary.csv"]
    problems = run.compare_mc(rows, {**ref, "se": []}, "summary.csv", ("alpha", "tau"),
                              ("offcurve_certainty",))
    assert problems and "standard errors for 0 of its 6 rows" in problems[0]


def test_tracer_entered_before_the_experiments_are_imported():
    # In a fresh process whose first tracer is entered before graphssl.cli is
    # imported, that tracer and the next one must each see every chain, and
    # no wrapper may be left behind.
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run, spans
config = run.write_config("moons-posterior", "smoke", 0, "test-first-tracer")
for _ in range(2):
    tracer = spans.Tracer()
    with tracer:
        seconds, error = run.run_experiment("moons-posterior", config,
                                            config.parent / "out", tracer)
    assert error is None, error
    assert len(tracer.chains) == 6, len(tracer.chains)
    assert tracer.check(seconds) == [], tracer.check(seconds)
import graphssl.experiments
assert graphssl.experiments.run_pcn.__module__ == "graphssl.posterior"
"""
    done = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_span_check_finds_a_broken_tree():
    tracer = spans.Tracer(())
    tracer.spans = [["experiments", "experiments", "run", 0.0, 10.0, -1],
                    ["a", "models", "krige", 1.0, 4.0, 0],
                    ["b", "models", "krige", 3.0, 5.0, 0],       # overlaps a
                    ["c", "graph", "build", 9.0, 11.0, 0],       # ends after its parent
                    ["d", "graph", "build", 12.0, 13.0, -1],     # outside the root
                    ["e", "graph", "build", 6.0, 0.0, 0]]        # never closed
    problems = tracer.check(10.0)
    for what in ("left open", "outside the root span", "outside their parent span",
                 "overlapping an earlier sibling"):
        assert any(what in p for p in problems), (what, problems)
    tracer.spans = tracer.spans[:2]
    assert tracer.check(10.0) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "rates-sweep", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
