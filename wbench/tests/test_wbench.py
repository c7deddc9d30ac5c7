"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest wbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _workload(name, lib, tmp_path):
    schema = json.loads((ROOT / "report.schema.json").read_text())
    return workloads.make_workload(name, lib, schema, tmp_path / "work")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_untraced(name, lib, tmp_path):
    wl = _workload(name, lib, tmp_path)
    items = wl.make_items(np.random.default_rng(5), 8)
    loop = run.run_untraced(wl, items, seconds=1e-3)
    assert len(loop.times) == 1 and not loop.integrity
    metrics = run.end_to_end(loop, [0.25, 0.3, 0.35])
    assert {k: unit for k, (_, unit, _) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for name, (value, _, _) in metrics.items() if name != "pass_frac")
    assert 0 <= metrics["pass_frac"][0] <= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced(name, lib, tmp_path):
    wl = _workload(name, lib, tmp_path)
    items = wl.make_items(np.random.default_rng(5), 8)
    tracer = layertrace.Tracer(lib)
    loop, untraced_s, traced_s = run.run_traced(wl, items, 1e-3, tracer)
    assert len(loop.times) == 1 and not loop.integrity
    metrics = tracer.layer_metrics(1, traced_s, untraced_s, loop.artifacts)
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("per_layer")
    assert any(value > 0 for name, (value, _) in metrics.items() if name.endswith(".self_s"))
    spans = tracer.span_item
    assert len(spans) > 0 and set(spans) == {0}
    # every original is back in place after the traced item
    assert lib.odekit.Trajectory.__call__ is tracer._originals["odekit.dense_eval"]
    assert lib.rot_r3.integrate is lib.odekit.integrate is tracer._originals["odekit.integrate"]


def test_command_prints_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "parab_classify", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert any(line.startswith("fail_frac") for line in lines)


def test_mutated_verdict_raises_fail_frac(lib, tmp_path, monkeypatch):
    wl = _workload("rot_verify", lib, tmp_path)
    items = wl.make_items(np.random.default_rng(5), 2)
    baseline = run.run_untraced(wl, items, seconds=10.0)
    assert len(baseline.times) == 2 and baseline.failed == 0

    def corrupted(profile, n=2000):
        return lib.rot_r3.ConservationReport(max_residual=1.0, max_closed_form_deviation=0.0)

    monkeypatch.setattr(lib.rot_r3, "first_integral_residual", corrupted)
    mutated = run.run_untraced(wl, items, seconds=10.0)
    assert mutated.failed == 2
    assert mutated.failures[0]["margins"]["first_integral"] == pytest.approx(1e8)
    assert not mutated.integrity
    # verdict misses show in pass_frac; the result line's "failed" counts
    # only items that raised or broke an integrity check
    result = run.result_line(mutated, run.end_to_end(mutated, [0.3]))
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    assert result["correct"] is True and result["failed"] == 0


def test_integrity_problem_counts_as_failed_operation(lib, tmp_path, monkeypatch):
    wl = _workload("parab_classify", lib, tmp_path)
    items = wl.make_items(np.random.default_rng(5), 2)
    monkeypatch.setattr(lib.parab_h3, "mirror_defect", lambda profile: 1 / 0)
    loop = run.run_untraced(wl, items, seconds=10.0)
    result = run.result_line(loop, run.end_to_end(loop, [0.3]))
    assert result["correct"] is False and result["failed"] == result["attempted"] == 2


def test_self_check_catches_skipped_binding(lib):
    tracer = layertrace.Tracer(lib)
    tracer.install()
    try:
        tracer.self_check()
        lib.rot_r3.integrate = tracer._originals["odekit.integrate"]
        with pytest.raises(layertrace.NamespaceError, match="weingarten.rot_r3.integrate"):
            tracer.self_check()
    finally:
        tracer.uninstall()
    assert lib.rot_r3.integrate is tracer._originals["odekit.integrate"]


def test_generators_keep_known_failures():
    rng = np.random.default_rng(1)
    parab = workloads.ParabClassify(None, None).make_items(rng, 120)
    assert parab == workloads.ParabClassify(None, None).make_items(np.random.default_rng(1), 120)
    lower = [it for it in parab if it["branch"] == "lower"]
    assert len(lower) == 10  # one in twelve items: b = (-1 - sqrt(1 - a^2)) / 2
    assert all(abs(it["a"] ** 2 + 4 * it["b"] ** 2 + 4 * it["b"]) < 1e-12 for it in lower)
    # (2.0855, -1.2573, 2.3303) lies inside the rot_verify domain
    a, b, z0 = 2.0855, -1.2573, 2.3303
    assert 0.8 <= a <= 2.2 and 0.15 <= -a * a / 4 - b <= 0.9
    assert 0.05 <= z0 - max(-2 * b / a, a) * 1.02 <= 0.4


def test_refuses_to_run_without_the_library(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "rot_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
