"""Tests of the benchmark itself: span arithmetic, wrapping, the
correctness gate and the smoke run.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_counts_parallel_children_once():
    spans = [
        (0, "a", 0.0, 10.0, None),
        (1, "b", 1.0, 5.0, 0),
        (2, "b", 2.0, 6.0, 0),
        (3, "c", 8.0, 9.0, 0),
    ]
    summary = tracer.summarize(spans)
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert summary["b"] == {"calls": 2, "s": 8.0, "self_s": 8.0}


def test_op_coverage_cuts_rows_at_datum_coefficients():
    spans = [
        (0, "experiment.ratio_experiment", 0.0, 10.0, None),
        (1, "datum.datum_coefficients", 0.0, 1.0, 0),
        (2, "experiment.solution_scan", 1.0, 4.0, 0),
        (3, "datum.datum_coefficients", 4.0, 5.0, 0),
        (4, "experiment.solution_scan", 5.0, 9.0, 0),
        (5, "cli.dispatch", 20.0, 24.0, None),
        (6, "cli.build_xn", 21.0, 24.0, 5),
    ]
    assert tracer.op_coverage(spans) == [1.0, 5.0 / 6.0, 0.75]


def test_install_wraps_every_binding_and_uninstall_restores():
    from weylmax import datum, decomp, experiment

    original = decomp.fold_axis
    t = tracer.Tracer()
    t.install()
    try:
        assert experiment.fold_axis is decomp.fold_axis
        assert decomp.fold_axis is not original
        decomp.fold_axis(datum.datum_coefficients(64, 1), 5, 0.0)
    finally:
        t.uninstall()
    assert decomp.fold_axis is original and experiment.fold_axis is original
    names = [s[1] for s in t.spans]
    assert names == ["datum.datum_coefficients", "decomp.fold_axis"]


def test_install_fails_loudly_on_a_renamed_function(monkeypatch):
    from weylmax import decomp

    original = decomp.fold_axis
    missing = ("weylmax.decomp", "no_such_function", "decomp.gone")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [missing])
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.Tracer().install()
    assert decomp.fold_axis is original


def test_gate_rejects_a_changed_ball_count():
    ref = workloads.load_reference("d1-ladder", "smoke")
    rows = [dict(r, measure_err=0.0, failed=False) for r in ref["rows"]]
    assert workloads.check_ladder("d1-ladder", rows, ref, True) == ["", "", ""]
    rows[1]["J"] += 1
    reasons = workloads.check_ladder("d1-ladder", rows, ref, True)
    assert reasons[0] == "" and "J = " in reasons[1]


def test_gate_rejects_an_estimate_outside_the_bounds():
    ref = workloads.load_reference("xn-roundtrip", "smoke")
    assert workloads.check_xn(dict(ref), ref, True) == ["", ""]
    far = dict(ref, estimate=ref["upper_bound"] + 5 * ref["stderr"])
    built, measured = workloads.check_xn(far, ref, False)
    assert built == "" and "not within" in measured


def test_smoke_run_emits_every_declared_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("smoke: PASS")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(bench["command"] + ["--workload", "d1-ladder", "--seed", "0",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
