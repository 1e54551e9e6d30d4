"""Tests of the benchmark itself: every metric is emitted, every check trips."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.checks import (  # noqa: E402
    TRACE_HEADER, StudyFailures, StudySet, check_exit, check_trace,
)
from perfbench.workloads import FIXED_REASONS, WORKLOADS  # noqa: E402
from secrecy_ascent import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith("smoke-result "):
            _tag, name, trace, payload = line.split(" ", 3)
            results[(name, int(trace))] = json.loads(payload)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return results


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(smoke_results, name, trace, section):
    result = smoke_results[(name, trace)]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = result["metrics"]
    for metric in SPEC[section]:
        assert metric["name"] in emitted, metric["name"]
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(emitted[metric["name"]]["value"], (int, float))
    assert set(emitted) == {m["name"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A real two-trial study, written by the CLI."""
    out = tmp_path_factory.mktemp("study")
    argv = ["run", "--config", "sub6", "--experiment", "fixed_power", "--max-iters", "8",
            "--seed", "5", "--trials", "2", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out


def _copy(study: Path, tmp_path: Path) -> Path:
    target = tmp_path / "copy"
    shutil.copytree(study, target)
    return target


def _rewrite_trace(path: Path, edit) -> None:
    lines = (path / "trace.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    (path / "trace.csv").write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")


def _check(path: Path, exit_code=0, stderr="", bad=None) -> StudyFailures:
    return StudySet(FIXED_REASONS).check("test", path, 2, exit_code, stderr, bad)


def test_clean_study_passes(study):
    failures = _check(study)
    assert failures.count == 0


def test_cs_mismatch_trips(study, tmp_path):
    path = _copy(study, tmp_path)

    def edit(rows):
        row = next(r for r in rows if r[0] == "1")
        row[3] = repr(float(row[3]) + 1e-3)

    _rewrite_trace(path, edit)
    failures = _check(path)
    assert failures.trials == {1: "c_s != max(c_l - c_e, 0)"}


def test_non_finite_value_trips(study, tmp_path):
    path = _copy(study, tmp_path)
    _rewrite_trace(path, lambda rows: rows[0].__setitem__(6, "nan"))
    assert _check(path).trials == {0: "non-finite value in trace.csv"}


def test_decreasing_difference_trips(study, tmp_path):
    path = _copy(study, tmp_path)

    def edit(rows):
        trial0 = [i for i, r in enumerate(rows) if r[0] == "0"]
        a, b = trial0[-2], trial0[-1]
        rows[a], rows[b] = rows[b], rows[a]

    _rewrite_trace(path, edit)
    assert _check(path).trials == {0: "c_l - c_e decreased within a cycle"}


def test_missing_trial_trips(study, tmp_path):
    path = _copy(study, tmp_path)
    _rewrite_trace(path, lambda rows: rows.__setitem__(slice(None), [r for r in rows if r[0] != "1"]))
    assert _check(path).trials == {1: "trial missing from trace.csv"}


def test_report_trial_count_trips(study, tmp_path):
    path = _copy(study, tmp_path)
    report = json.loads((path / "report.json").read_text())
    report["report"]["n_trials"] = 3
    (path / "report.json").write_text(json.dumps(report))
    assert _check(path).count == 2


def test_termination_counts_trip(study, tmp_path):
    path = _copy(study, tmp_path)
    report = json.loads((path / "report.json").read_text())
    report["report"]["termination_reasons"] = {"iter_cap": 1}
    (path / "report.json").write_text(json.dumps(report))
    assert _check(path).count == 2


def test_aborted_run_fails_trials_from_the_aborting_one():
    failures = StudyFailures(4)
    ok = check_exit(failures, 1, "runtime error: trial 2 (master seed 9) failed: boom")
    assert not ok and sorted(failures.trials) == [2, 3]


def test_digest_change_between_studies_trips(study, tmp_path):
    path = _copy(study, tmp_path)
    _rewrite_trace(path, lambda rows: rows[-1].__setitem__(7, rows[-1][7] + "0"))
    checks = StudySet(FIXED_REASONS)
    assert checks.check("first", study, 2, 0, "").count == 0
    assert checks.check("second", path, 2, 0, "").count == 2
    assert checks.failed == 2 and checks.attempted == 4


def test_ca_violation_trips(study):
    assert _check(study, bad={"1": "returned state violates CA"}).trials == {
        1: "returned state violates CA"}


def test_malformed_row_trips(tmp_path):
    (tmp_path / "trace.csv").write_text(",".join(TRACE_HEADER) + "\n0,1,0,abc,1,1,1,1\n")
    failures = StudyFailures(1)
    check_trace(failures, tmp_path / "trace.csv")
    assert failures.count == 1


def test_gradient_gate_trips_on_exit_1():
    class Broken:
        @staticmethod
        def main(_argv):
            return 1

    ok, lines = run.gradient_gate(Broken)
    assert not ok and len(lines) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mmwave-fixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONNOUSERSITE": "1"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
