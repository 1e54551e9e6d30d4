"""Output checks applied to every study the benchmark runs.

A study is one ``secrecy-ascent run``. A trial counts as failed if the run
aborted at or before it, if the report does not match the plan, if any of
its ``trace.csv`` rows fails a row check, or if its study wrote outputs
that differ from the other studies of the same plan.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

TRACE_HEADER = ["trial", "cycle", "iteration", "c_s", "c_l", "c_e", "delta", "p_s_db"]
_TRIAL_ERROR = re.compile(r"trial (\d+) \(master seed \d+\) failed")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class StudyFailures:
    """Failed trials of one study, with the first reason seen for each."""

    def __init__(self, n_trials: int):
        self.n_trials = n_trials
        self.trials: dict[int, str] = {}

    def mark(self, trials, reason: str) -> None:
        for t in trials:
            self.trials.setdefault(int(t), reason)

    def mark_all(self, reason: str) -> None:
        self.mark(range(self.n_trials), reason)

    @property
    def count(self) -> int:
        return len(self.trials)

    def summary(self) -> list[str]:
        seen: dict[str, int] = {}
        for reason in self.trials.values():
            seen[reason] = seen.get(reason, 0) + 1
        return [f"{n} trial(s): {reason}" for reason, n in sorted(seen.items())]


def check_exit(failures: StudyFailures, exit_code, stderr: str) -> bool:
    """Exit code 0, or the trials at and after the one that aborted fail."""
    if exit_code == 0:
        return True
    match = _TRIAL_ERROR.search(stderr or "")
    first = int(match.group(1)) if match and exit_code == 1 else 0
    failures.mark(range(first, failures.n_trials), f"run exited with {exit_code}")
    return False


def check_report(failures: StudyFailures, report_path: Path, allowed_reasons) -> dict:
    """``n_trials`` and the termination counts must match the plan."""
    try:
        report = json.loads(report_path.read_text())["report"]
    except (OSError, ValueError, KeyError) as exc:
        failures.mark_all(f"report.json unreadable: {exc}")
        return {}
    reasons = report.get("termination_reasons", {})
    if report.get("n_trials") != failures.n_trials:
        failures.mark_all(f"report n_trials {report.get('n_trials')} != {failures.n_trials}")
    elif sum(reasons.values()) != failures.n_trials:
        failures.mark_all(f"termination counts sum to {sum(reasons.values())}")
    elif not set(reasons) <= set(allowed_reasons):
        failures.mark_all(f"unexpected termination reasons {sorted(set(reasons) - set(allowed_reasons))}")
    return reasons


def check_trace(failures: StudyFailures, trace_path: Path) -> None:
    """Row checks on ``trace.csv``.

    Every value is finite, ``c_s == max(c_l - c_e, 0)`` exactly, and
    ``c_l - c_e`` never decreases over the rows of one (trial, cycle).
    Every planned trial has rows and no other trial does.
    """
    try:
        fh = open(trace_path, newline="")
    except OSError as exc:
        failures.mark_all(f"trace.csv unreadable: {exc}")
        return
    seen = set()
    rows = 0
    last_key, last_diff = None, -math.inf
    with fh:
        reader = csv.reader(fh)
        if next(reader, None) != TRACE_HEADER:
            failures.mark_all("trace.csv header differs")
            return
        for line in reader:
            rows += 1
            try:
                values = [float(v) for v in line]
            except ValueError:
                values = []
            if len(values) != len(TRACE_HEADER):
                failures.mark_all(f"malformed trace row {rows}")
                continue
            trial, cycle = int(values[0]), int(values[1])
            c_s, c_l, c_e = values[3], values[4], values[5]
            seen.add(trial)
            if not all(math.isfinite(v) for v in values):
                failures.mark([trial], "non-finite value in trace.csv")
                continue
            diff = c_l - c_e
            if c_s != max(diff, 0.0):
                failures.mark([trial], "c_s != max(c_l - c_e, 0)")
            key = (trial, cycle)
            if key == last_key and diff < last_diff:
                failures.mark([trial], "c_l - c_e decreased within a cycle")
            last_key, last_diff = key, diff
    planned = set(range(failures.n_trials))
    failures.mark(planned - seen, "trial missing from trace.csv")
    if seen - planned:
        failures.mark_all(f"trace.csv has unplanned trials {sorted(seen - planned)[:5]}")


class StudySet:
    """Checks a set of studies of one plan, which must all write the same outputs.

    The first study's ``trace.csv`` digest and termination counts are the
    reference; a study that differs fails all its trials. Row checks run
    once per distinct digest, since identical bytes pass or fail alike.
    """

    def __init__(self, allowed_reasons):
        self.allowed_reasons = allowed_reasons
        self.digest = None
        self.reasons = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._row_failures: dict = {}

    def check(self, label: str, out_dir: Path, n_trials: int, exit_code, stderr: str,
              bad_trials=None) -> StudyFailures:
        failures = StudyFailures(n_trials)
        trace = out_dir / "trace.csv"
        digest = sha256_file(trace) if trace.is_file() else None
        if check_exit(failures, exit_code, stderr):
            reasons = check_report(failures, out_dir / "report.json", self.allowed_reasons)
            if digest not in self._row_failures:
                rows = StudyFailures(n_trials)
                check_trace(rows, trace)
                self._row_failures[digest] = rows.trials
            for trial, reason in self._row_failures[digest].items():
                failures.mark([trial], reason)
            if self.digest is None:
                self.digest, self.reasons = digest, reasons
            elif digest != self.digest:
                failures.mark_all("trace.csv differs from the first study of the set")
            elif reasons != self.reasons:
                failures.mark_all("termination counts differ from the first study of the set")
        for trial, reason in (bad_trials or {}).items():
            failures.mark([trial], reason)
        self.attempted += n_trials
        self.failed += failures.count
        self.notes.extend(f"{label}: {line}" for line in failures.summary())
        return failures
