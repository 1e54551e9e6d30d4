import argparse
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import secrecy_ascent.cli as cli
import secrecy_ascent.experiment as exp
from secrecy_ascent.channel import ChannelParams, draw_channel_set
from secrecy_ascent.config import SCHEMA
from secrecy_ascent.experiment import TRACE_HEADER, ExperimentKind
from secrecy_ascent.gradients import (capacity_difference, fd_gradient, gradient_bundle,
                                      gradient_check_error)
from secrecy_ascent.metrics import PowerConfig
from secrecy_ascent.optimizer import warm_start

TINY = """
n_tx = 8
n_rx = 2
n_clusters = 2
n_rays = 3
experiment = fixed_power
n_trials = 2
seed = 5
max_iters = 200
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_validate_reports_field_errors(tiny_cfg, capsys):
    assert run_cli("validate", "--config", tiny_cfg, "--trials", "0") == 2
    assert "n_trials" in capsys.readouterr().err
    assert run_cli("validate", "--config", tiny_cfg, "--experiment", "variable_power") == 2
    assert "zeta" in capsys.readouterr().err
    assert run_cli("validate", "--config", tiny_cfg, "--p-s-db", "garble") == 2
    assert "p_s_db" in capsys.readouterr().err
    # a step floor above the first step would end each cycle at its first
    # rejection, and a variable-power start above the ceiling would run once
    assert run_cli("validate", "--config", tiny_cfg, "--delta-min", "0.5") == 2
    err = capsys.readouterr().err
    assert "delta_min" in err and "delta0" in err, err
    assert run_cli("validate", "--config", tiny_cfg, "--experiment", "variable_power",
                   "--zeta", "1", "--p-s-db", "40", "--mu-db", "30") == 2
    err = capsys.readouterr().err
    assert "'p_s_db'" in err and "'mu_db'" in err, err


# a rejected value of each optimizer key and of the enum key
OPTIMIZER_KEYS = ["delta0", "epsilon", "kappa", "zeta", "mu_db", "max_iters", "max_cycles",
                  "delta_min"]
REJECTED = {"delta0": "0", "epsilon": "0", "kappa": "0", "zeta": "inf", "mu_db": "4000",
            "max_iters": "0", "max_cycles": "0", "delta_min": "0",
            "experiment": "fixed-power"}


@pytest.mark.parametrize("key", REJECTED)
def test_a_rejected_key_is_named_alone_with_the_values_it_accepts(tiny_cfg, capsys, key):
    # an optimizer field's error used to name the fields checked with it (and
    # "mu", which no key is), and an enum key's did not say what it accepts
    flag = f"--{key.replace('_', '-')}={REJECTED[key]}"
    assert run_cli("validate", "--config", tiny_cfg, flag) == 2
    err = capsys.readouterr().err
    # "mu" is the field that mu_db sets
    named = {name for name in OPTIMIZER_KEYS + ["mu"] if re.search(rf"\b{name}\b", err)}
    assert key in err and named <= {key}, err
    convert = SCHEMA[key][0]
    if convert is ExperimentKind:
        assert all(member.value in err for member in convert), err


FLOAT_KEYS = [key for key, (convert, _) in SCHEMA.items() if convert is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_validate_rejects_non_finite_floats(tiny_cfg, capsys, key, value):
    # float() parses these; each one used to run, silently wrong or failing
    # later as a trial error
    flag = f"--{key.replace('_', '-')}={value}"
    assert run_cli("validate", "--config", tiny_cfg, flag) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "not finite" in err


DB_KEYS = ("p_s_db", "p_j_db", "mu_db")
BOUNDARY_PLAN = """n_tx = 4
n_rx = 2
n_clusters = 1
n_rays = 2
n_trials = 1
seed = 7
max_iters = 5
max_cycles = 3
zeta = 1.0
"""


def out_of_range(key, value_db):
    """A dB value whose linear power overflows, or is 0 where 0 is invalid
    (a silent jammer is a valid plan; a silent source or ceiling is not)."""
    try:
        power = 10.0 ** (value_db / 10.0)
    except OverflowError:
        return True
    return power == 0.0 and key != "p_j_db"


def rejected_keys(experiment, values):
    """The dB keys a plan is rejected for: those out of range, else, at
    variable power, p_s_db and mu_db when the start is above the ceiling."""
    bad = [key for key, value in zip(DB_KEYS, values) if out_of_range(key, value)]
    p_s_db, _, mu_db = values
    if (not bad and experiment == "variable_power"
            and 10.0 ** (p_s_db / 10.0) > 10.0 ** (mu_db / 10.0)):
        bad = ["p_s_db", "mu_db"]
    return bad


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
@example(values=(4000.0, 10.0, 30.0))
@example(values=(-4000.0, 10.0, 30.0))
@example(values=(10.0, -4000.0, 30.0))
@example(values=(10.0, 10.0, -4000.0))
@example(values=(40.0, 10.0, 30.0))
@example(values=(30.0, 10.0, 30.0))
def test_db_keys_at_any_finite_value(tmp_path, capsys, values):
    # every finite dB value either runs, is rejected naming its key, or
    # fails a trial naming it and the master seed; nothing else escapes
    flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in zip(DB_KEYS, values)]
    for experiment in ("fixed_power", "variable_power"):
        bad = rejected_keys(experiment, values)
        path = tmp_path / f"{experiment}.cfg"
        path.write_text(BOUNDARY_PLAN + f"experiment = {experiment}\n")
        capsys.readouterr()
        code = run_cli("validate", "--config", str(path), *flags)
        err = capsys.readouterr().err
        assert code == (2 if bad else 0), err
        if bad:
            assert any(f"'{key}'" in err for key in bad), err
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"), *flags)
        err = capsys.readouterr().err
        if bad:
            assert code == 2 and any(f"'{key}'" in err for key in bad), err
        else:
            assert code in (0, 1), err
            if code == 1:
                assert "trial 0 (master seed 7) failed" in err, err


def test_validate_rejects_unknown_key(tmp_path, capsys):
    # a removed key (svd_bound_literal) is refused like one that never existed
    for line in ("mystery_knob = 3", "svd_bound_literal = false"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY + line + "\n")
        assert run_cli("validate", "--config", str(bad)) == 2
        assert repr(line.split(" ")[0]) in capsys.readouterr().err


def test_run_writes_all_outputs(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out)) == 0
    rows = read_csv(out / "trace.csv")
    assert rows[0] == TRACE_HEADER
    assert len(rows) > 1
    for row in rows[1:]:
        assert len(row) == len(TRACE_HEADER)
        assert all(math.isfinite(float(cell)) for cell in row)
    agg = read_csv(out / "aggregate.csv")
    assert agg[0] == ["iteration", "c_s_mean", "c_s_we_opt_mean", "svd_bound_mean"]
    for row in agg[1:]:
        assert all(math.isfinite(float(cell)) for cell in row)
    report = json.loads((out / "report.json").read_text())
    assert report["manifest"]["seed"] == 5
    # every listed output exists
    for path in report["manifest"]["outputs"].values():
        assert os.path.exists(path)


def test_run_trace_deterministic_across_runs_and_threads(tiny_cfg, tmp_path):
    outs = []
    for name, threads in [("a", None), ("b", None), ("c", "2")]:
        argv = ["run", "--config", tiny_cfg, "--out", str(tmp_path / name)]
        if threads:
            argv += ["--threads", threads]
        assert run_cli(*argv) == 0
        outs.append((tmp_path / name / "trace.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_run_report_json_round_trips(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out)) == 0
    text = (out / "report.json").read_text()
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2) + "\n" == text


def test_run_variable_power_outputs(tiny_cfg, tmp_path):
    out = tmp_path / "vp"
    code = run_cli(
        "run", "--config", tiny_cfg, "--out", str(out),
        "--experiment", "variable_power", "--zeta", "0.5", "--max-cycles", "10",
    )
    assert code == 0
    agg = read_csv(out / "aggregate.csv")
    assert agg[0] == ["cycle", "c_s_mean", "p_s_db_mean"]
    for row in agg[1:]:
        assert all(math.isfinite(float(cell)) for cell in row)
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["experiment"] == "variable_power"
    assert report["report"]["mean_cycles"] >= 1.0


def test_outputs_state_each_power_in_the_same_db_text(tmp_path):
    # one trial, so each cycle's mean power is that trial's: trace.csv,
    # aggregate.csv and report.json must write it in the same digits
    out = tmp_path / "out"
    assert run_cli("run", "--config", "sub6", "--experiment", "variable_power",
                   "--p-s-db", "-10", "--mu-db", "-5", "--max-iters", "12",
                   "--seed", "202", "--trials", "1", "--out", str(out)) == 0
    trace = read_csv(out / "trace.csv")
    cycle_db = {row[1]: row[7] for row in trace[1:]}
    agg = read_csv(out / "aggregate.csv")[1:]
    assert len(agg) == len(cycle_db) > 100
    assert [row[2] for row in agg] == [cycle_db[row[0]] for row in agg]
    report = json.loads((out / "report.json").read_text())["report"]
    assert repr(report["mean_final_p_s_db"]) == trace[-1][7]


def test_run_summary_names_termination_reasons(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out)) == 0
    reasons = json.loads((out / "report.json").read_text())["report"]["termination_reasons"]
    assert sum(reasons.values()) == 2
    line = "termination: " + ", ".join(f"{k}={v}" for k, v in sorted(reasons.items()))
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("overrides", [
    {},
    {"experiment": "variable_power", "zeta": "1000", "mu_db": "12", "kappa": "0.1",
     "max_iters": "40"},
    # two-digit trial ids, cycles whose passes are all rejected before one
    # that logs rows, and steps halved down to delta_min: where a row's
    # per-cycle texts could be misread
    {"experiment": "variable_power", "zeta": "1000", "mu_db": "30", "kappa": "0.5",
     "max_iters": "5", "delta_min": "0.03", "n_trials": "12"},
])
def test_trace_rows_match_per_record_formatting(tiny_cfg, tmp_path, overrides):
    # trace.csv reuses the text of repeated delta and p_s values and of each
    # cycle's head; it must be byte-identical to formatting every field of
    # every record
    argv = ["run", "--config", tiny_cfg, "--out", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--trials" if key == "n_trials" else f"--{key.replace('_', '-')}", value]
    assert run_cli(*argv) == 0
    cfg = cli.build_system_config(cli.resolve_config_file(tiny_cfg, overrides))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    silent = []  # per trial, its cycles that log no row but precede one that does

    def write(i, res, *_):
        cycles = res.trace.cycles
        writer.writerows([i, r.cycle, r.iteration, max(r.c_l - r.c_e, 0.0), r.c_l, r.c_e, r.delta,
                          10.0 * math.log10(cycles[r.cycle - 1].p_s)] for r in res.trace.records)
        logged = {r.cycle for r in res.trace.records}
        silent.append(len(set(range(1, max(logged))) - logged))

    if overrides:
        cli.run_variable_power_experiment(cfg, on_trial=write)
        assert len({row[7] for row in csv.reader(io.StringIO(buf.getvalue()))}) > 3
    else:
        cli.run_fixed_power_experiment(cfg, on_trial=write)
    if "delta_min" in overrides:
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert any(row[0] == "11" for row in rows)
        assert any(row[6] == overrides["delta_min"] for row in rows)
        assert sum(silent) > 0
    assert (tmp_path / "trace.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("plan", [
    ["--max-iters", "60", "--trials", "9", "--seed", "303"],
    ["--experiment", "variable_power", "--p-s-db", "-10", "--mu-db", "-5", "--max-iters", "12",
     "--trials", "20", "--seed", "202"],
], ids=["fixed", "variable"])
def test_each_converged_mean_is_its_mean_curves_last_point(tmp_path, plan):
    # a trial's curve is padded with its final value, so a converged mean is
    # its mean curve's last point, and aggregate.csv's last row states it;
    # np.mean of the finals, summed pairwise, would be an ulp off on both plans
    assert run_cli("run", "--config", "sub6", *plan, "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    last = read_csv(tmp_path / "aggregate.csv")[-1]
    means = {"converged_c_s_mean": ("c_s_mean_curve", 1),
             "converged_c_s_we_opt_mean": ("c_s_we_opt_mean_curve", 2),
             "mean_final_p_s_db": ("p_s_db_mean_curve", 2)}
    checked = [mean for mean in means if mean in report]
    assert len(checked) == 2
    for mean in checked:
        curve, column = means[mean]
        assert report[mean] == report[curve][-1], mean
        assert repr(report[mean]) == last[column], mean


@pytest.mark.parametrize("overrides", [
    {"epsilon": "1e-3", "max_iters": "400"},  # the longest ascent optimizes w_e
    {"epsilon": "1e-3", "max_iters": "400", "seed": "6"},  # too, by three passes
    {"experiment": "variable_power", "zeta": "1000", "mu_db": "12", "kappa": "0.1",
     "max_iters": "40"},
    {"epsilon": "1e-3", "max_iters": "400", "seed": "8"},  # the longest one holds w_e
])
def test_finalize_matches_asdict_and_csv_writer(tiny_cfg, tmp_path, overrides):
    # report.json and aggregate.csv are written from shallow field dicts,
    # their curves joined from one text per value; they must be
    # byte-identical to dumping dataclasses.asdict with json.dump(indent=2)
    # and writing the rows through csv.writer
    argv = ["run", "--config", tiny_cfg, "--out", str(tmp_path)]
    for key, value in overrides.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run_cli(*argv) == 0
    cfg = cli.build_system_config(cli.resolve_config_file(tiny_cfg, overrides))
    variable = overrides.get("experiment") == "variable_power"
    passes = []  # per fixed-power trial: the passes of its w_e-held and w_e-optimized ascents
    if variable:
        report = cli.run_variable_power_experiment(cfg)
    else:
        def observe(i, res, res_opt, bound, rows):
            passes.append((res.trace.n_iters, res_opt.trace.n_iters))

        report = cli.run_fixed_power_experiment(cfg, on_trial=observe)
    written = json.loads((tmp_path / "report.json").read_text())
    manifest = {
        "config": dict(cli.flat_items(cli.resolve_config_file(tiny_cfg, overrides))),
        "seed": cfg.seed,
        "version": cli.__version__,
        "duration_s": written["manifest"]["duration_s"],
        "outputs": {name: str(tmp_path / file) for name, file in (
            ("trace_csv", "trace.csv"), ("aggregate_csv", "aggregate.csv"),
            ("report_json", "report.json"))},
    }
    assert written["manifest"] == manifest
    assert (tmp_path / "report.json").read_text() == json_dump_report(manifest, report)

    expected = csv_writer_aggregate(report)
    if not variable:
        # the longest ascents of the two sets differ, and both curves are
        # padded to one length: aggregate.csv is the report's columns
        held, optimized = (max(n) for n in zip(*passes))
        assert held != optimized
        main, opt = report.c_s_mean_curve, report.c_s_we_opt_mean_curve
        assert len(main) == len(opt) == max(held, optimized) + 1
    assert len(expected.splitlines()) > 3
    assert (tmp_path / "aggregate.csv").read_bytes() == expected.encode()


def json_dump_report(manifest, report):
    """report.json as json.dump(indent=2) writes ``manifest`` and
    dataclasses.asdict(report), and a newline."""
    buf = io.StringIO()
    json.dump({"manifest": manifest, "report": asdict(report)}, buf, indent=2)
    return buf.getvalue() + "\n"


def csv_writer_aggregate(report):
    """aggregate.csv as csv.writer writes the report's curves as columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(report, exp.VariablePowerReport):
        writer.writerow(["cycle", "c_s_mean", "p_s_db_mean"])
        writer.writerows([k, c_s, p_db] for k, (c_s, p_db) in enumerate(
            zip(report.c_s_mean_curve, report.p_s_db_mean_curve), start=1))
    else:
        writer.writerow(["iteration", "c_s_mean", "c_s_we_opt_mean", "svd_bound_mean"])
        writer.writerows([t, c_s, c_s_opt, report.svd_bound_mean] for t, (c_s, c_s_opt) in
                         enumerate(zip(report.c_s_mean_curve, report.c_s_we_opt_mean_curve)))
    return buf.getvalue()


# a float's text at its edges: a signed zero, the least subnormal, the
# first exponent form, a shortest round trip, and json's own spellings
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 0.1, math.nan, math.inf, -math.inf]


def hand_built_report(variable, curve, second, value):
    """A report with the mean curves ``curve`` and ``second`` and ``value``
    in every float field that is not a curve."""
    common = dict(n_trials=3, c_s_mean_curve=curve, converged_c_s_mean=value,
                  converged_c_s_std=value, termination_reasons={"iter_cap": 2, "converged": 1})
    if variable:
        return exp.VariablePowerReport(experiment="variable_power", **common,
                                       p_s_db_mean_curve=second, mean_cycles=value,
                                       mean_final_p_s_db=value)
    return exp.FixedPowerReport(experiment="fixed_power", **common, c_s_we_opt_mean_curve=second,
                                converged_c_s_we_opt_mean=value, svd_bound_mean=value,
                                mean_iterations=value, svd_violation_trials=[0, 2])


@pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
@pytest.mark.parametrize("variable", [False, True], ids=["fixed", "variable"])
def test_the_summary_writer_matches_json_and_csv_writer_at_float_edges(
        tiny_cfg, tmp_path, monkeypatch, variable, value):
    # report.json's curves and aggregate.csv's rows are joined from one text
    # per curve value. At fixed power every edge sits in both curves; at
    # variable power the curves are one point, ``value``. Every other float
    # field is ``value``. Both files must be byte-identical to json.dump and
    # csv.writer
    if variable:
        report = hand_built_report(True, [value], [value], value)
        name, flags = "run_variable_power_experiment", ["--experiment", "variable_power",
                                                        "--zeta", "0.5"]
    else:
        report = hand_built_report(False, EDGE_FLOATS, EDGE_FLOATS[::-1], value)
        name, flags = "run_fixed_power_experiment", []
    monkeypatch.setattr(cli, name, lambda cfg, threads, on_trial: report)
    assert run_cli("run", "--config", tiny_cfg, *flags, "--out", str(tmp_path)) == 0
    text = (tmp_path / "report.json").read_text()
    assert text == json_dump_report(json.loads(text)["manifest"], report)
    assert (tmp_path / "aggregate.csv").read_bytes() == csv_writer_aggregate(report).encode()


@settings(max_examples=200, deadline=None)
@given(curve=st.lists(st.floats()), variable=st.booleans(), second=st.booleans(),
       path=st.text(st.characters(exclude_characters="\0")))
@example(curve=[], variable=False, second=True, path="trace.csv")
# the writer's edges: a manifest string that holds a marker's json text, one
# with quotes and backslashes, and an empty curve beside a non-empty one
@example(curve=[0.5], variable=False, second=True, path='"\\u0000c_s_mean_curve"')
@example(curve=[0.5], variable=True, second=True, path='a "q" \\" \\\\ \\u0000')
@example(curve=[0.5, -0.0], variable=False, second=False, path="trace.csv")
def test_the_summary_writer_matches_json_and_csv_writer_on_any_floats(curve, variable, second,
                                                                     path):
    # report.json's curves are laid out by json as markers, a NUL and the
    # curve's name, which no manifest string holds: a config value is a
    # number or a name, and a path cannot hold a NUL
    report = hand_built_report(variable, curve, curve[::-1] if second else [],
                               curve[-1] if curve else math.nan)
    manifest = {"config": {"seed": 5}, "seed": 5, "outputs": {"trace_csv": path}}
    assert report.output_texts(manifest) == (csv_writer_aggregate(report),
                                             json_dump_report(manifest, report))


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns a DeprecationWarning that pyproject's filters must not make an
    # error: raised there, it ends the session before the next test runs
    pytest.importorskip("libcst")
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 0\n\n\n"
        "def test_passes():\n    pass\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(pyproject), "test_pair.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr


def _readme_report_fields(class_name):
    """The report.json fields README's "Outputs of `run`" lists under ``class_name``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    item = re.search(rf"\(`{class_name}`\):(.*?)(?:\n  - |\n\n)", text, re.S)
    return re.findall(r"`(\w+)`", item.group(1))


@pytest.mark.parametrize("overrides, report_class", [
    ({}, "FixedPowerReport"),
    ({"experiment": "variable_power", "zeta": "0.5", "max_cycles": "10"}, "VariablePowerReport"),
])
def test_report_json_holds_its_experiments_fields_as_the_readme_lists_them(
        tiny_cfg, tmp_path, overrides, report_class):
    # a report carries no field of the other experiment, nor a copy of one of its own
    argv = ["run", "--config", tiny_cfg, "--out", str(tmp_path)]
    for key, value in overrides.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run_cli(*argv) == 0
    names = [f.name for f in fields(getattr(exp, report_class))]
    assert list(json.loads((tmp_path / "report.json").read_text())["report"]) == names
    listed = _readme_report_fields("AggregateReport") + _readme_report_fields(report_class)
    assert listed == names


def test_a_trial_with_no_secrecy_is_no_svd_violation(tmp_path, capsys):
    # at 1x1 the diagnostic is the trial's exact c_l - c_e: this trial ends
    # at c_s 0 against a negative diagnostic, which c_s, clamped at 0, does
    # not exceed
    out = tmp_path / "out"
    assert run_cli("run", "--config", "sub6", "--n-rx", "1", "--n-tx", "1", "--trials", "1",
                   "--max-iters", "3", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["converged_c_s_mean"] == 0.0 and report["svd_bound_mean"] < 0.0
    assert report["svd_violation_trials"] == []
    assert "note:" not in capsys.readouterr().out


def test_run_override_changes_trials(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--trials", "1") == 0
    rows = read_csv(out / "trace.csv")
    trials = {row[0] for row in rows[1:]}
    assert trials == {"0"}


OVERRIDE_FLAGS = ["--trials" if key == "n_trials" else f"--{key.replace('_', '-')}"
                  for key in SCHEMA]
SURFACE = {
    "run": (["--config", "--out", "--threads", *OVERRIDE_FLAGS], ["--n-trials", "2"]),
    "validate": (["--config", *OVERRIDE_FLAGS], ["--n-trials", "2"]),
    "gradcheck": (["--n-rx", "--n-tx", "--instances", "--corrupt"], ["--seed", "1"]),
}


@pytest.mark.parametrize("command", SURFACE)
def test_each_setting_has_one_flag(tiny_cfg, tmp_path, capsys, command):
    # one spelling per key, one source for the process count, a fixed
    # gradcheck seed: a removed spelling is an unknown argument
    expected, removed = SURFACE[command]
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = [flag for action in sub.choices[command]._actions
             for flag in action.option_strings if flag not in ("-h", "--help")]
    assert sorted(flags) == sorted(expected)
    out = tmp_path / "out"
    argv = {"run": ["--config", tiny_cfg, "--out", str(out)],
            "validate": ["--config", tiny_cfg]}.get(command, [])
    with pytest.raises(SystemExit) as exit_:
        run_cli(command, *argv, *removed)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert not out.exists()


def test_run_bad_config_exit_2(tiny_cfg, tmp_path):
    assert run_cli("run", "--config", tiny_cfg, "--out", str(tmp_path / "x"),
                   "--p-s-db", "oops") == 2
    assert run_cli("run", "--config", "no-such-file.cfg", "--out", str(tmp_path / "y")) == 2


@pytest.mark.parametrize("text, message", [
    ("n_tx = 8\nn_rx 2\n", "{path}:2: expected key=value, got 'n_rx 2'"),
    ("n_tx = 8\nn_rx = 2\nn_tx = 4\n", "{path}:3: duplicate key 'n_tx'"),
    ("n_rx = 2\nn_clusters = 2\n", "missing required key 'n_tx'"),
    ("n_tx = 8\nn_rx = 2\nn_clusters = 2\nn_rays = 3\nexperiment = variable_power\n",
     "variable-power experiment needs 'zeta'"),
], ids=["no-equals-sign", "duplicate-key", "missing-key", "variable-power-without-zeta"])
def test_a_malformed_config_file_exits_2_and_writes_nothing(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert run_cli(*argv, "--config", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message.format(path=path)}\n"
    assert not out.exists()


def test_validate_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"n_tx = 4\xff\n")
    assert run_cli("validate", "--config", str(path)) == 2
    assert f"{path}: not UTF-8 text: invalid start byte at byte 8" in capsys.readouterr().err


def test_validate_reads_a_config_that_starts_with_a_byte_order_mark(tiny_cfg, tmp_path, capsys):
    assert run_cli("validate", "--config", tiny_cfg) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + TINY.lstrip().encode())
    assert run_cli("validate", "--config", str(path)) == 0
    assert capsys.readouterr().out == plain


def test_a_bad_byte_after_a_byte_order_mark_is_named_at_its_offset(tmp_path, capsys):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfn_tx = 4\xff\n")
    assert run_cli("validate", "--config", str(path)) == 2
    assert f"{path}: not UTF-8 text: invalid start byte at byte 11" in capsys.readouterr().err


def test_a_config_file_that_cannot_be_read_exits_2_and_writes_nothing(
        tiny_cfg, tmp_path, capsys, monkeypatch):
    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(Path, "read_text", refuse)
    out = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert run_cli(*argv, "--config", tiny_cfg) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {tiny_cfg}: cannot read: "
                                f"{os.strerror(errno.EACCES)}\n")
    assert not out.exists()


def test_failed_run_leaves_no_summary_of_an_earlier_run(tiny_cfg, tmp_path, monkeypatch):
    # a run that fails after trial 0 writes trial 0's rows; the aggregate
    # and report of the good run before it must not stay beside them
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", "1") == 0
    rows = read_csv(out / "trace.csv")
    real_shard = exp._shard

    def fail_at_trial_1(cfg, start, stop):
        trials, failure = real_shard(cfg, start, min(stop, 1))
        return trials, failure or (1, RuntimeError("synthetic failure"))

    monkeypatch.setattr(exp, "_shard", fail_at_trial_1)
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", "1") == 1
    assert not (out / "report.json").exists()
    assert not (out / "aggregate.csv").exists()
    assert read_csv(out / "trace.csv") == [row for row in rows if row[0] in ("trial", "0")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_trace_write_that_fails_is_a_runtime_error(tiny_cfg, tmp_path, capsys, threads):
    # every write to /dev/full fails with ENOSPC: the run exits 1 with one
    # line naming --out, the file and the reason, and writes no summary
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", "1") == 0
    (out / "trace.csv").unlink()
    (out / "trace.csv").symlink_to("/dev/full")
    capsys.readouterr()
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", threads) == 1
    err = capsys.readouterr().err
    assert err == (f"runtime error: --out {out}: cannot write {out / 'trace.csv'}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert not (out / "aggregate.csv").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name", ["aggregate.csv", "report.json"])
def test_a_summary_write_that_fails_is_a_runtime_error(tiny_cfg, tmp_path, capsys, monkeypatch,
                                                        name):
    # a summary file whose write fails leaves neither summary behind, the
    # aggregate written before a failing report included
    out = tmp_path / "out"

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == name:
            def write(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", "1") == 1
    err = capsys.readouterr().err
    assert err == (f"runtime error: --out {out}: cannot write {out / name}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert len(read_csv(out / "trace.csv")) > 1
    assert not (out / "aggregate.csv").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--instances", "--n-rx", "--n-tx"])
def test_gradcheck_rejects_a_count_below_one(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("gradcheck", flag, value)
    assert exit_.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_gradcheck_default_and_scalar_dims():
    assert run_cli("gradcheck", "--instances", "2") == 0
    assert run_cli("gradcheck", "--n-rx", "1", "--n-tx", "1", "--instances", "2") == 0
    assert run_cli("gradcheck", "--n-rx", "4", "--n-tx", "64", "--instances", "2") == 0


def test_gradcheck_corrupt_negative_control(capsys):
    assert run_cli("gradcheck", "--instances", "1", "--corrupt") == 1
    assert "FAIL" in capsys.readouterr().out


def per_block_gradcheck_lines(n_rx, n_tx, instances, corrupt):
    """gradcheck's report built block by block: each block's gradient from
    ``gradient_bundle``, and its finite differences over states with that
    block replaced, on gradcheck's instances and seed."""
    params = ChannelParams(n_clusters=3, n_rays=4, n_rx=n_rx, n_tx=n_tx, angular_spread_deg=10.0)
    pw = PowerConfig(p_s=10.0, p_j=10.0)
    rng = np.random.default_rng(0)
    worst = {"w_l": 0.0, "f_j": 0.0, "f_s": 0.0, "w_e": 0.0}
    for _ in range(instances):
        ch = draw_channel_set(params, rng)
        bf = warm_start(params, rng)
        bundle = gradient_bundle(ch, bf, pw)
        for name in worst:
            grad = getattr(bundle, name)
            if corrupt and name == "w_l":
                grad = grad + 1e-3
            ref = fd_gradient(lambda v: capacity_difference(ch, bf._replace(**{name: v}), pw),
                              getattr(bf, name))
            worst[name] = max(worst[name], gradient_check_error(grad, ref))
    return "".join(f"grad {name}: max relative error {err:.3e}  "
                   f"[{'ok' if err < cli.GRADCHECK_TOL else 'FAIL'}]\n"
                   for name, err in worst.items())


@pytest.mark.parametrize("argv, dims, instances, corrupt", [
    (["--n-rx", "4", "--n-tx", "64"], (4, 64), 5, False),
    ([], (4, 16), 5, False),
    (["--n-rx", "1", "--n-tx", "1"], (1, 1), 5, False),
    (["--n-rx", "3", "--n-tx", "7"], (3, 7), 5, False),
    (["--instances", "1", "--corrupt"], (4, 16), 1, True),
], ids=["4x64", "4x16", "1x1", "3x7", "corrupt"])
def test_gradcheck_prints_the_per_block_check(capsys, argv, dims, instances, corrupt):
    # the packed gradient and its one finite-difference pass per instance
    # report, block by block, what each block's own check reports
    assert run_cli("gradcheck", *argv) == int(corrupt)
    assert capsys.readouterr().out == per_block_gradcheck_lines(*dims, instances, corrupt)


@pytest.mark.parametrize("value", ["0", "-4", "two", "1.5"])
def test_run_rejects_threads_below_one(tiny_cfg, tmp_path, capsys, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", value)
    assert exit_.value.code == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out_name,directory", [
    ("file", None), ("file/below", None),
    ("out", "trace.csv"), ("out", "aggregate.csv"), ("out", "report.json"),
], ids=["a-file", "below-a-file", "trace.csv", "aggregate.csv", "report.json"])
def test_run_rejects_an_out_path_that_cannot_be_a_directory(tiny_cfg, tmp_path, capsys,
                                                           monkeypatch, out_name, directory):
    # an existing file, a path below one, or an output file that is a
    # directory fails before any trial runs
    monkeypatch.setattr(exp, "_shard", None)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = tmp_path / out_name
    if directory is not None:
        (out / directory).mkdir(parents=True)
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"--out {out}" in err
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == "kept\n"
    if directory is not None:
        assert f"cannot create {out / directory}: " in err
        assert (out / directory).is_dir()
