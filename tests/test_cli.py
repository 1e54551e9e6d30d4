import csv
import io
import json
import math
import os
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import secrecy_ascent.cli as cli
import secrecy_ascent.experiment as exp
from secrecy_ascent.cli import TRACE_HEADER
from secrecy_ascent.config import SCHEMA

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


def test_validate_bundled_presets(capsys):
    assert run_cli("validate", "--config", "mmwave") == 0
    out = capsys.readouterr().out
    assert "n_tx = 64" in out and "n_clusters = 4" in out
    assert run_cli("validate", "--config", "sub6") == 0
    out = capsys.readouterr().out
    assert "n_tx = 16" in out and "n_clusters = 10" in out and "n_rays = 20" in out


def test_validate_reports_field_errors(tiny_cfg, capsys):
    assert run_cli("validate", "--config", tiny_cfg, "--n-trials", "0") == 2
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
])
def test_trace_rows_match_per_record_formatting(tiny_cfg, tmp_path, overrides):
    # trace.csv reuses the text of repeated delta and p_s values; it must be
    # byte-identical to formatting every field of every record
    argv = ["run", "--config", tiny_cfg, "--out", str(tmp_path)]
    for key, value in overrides.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run_cli(*argv) == 0
    cfg = cli.build_system_config(cli.resolve_config_file(tiny_cfg, overrides))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)

    def write(i, res, *_):
        writer.writerows([i, r.cycle, r.iteration, r.c_s, r.c_l, r.c_e, r.delta,
                          10.0 * math.log10(r.p_s)] for r in res.trace.records)

    if overrides:
        cli.run_variable_power_experiment(cfg, on_trial=write)
        assert len({row[7] for row in csv.reader(io.StringIO(buf.getvalue()))}) > 3
    else:
        cli.run_fixed_power_experiment(cfg, on_trial=write)
    assert (tmp_path / "trace.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("overrides", [
    {"epsilon": "1e-3", "max_iters": "400"},  # the longest ascent optimizes w_e
    {"epsilon": "1e-3", "max_iters": "400", "seed": "6"},  # too, by three passes
    {"experiment": "variable_power", "zeta": "1000", "mu_db": "12", "kappa": "0.1",
     "max_iters": "40"},
    {"epsilon": "1e-3", "max_iters": "400", "seed": "8"},  # the longest one holds w_e
])
def test_finalize_matches_asdict_and_csv_writer(tiny_cfg, tmp_path, overrides):
    # report.json and aggregate.csv are written from shallow field dicts and
    # one format per row; they must be byte-identical to dumping
    # dataclasses.asdict with json.dump(indent=2) and writing the rows
    # through csv.writer
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
        def observe(i, res, res_opt, bound):
            passes.append((res.trace.n_iters, res_opt.trace.n_iters))

        report = cli.run_fixed_power_experiment(cfg, on_trial=observe)
    written = json.loads((tmp_path / "report.json").read_text())
    manifest = cli.RunManifest(**written["manifest"])
    buf = io.StringIO()
    json.dump({"manifest": asdict(manifest), "report": asdict(report)}, buf, indent=2)
    buf.write("\n")
    assert (tmp_path / "report.json").read_text() == buf.getvalue()

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if variable:
        writer.writerow(["cycle", "c_s_mean", "p_s_db_mean"])
        writer.writerows([k, c_s, p_db] for k, (c_s, p_db) in enumerate(
            zip(report.c_s_mean_curve, report.p_s_db_mean_curve), start=1))
    else:
        # the longest ascents of the two sets differ, and both curves are
        # padded to one length: aggregate.csv is the report's columns
        held, optimized = (max(n) for n in zip(*passes))
        assert held != optimized
        main, opt = report.c_s_mean_curve, report.c_s_we_opt_mean_curve
        assert len(main) == len(opt) == max(held, optimized) + 1
        writer.writerow(["iteration", "c_s_mean", "c_s_we_opt_mean", "svd_bound_mean"])
        writer.writerows([t, c_s, c_s_opt, report.svd_bound_mean]
                         for t, (c_s, c_s_opt) in enumerate(zip(main, opt)))
    assert len(buf.getvalue().splitlines()) > 3
    assert (tmp_path / "aggregate.csv").read_bytes() == buf.getvalue().encode()


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


def test_run_override_changes_trials(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--trials", "1") == 0
    rows = read_csv(out / "trace.csv")
    trials = {row[0] for row in rows[1:]}
    assert trials == {"0"}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("flags", [["--trials", "2", "--n-trials", "3"],
                                   ["--n-trials", "3", "--trials", "2"]])
def test_trials_and_its_alias_together_exit_2(tiny_cfg, tmp_path, capsys, command, flags):
    # --trials is an alias of --n-trials: given both, neither may win silently
    out = tmp_path / "out"
    argv = [command, "--config", tiny_cfg, *(["--out", str(out)] if command == "run" else [])]
    with pytest.raises(SystemExit) as exit_:
        run_cli(*argv, *flags)
    assert exit_.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "not allowed with argument" in message
    assert "--trials" in message and "--n-trials" in message
    assert not out.exists()


def test_run_bad_config_exit_2(tiny_cfg, tmp_path):
    assert run_cli("run", "--config", tiny_cfg, "--out", str(tmp_path / "x"),
                   "--p-s-db", "oops") == 2
    assert run_cli("run", "--config", "no-such-file.cfg", "--out", str(tmp_path / "y")) == 2


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


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--instances", "--n-rx", "--n-tx"])
def test_gradcheck_rejects_a_count_below_one(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("gradcheck", flag, value)
    assert exit_.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_gradcheck_rejects_a_negative_seed(capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("gradcheck", "--seed", "-1")
    assert exit_.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_gradcheck_default_and_scalar_dims():
    assert run_cli("gradcheck", "--instances", "2") == 0
    assert run_cli("gradcheck", "--n-rx", "1", "--n-tx", "1", "--instances", "2") == 0
    assert run_cli("gradcheck", "--n-rx", "4", "--n-tx", "64", "--instances", "2") == 0


def test_gradcheck_corrupt_negative_control(capsys):
    assert run_cli("gradcheck", "--instances", "1", "--corrupt") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-4"])
def test_run_rejects_threads_below_one(tiny_cfg, tmp_path, capsys, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        run_cli("run", "--config", tiny_cfg, "--out", str(out), "--threads", value)
    assert exit_.value.code == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-4", "bogus", "2.5"])
def test_run_rejects_threads_env_below_one(tiny_cfg, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SECRECY_ASCENT_THREADS", value)
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out)) == 2
    assert "SECRECY_ASCENT_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_threads_env_fallback(monkeypatch):
    monkeypatch.delenv("SECRECY_ASCENT_THREADS", raising=False)
    assert cli._default_threads() == 1
    monkeypatch.setenv("SECRECY_ASCENT_THREADS", "")
    assert cli._default_threads() == 1
    monkeypatch.setenv("SECRECY_ASCENT_THREADS", "3")
    assert cli._default_threads() == 3


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
