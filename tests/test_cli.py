import csv
import io
import json
import math
import os
from dataclasses import asdict

import pytest

import secrecy_ascent.cli as cli
from secrecy_ascent.cli import TRACE_HEADER

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


def test_validate_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY + "mystery_knob = 3\n")
    assert run_cli("validate", "--config", str(bad)) == 2
    assert "mystery_knob" in capsys.readouterr().err


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
    {"epsilon": "1e-3", "max_iters": "400"},  # the w_e-held curve is the longer one
    {"epsilon": "1e-3", "max_iters": "400", "seed": "6"},  # the w_e-optimized one is
    {"experiment": "variable_power", "zeta": "1000", "mu_db": "12", "kappa": "0.1",
     "max_iters": "40"},
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
    if variable:
        report = cli.run_variable_power_experiment(cfg)
    else:
        report = cli.run_fixed_power_experiment(cfg)
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
        main, opt = report.c_s_mean_curve, report.c_s_we_opt_mean_curve
        assert len(main) != len(opt)
        writer.writerow(["iteration", "c_s_mean", "c_s_we_opt_mean", "svd_bound_mean"])
        writer.writerows([t, main[min(t, len(main) - 1)], opt[min(t, len(opt) - 1)],
                          report.svd_bound_mean] for t in range(max(len(main), len(opt))))
    assert len(buf.getvalue().splitlines()) > 3
    assert (tmp_path / "aggregate.csv").read_bytes() == buf.getvalue().encode()


def test_run_override_changes_trials(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", tiny_cfg, "--out", str(out), "--trials", "1") == 0
    rows = read_csv(out / "trace.csv")
    trials = {row[0] for row in rows[1:]}
    assert trials == {"0"}


def test_run_bad_config_exit_2(tiny_cfg, tmp_path):
    assert run_cli("run", "--config", tiny_cfg, "--out", str(tmp_path / "x"),
                   "--p-s-db", "oops") == 2
    assert run_cli("run", "--config", "no-such-file.cfg", "--out", str(tmp_path / "y")) == 2


def test_gradcheck_default_and_scalar_dims():
    assert run_cli("gradcheck", "--instances", "2") == 0
    assert run_cli("gradcheck", "--n-rx", "1", "--n-tx", "1", "--instances", "2") == 0
    assert run_cli("gradcheck", "--n-rx", "4", "--n-tx", "64", "--instances", "2") == 0


def test_gradcheck_corrupt_negative_control(capsys):
    assert run_cli("gradcheck", "--instances", "1", "--corrupt") == 1
    assert "FAIL" in capsys.readouterr().out


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("SECRECY_ASCENT_THREADS", "3")
    assert cli._default_threads() == 3
    monkeypatch.setenv("SECRECY_ASCENT_THREADS", "bogus")
    assert cli._default_threads() == 1
    monkeypatch.delenv("SECRECY_ASCENT_THREADS")
    assert cli._default_threads() == 1
