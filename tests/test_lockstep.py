"""The lockstep ascent: a row's result does not depend on its batch.

A row's records, final state and termination reason must be bit-identical
however many rows share its batch, so the run outputs must be byte-identical
for any shard size and any worker count. The shard size is patched through
``experiment.SHARD_TRIALS``; worker processes fork after the patch.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secrecy_ascent as sa
import secrecy_ascent.cli as cli
import secrecy_ascent.experiment as exp
from secrecy_ascent.optimizer import AscentRow, ascend_rows

N_TRIALS = 9
BASE = """n_tx = 6
n_rx = 2
n_clusters = 2
n_rays = 3
n_trials = 9
epsilon = 1e-4
"""
# each plan's rows end for every reason its experiment has
PLANS = {
    "fixed": (BASE + "experiment = fixed_power\nseed = 11\nmax_iters = 150\n",
              {"converged", "iter_cap"}),
    "variable-power-cap": (BASE + "experiment = variable_power\nseed = 12\np_s_db = 0\n"
                           "zeta = 4.0\nmu_db = 0.15\nmax_cycles = 6\nmax_iters = 40\n",
                           {"target_reached", "power_cap"}),
    "variable-cycle-cap": (BASE + "experiment = variable_power\nseed = 12\np_s_db = 0\n"
                           "zeta = 4.0\nmu_db = 2\nmax_cycles = 6\nmax_iters = 40\n",
                           {"target_reached", "cycle_cap"}),
}
SHARDINGS = [(shard, threads) for shard in (1, 7, N_TRIALS) for threads in (1, 2)]


def run_outputs(tmp_path, monkeypatch, text, shard, threads):
    """(exit code, trace.csv bytes, report.json without its duration) of one run."""
    path = tmp_path / "plan.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    monkeypatch.setattr(exp, "SHARD_TRIALS", shard)
    code = cli.main(["run", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)])
    trace = (out / "trace.csv").read_bytes()
    report = None
    if code == 0:
        report = json.loads((out / "report.json").read_text())
        del report["manifest"]["duration_s"]
    return code, trace, report


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_outputs_independent_of_shard_size_and_threads(plan, tmp_path, monkeypatch, capsys):
    text, reasons = PLANS[plan]
    outputs = [run_outputs(tmp_path, monkeypatch, text, shard, threads)
               for shard, threads in SHARDINGS]
    code, trace, report = outputs[0]
    assert code == 0
    assert set(report["report"]["termination_reasons"]) == reasons
    for sharding, (code_k, trace_k, report_k) in zip(SHARDINGS[1:], outputs[1:]):
        assert code_k == 0, sharding
        assert trace_k == trace, sharding
        assert report_k == report, sharding


POISONED_SEED, POISONED_TRIAL = 11, 4
_draw = exp.draw_channel_set


def _poisoned_draw(params, rng):
    # module level: pool workers fork with this patched in
    ch = _draw(params, rng)
    if rng.bit_generator.seed_seq.entropy == [POISONED_SEED, POISONED_TRIAL]:
        ch = sa.ChannelSet(h_sl=np.full_like(ch.h_sl, np.nan), h_se=ch.h_se,
                           h_jl=ch.h_jl, h_je=ch.h_je)
    return ch


def test_poisoned_trial_fails_alike_for_any_sharding(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(exp, "draw_channel_set", _poisoned_draw)
    text = PLANS["fixed"][0]
    traces, errors = [], []
    for shard, threads in SHARDINGS:
        code, trace, _ = run_outputs(tmp_path, monkeypatch, text, shard, threads)
        assert code == 1
        traces.append(trace)
        errors.append(capsys.readouterr().err)
    assert all(t == traces[0] for t in traces)
    assert all(e == errors[0] for e in errors)
    assert f"trial {POISONED_TRIAL} (master seed {POISONED_SEED}) failed" in errors[0]
    written = {int(line.split(b",")[0]) for line in traces[0].splitlines()[1:]}
    assert written == set(range(POISONED_TRIAL))


def rows_of(n_rx, n_tx, powers, seeds, holds):
    params = sa.ChannelParams(n_clusters=2, n_rays=2, n_rx=n_rx, n_tx=n_tx,
                              angular_spread_deg=10.0)
    rows = []
    for seed, hold in zip(seeds, holds):
        rng = np.random.default_rng(seed)
        ch = sa.draw_channel_set(params, rng)
        rows.append(AscentRow(ch, powers, sa.warm_start(params, rng), optimize_we=not hold))
    return rows


def same_result(a, b):
    return (a.trace.records == b.trace.records and a.trace.cycles == b.trace.cycles
            and a.trace.reason is b.trace.reason and a.trace.n_iters == b.trace.n_iters
            and a.p_s == b.p_s and a.snapshot == b.snapshot
            and all(u.tobytes() == v.tobytes()
                    for u, v in zip(a.state.vectors(), b.state.vectors())))


@settings(max_examples=25, deadline=None)
@given(
    n_rx=st.integers(1, 3),
    n_tx=st.integers(1, 6),
    power_db=st.sampled_from([None, -5.0, 0.0, 10.0]),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    holds=st.lists(st.booleans(), min_size=5, max_size=5),
    variable=st.booleans(),
)
def test_lockstep_rows_are_monotone_feasible_and_batch_independent(
        n_rx, n_tx, power_db, seeds, holds, variable):
    # None: p_s = p_j = 0, where every gradient vanishes
    p = 0.0 if power_db is None else sa.db_to_linear(power_db)
    powers = sa.PowerConfig(p_s=p, p_j=p)
    cfg = sa.OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=3.0 if variable else None,
                             mu=sa.db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(n_rx, n_tx, powers, seeds, holds)
    results, error = ascend_rows(rows, cfg, variable=variable)
    assert error is None and len(results) == len(rows)
    for row, res in zip(rows, results):
        by_cycle = {}
        for rec in res.trace.records:
            by_cycle.setdefault(rec.cycle, []).append(rec.c_l - rec.c_e)
        for diffs in by_cycle.values():
            assert all(b >= a for a, b in zip(diffs, diffs[1:]))
        assert sa.state_ca_violation(res.state) <= 1e-9
        if row.optimize_we is False:
            assert res.state.w_e.tobytes() == row.init.w_e.tobytes()
        alone, alone_error = ascend_rows([row], cfg, variable=variable)
        assert alone_error is None
        assert same_result(alone[0], res)


def test_rows_before_a_failed_row_finish_and_the_rest_are_dropped():
    cfg = sa.OptimizerConfig(max_iters=30)
    rows = rows_of(2, 5, sa.PowerConfig(p_s=10.0, p_j=10.0), range(5), [True, False] * 3)
    ch = rows[2].channel
    poisoned = sa.ChannelSet(h_sl=ch.h_sl, h_se=ch.h_se, h_jl=np.full_like(ch.h_jl, np.nan),
                             h_je=ch.h_je)
    rows[2] = AscentRow(poisoned, rows[2].powers, rows[2].init)
    results, error = ascend_rows(rows, cfg)
    assert isinstance(error, ValueError) and "non-finite objective" in str(error)
    assert len(results) == 2
    for row, res in zip(rows, results):
        assert same_result(ascend_rows([row], cfg)[0][0], res)
    with pytest.raises(ValueError, match="non-finite objective at the initial state"):
        sa.ascend_fixed_power(rows[2].channel, rows[2].powers, cfg, rows[2].init)


def test_a_start_off_the_ca_manifold_fails_its_row():
    rows = rows_of(2, 4, sa.PowerConfig(p_s=1.0, p_j=1.0), range(3), [True] * 3)
    off = rows[1].init.copy()
    off.f_s = off.f_s * 2.0
    rows[1] = AscentRow(rows[1].channel, rows[1].powers, off)
    results, error = ascend_rows(rows, sa.OptimizerConfig(max_iters=10))
    assert len(results) == 1 and "constant-amplitude" in str(error)
