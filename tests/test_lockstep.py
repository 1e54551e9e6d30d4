"""The lockstep ascent: a row's result does not depend on its batch.

A row's records, final state and termination reason must be bit-identical
however many rows share its batch, so the run outputs must be byte-identical
for any shard size and any worker count. The shard size is patched through
``experiment.SHARD_TRIALS``, which the study process reads when it splits
the trials; each worker gets its shards' bounds from it, so the patch holds
under any start method.
"""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secrecy_ascent as sa
import secrecy_ascent.cli as cli
import secrecy_ascent.experiment as exp
import secrecy_ascent.optimizer as opt
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
_draw, _svd, _ascend, _shard = (exp.draw_channel_set, exp.svd_upper_bound, exp.ascend_rows,
                                exp._shard)


def _poisoned_draw(params, rng):
    ch = _draw(params, rng)
    if rng.bit_generator.seed_seq.entropy == [POISONED_SEED, POISONED_TRIAL]:
        ch = sa.ChannelSet(h_sl=np.full_like(ch.h_sl, np.nan), h_se=ch.h_se,
                           h_jl=ch.h_jl, h_je=ch.h_je)
    return ch


def _poisoned_shard(cfg, start, stop):
    # module level, so that a worker imports it by name under any start
    # method; it poisons the draws of whichever process runs the shard
    exp.draw_channel_set = _poisoned_draw
    try:
        return _shard(cfg, start, stop)
    finally:
        exp.draw_channel_set = _draw


def _svd_poisoned_shard(cfg, start, stop):
    # the SVD diagnostic fails at the poisoned trial, and an ascent of that
    # trial or a later one in the shard fails the shard with another error
    trials = iter(range(start, stop))

    def svd(ch, powers):
        if next(trials) == POISONED_TRIAL:
            raise np.linalg.LinAlgError("SVD did not converge")
        return _svd(ch, powers)

    def ascend(rows, *args, **kwargs):
        if start <= POISONED_TRIAL < start + len(rows) // 2:
            raise AssertionError("ascended a trial it cannot report")
        return _ascend(rows, *args, **kwargs)

    exp.svd_upper_bound, exp.ascend_rows = svd, ascend
    try:
        return _shard(cfg, start, stop)
    finally:
        exp.svd_upper_bound, exp.ascend_rows = _svd, _ascend


def assert_a_poisoned_trial_fails_alike(tmp_path, monkeypatch, capsys, shard):
    """Run the fixed plan through ``shard`` under every sharding: each run
    fails naming the poisoned trial and the seed, with the same error and
    the trace.csv rows of exactly the trials before it."""
    monkeypatch.setattr(exp, "_shard", shard)
    text = PLANS["fixed"][0]
    traces, errors = [], []
    for shard_trials, threads in SHARDINGS:
        code, trace, _ = run_outputs(tmp_path, monkeypatch, text, shard_trials, threads)
        assert code == 1
        traces.append(trace)
        errors.append(capsys.readouterr().err)
    assert all(t == traces[0] for t in traces)
    assert all(e == errors[0] for e in errors)
    assert f"trial {POISONED_TRIAL} (master seed {POISONED_SEED}) failed" in errors[0]
    written = {int(line.split(b",")[0]) for line in traces[0].splitlines()[1:]}
    assert written == set(range(POISONED_TRIAL))
    return errors[0]


def test_poisoned_trial_fails_alike_for_any_sharding(tmp_path, monkeypatch, capsys):
    assert_a_poisoned_trial_fails_alike(tmp_path, monkeypatch, capsys, _poisoned_shard)


def test_a_failing_svd_diagnostic_fails_its_trial_alike_for_any_sharding(
        tmp_path, monkeypatch, capsys):
    # the diagnostic is taken with the draws, so no trial from the failing
    # one on is ascended
    error = assert_a_poisoned_trial_fails_alike(tmp_path, monkeypatch, capsys,
                                                _svd_poisoned_shard)
    assert error.endswith("failed: SVD did not converge\n")


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


@settings(max_examples=25, deadline=None)
@given(
    n_rx=st.integers(1, 3),
    n_tx=st.integers(1, 6),
    power_db=st.sampled_from([None, -5.0, 0.0, 10.0]),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    holds=st.lists(st.booleans(), min_size=5, max_size=5),
    variable=st.booleans(),
)
def test_lockstep_bookkeeping_invariants(n_rx, n_tx, power_db, seeds, holds, variable):
    # the iteration log is kept as per-pass columns and split per row at the
    # end; each row's records and cycles must still tell one consistent story
    p = 0.0 if power_db is None else sa.db_to_linear(power_db)
    powers = sa.PowerConfig(p_s=p, p_j=p)
    cfg = sa.OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=3.0 if variable else None,
                             mu=sa.db_to_linear(12.0), kappa=0.2, max_cycles=4)
    results, error = ascend_rows(rows_of(n_rx, n_tx, powers, seeds, holds), cfg,
                                 variable=variable)
    assert error is None
    for res in results:
        trace = res.trace
        records, cycles = trace.records, trace.cycles
        assert records[0].iteration == 0 and records[0].cycle == 1
        assert [c.cycle for c in cycles] == list(range(1, len(cycles) + 1))
        for a, b in zip(records, records[1:]):
            assert b.cycle > a.cycle or (b.cycle == a.cycle and b.iteration > a.iteration)
        for rec in records:
            assert rec.p_s == cycles[rec.cycle - 1].p_s
            clamped = max(rec.c_l - rec.c_e, 0.0)
            assert np.float64(rec.c_s).tobytes() == np.float64(clamped).tobytes()
        for a, b in zip(cycles, cycles[1:]):
            assert b.p_s == a.p_s + cfg.kappa * a.p_s
        assert res.p_s == cycles[-1].p_s
        assert sum(c.n_iters for c in cycles) == trace.n_iters
        back = pickle.loads(pickle.dumps(trace))
        assert back.log.dtype == trace.log.dtype
        assert back.log.tobytes() == trace.log.tobytes()
        assert back.records == records
        assert all(type(r) is type(records[0]) for r in back.records)


@settings(max_examples=25, deadline=None)
@given(
    n_rx=st.integers(1, 3),
    n_tx=st.integers(1, 6),
    power_db=st.floats(-10.0, 20.0),
    sigma2_l=st.floats(0.25, 4.0),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    holds=st.lists(st.booleans(), min_size=5, max_size=5),
    variable=st.booleans(),
)
def test_legitimate_capacity_stays_under_its_single_link_bound(
        n_rx, n_tx, power_db, sigma2_l, seeds, holds, variable):
    # |w_l^H H_sl f_s|^2 <= |w_l|^2 sigma_max(H_sl)^2 |f_s|^2, |f_s| = 1 on
    # the CA manifold and jamming only adds to the denominator, so
    # c_l <= log2(1 + p_s sigma_max(H_sl)^2 / sigma_l^2) at every iterate
    powers = sa.PowerConfig(p_s=sa.db_to_linear(power_db), p_j=sa.db_to_linear(power_db),
                            sigma2_l=sigma2_l)
    cfg = sa.OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=3.0 if variable else None,
                             mu=sa.db_to_linear(25.0), kappa=0.2, max_cycles=4)
    rows = rows_of(n_rx, n_tx, powers, seeds, holds)
    results, error = ascend_rows(rows, cfg, variable=variable)
    assert error is None and len(results) == len(rows)
    for row, res in zip(rows, results):
        gain = np.linalg.svd(row.channel.h_sl, compute_uv=False)[0] ** 2 / sigma2_l

        def bound(p_s):
            return math.log2(1.0 + p_s * gain) * (1.0 + 1e-12)

        for rec in res.trace.records:
            assert rec.c_l <= bound(rec.p_s)
        # the snapshot is of the last cycle's final iterate, at that cycle's
        # power
        assert res.snapshot.c_l <= bound(res.p_s)
        assert res.snapshot.c_s <= res.snapshot.c_l


@pytest.mark.parametrize("variable", [False, True])
def test_log_agrees_with_an_independent_evaluator(variable):
    # on_accept sees every accepted iterate; each one's record must carry
    # the c_l and c_e that reference.secrecy_capacity, a separate evaluation
    # path, gives for it at the record's p_s, in a batch mixing held and
    # optimized w_e
    powers = sa.PowerConfig(p_s=sa.db_to_linear(5.0), p_j=sa.db_to_linear(3.0),
                            sigma2_l=0.7, sigma2_e=1.3)
    cfg = sa.OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=1e6 if variable else None,
                             mu=sa.db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(3, 6, powers, range(30, 36), [True, False, False, True, True, False])
    seen = {i: [] for i in range(len(rows))}
    results, error = ascend_rows(rows, cfg, variable=variable,
                                 on_accept=lambda i, state: seen[i].append(state))
    assert error is None and len(results) == len(rows)
    for i, (row, res) in enumerate(zip(rows, results)):
        records = res.trace.records
        assert len(seen[i]) == len(records) - 1 > 0
        if variable:
            assert len(res.trace.cycles) > 1
        for rec, state in zip(records, [row.init] + seen[i]):
            pw = sa.PowerConfig(p_s=rec.p_s, p_j=powers.p_j, sigma2_l=powers.sigma2_l,
                                sigma2_e=powers.sigma2_e)
            snap = sa.secrecy_capacity(row.channel, state, pw)
            # the kernel takes each capacity as log2(den1) - log2(den0), so
            # its rounding is relative to the record's larger capacity: an
            # optimized w_e drives c_e far below it
            scale = max(abs(rec.c_l), abs(rec.c_e))
            assert abs(snap.c_l - rec.c_l) <= 1e-12 * scale
            assert abs(snap.c_e - rec.c_e) <= 1e-12 * scale


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


def assert_a_poisoned_step_fails_its_row(monkeypatch, value, at=0, bad=3, variable=False,
                                         max_iters=30):
    """Write ``value`` at ``at`` into row ``bad``'s third step, of four rows:
    that row fails on the third pass, the rows before it finish as when run
    alone, and no row from it on is observed from that pass on. Returns the
    error."""
    cfg = sa.OptimizerConfig(max_iters=max_iters, zeta=1e6 if variable else None,
                             mu=sa.db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(2, 5, sa.PowerConfig(p_s=10.0, p_j=10.0), range(4), [True, False] * 2)
    project = opt._project_packed
    calls, seen = [], []

    def poison_third_pass(kernel, y, mag=None):
        calls.append(len(y))
        if len(calls) == 3:
            y[bad, at] = value
        return project(kernel, y, mag)

    monkeypatch.setattr(opt, "_project_packed", poison_third_pass)
    with np.errstate(invalid="ignore" if value == np.inf else "warn"):  # inf * 0
        results, error = ascend_rows(rows, cfg, variable,
                                     on_accept=lambda i, state: seen.append((len(calls), i)))
    assert calls[2] == len(rows)  # no row had left the batch
    assert isinstance(error, ValueError) and len(results) == bad
    assert [i for n_pass, i in seen if n_pass >= 3 and i >= bad] == []
    monkeypatch.setattr(opt, "_project_packed", project)
    for row, res in zip(rows, results):
        assert same_result(ascend_rows([row], cfg, variable)[0][0], res)
    return error


def test_a_non_finite_step_fails_its_row(monkeypatch):
    # the projection used to give a NaN entry phase zero, so a NaN step came
    # back as a feasible iterate; the row must fail instead
    error = assert_a_poisoned_step_fails_its_row(monkeypatch, np.nan)
    assert str(error) == "cannot project a non-finite vector at cycle 1, iteration 3"


def test_an_infinite_step_fails_its_row_as_a_non_finite_step(monkeypatch):
    # an infinite entry passes the projection's guard and comes out NaN
    # (inf * 0); the row must fail naming its step, not its objective
    error = assert_a_poisoned_step_fails_its_row(monkeypatch, np.inf)
    assert str(error) == "cannot project a non-finite vector at cycle 1, iteration 3"


@pytest.mark.parametrize("max_iters", [3, 30])
@pytest.mark.parametrize("variable", [False, True])
@pytest.mark.parametrize("bad", [1, 3])
def test_a_failed_row_and_the_rows_after_it_leave_the_batch_at_once(
        monkeypatch, bad, variable, max_iters):
    # the rows after the failed one used to be decided on the failing pass,
    # so their iterates reached on_accept although they were never returned;
    # at max_iters 3 the failing pass is also the survivors' cap pass
    error = assert_a_poisoned_step_fails_its_row(monkeypatch, np.nan, bad=bad,
                                                 variable=variable, max_iters=max_iters)
    assert str(error) == "cannot project a non-finite vector at cycle 1, iteration 3"


def test_a_zero_step_block_fails_its_row(monkeypatch):
    # a zero f_j has no direction to keep: the projection's degenerate path
    error = assert_a_poisoned_step_fails_its_row(monkeypatch, 0.0, at=slice(-5, None), bad=1)
    assert str(error) == "cannot project a zero step block at cycle 1, iteration 3"


def test_a_non_finite_objective_of_a_finite_step_fails_its_row(monkeypatch):
    rows = rows_of(2, 5, sa.PowerConfig(p_s=10.0, p_j=10.0), range(4), [True, False] * 2)
    evaluate = opt.LinkKernel.evaluate
    calls = []

    def poison_third_pass(kernel, lk):  # the first evaluation is the start's
        evaluate(kernel, lk)
        calls.append(len(lk.diff))
        if len(calls) == 4:
            lk.diff[1] = np.inf

    monkeypatch.setattr(opt.LinkKernel, "evaluate", poison_third_pass)
    results, error = ascend_rows(rows, sa.OptimizerConfig(max_iters=30))
    assert calls[3] == len(rows)
    assert len(results) == 1 and str(error) == "non-finite objective at cycle 1, iteration 3"


def test_a_non_finite_objective_at_a_restart_names_its_cycle(monkeypatch):
    # the check at a cycle's start named the initial state at every cycle;
    # an infinite power, as a long power ramp can reach, fails the row as it
    # restarts its third cycle
    cfg = sa.OptimizerConfig(max_iters=30, zeta=1e6, mu=sa.db_to_linear(12.0), kappa=0.2,
                             max_cycles=4)
    rows = rows_of(2, 5, sa.PowerConfig(p_s=10.0, p_j=10.0), [0], [True])
    set_p_s, restarts = opt.LinkKernel.set_p_s, []

    def poison_second_restart(kernel, p_s):
        restarts.append(p_s)
        set_p_s(kernel, np.full_like(p_s, np.inf) if len(restarts) == 2 else p_s)

    monkeypatch.setattr(opt.LinkKernel, "set_p_s", poison_second_restart)
    with np.errstate(invalid="ignore"):  # inf - inf
        results, error = ascend_rows(rows, cfg, variable=True)
    assert len(restarts) == 2
    assert results == [] and str(error) == "non-finite objective at cycle 3, iteration 0"


def test_a_start_off_the_ca_manifold_fails_its_row():
    rows = rows_of(2, 4, sa.PowerConfig(p_s=1.0, p_j=1.0), range(3), [True] * 3)
    off = rows[1].init.copy()
    off.f_s = off.f_s * 2.0
    rows[1] = AscentRow(rows[1].channel, rows[1].powers, off)
    results, error = ascend_rows(rows, sa.OptimizerConfig(max_iters=10))
    assert len(results) == 1 and "constant-amplitude" in str(error)
