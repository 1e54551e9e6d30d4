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
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import record_accepted
import secrecy_ascent.cli as cli
import secrecy_ascent.experiment as exp
import secrecy_ascent.optimizer as opt
from secrecy_ascent.channel import ChannelParams, ChannelSet, draw_channel_set
from secrecy_ascent.config import load_config
from secrecy_ascent.metrics import PowerConfig, db_to_linear
from secrecy_ascent.optimizer import (AscentRow, OptimizerConfig, TerminationReason,
                                      ascend_fixed_power, ascend_rows, project_ca,
                                      state_ca_violation, warm_start)
from secrecy_ascent.reference import secrecy_capacity

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
        ch = ChannelSet(h_sl=np.full_like(ch.h_sl, np.nan), h_se=ch.h_se,
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
    params = ChannelParams(n_clusters=2, n_rays=2, n_rx=n_rx, n_tx=n_tx,
                           angular_spread_deg=10.0)
    rows = []
    for seed, hold in zip(seeds, holds):
        rng = np.random.default_rng(seed)
        ch = draw_channel_set(params, rng)
        rows.append(AscentRow(ch, powers, warm_start(params, rng), optimize_we=not hold))
    return rows


def same_result(a, b):
    return (a.trace.records == b.trace.records and a.trace.cycles == b.trace.cycles
            and a.trace.reason is b.trace.reason and a.trace.n_iters == b.trace.n_iters
            and (a.c_l, a.c_e) == (b.c_l, b.c_e)
            and all(u.tobytes() == v.tobytes()
                    for u, v in zip(a.state, b.state)))


@settings(max_examples=25, deadline=None)
@given(
    n_rx=st.integers(1, 3),
    n_tx=st.integers(1, 6),
    power_db=st.sampled_from([None, -5.0, 0.0, 10.0]),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    holds=st.lists(st.booleans(), min_size=5, max_size=5),
    variable=st.booleans(),
)
# both held rows converge (at passes 24 and 33) before the two optimized rows
# reach the cap at 40, so the batch's last passes hold no row's w_e
@example(n_rx=1, n_tx=2, power_db=10.0, seeds=[4, 5, 6, 7],
         holds=[True, False, True, False, False], variable=False)
def test_lockstep_rows_are_monotone_feasible_and_batch_independent(
        n_rx, n_tx, power_db, seeds, holds, variable):
    # None: p_s = p_j = 0, where every gradient vanishes
    p = 0.0 if power_db is None else db_to_linear(power_db)
    powers = PowerConfig(p_s=p, p_j=p)
    cfg = OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=3.0,
                          mu=db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(n_rx, n_tx, powers, seeds, holds)
    results, error = ascend_rows(rows, cfg, variable=variable)
    assert error is None and len(results) == len(rows)
    for row, res in zip(rows, results):
        by_cycle = {}
        for rec in res.trace.records:
            by_cycle.setdefault(rec.cycle, []).append(rec.c_l - rec.c_e)
        for diffs in by_cycle.values():
            assert all(b >= a for a, b in zip(diffs, diffs[1:]))
        assert state_ca_violation(res.state) <= 1e-9
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
# rows that end at passes 24, 33, 40 and 40, each counting its own passes
@example(n_rx=1, n_tx=2, power_db=10.0, seeds=[4, 5, 6, 7],
         holds=[True, False, True, False, False], variable=False)
def test_lockstep_bookkeeping_invariants(n_rx, n_tx, power_db, seeds, holds, variable):
    # the iteration log is kept as per-pass columns and split per row at the
    # end; each row's records and cycles must still tell one consistent story
    p = 0.0 if power_db is None else db_to_linear(power_db)
    powers = PowerConfig(p_s=p, p_j=p)
    cfg = OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=3.0,
                          mu=db_to_linear(12.0), kappa=0.2, max_cycles=4)
    results, error = ascend_rows(rows_of(n_rx, n_tx, powers, seeds, holds), cfg,
                                 variable=variable)
    assert error is None
    for res in results:
        trace = res.trace
        records, cycles = trace.records, trace.cycles
        assert records[0].iteration == 0 and records[0].cycle == 1
        for a, b in zip(records, records[1:]):
            assert b.cycle > a.cycle or (b.cycle == a.cycle and b.iteration > a.iteration)
        for a, b in zip(cycles, cycles[1:]):
            assert b.p_s == a.p_s + cfg.kappa * a.p_s
        assert cycles[-1].c_s == max(res.c_l - res.c_e, 0.0)
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
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=5),
    holds=st.lists(st.booleans(), min_size=5, max_size=5),
    variable=st.booleans(),
)
def test_legitimate_capacity_stays_under_its_single_link_bound(
        n_rx, n_tx, power_db, seeds, holds, variable):
    # |w_l^H H_sl f_s|^2 <= |w_l|^2 sigma_max(H_sl)^2 |f_s|^2, |f_s| = 1 on
    # the CA manifold and jamming only adds to the denominator, so at unit
    # noise c_l <= log2(1 + p_s sigma_max(H_sl)^2) at every iterate
    powers = PowerConfig(p_s=db_to_linear(power_db), p_j=db_to_linear(power_db))
    cfg = OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=3.0,
                          mu=db_to_linear(25.0), kappa=0.2, max_cycles=4)
    rows = rows_of(n_rx, n_tx, powers, seeds, holds)
    results, error = ascend_rows(rows, cfg, variable=variable)
    assert error is None and len(results) == len(rows)
    for row, res in zip(rows, results):
        gain = np.linalg.svd(row.channel.h_sl, compute_uv=False)[0] ** 2

        def bound(p_s):
            return math.log2(1.0 + p_s * gain) * (1.0 + 1e-12)

        for rec in res.trace.records:
            assert rec.c_l <= bound(res.trace.cycles[rec.cycle - 1].p_s)
        # the result's c_l is of the last cycle's final iterate, at that
        # cycle's power
        assert res.c_l <= bound(res.trace.cycles[-1].p_s)
        assert res.trace.cycles[-1].c_s <= res.c_l


@pytest.mark.parametrize("variable", [False, True])
def test_log_agrees_with_an_independent_evaluator(monkeypatch, variable):
    # each accepted iterate's record must carry the c_l and c_e that
    # reference.secrecy_capacity, a separate evaluation path, gives for it at
    # its cycle's p_s, in a batch mixing held and optimized w_e
    powers = PowerConfig(p_s=db_to_linear(5.0), p_j=db_to_linear(3.0))
    cfg = OptimizerConfig(max_iters=40, epsilon=1e-6, zeta=1e6,
                          mu=db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(3, 6, powers, range(30, 36), [True, False, False, True, True, False])
    accepted = record_accepted(monkeypatch)
    results, error = ascend_rows(rows, cfg, variable=variable)
    assert error is None and len(results) == len(rows)
    seen = {i: [state for _, row, state in accepted if row == i] for i in range(len(rows))}
    for i, (row, res) in enumerate(zip(rows, results)):
        records = res.trace.records
        assert len(seen[i]) == len(records) - 1 > 0
        if variable:
            assert len(res.trace.cycles) > 1
        for rec, state in zip(records, [row.init] + seen[i]):
            pw = PowerConfig(p_s=res.trace.cycles[rec.cycle - 1].p_s, p_j=powers.p_j)
            snap = secrecy_capacity(row.channel, state, pw)
            # the kernel takes each capacity as log2(den1) - log2(den0), so
            # its rounding is relative to the record's larger capacity: an
            # optimized w_e drives c_e far below it
            scale = max(abs(rec.c_l), abs(rec.c_e))
            assert abs(snap.c_l - rec.c_l) <= 1e-12 * scale
            assert abs(snap.c_e - rec.c_e) <= 1e-12 * scale


def test_rows_before_a_failed_row_finish_and_the_rest_are_dropped():
    cfg = OptimizerConfig(max_iters=30)
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(5), [True, False] * 3)
    ch = rows[2].channel
    poisoned = ChannelSet(h_sl=ch.h_sl, h_se=ch.h_se, h_jl=np.full_like(ch.h_jl, np.nan),
                          h_je=ch.h_je)
    rows[2] = AscentRow(poisoned, rows[2].powers, rows[2].init)
    results, error = ascend_rows(rows, cfg)
    assert isinstance(error, ValueError) and "non-finite objective" in str(error)
    assert len(results) == 2
    for row, res in zip(rows, results):
        assert same_result(ascend_rows([row], cfg)[0][0], res)
    with pytest.raises(ValueError, match="non-finite objective at the initial state"):
        ascend_fixed_power(rows[2].channel, rows[2].powers, cfg, rows[2].init)


def assert_a_poisoned_step_fails_its_row(monkeypatch, value, bad=3, variable=False, max_iters=30):
    """Write ``value`` into the first entry of row ``bad``'s third step, of
    four rows: that row fails on the third pass, the rows before it finish
    as when run alone, and no row from it on is observed from that pass on.
    Returns the error."""
    cfg = OptimizerConfig(max_iters=max_iters, zeta=1e6,
                          mu=db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(4), [True, False] * 2)
    project = opt._project_packed
    calls, seen = [], record_accepted(monkeypatch)

    def poison_third_pass(ca, y, mag):
        calls.append(len(y))
        if len(calls) == 3:
            y[bad, 0] = value
        return project(ca, y, mag)

    monkeypatch.setattr(opt, "_project_packed", poison_third_pass)
    with np.errstate(invalid="ignore" if value == np.inf else "warn"):  # inf * 0
        results, error = ascend_rows(rows, cfg, variable)
    assert calls[2] == len(rows)  # no row had left the batch
    assert isinstance(error, ValueError) and len(results) == bad
    assert [i for n_pass, i, _ in seen if n_pass >= 3 and i >= bad] == []
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
    # so their iterates were observed although they were never returned;
    # at max_iters 3 the failing pass is also the survivors' cap pass
    error = assert_a_poisoned_step_fails_its_row(monkeypatch, np.nan, bad=bad,
                                                 variable=variable, max_iters=max_iters)
    assert str(error) == "cannot project a non-finite vector at cycle 1, iteration 3"


def test_a_zero_step_block_is_projected_as_project_ca_projects_it(monkeypatch):
    # a zero f_j takes phase zero, as every entry below the projection's
    # guard does, and the accept test judges it like any candidate
    cfg = OptimizerConfig(max_iters=30)
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(4), [True, False] * 2)
    project = opt._project_packed
    calls, projected = [], []

    def zero_third_pass(ca, y, mag):
        calls.append(len(y))
        if len(calls) == 3:
            y[1, -5:] = 0.0
        project(ca, y, mag)
        if len(calls) == 3:
            projected.append(y[1, -5:].copy())

    monkeypatch.setattr(opt, "_project_packed", zero_third_pass)
    results, error = ascend_rows(rows, cfg)
    assert calls[2] == len(rows)  # no row had left the batch
    assert error is None and len(results) == len(rows)
    assert projected[0].tobytes() == project_ca(np.zeros(5)).tobytes()
    monkeypatch.setattr(opt, "_project_packed", project)
    for k in (0, 2, 3):
        assert same_result(ascend_rows([rows[k]], cfg)[0][0], results[k])


def test_the_batch_holds_the_ca_moduli_and_one_projection_scratch(monkeypatch):
    # the kernel and the links model links only; the batch holds each
    # packed entry's modulus 1/sqrt(N), bit for bit, and one scratch array
    # at its full row count, which every pass's projection views
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(3), [True] * 3)
    batch = opt._Lockstep(rows, OptimizerConfig(max_iters=30), False)
    assert not hasattr(batch.kernel, "ca_scale")
    assert "mag" not in vars(batch.cur) and "mag" not in vars(batch.cand)
    moduli = [1.0 / math.sqrt(2)] * 4 + [1.0 / math.sqrt(5)] * 10
    assert batch.ca.tolist() == moduli
    assert batch.mag.shape == (3, 14) and batch.mag.dtype == float
    project, scratch = opt._project_packed, []

    def viewing(ca, y, mag):
        scratch.append(mag.base is batch.mag)
        project(ca, y, mag)

    monkeypatch.setattr(opt, "_project_packed", viewing)
    batch.run()
    assert batch.error is None and scratch and all(scratch)


@pytest.mark.parametrize("n_rows", [4, 5])
@pytest.mark.parametrize("variable", [False, True])
def test_a_rows_rejected_steps_are_its_passes_less_its_accepted_ones(monkeypatch, variable,
                                                                    n_rows):
    # a row's pass either accepts, adding one log entry, or rejects; so its
    # rejected steps are n_iters - (len(trace.log) - 1), with no counter
    cfg = OptimizerConfig(max_iters=30, zeta=1e6,
                          mu=db_to_linear(12.0), kappa=0.2, max_cycles=4)
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(n_rows), [True, False] * 3)
    project = opt._project_packed
    projected, accepted = [], record_accepted(monkeypatch)

    def counting(ca, y, mag):
        projected.append(len(y))
        project(ca, y, mag)

    monkeypatch.setattr(opt, "_project_packed", counting)
    results, error = ascend_rows(rows, cfg, variable)
    assert error is None and len(results) == n_rows
    assert sum(projected) == sum(res.trace.n_iters for res in results)
    seen = [i for _, i, _ in accepted]
    assert [seen.count(i) for i in range(n_rows)] == [len(res.trace.log) - 1 for res in results]
    assert sum(res.trace.n_iters - (len(res.trace.log) - 1) for res in results) > 0


def count_rows(monkeypatch, owner, name, counts):
    """Patch ``owner.name``, a function whose last argument is a Links or a
    packed array, to append the rows of that argument to ``counts``."""
    wrapped = getattr(owner, name)

    def counting(*args):
        counts.append(len(getattr(args[-1], "x", args[-1])))
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counting)


def test_every_pass_differentiates_every_active_row(monkeypatch):
    # a pass after one that accepted no row used to reuse the gradient of the
    # unchanged iterates; now every pass takes it, so the rows differentiated
    # over a batch are its rows' passes. The sub6-variable benchmark plan's
    # shard has passes that accept no row, and rows that end at different
    # passes, each counting its own passes as the sum of its cycles'
    cfg = load_config("sub6", dict(experiment="variable_power", p_s_db="-10", mu_db="-5",
                                   max_iters="12", n_trials="8", seed="202"))
    differentiated, passes, accepting = [], [], []
    count_rows(monkeypatch, opt.LinkKernel, "gradient", differentiated)
    count_rows(monkeypatch, opt, "_project_packed", passes)
    log = opt._Lockstep._log

    def logging(batch, *args):  # called once per pass that accepts a row
        accepting.append(1)
        log(batch, *args)

    monkeypatch.setattr(opt._Lockstep, "_log", logging)
    trials, failure = exp._shard(cfg, 0, 8)
    assert failure is None
    traces = [res.trace for (res,) in trials]
    assert len(accepting) < len(passes), "every pass accepted a row"
    assert len({trace.n_iters for trace in traces}) > 1
    assert sum(differentiated) == sum(passes) == sum(trace.n_iters for trace in traces)


def test_a_non_finite_objective_of_a_finite_step_fails_its_row(monkeypatch):
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(4), [True, False] * 2)
    evaluate = opt.LinkKernel.evaluate
    calls = []

    def poison_third_pass(kernel, lk):  # the first evaluation is the start's
        evaluate(kernel, lk)
        calls.append(len(lk.diff))
        if len(calls) == 4:
            lk.diff[1] = np.inf

    monkeypatch.setattr(opt.LinkKernel, "evaluate", poison_third_pass)
    results, error = ascend_rows(rows, OptimizerConfig(max_iters=30))
    assert calls[3] == len(rows)
    assert len(results) == 1 and str(error) == "non-finite objective at cycle 1, iteration 3"


def test_a_non_finite_objective_at_a_restart_names_its_cycle(monkeypatch):
    # the check at a cycle's start named the initial state at every cycle;
    # an infinite power, as a long power ramp can reach, fails the row as it
    # restarts its third cycle
    cfg = OptimizerConfig(max_iters=30, zeta=1e6, mu=db_to_linear(12.0), kappa=0.2,
                          max_cycles=4)
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), [0], [True])
    set_p_s, restarts = opt.LinkKernel.set_p_s, []

    def poison_second_restart(kernel, p_s, lk):
        restarts.append(p_s)
        set_p_s(kernel, np.full_like(p_s, np.inf) if len(restarts) == 2 else p_s, lk)

    monkeypatch.setattr(opt.LinkKernel, "set_p_s", poison_second_restart)
    with np.errstate(invalid="ignore"):  # inf - inf
        results, error = ascend_rows(rows, cfg, variable=True)
    assert len(restarts) == 2
    assert results == [] and str(error) == "non-finite objective at cycle 3, iteration 0"


def test_a_start_off_the_ca_manifold_fails_its_row():
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(3), [True] * 3)
    off = rows[1].init._replace(f_s=rows[1].init.f_s * 2.0)
    rows[1] = AscentRow(rows[1].channel, rows[1].powers, off)
    results, error = ascend_rows(rows, OptimizerConfig(max_iters=10))
    assert len(results) == 1 and "constant-amplitude" in str(error)


def with_start(row, **blocks):
    """``row`` with the blocks ``blocks`` of its start replaced, each by a
    function of the block."""
    init = row.init._replace(**{name: change(getattr(row.init, name))
                                for name, change in blocks.items()})
    return AscentRow(row.channel, row.powers, init, row.optimize_we)


def put(value):
    """A change of a block that writes ``value`` at its first entry."""
    def change(v):
        v = v.copy()
        v[0] = value
        return v
    return change


def double(v):
    return v * 2.0


@pytest.mark.parametrize("blocks", [dict(w_l=put(np.nan), f_s=double),
                                    dict(w_l=double, f_j=put(np.nan))],
                         ids=["nan-first", "nan-last"])
def test_a_start_off_the_ca_manifold_fails_whichever_block_holds_a_nan(blocks):
    # the check took the max of the four blocks' violations, and a NaN one
    # wins or loses by block order: a NaN before the off-manifold block hid
    # it and the start failed as a non-finite objective instead
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(3), [True] * 3)
    rows[1] = with_start(rows[1], **blocks)
    results, error = ascend_rows(rows, OptimizerConfig(max_iters=10))
    assert len(results) == 1
    assert str(error) == "initial state violates the constant-amplitude constraint"
    assert same_result(ascend_rows(rows[:1], OptimizerConfig(max_iters=10))[0][0], results[0])


def test_a_non_finite_objective_before_an_off_manifold_start_names_the_objective():
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(4), [True] * 4)
    ch = rows[1].channel
    poisoned = ChannelSet(h_sl=ch.h_sl, h_se=ch.h_se, h_jl=np.full_like(ch.h_jl, np.nan),
                          h_je=ch.h_je)
    rows[1] = AscentRow(poisoned, rows[1].powers, rows[1].init)
    rows[2] = with_start(rows[2], f_s=double)
    results, error = ascend_rows(rows, OptimizerConfig(max_iters=10))
    assert len(results) == 1 and str(error) == "non-finite objective at the initial state"


@pytest.mark.parametrize("bad", [0, 1])
def test_an_infinite_start_entry_fails_its_row_unevaluated(bad):
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(3), [True] * 3)
    rows[bad] = with_start(rows[bad], f_j=put(np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an evaluation would warn on inf * 0
        results, error = ascend_rows(rows, OptimizerConfig(max_iters=10))
    assert len(results) == bad
    assert str(error) == "initial state violates the constant-amplitude constraint"


@pytest.mark.parametrize("block, message", [("f_s", "precoders must have shape (4,)"),
                                            ("w_l", "combiners must have shape (2,)")])
def test_a_start_of_the_wrong_length_fails_its_row(block, message):
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(3), [True] * 3)
    rows[1] = with_start(rows[1], **{block: lambda v: v[:-1]})
    results, error = ascend_rows(rows, OptimizerConfig(max_iters=10))
    assert len(results) == 1
    assert isinstance(error, ValueError) and str(error) == message
    assert same_result(ascend_rows(rows[:1], OptimizerConfig(max_iters=10))[0][0], results[0])


def test_a_batch_builds_its_kernel_and_links_once(monkeypatch):
    # rows that finish leave by compaction in place: however often the
    # batch shrinks, it builds one kernel and two links, cur and cand
    built = []
    for cls in (opt.LinkKernel, opt.Links):
        def counting(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    rows = rows_of(2, 5, PowerConfig(p_s=10.0, p_j=10.0), range(6), [True, False] * 3)
    results, error = ascend_rows(rows, OptimizerConfig(max_iters=60, epsilon=1e-3))
    assert error is None
    assert len({res.trace.n_iters for res in results}) >= 4, "the batch shrank too seldom"
    assert sorted(built) == ["LinkKernel", "Links", "Links"]


def test_memory_does_not_grow_with_the_iteration_cap():
    # a batch that converges well before 100 passes runs alike at a cap of
    # 100 and of 10**9, to the same logs and about the same traced peak: no
    # buffer is sized by the cap
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(6), [True, False] * 3)
    ascend_rows(rows, OptimizerConfig(max_iters=100, epsilon=1e-2))  # warm up, untraced
    logs, peaks = [], []
    for max_iters in (100, 10**9):
        tracemalloc.start()
        try:
            results, error = ascend_rows(rows, OptimizerConfig(max_iters=max_iters,
                                                               epsilon=1e-2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert error is None
        assert {res.trace.reason for res in results} == {TerminationReason.CONVERGED}
        assert max(res.trace.n_iters for res in results) < 60
        logs.append([res.trace.log.tobytes() for res in results])
    assert logs[0] == logs[1]
    assert abs(peaks[1] - peaks[0]) < 32 * 1024, peaks


def test_the_split_adds_little_beside_the_logs_it_returns(monkeypatch):
    # the split gathers each field of the pass log into row order on its
    # own and drops each table once its columns are taken; reordering whole
    # tables next to the new logs added 2.6 times their size
    split, added = opt._Lockstep._split_log, []

    def traced(batch):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        split(batch)
        added.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(opt._Lockstep, "_split_log", traced)
    rows = rows_of(2, 4, PowerConfig(p_s=1.0, p_j=1.0), range(6), [True, False] * 3)
    tracemalloc.start()
    try:
        results, error = ascend_rows(rows, OptimizerConfig(max_iters=3000, epsilon=1e-300))
    finally:
        tracemalloc.stop()
    assert error is None
    assert {res.trace.reason for res in results} == {TerminationReason.ITER_CAP}
    logs = sum(res.trace.log.nbytes for res in results)
    assert logs > 15_000 * opt.ITERATION_DTYPE.itemsize  # 17,994 entries here
    assert added[0] < 2.25 * logs, added[0] / logs


def mask_decision(change, delta, eps, delta_min, capped):
    """The decision as ufuncs over the batch, the oracle of ``_decide``:
    (accepted mask, converged mask, capped-and-not-converged mask, new delta)."""
    change, delta = np.array(change), delta.copy()
    accepted = change >= 0.0
    ended = np.abs(change) <= eps
    if np.count_nonzero(accepted) < len(change):
        rejected = change < -eps
        ended |= (delta <= delta_min) & rejected
        np.multiply(delta, 0.5, out=delta, where=rejected)
        np.maximum(delta, delta_min, out=delta)
    at_cap = np.zeros(len(change), bool)
    at_cap[list(capped)] = True
    return accepted, ended, at_cap & ~ended, delta


def assert_decides_as_the_masks(change, delta, eps, delta_min, capped=()):
    accepted, ends, steps = opt._decide(change, delta, eps, delta_min, capped)
    want_accepted, want_ended, want_capped, want_delta = mask_decision(
        change, delta, eps, delta_min, capped)
    assert accepted == np.flatnonzero(want_accepted).tolist()
    converged = [j for j, reason in ends if reason is TerminationReason.CONVERGED]
    at_cap = [j for j, reason in ends if reason is TerminationReason.ITER_CAP]
    assert sorted(converged) == np.flatnonzero(want_ended).tolist()
    assert sorted(at_cap) == np.flatnonzero(want_capped).tolist()
    assert len(ends) == len(converged) + len(at_cap)
    new_delta = delta if steps is None else np.array(steps)
    assert new_delta.tobytes() == want_delta.tobytes()
    # the step sizes are rewritten only on a pass that rejects a row
    assert (steps is None) == (min(change) >= -eps)


@pytest.mark.parametrize("eps, delta_min", [(1e-7, 1e-6), (1e-4, 0.025), (0.5, 0.1)])
def test_the_decision_is_the_mask_algebra_at_its_edges(eps, delta_min):
    # every pair of (change, step size) rows and the batch of all of them,
    # with and without rows at the iteration cap: the accepted rows, the
    # ended rows and the new step sizes match the ufunc decision bit for bit
    changes = [0.0, -0.0, eps, -eps, float(np.nextafter(-eps, -np.inf)), 2 * eps, -1.0]
    steps = [0.1 if delta_min < 0.05 else 1.0, delta_min, 2 * delta_min]
    rows = [(change, step) for change in changes for step in steps]
    batches = [[a, b] for a in rows for b in rows] + [rows]
    for batch in batches:
        change = [c for c, _ in batch]
        delta = np.array([s for _, s in batch])
        for capped in ((), (0,), tuple(range(len(batch)))):
            assert_decides_as_the_masks(change, delta, eps, delta_min, capped)
    # batches that are all accepted, none accepted and mixed
    kept, reverted = changes[:3] + changes[5:6], changes[3:5] + changes[6:]
    for change in (kept, reverted, kept + reverted, reverted + kept):
        assert_decides_as_the_masks(change, np.resize(np.array(steps), len(change)), eps,
                                    delta_min)


NO_BACKTRACKING = dict(n_trials="4", seed="5", max_iters="200", delta_min="0.1")


@pytest.mark.parametrize("plan", [
    dict(experiment="fixed_power", p_s_db="10"),
    dict(experiment="fixed_power", p_s_db="-10"),
    dict(experiment="variable_power", p_s_db="-10", mu_db="-9"),
])
def test_the_floor_ends_a_cycle_on_its_first_rejection(plan):
    # delta_min == delta0: a rejected step is already at the floor, so the
    # first rejection of a cycle ends it (converged), and a variable-power
    # row raises p_s and restarts at delta0. In these plans every row has
    # such a cycle, and a variable-power row has them after its first too
    cfg = load_config("sub6", dict(NO_BACKTRACKING, **plan))
    delta0 = cfg.optimizer.delta0
    assert cfg.optimizer.delta_min == delta0
    fixed = cfg.experiment is exp.ExperimentKind.FIXED_POWER
    trials, failure = exp._shard(cfg, 0, 4)
    assert failure is None and len(trials) == 4
    for i, trial in enumerate(trials):
        rng = exp.seed_fanout(cfg.seed, i)
        ch, init = draw_channel_set(cfg.channel, rng), warm_start(cfg.channel, rng)
        for res, optimize_we in zip(trial, (False, True) if fixed else (False,)):
            trace, log = res.trace, res.trace.log
            assert set(log["delta"].tolist()) == {delta0}
            ended_on_a_rejection = []
            for number, c in enumerate(trace.cycles, start=1):
                iterations = log["iteration"][log["cycle"] == number].tolist()
                rejected = c.n_iters - len([k for k in iterations if k > 0])
                assert rejected <= 1
                if rejected:  # the rejected pass is the cycle's last
                    assert max(iterations, default=0) == c.n_iters - 1
                    ended_on_a_rejection.append(number)
            if fixed:
                assert trace.n_iters - (len(log) - 1) == 1
                assert trace.reason is TerminationReason.CONVERGED
                alone = ascend_rows([AscentRow(ch, cfg.powers, init, optimize_we)],
                                    cfg.optimizer)[0][0]
            else:
                # in this plan every cycle but the last ends on its rejection
                assert len(trace.cycles) > 2
                assert set(range(1, len(trace.cycles))) <= set(ended_on_a_rejection)
                alone = opt.ascend_variable_power(ch, cfg.powers, cfg.optimizer, init)
            assert same_result(alone, res)
