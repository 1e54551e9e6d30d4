import dataclasses
import hashlib
import math
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from helpers import record_accepted
from secrecy_ascent.channel import ChannelParams, draw_channel_set
from secrecy_ascent.experiment import seed_fanout
from secrecy_ascent.gradients import LinkKernel
from secrecy_ascent.metrics import PowerConfig, db_to_linear, linear_to_db
from secrecy_ascent.optimizer import (ITERATION_DTYPE, AscentRow, CycleRecord, IterationRecord,
                                      OptimizeResult, OptimizerConfig, OptimizerTrace,
                                      TerminationReason, ascend_fixed_power, ascend_rows,
                                      ascend_variable_power, ca_violation, clamp_c_s, project_ca,
                                      project_unit_norm, state_ca_violation, warm_start)
from secrecy_ascent.reference import secrecy_capacity

SMALL = ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=8, angular_spread_deg=10)
PW = PowerConfig(p_s=10.0, p_j=10.0)


def small_problem(seed):
    rng = seed_fanout(900, seed)
    return draw_channel_set(SMALL, rng), warm_start(SMALL, rng)


def test_project_unit_norm_basic():
    np.testing.assert_allclose(
        project_unit_norm(np.array([3.0, 4.0], dtype=complex)), [0.6, 0.8], atol=1e-15
    )


def test_project_unit_norm_idempotent():
    v = project_unit_norm(np.array([1.0 + 2j, -0.5j, 0.3]))
    np.testing.assert_allclose(project_unit_norm(v), v, atol=1e-15)


def test_project_unit_norm_zero_vector():
    with pytest.raises(ValueError):
        project_unit_norm(np.zeros(3, dtype=complex))


def test_project_ca_preserves_phases():
    out = project_ca(np.array([2.0, 2.0j]))
    np.testing.assert_allclose(out, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-15)


def test_project_ca_near_zero_entry_gets_phase_zero():
    # an all-zero vector is every entry near zero: the phase-zero CA vector
    for v in ([1e-20, 1.0], [0.0, 0.0]):
        out = project_ca(np.array(v, dtype=complex))
        np.testing.assert_allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_project_ca_rejects_a_non_finite_entry(bad):
    # NaN fails the 1e-12 guard like a tiny entry, but it is not one: it
    # must not come back as phase zero
    with pytest.raises(ValueError, match="non-finite"):
        project_ca(np.array([bad, 1.0], dtype=complex))


@pytest.mark.parametrize("n, digest", [
    (1, "0661a348077f369dd261e31bf649042d4205e81e8e6eef18a06601350c3d468b"),
    (4, "3b03e23e59007bc2a36be86ff25d9b14a57da95eec1e943c04c6410c15040002"),
    (16, "dacebef63260f6c4771d572f852a2b09e085fac5292a5310bfdd50a911983538"),
    (64, "f69f1c0cff634b959a97f74ea79a0483b841a0787ecb2ec786f5f0d076790104"),
    (69, "2d929c4589e93fa749bdfafde37b88536f64f9db6b934ad9aa2bd687b9a47515"),
])
def test_project_ca_bits_are_pinned(n, digest):
    # moduli spread over 1e-15..1e5, so that some entries fall below the
    # 1e-12 phase guard, then the all-zero vector and a real vector; 1/sqrt(n)
    # is inexact at n = 69
    rng = np.random.default_rng(n)
    h = hashlib.sha256()
    tiny = 0
    for _ in range(30):
        moduli = 10.0 ** rng.uniform(-15.0, 5.0, n)
        tiny += int(np.count_nonzero(moduli < 1e-12))
        v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * moduli / math.sqrt(2.0)
        for w in (v, np.zeros(n, dtype=complex), rng.standard_normal(n) * moduli):
            h.update(project_ca(w).tobytes())
    assert tiny
    assert h.hexdigest() == digest


def test_projection_properties_random_vectors():
    rng = np.random.default_rng(30)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ca = project_ca(v)
        # idempotence of both projections
        np.testing.assert_allclose(project_ca(ca), ca, atol=1e-15)
        un = project_unit_norm(v)
        np.testing.assert_allclose(project_unit_norm(un), un, atol=1e-15)
        # CA after unit-norm equals CA alone, and CA output is unit-norm
        np.testing.assert_allclose(project_ca(un), ca, atol=1e-12)
        assert abs(np.linalg.norm(ca) - 1.0) < 1e-12
        assert ca_violation(ca) < 1e-15


def test_warm_start_is_ca_and_deterministic():
    params = ChannelParams(n_clusters=2, n_rays=2, n_rx=4, n_tx=64, angular_spread_deg=10)
    a = warm_start(params, np.random.default_rng(31))
    b = warm_start(params, np.random.default_rng(31))
    for name in ("w_l", "w_e", "f_s", "f_j"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert state_ca_violation(a) < 1e-12
    np.testing.assert_allclose(np.abs(a.f_s), 1 / 8, atol=1e-15)
    np.testing.assert_allclose(np.abs(a.f_j), 1 / 8, atol=1e-15)


@pytest.mark.parametrize("block", ["w_l", "w_e", "f_s", "f_j"])
def test_state_ca_violation_is_inf_whichever_block_holds_a_nan(block):
    # max() over the blocks keeps a NaN only when it comes first, so a NaN
    # must read inf in each block for any bound to catch it
    params = ChannelParams(n_clusters=2, n_rays=2, n_rx=2, n_tx=4, angular_spread_deg=10)
    bf = warm_start(params, np.random.default_rng(32))
    getattr(bf, block)[0] = np.nan
    assert state_ca_violation(bf) == math.inf


def test_warm_start_is_uniform_phases_from_one_block():
    # each entry is exp(2*pi*j*u)/sqrt(n), with the u of w_l, w_e, f_s and
    # f_j taken in that order from the stream
    params = ChannelParams(n_clusters=2, n_rays=2, n_rx=4, n_tx=16, angular_spread_deg=10)
    bf = warm_start(params, np.random.default_rng(33))
    u = np.random.default_rng(33).random(2 * params.n_rx + 2 * params.n_tx)
    blocks = np.split(u, np.cumsum([params.n_rx, params.n_rx, params.n_tx]))
    for name, block in zip(("w_l", "w_e", "f_s", "f_j"), blocks):
        expected = np.exp(2j * np.pi * block) / math.sqrt(block.size)
        assert getattr(bf, name).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n_rx, n_tx, digest", [
    (3, 7, "2effc0a3a77c7695847f5fda1282afaaee823303324f5e41fe4026d5056c21e1"),
    (6, 69, "e943f8daaf493fe8939d672c855caffc098ba57ee5ed7476087d955b46278253"),
])
def test_warm_start_bits_are_pinned_where_the_moduli_are_inexact(n_rx, n_tx, digest):
    # 1/sqrt(N) rounds when N is not a power of 4; a start's phases are
    # scaled by the CA moduli, and these digests are the bits of dividing
    # each phase by sqrt(N), which numpy does as a multiply by 1/sqrt(N)
    params = ChannelParams(n_clusters=2, n_rays=2, n_rx=n_rx, n_tx=n_tx, angular_spread_deg=10)
    h = hashlib.sha256()
    for seed in range(50):
        for v in warm_start(params, np.random.default_rng(seed)):
            h.update(v.tobytes())
    assert h.hexdigest() == digest


def test_ascent_trace_monotone_and_feasible(monkeypatch):
    ch, init = small_problem(0)
    seen = record_accepted(monkeypatch)
    results, error = ascend_rows([AscentRow(ch, PW, init)], OptimizerConfig(max_iters=500))
    assert error is None
    res = results[0]
    c_s = res.trace.c_s.tolist()
    assert all(b >= a for a, b in zip(c_s, c_s[1:]))
    assert res.trace.cycles[-1].c_s >= c_s[0]
    iters = [r.iteration for r in res.trace.records]
    assert all(b > a for a, b in zip(iters, iters[1:]))
    assert seen, "no accepted iterations"
    for _, _, state in seen:
        assert state_ca_violation(state) < 1e-9
        for v in state:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert res.trace.reason in (TerminationReason.CONVERGED, TerminationReason.ITER_CAP)


def test_ascent_improves_over_start():
    for seed in range(5):
        ch, init = small_problem(seed)
        res = ascend_fixed_power(ch, PW, OptimizerConfig(max_iters=2000), init)
        start = secrecy_capacity(ch, init, PW).c_s
        assert res.trace.cycles[-1].c_s >= start


def test_ascent_zero_gradient_converges_immediately():
    ch, init = small_problem(1)
    res = ascend_fixed_power(ch, PowerConfig(p_s=0.0, p_j=0.0),
                             OptimizerConfig(), init)
    assert res.trace.reason is TerminationReason.CONVERGED
    assert res.trace.n_iters == 1
    np.testing.assert_allclose(res.state.w_l, init.w_l, atol=1e-14)


def test_ascent_rejects_non_ca_start():
    ch, init = small_problem(2)
    init = init._replace(f_s=project_unit_norm(np.arange(1, 9).astype(complex)))
    with pytest.raises(ValueError):
        ascend_fixed_power(ch, PW, OptimizerConfig(), init)


def test_ascent_final_state_is_feasible():
    ch, init = small_problem(3)
    res = ascend_fixed_power(ch, PW, OptimizerConfig(max_iters=300), init)
    assert state_ca_violation(res.state) < 1e-9


def test_optimize_we_updates_eavesdropper_combiner():
    ch, init = small_problem(4)
    fixed = ascend_fixed_power(ch, PW, OptimizerConfig(max_iters=200), init)
    np.testing.assert_array_equal(fixed.state.w_e, init.w_e)
    (moved,), error = ascend_rows([AscentRow(ch, PW, init, optimize_we=True)],
                                  OptimizerConfig(max_iters=200))
    assert error is None
    assert not np.array_equal(moved.state.w_e, init.w_e)


def test_variable_power_trivial_target():
    ch, init = small_problem(6)
    res = ascend_variable_power(ch, PW, OptimizerConfig(zeta=0.0), init)
    assert res.trace.reason is TerminationReason.TARGET_REACHED
    assert len(res.trace.cycles) == 1
    assert res.trace.cycles[-1].p_s == PW.p_s


def test_variable_power_power_cap():
    ch, init = small_problem(7)
    cfg = OptimizerConfig(zeta=1e6, mu=db_to_linear(11.0), max_iters=200)
    res = ascend_variable_power(ch, PW, cfg, init)
    assert res.trace.reason is TerminationReason.POWER_CAP
    assert res.trace.cycles[-1].p_s <= cfg.mu
    # every bump multiplies by 1 + kappa
    powers = [c.p_s for c in res.trace.cycles]
    for a, b in zip(powers, powers[1:]):
        assert b == pytest.approx(a * (1 + cfg.kappa))


def test_variable_power_cycle_cap():
    ch, init = small_problem(8)
    cfg = OptimizerConfig(zeta=1e6, max_cycles=3, max_iters=100)
    res = ascend_variable_power(ch, PW, cfg, init)
    assert res.trace.reason is TerminationReason.CYCLE_CAP
    assert len(res.trace.cycles) == 3
    # the result's c_l and c_e are at the last cycle's power, not at the
    # raise that a fourth cycle would have run at
    assert max(res.c_l - res.c_e, 0.0) == res.trace.cycles[-1].c_s


@pytest.mark.parametrize("seed", range(10, 14))
def test_a_power_restart_is_a_fixed_power_ascent_from_the_last_state(seed):
    # cycle 2 of a variable-power ascent must run exactly as a fixed-power
    # ascent that starts from cycle 1's final state at the raised power: the
    # restart re-weights both the links and the gradient, and resets delta
    ch, init = small_problem(seed)
    cfg = OptimizerConfig(zeta=1e6, kappa=0.2, max_cycles=2, max_iters=150)
    res = ascend_variable_power(ch, PW, cfg, init)
    assert res.trace.reason is TerminationReason.CYCLE_CAP
    first = ascend_variable_power(ch, PW, dataclasses.replace(cfg, max_cycles=1), init)
    raised = dataclasses.replace(PW, p_s=PW.p_s + cfg.kappa * PW.p_s)
    fixed = ascend_fixed_power(ch, raised, cfg, first.state)
    second, want = res.trace.log[res.trace.log["cycle"] == 2], fixed.trace.log[1:]
    assert len(second) == len(want) > 0
    for name in ("iteration", "c_l", "c_e", "delta"):
        assert second[name].tobytes() == want[name].tobytes(), name
    assert res.trace.cycles[1].n_iters == fixed.trace.n_iters
    for u, v in zip(res.state, fixed.state):
        assert u.tobytes() == v.tobytes()


def test_variable_power_trace_iterations_increase_within_cycles():
    ch, init = small_problem(9)
    cfg = OptimizerConfig(zeta=1e6, max_cycles=4, max_iters=50)
    res = ascend_variable_power(ch, PW, cfg, init)
    by_cycle = {}
    for r in res.trace.records:
        by_cycle.setdefault(r.cycle, []).append(r.iteration)
    for iters in by_cycle.values():
        assert all(b > a for a, b in zip(iters, iters[1:]))
    # a later cycle's start is the last state at the raised power, not logged
    assert len(by_cycle) > 1
    assert [cycle for cycle, iters in by_cycle.items() if 0 in iters] == [1]


def test_target_reached_power_follows_the_cycle_count():
    # every cycle that misses zeta raises p_s by kappa*p_s, so a trial that
    # stops at target_reached after c cycles ends at
    # p_s_db0 + 10*log10(1 + kappa)*(c - 1) dB, whatever its channel
    p_s_db0 = -10.0
    cfg = OptimizerConfig(zeta=2.0, mu=db_to_linear(30.0), kappa=0.05,
                          max_iters=60, epsilon=1e-4)
    powers = PowerConfig(p_s=db_to_linear(p_s_db0), p_j=10.0)
    rows = [AscentRow(ch, powers, init)
            for ch, init in map(small_problem, range(20, 28))]
    results, error = ascend_rows(rows, cfg, variable=True)
    assert error is None
    reached = [res for res in results
               if res.trace.reason is TerminationReason.TARGET_REACHED]
    assert any(len(res.trace.cycles) > 20 for res in reached)
    for res in reached:
        cycles = len(res.trace.cycles)
        expected = p_s_db0 + 10.0 * math.log10(1.0 + cfg.kappa) * (cycles - 1)
        assert abs(linear_to_db(res.trace.cycles[-1].p_s) - expected) <= 1e-9


def test_clamp_c_s_is_the_builtin_max_elementwise():
    # every reported c_s, a cycle's or a logged iteration's, is this clamp:
    # max(c_l - c_e, 0.0) bit for bit, -0.0 kept as the builtin keeps it
    c_l, c_e = [-0.0, 0.0, 1.0, 0.5, 2.0, 3.0], [0.0, 0.0, 0.5, 1.0, 2.0, 1e-300]
    want = [max(a - b, 0.0) for a, b in zip(c_l, c_e)]
    assert clamp_c_s(np.array(c_l), np.array(c_e)).tobytes() == np.array(want).tobytes()
    assert math.copysign(1.0, want[0]) == -1.0


def test_a_trace_stores_no_fact_its_cycles_give():
    # the pass count is the sum of the cycles', a cycle's number is its
    # position in ``cycles`` plus one, a record's power is its cycle's, and
    # its c_s is its clamped c_l - c_e: none is stored
    assert OptimizerTrace._fields == ("log", "cycles", "reason")
    assert CycleRecord._fields == ("c_s", "p_s", "n_iters")
    fields = ("cycle", "iteration", "c_l", "c_e", "delta")
    assert IterationRecord._fields == ITERATION_DTYPE.names == fields
    trace = OptimizerTrace(np.empty(0, ITERATION_DTYPE),
                           [CycleRecord(1.0, 10.0, 4), CycleRecord(1.5, 11.0, 3)],
                           TerminationReason.ITER_CAP)
    assert trace.n_iters == 7


def test_a_result_adds_to_its_trace_only_the_final_state_and_its_links():
    # a result's c_s and power are its last cycle's; its c_l and c_e are the
    # one fact the log lacks after a power restart that accepts no step: this
    # row's second cycle rejects its one pass, so its last log entry is at
    # cycle 1's power, and the result alone holds the final state's links
    assert OptimizeResult._fields == ("state", "trace", "c_l", "c_e")
    ch, init = small_problem(8)
    res = ascend_variable_power(ch, PW, OptimizerConfig(zeta=1e6, max_cycles=2, max_iters=1), init)
    last = res.trace.cycles[-1]
    assert len(res.trace.cycles) == 2 and res.trace.log["cycle"].tolist() == [1, 1]
    fresh = LinkKernel((ch,), (dataclasses.replace(PW, p_s=last.p_s),)).links([res.state])
    assert np.array([res.c_l, res.c_e]).tobytes() == fresh.cd[0, :2].tobytes()
    assert res.c_l != res.trace.log["c_l"][-1]


@pytest.mark.parametrize("variable", [False, True])
def test_result_pickle_round_trip(variable):
    # results cross a worker's pipe with their records as plain tuples;
    # they must come back as the same IterationRecords, bit for bit
    ch, init = small_problem(5)
    if variable:
        cfg = OptimizerConfig(zeta=1e6, max_cycles=4, max_iters=50)
        res = ascend_variable_power(ch, PW, cfg, init)
        assert len(res.trace.cycles) == 4
    else:
        res = ascend_fixed_power(ch, PW, OptimizerConfig(max_iters=200), init)
    back = pickle.loads(pickle.dumps(res))
    assert len(back.trace.records) == len(res.trace.records) > 1
    for got, want in zip(back.trace.records, res.trace.records):
        assert type(got) is IterationRecord
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert back.trace.cycles == res.trace.cycles
    assert back.trace.reason is res.trace.reason
    assert back.trace.n_iters == res.trace.n_iters
    assert (back.c_l, back.c_e) == (res.c_l, res.c_e)
    for got, want in zip(back.state, res.state):
        assert got.tobytes() == want.tobytes()


def test_a_multi_cycle_result_crosses_a_pipe_as_the_same_named_tuples():
    # a result and its cycle records are NamedTuples, pickled as a worker's
    # pipe sends them: each comes back as its own type, every value equal
    ch, init = small_problem(5)
    res = ascend_variable_power(ch, PW, OptimizerConfig(zeta=1e6, max_cycles=4, max_iters=50),
                                init)
    back = pickle.loads(ForkingPickler.dumps(res))
    assert type(back) is OptimizeResult and isinstance(back, tuple)
    assert len(back.trace.cycles) == len(res.trace.cycles) == 4
    assert all(type(c) is CycleRecord for c in back.trace.cycles)
    assert [tuple(map(repr, c)) for c in back.trace.cycles] == [
        tuple(map(repr, c)) for c in res.trace.cycles]
    assert (repr(back.c_l), repr(back.c_e)) == (repr(res.c_l), repr(res.c_e))
    assert back.trace.log.tobytes() == res.trace.log.tobytes()
    assert back.trace.reason is res.trace.reason
    for got, want in zip(back.state, res.state):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(delta0=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    for field in ("delta0", "epsilon", "kappa", "zeta", "mu", "delta_min"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                OptimizerConfig(**{field: value})
    assert OptimizerConfig(zeta=0.0).zeta == 0.0  # finite and unset zeta are fine
    # a floor above the first step: the first rejection would end the cycle
    with pytest.raises(ValueError, match=r"delta_min.*delta0"):
        OptimizerConfig(delta0=0.1, delta_min=0.5)
    assert OptimizerConfig(delta0=0.1, delta_min=0.1).delta_min == 0.1  # no backtracking


@pytest.mark.parametrize("field", ["max_iters", "max_cycles"])
def test_a_fractional_cap_is_rejected(field):
    # the loop meets a cap by ==, so a fractional cap would never be met and
    # an ascent would run on past it; an integral float is the integer
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 3.5"):
        OptimizerConfig(**{field: 3.5})
    assert getattr(OptimizerConfig(**{field: 3.0}), field) == 3

