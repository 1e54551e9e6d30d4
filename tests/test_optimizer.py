import dataclasses
import math
import pickle

import numpy as np
import pytest

import secrecy_ascent as sa
from helpers import random_instance
from secrecy_ascent.optimizer import AscentRow, IterationRecord, ascend_rows

SMALL = sa.ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=8, angular_spread_deg=10)
PW = sa.PowerConfig(p_s=10.0, p_j=10.0)


def small_problem(seed):
    rng = sa.seed_fanout(900, seed)
    return sa.draw_channel_set(SMALL, rng), sa.warm_start(SMALL, rng)


def test_project_unit_norm_basic():
    np.testing.assert_allclose(
        sa.project_unit_norm(np.array([3.0, 4.0], dtype=complex)), [0.6, 0.8], atol=1e-15
    )


def test_project_unit_norm_idempotent():
    v = sa.project_unit_norm(np.array([1.0 + 2j, -0.5j, 0.3]))
    np.testing.assert_allclose(sa.project_unit_norm(v), v, atol=1e-15)


def test_project_unit_norm_zero_vector():
    with pytest.raises(ValueError):
        sa.project_unit_norm(np.zeros(3, dtype=complex))


def test_project_ca_preserves_phases():
    out = sa.project_ca(np.array([2.0, 2.0j]))
    np.testing.assert_allclose(out, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-15)


def test_project_ca_near_zero_entry_gets_phase_zero():
    out = sa.project_ca(np.array([1e-20, 1.0], dtype=complex))
    np.testing.assert_allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_project_ca_rejects_a_non_finite_entry(bad):
    # NaN fails the 1e-12 guard like a tiny entry, but it is not one: it
    # must not come back as phase zero
    with pytest.raises(ValueError, match="non-finite"):
        sa.project_ca(np.array([bad, 1.0], dtype=complex))


def test_projection_properties_random_vectors():
    rng = np.random.default_rng(30)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ca = sa.project_ca(v)
        # idempotence of both projections
        np.testing.assert_allclose(sa.project_ca(ca), ca, atol=1e-15)
        un = sa.project_unit_norm(v)
        np.testing.assert_allclose(sa.project_unit_norm(un), un, atol=1e-15)
        # CA after unit-norm equals CA alone, and CA output is unit-norm
        np.testing.assert_allclose(sa.project_ca(un), ca, atol=1e-12)
        assert abs(np.linalg.norm(ca) - 1.0) < 1e-12
        assert sa.ca_violation(ca) < 1e-15


def test_warm_start_is_ca_and_deterministic():
    params = sa.ChannelParams(n_clusters=2, n_rays=2, n_rx=4, n_tx=64, angular_spread_deg=10)
    a = sa.warm_start(params, np.random.default_rng(31))
    b = sa.warm_start(params, np.random.default_rng(31))
    for name in ("w_l", "w_e", "f_s", "f_j"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert sa.state_ca_violation(a) < 1e-12
    np.testing.assert_allclose(np.abs(a.f_s), 1 / 8, atol=1e-15)
    np.testing.assert_allclose(np.abs(a.f_j), 1 / 8, atol=1e-15)


def test_warm_start_is_uniform_phases_from_one_block():
    # each entry is exp(2*pi*j*u)/sqrt(n), with the u of w_l, w_e, f_s and
    # f_j taken in that order from the stream
    params = sa.ChannelParams(n_clusters=2, n_rays=2, n_rx=4, n_tx=16, angular_spread_deg=10)
    bf = sa.warm_start(params, np.random.default_rng(33))
    u = np.random.default_rng(33).random(2 * params.n_rx + 2 * params.n_tx)
    blocks = np.split(u, np.cumsum([params.n_rx, params.n_rx, params.n_tx]))
    for name, block in zip(("w_l", "w_e", "f_s", "f_j"), blocks):
        expected = np.exp(2j * np.pi * block) / math.sqrt(block.size)
        assert getattr(bf, name).tobytes() == expected.tobytes(), name


def test_ascent_trace_monotone_and_feasible():
    ch, init = small_problem(0)
    seen = []
    res = sa.ascend_fixed_power(ch, PW, sa.OptimizerConfig(max_iters=500), init,
                                on_accept=seen.append)
    c_s = [r.c_s for r in res.trace.records]
    assert all(b >= a for a, b in zip(c_s, c_s[1:]))
    assert res.snapshot.c_s >= c_s[0]
    iters = [r.iteration for r in res.trace.records]
    assert all(b > a for a, b in zip(iters, iters[1:]))
    assert seen, "no accepted iterations"
    for state in seen:
        assert sa.state_ca_violation(state) < 1e-9
        for v in state.vectors():
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert res.trace.reason in (sa.TerminationReason.CONVERGED, sa.TerminationReason.ITER_CAP)


def test_ascent_improves_over_start():
    for seed in range(5):
        ch, init = small_problem(seed)
        res = sa.ascend_fixed_power(ch, PW, sa.OptimizerConfig(max_iters=2000), init)
        start = sa.secrecy_capacity(ch, init, PW).c_s
        assert res.snapshot.c_s >= start


def test_ascent_zero_gradient_converges_immediately():
    ch, init = small_problem(1)
    res = sa.ascend_fixed_power(ch, sa.PowerConfig(p_s=0.0, p_j=0.0),
                                sa.OptimizerConfig(), init)
    assert res.trace.reason is sa.TerminationReason.CONVERGED
    assert res.trace.n_iters == 1
    np.testing.assert_allclose(res.state.w_l, init.w_l, atol=1e-14)


def test_ascent_rejects_non_ca_start():
    ch, init = small_problem(2)
    init.f_s = sa.project_unit_norm(np.arange(1, 9).astype(complex))
    with pytest.raises(ValueError):
        sa.ascend_fixed_power(ch, PW, sa.OptimizerConfig(), init)


def test_ascent_final_state_is_feasible():
    ch, init = small_problem(3)
    res = sa.ascend_fixed_power(ch, PW, sa.OptimizerConfig(max_iters=300), init)
    assert sa.state_ca_violation(res.state) < 1e-9


def test_optimize_we_updates_eavesdropper_combiner():
    ch, init = small_problem(4)
    fixed = sa.ascend_fixed_power(ch, PW, sa.OptimizerConfig(max_iters=200), init)
    np.testing.assert_array_equal(fixed.state.w_e, init.w_e)
    (moved,), error = ascend_rows([AscentRow(ch, PW, init, optimize_we=True)],
                                  sa.OptimizerConfig(max_iters=200))
    assert error is None
    assert not np.array_equal(moved.state.w_e, init.w_e)


def test_variable_power_requires_zeta():
    ch, init = small_problem(5)
    with pytest.raises(ValueError):
        sa.ascend_variable_power(ch, PW, sa.OptimizerConfig(), init)


def test_variable_power_trivial_target():
    ch, init = small_problem(6)
    res = sa.ascend_variable_power(ch, PW, sa.OptimizerConfig(zeta=0.0), init)
    assert res.trace.reason is sa.TerminationReason.TARGET_REACHED
    assert len(res.trace.cycles) == 1
    assert res.p_s == PW.p_s


def test_variable_power_power_cap():
    ch, init = small_problem(7)
    cfg = sa.OptimizerConfig(zeta=1e6, mu=sa.db_to_linear(11.0), max_iters=200)
    res = sa.ascend_variable_power(ch, PW, cfg, init)
    assert res.trace.reason is sa.TerminationReason.POWER_CAP
    assert res.p_s <= cfg.mu
    # every bump multiplies by 1 + kappa
    powers = [c.p_s for c in res.trace.cycles]
    for a, b in zip(powers, powers[1:]):
        assert b == pytest.approx(a * (1 + cfg.kappa))


def test_variable_power_cycle_cap():
    ch, init = small_problem(8)
    cfg = sa.OptimizerConfig(zeta=1e6, max_cycles=3, max_iters=100)
    res = sa.ascend_variable_power(ch, PW, cfg, init)
    assert res.trace.reason is sa.TerminationReason.CYCLE_CAP
    assert len(res.trace.cycles) == 3
    assert [c.cycle for c in res.trace.cycles] == [1, 2, 3]
    # the reported power is the last cycle's, not the raise that a fourth
    # cycle would have run at
    assert res.p_s == res.trace.cycles[-1].p_s


@pytest.mark.parametrize("seed", range(10, 14))
def test_a_power_restart_is_a_fixed_power_ascent_from_the_last_state(seed):
    # cycle 2 of a variable-power ascent must run exactly as a fixed-power
    # ascent that starts from cycle 1's final state at the raised power: the
    # restart re-weights both the links and the gradient, and resets delta
    ch, init = small_problem(seed)
    cfg = sa.OptimizerConfig(zeta=1e6, kappa=0.2, max_cycles=2, max_iters=150)
    res = sa.ascend_variable_power(ch, PW, cfg, init)
    assert res.trace.reason is sa.TerminationReason.CYCLE_CAP
    first = sa.ascend_variable_power(ch, PW, dataclasses.replace(cfg, max_cycles=1), init)
    raised = dataclasses.replace(PW, p_s=PW.p_s + cfg.kappa * PW.p_s)
    fixed = sa.ascend_fixed_power(ch, raised, cfg, first.state)
    second, want = res.trace.log[res.trace.log["cycle"] == 2], fixed.trace.log[1:]
    assert len(second) == len(want) > 0
    for name in ("iteration", "c_s", "c_l", "c_e", "delta"):
        assert second[name].tobytes() == want[name].tobytes(), name
    assert res.trace.cycles[1].n_iters == fixed.trace.n_iters
    for u, v in zip(res.state.vectors(), fixed.state.vectors()):
        assert u.tobytes() == v.tobytes()


def test_variable_power_trace_iterations_increase_within_cycles():
    ch, init = small_problem(9)
    cfg = sa.OptimizerConfig(zeta=1e6, max_cycles=4, max_iters=50)
    res = sa.ascend_variable_power(ch, PW, cfg, init)
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
    cfg = sa.OptimizerConfig(zeta=2.0, mu=sa.db_to_linear(30.0), kappa=0.05,
                             max_iters=60, epsilon=1e-4)
    powers = sa.PowerConfig(p_s=sa.db_to_linear(p_s_db0), p_j=10.0)
    rows = [AscentRow(ch, powers, init)
            for ch, init in map(small_problem, range(20, 28))]
    results, error = ascend_rows(rows, cfg, variable=True)
    assert error is None
    reached = [res for res in results
               if res.trace.reason is sa.TerminationReason.TARGET_REACHED]
    assert any(len(res.trace.cycles) > 20 for res in reached)
    for res in reached:
        cycles = len(res.trace.cycles)
        expected = p_s_db0 + 10.0 * math.log10(1.0 + cfg.kappa) * (cycles - 1)
        assert abs(sa.linear_to_db(res.p_s) - expected) <= 1e-9


@pytest.mark.parametrize("variable", [False, True])
def test_result_pickle_round_trip(variable):
    # results cross a worker's pipe with their records as plain tuples;
    # they must come back as the same IterationRecords, bit for bit
    ch, init = small_problem(5)
    if variable:
        cfg = sa.OptimizerConfig(zeta=1e6, max_cycles=4, max_iters=50)
        res = sa.ascend_variable_power(ch, PW, cfg, init)
        assert len(res.trace.cycles) == 4
    else:
        res = sa.ascend_fixed_power(ch, PW, sa.OptimizerConfig(max_iters=200), init)
    back = pickle.loads(pickle.dumps(res))
    assert len(back.trace.records) == len(res.trace.records) > 1
    for got, want in zip(back.trace.records, res.trace.records):
        assert type(got) is IterationRecord
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert back.trace.cycles == res.trace.cycles
    assert back.trace.reason is res.trace.reason
    assert back.trace.n_iters == res.trace.n_iters
    assert back.p_s == res.p_s and back.snapshot == res.snapshot
    for got, want in zip(back.state.vectors(), res.state.vectors()):
        assert got.tobytes() == want.tobytes()


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        sa.OptimizerConfig(delta0=0.0)
    with pytest.raises(ValueError):
        sa.OptimizerConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        sa.OptimizerConfig(max_iters=0)
    for field in ("delta0", "epsilon", "kappa", "zeta", "mu", "delta_min"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sa.OptimizerConfig(**{field: value})
    assert sa.OptimizerConfig(zeta=0.0).zeta == 0.0  # finite and unset zeta are fine
    # a floor above the first step: the first rejection would end the cycle
    with pytest.raises(ValueError, match=r"delta_min.*delta0"):
        sa.OptimizerConfig(delta0=0.1, delta_min=0.5)
    assert sa.OptimizerConfig(delta0=0.1, delta_min=0.1).delta_min == 0.1  # no backtracking

