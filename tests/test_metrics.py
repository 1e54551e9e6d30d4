import math

import numpy as np
import pytest

import secrecy_ascent as sa
from helpers import MMWAVE_PARAMS, SUB6_PARAMS, random_instance, scalar_channel, scalar_state


def test_sinr_legitimate_reduces_to_snr():
    ch = scalar_channel(h_sl=1.0, h_jl=0.0)
    pw = sa.PowerConfig(p_s=10.0, p_j=5.0)
    assert sa.sinr_legitimate(ch, scalar_state(), pw) == pytest.approx(10.0)


def test_sinr_legitimate_zero_power():
    ch = scalar_channel(h_sl=1.0, h_jl=1.0)
    pw = sa.PowerConfig(p_s=0.0, p_j=5.0)
    assert sa.sinr_legitimate(ch, scalar_state(), pw) == 0.0


def test_sinr_legitimate_with_jamming():
    ch = scalar_channel(h_sl=1.0, h_jl=1.0)
    pw = sa.PowerConfig(p_s=10.0, p_j=10.0)
    assert sa.sinr_legitimate(ch, scalar_state(), pw) == pytest.approx(10.0 / 11.0)


def test_sinr_eavesdropper_cases():
    pw = sa.PowerConfig(p_s=10.0, p_j=1.0)
    assert sa.sinr_eavesdropper(scalar_channel(h_se=0.0), scalar_state(), pw) == 0.0
    assert sa.sinr_eavesdropper(
        scalar_channel(h_se=1.0, h_je=0.0), scalar_state(), pw
    ) == pytest.approx(10.0)
    pw1 = sa.PowerConfig(p_s=1.0, p_j=1.0)
    assert sa.sinr_eavesdropper(
        scalar_channel(h_se=1.0, h_je=3.0), scalar_state(), pw1
    ) == pytest.approx(1.0 / 10.0)


def test_capacity_values():
    assert sa.capacity(0.0) == 0.0
    assert sa.capacity(1.0) == pytest.approx(1.0)
    assert sa.capacity(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        sa.capacity(-0.1)


def test_secrecy_capacity_subtraction():
    # gamma_l = 2^2.5 - 1 and gamma_e = 1 give c_l = 2.5, c_e = 1.0
    pw = sa.PowerConfig(p_s=10.0, p_j=10.0)
    h_sl = math.sqrt((2**2.5 - 1) / 10.0)
    h_se = math.sqrt(1.0 / 10.0)
    snap = sa.secrecy_capacity(scalar_channel(h_sl=h_sl, h_se=h_se), scalar_state(), pw)
    assert snap.c_l == pytest.approx(2.5)
    assert snap.c_e == pytest.approx(1.0)
    assert snap.c_s == pytest.approx(1.5)


def test_secrecy_capacity_symmetric_links():
    ch, bf, pw = random_instance(3, 5, seed=11)
    sym = sa.ChannelSet(h_sl=ch.h_sl, h_se=ch.h_sl.copy(), h_jl=ch.h_jl, h_je=ch.h_jl.copy())
    bf.w_e = bf.w_l.copy()
    snap = sa.secrecy_capacity(sym, bf, pw)
    assert snap.c_s == pytest.approx(0.0, abs=1e-12)


def test_secrecy_capacity_clamps_at_zero():
    pw = sa.PowerConfig(p_s=10.0, p_j=10.0)
    snap = sa.secrecy_capacity(scalar_channel(h_sl=0.1, h_se=2.0), scalar_state(), pw)
    assert snap.c_l < snap.c_e
    assert snap.c_s == 0.0


def test_secrecy_capacity_nonnegative_and_finite():
    for seed in range(50):
        ch, bf, pw = random_instance(2, 4, seed=seed)
        snap = sa.secrecy_capacity(ch, bf, pw)
        assert snap.c_s >= 0.0
        assert np.isfinite(snap.c_s)


def test_svd_upper_bound_hand_value():
    ch = scalar_channel(h_sl=2.0, h_se=1.0, h_jl=1.0, h_je=3.0)
    pw = sa.PowerConfig(p_s=1.0, p_j=1.0)
    expected = math.log2(3.0) - math.log2(1.1)
    assert sa.svd_upper_bound(ch, pw) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.4475, abs=1e-4)


def test_svd_upper_bound_no_eavesdropper():
    ch = scalar_channel(h_sl=2.0, h_se=0.0, h_jl=1.0, h_je=3.0)
    pw = sa.PowerConfig(p_s=1.0, p_j=1.0)
    assert sa.svd_upper_bound(ch, pw) == pytest.approx(math.log2(3.0))


def test_svd_upper_bound_zero_source_power():
    ch = scalar_channel(h_sl=2.0, h_se=1.0, h_jl=1.0, h_je=3.0)
    assert sa.svd_upper_bound(ch, sa.PowerConfig(p_s=0.0, p_j=1.0)) == 0.0


def test_svd_upper_bound_literal_variant_drops_pj():
    ch = scalar_channel(h_sl=2.0, h_se=1.0, h_jl=1.0, h_je=3.0)
    pw = sa.PowerConfig(p_s=1.0, p_j=10.0)
    included = math.log2(1 + 4 / 11) - math.log2(1 + 1 / 91)
    literal = math.log2(1 + 4 / 2) - math.log2(1 + 1 / 91)
    assert sa.svd_upper_bound(ch, pw) == pytest.approx(included, abs=1e-12)
    assert sa.svd_upper_bound(ch, pw, literal=True) == pytest.approx(literal, abs=1e-12)


@pytest.mark.parametrize("params", [MMWAVE_PARAMS, SUB6_PARAMS], ids=["mmwave", "sub6"])
@pytest.mark.parametrize("literal", [False, True])
def test_svd_upper_bound_equals_four_separate_svds(params, literal):
    rng = np.random.default_rng(17)
    pw = sa.PowerConfig(p_s=10.0, p_j=10.0)
    for _ in range(5):
        ch = sa.draw_channel_set(params, rng)
        s_sl, s_se, s_jl, s_je = (np.linalg.svd(h, compute_uv=False)
                                  for h in (ch.h_sl, ch.h_se, ch.h_jl, ch.h_je))
        p_j_leg = 1.0 if literal else pw.p_j
        term_l = np.log2(1.0 + pw.p_s * s_sl[0] ** 2 / (pw.sigma2_l + p_j_leg * s_jl[-1] ** 2))
        term_e = np.log2(1.0 + pw.p_s * s_se[-1] ** 2 / (pw.sigma2_e + pw.p_j * s_je[0] ** 2))
        assert sa.svd_upper_bound(ch, pw, literal=literal) == float(term_l - term_e)


def test_svd_upper_bound_can_be_negative():
    ch = scalar_channel(h_sl=0.1, h_se=3.0, h_jl=2.0, h_je=0.1)
    assert sa.svd_upper_bound(ch, sa.PowerConfig(p_s=1.0, p_j=1.0)) < 0.0


def test_gamma_e_weakly_decreasing_in_pj():
    rng = np.random.default_rng(12)
    for seed in range(1000):
        ch, bf, _ = random_instance(2, 3, seed=seed)
        p_j = rng.uniform(0.0, 20.0)
        extra = rng.uniform(0.0, 20.0)
        lo = sa.sinr_eavesdropper(ch, bf, sa.PowerConfig(p_s=10.0, p_j=p_j + extra))
        hi = sa.sinr_eavesdropper(ch, bf, sa.PowerConfig(p_s=10.0, p_j=p_j))
        assert lo <= hi * (1 + 1e-12)


def test_gamma_l_phase_invariance():
    ch, bf, pw = random_instance(3, 4, seed=13)
    base = sa.sinr_legitimate(ch, bf, pw)
    for alpha in (0.3, 1.9, -2.4):
        rotated = bf.copy()
        rotated.w_l = bf.w_l * np.exp(1j * alpha)
        assert sa.sinr_legitimate(ch, rotated, pw) == pytest.approx(base, rel=1e-12)


def test_unit_norm_combiner_matches_simplified_sinr():
    # for ||w_l|| = 1 the noise term reduces to sigma_l^2
    ch, bf, pw = random_instance(3, 4, seed=14)
    assert abs(np.linalg.norm(bf.w_l) - 1.0) < 1e-9
    num = pw.p_s * abs(bf.w_l.conj() @ ch.h_sl @ bf.f_s) ** 2
    den = pw.sigma2_l + pw.p_j * abs(bf.w_l.conj() @ ch.h_jl @ bf.f_j) ** 2
    assert sa.sinr_legitimate(ch, bf, pw) == pytest.approx(num / den, rel=1e-9)


def test_dimension_mismatch_raises():
    ch, bf, pw = random_instance(2, 4, seed=15)
    bad = bf.copy()
    bad.w_l = np.ones(3, dtype=complex) / math.sqrt(3)
    with pytest.raises(ValueError):
        sa.sinr_legitimate(ch, bad, pw)
    with pytest.raises(ValueError):
        sa.secrecy_capacity(ch, bad, pw)


def test_power_config_validation():
    with pytest.raises(ValueError):
        sa.PowerConfig(p_s=-1.0, p_j=0.0)
    with pytest.raises(ValueError):
        sa.PowerConfig(p_s=1.0, p_j=1.0, sigma2_l=0.0)
    for field in ("p_s", "p_j", "sigma2_l", "sigma2_e"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sa.PowerConfig(**{"p_s": 1.0, "p_j": 1.0, field: value})


def test_db_conversions_round_trip():
    for db in (-7.0, 0.0, 10.0, 23.5):
        assert sa.linear_to_db(sa.db_to_linear(db)) == pytest.approx(db, abs=1e-12)
    assert sa.db_to_linear(10.0) == pytest.approx(10.0)


def test_linear_to_db_of_zero_and_negative_powers():
    assert sa.linear_to_db(0.0) == -math.inf
    assert sa.linear_to_db(np.float64(0.0)) == -math.inf
    with pytest.raises(ValueError):
        sa.linear_to_db(-1.0)
