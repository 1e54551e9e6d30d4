import cmath
import math

import numpy as np
import pytest

from helpers import objective_in, random_instance, scalar_channel, scalar_state
from secrecy_ascent.channel import ChannelSet
from secrecy_ascent.gradients import (fd_gradient, grad_fj, grad_fs, grad_we, grad_wl,
                                      gradient_bundle, gradient_check_error)
from secrecy_ascent.metrics import BeamformerState, PowerConfig

GRAD_NAMES = ("w_l", "f_j", "f_s", "w_e")
GRAD_FN = {"w_l": grad_wl, "f_j": grad_fj, "f_s": grad_fs, "w_e": grad_we}


def test_fd_gradient_of_quadratic():
    grad = fd_gradient(lambda v: float(np.vdot(v, v).real), np.array([1.0 + 0.0j]))
    np.testing.assert_allclose(grad, [1.0], atol=1e-9)


def test_fd_gradient_of_linear_form():
    c = np.array([0.7 - 0.2j, -1.1 + 0.4j])
    point = np.array([0.3 + 0.8j, -0.5 - 0.1j])
    grad = fd_gradient(lambda v: 2.0 * float((c.conj() @ v).real), point)
    np.testing.assert_allclose(grad, c, atol=1e-9)


def test_fd_gradient_rejects_a_non_finite_objective():
    with pytest.raises(ValueError):
        fd_gradient(lambda v: float("nan"), np.array([1.0 + 0j]))


def test_zero_power_degeneracies():
    ch, bf, _ = random_instance(2, 4, seed=23)
    both_zero = PowerConfig(p_s=0.0, p_j=0.0)
    assert np.all(grad_wl(ch, bf, both_zero) == 0)
    assert np.all(grad_we(ch, bf, both_zero) == 0)
    no_jam = PowerConfig(p_s=5.0, p_j=0.0)
    assert np.all(grad_fj(ch, bf, no_jam) == 0)
    no_src = PowerConfig(p_s=0.0, p_j=5.0)
    assert np.all(grad_fs(ch, bf, no_src) == 0)


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (4, 16)])
@pytest.mark.parametrize("name", GRAD_NAMES)
def test_gradients_match_finite_differences(dims, name):
    for seed in range(5):
        ch, bf, pw = random_instance(*dims, seed=100 + seed)
        analytic = GRAD_FN[name](ch, bf, pw)
        ref = fd_gradient(objective_in(ch, bf, pw, name), getattr(bf, name))
        assert gradient_check_error(analytic, ref) < 1e-5


def test_grad_wl_scalar_hand_evaluation():
    # scalar system: both quotients collapse to w/|w|^2, so the gradient
    # cancels exactly; checked against the explicit two-term expression
    w, h_sl, h_jl = 0.8 + 0.6j, 1.3 - 0.4j, 0.2 + 0.9j
    f_s, f_j = cmath.exp(0.3j), cmath.exp(-1.1j)
    p_s, p_j = 2.5, 1.7
    a_sl, a_jl = h_sl * f_s, h_jl * f_j
    s_sl, s_jl = w.conjugate() * a_sl, w.conjugate() * a_jl
    den0 = abs(w) ** 2 + p_j * abs(s_jl) ** 2
    den1 = den0 + p_s * abs(s_sl) ** 2
    base = w + p_j * s_jl.conjugate() * a_jl
    full = base + p_s * s_sl.conjugate() * a_sl
    hand = (full / den1 - base / den0) / math.log(2.0)

    ch = scalar_channel(h_sl=h_sl, h_jl=h_jl)
    bf = scalar_state(w_l=w, f_s=f_s, f_j=f_j)
    got = grad_wl(ch, bf, PowerConfig(p_s=p_s, p_j=p_j))
    assert abs(got[0] - hand) < 1e-12
    assert abs(hand) < 1e-12


def test_grad_fj_cancels_under_full_symmetry():
    # identical channels and combiners on both sides zero the gradient pairwise
    ch, bf, pw = random_instance(3, 4, seed=24)
    sym = ChannelSet(h_sl=ch.h_sl, h_se=ch.h_sl.copy(),
                     h_jl=ch.h_jl, h_je=ch.h_jl.copy())
    bf = bf._replace(w_e=bf.w_l.copy())
    np.testing.assert_allclose(grad_fj(sym, bf, pw), 0.0, atol=1e-18)


def test_grad_fs_without_eavesdropper_channel():
    ch, bf, pw = random_instance(3, 4, seed=25)
    quiet = ChannelSet(h_sl=ch.h_sl, h_se=np.zeros_like(ch.h_se),
                       h_jl=ch.h_jl, h_je=ch.h_je)
    got = grad_fs(quiet, bf, pw)
    s_sl = bf.w_l.conj() @ ch.h_sl @ bf.f_s
    den1 = (np.vdot(bf.w_l, bf.w_l).real
            + pw.p_j * abs(bf.w_l.conj() @ ch.h_jl @ bf.f_j) ** 2
            + pw.p_s * abs(s_sl) ** 2)
    legit_term = pw.p_s * s_sl * (ch.h_sl.conj().T @ bf.w_l) / den1 / math.log(2.0)
    np.testing.assert_allclose(got, legit_term, rtol=1e-12)


def test_grad_we_vanishes_without_eavesdropper_links():
    ch, bf, pw = random_instance(2, 3, seed=26)
    deaf = ChannelSet(h_sl=ch.h_sl, h_se=np.zeros_like(ch.h_se),
                      h_jl=ch.h_jl, h_je=np.zeros_like(ch.h_je))
    np.testing.assert_allclose(grad_we(deaf, bf, pw), 0.0, atol=1e-18)


def test_grad_wl_phase_covariance():
    ch, bf, pw = random_instance(3, 5, seed=27)
    base = grad_wl(ch, bf, pw)
    for alpha in (0.7, -1.9):
        rotated = bf._replace(w_l=bf.w_l * np.exp(1j * alpha))
        np.testing.assert_allclose(
            grad_wl(ch, rotated, pw), base * np.exp(1j * alpha), atol=1e-10
        )


def test_gradient_bundle_matches_individual_calls():
    ch, bf, pw = random_instance(2, 4, seed=28)
    bundle = gradient_bundle(ch, bf, pw)
    assert isinstance(bundle, BeamformerState)
    for name, fn in GRAD_FN.items():
        np.testing.assert_array_equal(getattr(bundle, name), fn(ch, bf, pw))


def test_gradient_check_error_zero_guard():
    zero = np.zeros(2, dtype=complex)
    noise = np.full(2, 1e-10, dtype=complex)
    assert gradient_check_error(zero, noise) == 0.0
    assert gradient_check_error(noise, zero) == 0.0
    assert gradient_check_error(np.ones(2, dtype=complex), 2 * np.ones(2, dtype=complex)) \
        == pytest.approx(0.5)
