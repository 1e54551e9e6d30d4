"""The fused link/gradient kernel against per-vector reference formulas.

``RefLinks`` and ``ref_grad_*`` evaluate every link and gradient one vector
at a time, in the form the optimizer used before the kernel packed them;
they are kept here as the reference the kernel must reproduce to rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import secrecy_ascent as sa
from helpers import random_instance
from secrecy_ascent.gradients import LN2, LinkKernel
from secrecy_ascent.optimizer import _project_packed

REL_TOL = 1e-12


class RefLinks:
    def __init__(self, ch, bf, pw):
        w_l, w_e, f_s, f_j = bf.w_l, bf.w_e, bf.f_s, bf.f_j
        self.a_sl = ch.h_sl @ f_s
        self.a_jl = ch.h_jl @ f_j
        self.a_se = ch.h_se @ f_s
        self.a_je = ch.h_je @ f_j
        self.s_sl = w_l.conj() @ self.a_sl
        self.s_jl = w_l.conj() @ self.a_jl
        self.s_se = w_e.conj() @ self.a_se
        self.s_je = w_e.conj() @ self.a_je
        wl2 = float(np.vdot(w_l, w_l).real)
        we2 = float(np.vdot(w_e, w_e).real)
        self.den_l0 = pw.sigma2_l * wl2 + pw.p_j * abs(self.s_jl) ** 2
        self.den_l1 = self.den_l0 + pw.p_s * abs(self.s_sl) ** 2
        self.den_e0 = pw.sigma2_e * we2 + pw.p_j * abs(self.s_je) ** 2
        self.den_e1 = self.den_e0 + pw.p_s * abs(self.s_se) ** 2
        self.c_l = math.log2(self.den_l1) - math.log2(self.den_l0)
        self.c_e = math.log2(self.den_e1) - math.log2(self.den_e0)


def ref_grad_wl(lk, bf, pw):
    base = pw.sigma2_l * bf.w_l + pw.p_j * np.conj(lk.s_jl) * lk.a_jl
    full = base + pw.p_s * np.conj(lk.s_sl) * lk.a_sl
    return (full / lk.den_l1 - base / lk.den_l0) / LN2


def ref_grad_we(lk, bf, pw):
    base = pw.sigma2_e * bf.w_e + pw.p_j * np.conj(lk.s_je) * lk.a_je
    full = base + pw.p_s * np.conj(lk.s_se) * lk.a_se
    return (base / lk.den_e0 - full / lk.den_e1) / LN2


def ref_grad_fj(lk, ch, bf, pw):
    c_jl = ch.h_jl.conj().T @ bf.w_l
    c_je = ch.h_je.conj().T @ bf.w_e
    leg = (1.0 / lk.den_l1 - 1.0 / lk.den_l0) * lk.s_jl * c_jl
    eav = (1.0 / lk.den_e1 - 1.0 / lk.den_e0) * lk.s_je * c_je
    return pw.p_j * (leg - eav) / LN2


def ref_grad_fs(lk, ch, bf, pw):
    c_sl = ch.h_sl.conj().T @ bf.w_l
    c_se = ch.h_se.conj().T @ bf.w_e
    return pw.p_s * (lk.s_sl * c_sl / lk.den_l1 - lk.s_se * c_se / lk.den_e1) / LN2


def ref_gradients(ch, bf, pw):
    lk = RefLinks(ch, bf, pw)
    return lk, {
        "w_l": ref_grad_wl(lk, bf, pw),
        "w_e": ref_grad_we(lk, bf, pw),
        "f_s": ref_grad_fs(lk, ch, bf, pw),
        "f_j": ref_grad_fj(lk, ch, bf, pw),
    }


def one_row(ch, bf, pw):
    """A batch of one row: the kernel and the links at bf."""
    kernel = LinkKernel((ch,), (pw,))
    return kernel, kernel.links([bf])


def fused_gradients(ch, bf, pw):
    kernel, lk = one_row(ch, bf, pw)
    g = kernel.unpack(kernel.gradient(lk)[0])
    return lk, {"w_l": g.w_l, "w_e": g.w_e, "f_s": g.f_s, "f_j": g.f_j}


def cases():
    rng = np.random.default_rng(40)
    for k in range(24):
        n_rx = 1 if k % 4 == 0 else int(rng.integers(1, 7))
        n_tx = int(rng.integers(1, 70))
        p_s, p_j = (0.0, 0.0) if k % 6 == 5 else (10 ** rng.uniform(-1, 2), 10 ** rng.uniform(-1, 2))
        yield n_rx, n_tx, p_s, p_j, 500 + k


def assert_kernel_matches_reference(ch, bf, pw):
    ref_lk, ref = ref_gradients(ch, bf, pw)
    lk, got = fused_gradients(ch, bf, pw)
    # relative to the largest reference gradient: a gradient that cancels to
    # rounding level (a scalar combiner) has no relative precision of its own
    scale = max(float(np.linalg.norm(g)) for g in ref.values())
    for name in ref:
        assert got[name].shape == ref[name].shape
        assert np.linalg.norm(got[name] - ref[name]) <= REL_TOL * scale, name
    c_l, c_e, _ = lk.cd[0]
    assert c_l == pytest.approx(ref_lk.c_l, rel=REL_TOL, abs=1e-300)
    assert c_e == pytest.approx(ref_lk.c_e, rel=REL_TOL, abs=1e-300)


@pytest.mark.parametrize("n_rx,n_tx,p_s,p_j,seed", list(cases()))
def test_kernel_matches_reference(n_rx, n_tx, p_s, p_j, seed):
    ch, bf, pw = random_instance(n_rx, n_tx, seed=seed, p_s=p_s, p_j=p_j)
    assert_kernel_matches_reference(ch, bf, pw)


def test_kernel_matches_reference_with_zero_channels():
    ch, bf, pw = random_instance(3, 9, seed=41)
    zero = np.zeros_like(ch.h_sl)
    for quiet in (
        sa.ChannelSet(h_sl=zero, h_se=zero, h_jl=zero, h_je=zero),
        sa.ChannelSet(h_sl=ch.h_sl, h_se=zero, h_jl=ch.h_jl, h_je=zero),
        sa.ChannelSet(h_sl=ch.h_sl, h_se=ch.h_se, h_jl=zero, h_je=zero),
    ):
        assert_kernel_matches_reference(quiet, bf, pw)
    _, got = fused_gradients(sa.ChannelSet(h_sl=zero, h_se=zero, h_jl=zero, h_je=zero), bf, pw)
    for g in got.values():
        assert not g.any()


def test_public_gradients_are_the_kernel():
    ch, bf, pw = random_instance(4, 64, seed=42)
    lk, got = fused_gradients(ch, bf, pw)
    for name, fn in (("w_l", sa.grad_wl), ("w_e", sa.grad_we),
                     ("f_s", sa.grad_fs), ("f_j", sa.grad_fj)):
        np.testing.assert_array_equal(fn(ch, bf, pw), got[name])
    assert sa.capacity_difference(ch, bf, pw) == lk.cd[0, 0] - lk.cd[0, 1]


def packed_step(kernel, rng):
    n = 2 * (kernel.n_rx + kernel.n_tx)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_packed_projection_matches_project_ca_per_block():
    ch, _, pw = random_instance(3, 7, seed=44)
    kernel = LinkKernel((ch,), (pw,))
    rng = np.random.default_rng(45)
    for guard_entries in ((), (0, 5, 9), (3, 4, 5)):
        step = packed_step(kernel, rng)
        step[list(guard_entries)] = 1e-13  # below the 1e-12 modulus guard
        got = step[None].copy()
        assert _project_packed(kernel, got) == {}
        got = kernel.unpack(got[0])
        want = kernel.unpack(step)
        for v_got, v_step in zip(got.vectors(), want.vectors()):
            assert v_got.tobytes() == sa.project_ca(v_step).tobytes()


@pytest.mark.parametrize("block", range(4))
def test_packed_projection_rejects_a_zero_block(block):
    ch, _, pw = random_instance(2, 5, seed=46)
    kernel = LinkKernel((ch,), (pw,))
    step = packed_step(kernel, np.random.default_rng(47))
    kernel.unpack(step).vectors()[block][:] = 0.0
    failed = _project_packed(kernel, step[None])
    assert list(failed) == [0] and isinstance(failed[0], ValueError)


def test_packed_projection_treats_each_row_alone():
    ch, _, pw = random_instance(3, 7, seed=48)
    kernel = LinkKernel((ch,), (pw,))
    rng = np.random.default_rng(49)
    steps = np.array([packed_step(kernel, rng) for _ in range(4)])
    steps[1, [2, 8]] = 1e-13  # guard entries in row 1 only
    steps[2, 6:13] = 0.0  # row 2's f_s block is zero
    steps[3, 4] = np.nan  # row 3 holds a NaN, which the guard also diverts
    got = steps.copy()
    failed = _project_packed(kernel, got)
    assert list(failed) == [2, 3] and all(isinstance(e, ValueError) for e in failed.values())
    assert "non-finite" in str(failed[3])
    for row in (2, 3):
        assert got[row].tobytes() == steps[row].tobytes()
    for row in (0, 1):
        for v_got, v_step in zip(kernel.unpack(got[row]).vectors(),
                                 kernel.unpack(steps[row]).vectors()):
            assert v_got.tobytes() == sa.project_ca(v_step).tobytes()


def test_batched_kernel_rows_match_single_rows():
    # every kernel operation is row-wise: a row's links and gradient are
    # bit-identical in a batch of five and alone
    instances = [random_instance(3, 9, seed=60 + k, p_s=10.0 ** (k - 2), p_j=2.0 * k)
                 for k in range(5)]
    kernel = LinkKernel([ch for ch, _, _ in instances], [pw for _, _, pw in instances])
    lk = kernel.links([bf for _, bf, _ in instances])
    g = kernel.gradient(lk)
    for k, (ch, bf, pw) in enumerate(instances):
        one_kernel, one = one_row(ch, bf, pw)
        assert one.buf.tobytes() == lk.buf[k:k + 1].tobytes()
        assert one.s.tobytes() == lk.s[k:k + 1].tobytes()
        assert one.den.tobytes() == lk.den[k:k + 1].tobytes()
        assert one.cd.tobytes() == lk.cd[k:k + 1].tobytes()
        one_g = one_kernel.gradient(one)
        assert one_g.tobytes() == g[k:k + 1].tobytes()


@pytest.mark.parametrize("drop", [0, 2, 3], ids=["first", "middle", "last"])
def test_take_matches_a_kernel_of_the_kept_rows(drop):
    # take keeps rows after a power change: the kept rows' links and gradient
    # are bit-identical to those of a kernel built from them at the new powers
    instances = [random_instance(3, 9, seed=70 + k, p_j=1.0 + k) for k in range(4)]
    kernel = LinkKernel([ch for ch, _, _ in instances], [pw for _, _, pw in instances])
    lk = kernel.links([bf for _, bf, _ in instances])
    p_s = np.array([0.5, 2.0, 8.0, 32.0])
    kernel.set_p_s(p_s)
    kernel.refresh(lk)
    keep = np.arange(4) != drop
    kept = [(ch, bf, replace(pw, p_s=float(p))) for (ch, bf, pw), p, k in zip(instances, p_s, keep)
            if k]
    want_kernel = LinkKernel([ch for ch, _, _ in kept], [pw for _, _, pw in kept])
    want = want_kernel.links([bf for _, bf, _ in kept])
    got_kernel, got = kernel.take(keep), lk.take(keep)
    for name in ("x", "s", "den", "cd"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got_kernel.gradient(got).tobytes() == want_kernel.gradient(want).tobytes()


def test_single_state_objective_builds_no_conjugate_channels(monkeypatch):
    # only a gradient reads h_conj; the objective alone must not build it
    def fail(kernel):
        raise AssertionError("h_conj built")

    monkeypatch.setattr(LinkKernel, "h_conj", property(fail))
    ch, bf, pw = random_instance(4, 64, seed=43)
    assert math.isfinite(sa.capacity_difference(ch, bf, pw))
    with pytest.raises(AssertionError, match="h_conj built"):
        sa.grad_wl(ch, bf, pw)
