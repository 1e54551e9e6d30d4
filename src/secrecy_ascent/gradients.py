"""Conjugate (Wirtinger) gradients of the secrecy objective.

All gradients are taken with respect to the conjugated vector, so that for
the real objective c(v) the steepest-ascent update is v + delta * grad. The
1/ln(2) factor from the base-2 logarithms is kept.

The objective differentiated here is the smooth capacity difference
c_l - c_e; the clamp max(., 0) is flat wherever it binds and the ascent
direction of the difference is what drives the optimizer.

Every analytic value comes from one fused kernel, ``LinkKernel``, which
works on a packed state x = [w_l | w_e | f_s | f_j]: one stacked matmul
gives the four receive images, one reduction the four bilinear scalars and
the combiner norms, and one gradient call the packed conjugate gradient.
The optimizer's loop and the public ``grad_*``, ``gradient_bundle`` and
``capacity_difference`` all evaluate through it.

``fd_gradient`` is an independent central-difference oracle over the real
and imaginary parts of each coordinate, assembled into the same convention
0.5 * (d/dRe + j * d/dIm). It is the arbiter used by the test suite: the
analytic forms below are the ones that agree with it (for the source
precoder this means source-side factors P_s, h_sl, f_s in the legitimate
term and P_s, h_se, f_s in the eavesdropper term).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import ChannelSet
from .metrics import LN2, BeamformerState, PowerConfig, _check_dims


@dataclass(frozen=True)
class QuadForms:
    """The four squared bilinear forms |w^H H f|^2, one per link."""

    psi_sl: float
    psi_jl: float
    psi_se: float
    psi_je: float


@dataclass
class GradientBundle:
    """Conjugate gradients of the secrecy objective at one state."""

    g_wl: np.ndarray
    g_fj: np.ndarray
    g_fs: np.ndarray
    g_we: Optional[np.ndarray] = None


def quad_forms(ch: ChannelSet, bf: BeamformerState) -> QuadForms:
    _check_dims(ch, bf)
    return QuadForms(
        psi_sl=abs(bf.w_l.conj() @ ch.h_sl @ bf.f_s) ** 2,
        psi_jl=abs(bf.w_l.conj() @ ch.h_jl @ bf.f_j) ** 2,
        psi_se=abs(bf.w_e.conj() @ ch.h_se @ bf.f_s) ** 2,
        psi_je=abs(bf.w_e.conj() @ ch.h_je @ bf.f_j) ** 2,
    )


class Links:
    """Link quantities at one packed state, shared by the objective and the
    gradient.

    z[t, r] is the receive image H f of transmitter t (0 source, 1 jammer)
    at receiver r (0 legitimate, 1 eavesdropper); z[2] holds the combiners
    [w_l, w_e]. s = (s_sl, s_se, s_jl, s_je) are the bilinear scalars
    w^H H f, and den = (den_l0, den_l1, den_e0, den_e1) with
    den_*0 = noise + jamming and den_*1 = den_*0 + source term, so that
    c_l = log2(den_l1 / den_l0) and c_e = log2(den_e1 / den_e0).
    """

    __slots__ = ("x", "z", "s", "den", "c_l", "c_e")

    def __init__(self, x, z, s, den):
        self.x, self.z, self.s, self.den = x, z, s, den
        self.c_l = math.log2(den[1]) - math.log2(den[0])
        self.c_e = math.log2(den[3]) - math.log2(den[2])


class LinkKernel:
    """The four channels of one realization, stacked once, and the fused
    link and gradient evaluation on packed states.

    ``h`` is stack(h_sl, h_se, h_jl, h_je), viewed as (2, 2, n_rx, n_tx) by
    transmitter and receiver, so one stacked matmul with the precoders
    [f_s, f_j], broadcast over the receivers, gives all four receive images,
    and one with ``h_adj`` (the conjugate transpose of each channel) gives
    the four legs of the precoder gradients, which are then summed in
    pairs. Each link keeps its own matmul slice, so links with equal inputs
    get equal values and symmetric legs cancel exactly.
    """

    def __init__(self, ch: ChannelSet):
        n_rx, n_tx = ch.n_rx, ch.n_tx
        self.n_rx, self.n_tx = n_rx, n_tx
        self.h = np.array((ch.h_sl, ch.h_se, ch.h_jl, ch.h_je)).reshape(2, 2, n_rx, n_tx)

    @functools.cached_property
    def h_adj(self) -> np.ndarray:
        return np.ascontiguousarray(self.h.conj().swapaxes(2, 3)).reshape(4, self.n_tx, self.n_rx)

    @functools.cached_property
    def ca_scale(self) -> np.ndarray:
        """The constant-amplitude modulus 1/sqrt(N) of each entry's block."""
        return np.repeat([1.0 / math.sqrt(self.n_rx), 1.0 / math.sqrt(self.n_tx)],
                         [2 * self.n_rx, 2 * self.n_tx])

    def pack(self, bf: BeamformerState) -> np.ndarray:
        """x = [w_l | w_e | f_s | f_j], a fresh complex array."""
        return np.concatenate(bf.vectors()).astype(complex, copy=False)

    def unpack(self, x: np.ndarray) -> BeamformerState:
        """Views of the four blocks of x, in BeamformerState order."""
        r, t = self.n_rx, self.n_tx
        return BeamformerState(w_l=x[:r], w_e=x[r:2 * r], f_s=x[2 * r:2 * r + t],
                               f_j=x[2 * r + t:])

    def links(self, x: np.ndarray, pw: PowerConfig) -> Links:
        """Receive images, bilinear scalars, denominators and capacities at x."""
        r2 = 2 * self.n_rx
        z = np.empty((3, 2, self.n_rx), dtype=complex)
        np.matmul(self.h, x[r2:].reshape(2, 1, self.n_tx, 1),
                  out=z[:2].reshape(2, 2, self.n_rx, 1))
        z[2] = x[:r2].reshape(2, self.n_rx)
        (s_sl, s_se), (s_jl, s_je), (wl2, we2) = np.vecdot(z[2], z).tolist()
        den_l0 = pw.sigma2_l * wl2.real + pw.p_j * abs(s_jl) ** 2
        den_e0 = pw.sigma2_e * we2.real + pw.p_j * abs(s_je) ** 2
        den = (den_l0, den_l0 + pw.p_s * abs(s_sl) ** 2,
               den_e0, den_e0 + pw.p_s * abs(s_se) ** 2)
        return Links(x, z, (s_sl, s_se, s_jl, s_je), den)

    def gradient(self, lk: Links, pw: PowerConfig, with_we: bool) -> np.ndarray:
        """Packed conjugate gradient [g_wl | g_we | g_fs | g_fj] of c_l - c_e
        at lk's state. The g_we block is zero unless ``with_we``.

        coef[t, r] / ln2 weights receiver r's combiner in transmitter t's
        precoder gradient; its conjugate weights the receive image z[t, r] in
        combiner r's gradient, and coef[2, r] weights the combiner itself.
        """
        den_l0, den_l1, den_e0, den_e1 = lk.den
        s_sl, s_se, s_jl, s_je = lk.s
        inv_l = 1.0 / den_l1 - 1.0 / den_l0
        inv_e = 1.0 / den_e1 - 1.0 / den_e0
        coef = np.array([
            [pw.p_s * s_sl / den_l1, -pw.p_s * s_se / den_e1],
            [pw.p_j * s_jl * inv_l, -pw.p_j * s_je * inv_e],
            [pw.sigma2_l * inv_l, -pw.sigma2_e * inv_e],
        ]) / LN2
        r, r2 = self.n_rx, 2 * self.n_rx
        g = np.empty(lk.x.size, dtype=complex)
        weighted = (coef[:2, :, None] * lk.z[2]).reshape(4, r, 1)
        legs = np.matmul(self.h_adj, weighted)
        np.add(legs[0::2], legs[1::2], out=g[r2:].reshape(2, self.n_tx, 1))
        if with_we:
            np.vecdot(coef[:, :, None], lk.z, axis=0, out=g[:r2].reshape(2, r))
        else:
            np.vecdot(coef[:, :1, None], lk.z[:, :1], axis=0, out=g[:r].reshape(1, r))
            g[r:r2] = 0.0
        return g


def _evaluate(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig):
    _check_dims(ch, bf)
    kernel = LinkKernel(ch)
    return kernel, kernel.links(kernel.pack(bf), pw)


def gradient_bundle(
    ch: ChannelSet, bf: BeamformerState, pw: PowerConfig, include_we: bool = False
) -> GradientBundle:
    """All gradients at one state, from one kernel evaluation."""
    kernel, lk = _evaluate(ch, bf, pw)
    g = kernel.unpack(kernel.gradient(lk, pw, include_we))
    return GradientBundle(g_wl=g.w_l, g_fj=g.f_j, g_fs=g.f_s,
                          g_we=g.w_e if include_we else None)


def grad_wl(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the legitimate combiner."""
    return gradient_bundle(ch, bf, pw).g_wl


def grad_fj(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the jammer precoder."""
    return gradient_bundle(ch, bf, pw).g_fj


def grad_fs(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the source precoder."""
    return gradient_bundle(ch, bf, pw).g_fs


def grad_we(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the eavesdropper combiner
    (benchmark mode: ascending it degrades the eavesdropper link)."""
    return gradient_bundle(ch, bf, pw, include_we=True).g_we


def capacity_difference(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> float:
    """Unclamped c_l - c_e, the smooth function the gradients differentiate."""
    _, lk = _evaluate(ch, bf, pw)
    return lk.c_l - lk.c_e


def gradient_check_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Relative 2-norm disagreement between a gradient and its oracle.

    Degenerate configurations (a scalar combiner, zeroed powers) have
    exactly-zero gradients where a relative error is meaningless; when both
    sides are below the finite-difference noise floor the error is 0.
    """
    norm_ref = float(np.linalg.norm(reference))
    norm_ana = float(np.linalg.norm(analytic))
    if norm_ref < 1e-8 and norm_ana < 1e-8:
        return 0.0
    return float(np.linalg.norm(analytic - reference)) / max(norm_ref, 1e-8)


def fd_gradient(
    objective: Callable[[np.ndarray], float], point: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference conjugate gradient of a real objective.

    Probes each coordinate along the real and imaginary axes and assembles
    0.5 * (d/dRe + j * d/dIm). Independent of every analytic form above.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    grad = np.zeros(point.shape, dtype=complex)
    for k in range(point.size):
        probes = []
        for step in (h, -h, 1j * h, -1j * h):
            v = point.astype(complex).copy()
            v[k] += step
            val = objective(v)
            if not np.isfinite(val):
                raise ValueError(f"objective not finite at probe {k}, step {step}")
            probes.append(val)
        d_re = (probes[0] - probes[1]) / (2.0 * h)
        d_im = (probes[2] - probes[3]) / (2.0 * h)
        grad[k] = 0.5 * (d_re + 1j * d_im)
    return grad
