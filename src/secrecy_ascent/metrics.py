"""The types the link quantities are stated in (powers, beamformer states,
snapshots of both links), the dB conversions every output states its powers
by, and the SVD diagnostic bound.

The links themselves are evaluated in one place, ``gradients.LinkKernel``;
the per-vector SINR and capacity formulas it is tested against are in
``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet

LN2 = np.log(2.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """10 log10(x) by ``math.log10``; a power of 0 is -inf dB, and a
    negative power raises ValueError."""
    return 10.0 * math.log10(x) if x else -math.inf


@dataclass(frozen=True)
class PowerConfig:
    """Transmit/jamming powers and noise variances, all linear scale."""

    p_s: float
    p_j: float
    sigma2_l: float = 1.0
    sigma2_e: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p_s, self.p_j, self.sigma2_l, self.sigma2_e))):
            raise ValueError("powers and noise variances must be finite")
        if not (self.p_s >= 0 and self.p_j >= 0):
            raise ValueError("powers must be >= 0")
        if not (self.sigma2_l > 0 and self.sigma2_e > 0):
            raise ValueError("noise variances must be > 0")


@dataclass
class BeamformerState:
    """Combiners (w_l at the receiver, w_e at the eavesdropper) and
    precoders (f_s at the source, f_j at the jammer)."""

    w_l: np.ndarray
    w_e: np.ndarray
    f_s: np.ndarray
    f_j: np.ndarray

    def copy(self) -> "BeamformerState":
        return BeamformerState(self.w_l.copy(), self.w_e.copy(), self.f_s.copy(), self.f_j.copy())

    def vectors(self):
        return (self.w_l, self.w_e, self.f_s, self.f_j)

    def __reduce__(self):
        # One packed array instead of four: a state the ascent returns is
        # four views of one row, and each array pickles with a fixed cost
        # that dominates at these sizes.
        vectors = self.vectors()
        if all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == vectors[0].dtype
               for v in vectors):
            return _unpack_state, (np.concatenate(vectors), len(self.w_l), len(self.w_e),
                                   len(self.f_s))
        return BeamformerState, vectors


def _unpack_state(packed: np.ndarray, n_wl: int, n_we: int, n_fs: int) -> BeamformerState:
    """The state whose blocks are the consecutive views of ``packed``."""
    a, b, c = n_wl, n_wl + n_we, n_wl + n_we + n_fs
    return BeamformerState(packed[:a], packed[a:b], packed[b:c], packed[c:])


@dataclass(frozen=True)
class SecrecySnapshot:
    """Point evaluation of both links: SINRs, capacities, secrecy capacity."""

    gamma_l: float
    gamma_e: float
    c_l: float
    c_e: float
    c_s: float


def _check_dims(ch: ChannelSet, bf: BeamformerState) -> None:
    n_rx, n_tx = ch.h_sl.shape
    if bf.w_l.shape != (n_rx,) or bf.w_e.shape != (n_rx,):
        raise ValueError(f"combiners must have shape ({n_rx},)")
    if bf.f_s.shape != (n_tx,) or bf.f_j.shape != (n_tx,):
        raise ValueError(f"precoders must have shape ({n_tx},)")


def svd_upper_bound(ch: ChannelSet, pw: PowerConfig, literal: bool = False) -> float:
    """Secrecy diagnostic from extreme singular values of the four channels.

    Best case for the legitimate link (largest singular value of h_sl,
    smallest of h_jl) against the worst case for the eavesdropper (smallest
    of h_se, largest of h_je). Not an achievable rate and not clamped: a
    negative value is reported as-is.

    With ``literal=True`` the jammer power is dropped from the legitimate
    denominator, i.e. sigma_l^2 + lambda_min(h_jl)^2 instead of
    sigma_l^2 + P_j lambda_min(h_jl)^2. The default keeps P_j in both
    denominators for dimensional consistency.
    """
    s_sl, s_se, s_jl, s_je = np.linalg.svd(np.stack((ch.h_sl, ch.h_se, ch.h_jl, ch.h_je)),
                                           compute_uv=False)
    p_j_leg = 1.0 if literal else pw.p_j
    term_l = np.log2(1.0 + pw.p_s * s_sl[0] ** 2 / (pw.sigma2_l + p_j_leg * s_jl[-1] ** 2))
    term_e = np.log2(1.0 + pw.p_s * s_se[-1] ** 2 / (pw.sigma2_e + pw.p_j * s_je[0] ** 2))
    return float(term_l - term_e)
