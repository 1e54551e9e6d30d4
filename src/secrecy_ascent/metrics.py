"""The types the engine states the links in (powers and beamformer states),
the dB conversions every output states its powers by, and the SVD
diagnostic bound.

The links themselves are evaluated in one place, ``gradients.LinkKernel``;
the per-vector SINR and capacity formulas it is tested against are in
``reference``. ``PowerConfig`` validates, so by ``optimizer``'s record rule
it is a dataclass and ``BeamformerState`` a NamedTuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """Source and jammer powers, linear scale. The noise variance at both
    receivers is 1, so a power is its SNR."""

    p_s: float
    p_j: float

    def __post_init__(self):
        if not (math.isfinite(self.p_s) and math.isfinite(self.p_j)):
            raise ValueError("powers must be finite")
        if not (self.p_s >= 0 and self.p_j >= 0):
            raise ValueError("powers must be >= 0")


class BeamformerState(NamedTuple):
    """Combiners (w_l at the receiver, w_e at the eavesdropper) and
    precoders (f_s at the source, f_j at the jammer), in packed order."""

    w_l: np.ndarray
    w_e: np.ndarray
    f_s: np.ndarray
    f_j: np.ndarray


def _unpack_state(packed: np.ndarray, n_rx: int, n_tx: int) -> BeamformerState:
    """The state whose blocks [w_l | w_e | f_s | f_j] are the consecutive
    views of ``packed``: two of n_rx entries, then two of n_tx."""
    a, b, c = n_rx, 2 * n_rx, 2 * n_rx + n_tx
    return BeamformerState(packed[:a], packed[a:b], packed[b:c], packed[c:])


def _check_dims(ch: ChannelSet, bf: BeamformerState) -> None:
    n_rx, n_tx = ch.h_sl.shape
    if bf.w_l.shape != (n_rx,) or bf.w_e.shape != (n_rx,):
        raise ValueError(f"combiners must have shape ({n_rx},)")
    if bf.f_s.shape != (n_tx,) or bf.f_j.shape != (n_tx,):
        raise ValueError(f"precoders must have shape ({n_tx},)")


def svd_upper_bound(ch: ChannelSet, pw: PowerConfig) -> float:
    """Secrecy diagnostic from extreme singular values of the four channels:

        log2(1 + P_s s_max(h_sl)^2 / (1 + P_j s_min(h_jl)^2))
      - log2(1 + P_s s_min(h_se)^2 / (1 + P_j s_max(h_je)^2))

    Best case for the legitimate link (largest singular value of h_sl,
    smallest of h_jl) against the worst case for the eavesdropper (smallest
    of h_se, largest of h_je). The jammer transmits P_j towards both
    receivers, so P_j scales its interference in both denominators, as it
    does in the SINRs the ascent maximizes. Not an achievable rate and not
    clamped: a negative value is reported as-is.
    """
    s_sl, s_se, s_jl, s_je = np.linalg.svd(np.stack((ch.h_sl, ch.h_se, ch.h_jl, ch.h_je)),
                                           compute_uv=False)
    term_l = np.log2(1.0 + pw.p_s * s_sl[0] ** 2 / (1.0 + pw.p_j * s_jl[-1] ** 2))
    term_e = np.log2(1.0 + pw.p_s * s_se[-1] ** 2 / (1.0 + pw.p_j * s_je[0] ** 2))
    return float(term_l - term_e)
