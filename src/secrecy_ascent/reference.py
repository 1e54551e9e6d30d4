"""Reference formulas: per-ray, per-vector forms that no runtime path calls.

Each function here evaluates, one path or one vector at a time, a quantity
the engine computes in batched form; they are the test suite's independent
oracles. ``draw_paths`` + ``build_channel`` are the per-ray channel model
whose random stream and channels ``channel.draw_channel_set`` reproduces bit
for bit; ``sinr_*``, ``capacity`` and ``secrecy_capacity`` (as a
``SecrecySnapshot``) evaluate the links that ``gradients.LinkKernel`` fuses.
No engine module imports this one. Its records validate nothing, so by
``optimizer``'s record rule they are NamedTuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, ChannelSet, _assemble, _steering_matrix
from .metrics import BeamformerState, PowerConfig, _check_dims


class PathComponent(NamedTuple):
    """One ray: complex gain plus arrival/departure azimuths in radians."""

    gain: complex
    aoa_azimuth: float
    aod_azimuth: float


def steering_vector(n_antennas: int, azimuth: float) -> np.ndarray:
    """Half-wavelength ULA response: entry k is exp(j*pi*k*sin(az))/sqrt(n).

    The result always has unit 2-norm.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    return _steering_matrix(n_antennas, np.array([azimuth], dtype=float))[:, 0]


def draw_paths(params: ChannelParams, rng: np.random.Generator) -> list[PathComponent]:
    """Draw N_cl*N_ray path components.

    Gains are i.i.d. CN(0,1). Cluster-center azimuths are uniform on
    [0, 2*pi), drawn for all clusters first; per-ray offsets are zero-mean
    Gaussian with the configured angular spread. Arrival and departure
    angles are independent.
    """
    spread = math.radians(params.angular_spread_deg)
    centers = rng.uniform(0.0, 2.0 * np.pi, size=(params.n_clusters, 2))  # aoa, aod
    paths = []
    for aoa, aod in centers:
        for _ in range(params.n_rays):
            offsets = rng.normal(0.0, spread, size=2)
            re, im = rng.standard_normal(2)
            paths.append(
                PathComponent(
                    gain=complex(re, im) / math.sqrt(2.0),
                    aoa_azimuth=aoa + offsets[0],
                    aod_azimuth=aod + offsets[1],
                )
            )
    return paths


def build_channel(params: ChannelParams, paths: list[PathComponent]) -> np.ndarray:
    """Assemble the channel matrix from path components."""
    if len(paths) != params.n_paths:
        raise ValueError(f"expected {params.n_paths} paths, got {len(paths)}")
    gains = np.array([p.gain for p in paths])
    aoa = np.array([p.aoa_azimuth for p in paths])
    aod = np.array([p.aod_azimuth for p in paths])
    return _assemble(params, gains, aoa, aod)


def _bilinear_power(w: np.ndarray, h: np.ndarray, f: np.ndarray) -> float:
    s = w.conj() @ (h @ f)
    return float(s.real * s.real + s.imag * s.imag)


def sinr_legitimate(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> float:
    """P_s|w_l^H H_sl f_s|^2 / (w_l^H w_l + P_j|w_l^H H_jl f_j|^2), at unit noise."""
    _check_dims(ch, bf)
    num = pw.p_s * _bilinear_power(bf.w_l, ch.h_sl, bf.f_s)
    den = float(np.vdot(bf.w_l, bf.w_l).real) + pw.p_j * _bilinear_power(bf.w_l, ch.h_jl, bf.f_j)
    return num / den


def sinr_eavesdropper(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> float:
    """Mirror of sinr_legitimate on the eavesdropper side."""
    _check_dims(ch, bf)
    num = pw.p_s * _bilinear_power(bf.w_e, ch.h_se, bf.f_s)
    den = float(np.vdot(bf.w_e, bf.w_e).real) + pw.p_j * _bilinear_power(bf.w_e, ch.h_je, bf.f_j)
    return num / den


def capacity(gamma: float) -> float:
    """Shannon capacity log2(1 + gamma) in bps/Hz."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return float(np.log2(1.0 + gamma))


class SecrecySnapshot(NamedTuple):
    """Point evaluation of both links: capacities and secrecy capacity."""

    c_l: float
    c_e: float
    c_s: float


def secrecy_capacity(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> SecrecySnapshot:
    """Evaluate both links and clamp the capacity difference at zero."""
    c_l = capacity(sinr_legitimate(ch, bf, pw))
    c_e = capacity(sinr_eavesdropper(ch, bf, pw))
    return SecrecySnapshot(c_l=c_l, c_e=c_e, c_s=max(c_l - c_e, 0.0))
