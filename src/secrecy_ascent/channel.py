"""Clustered geometric MIMO channel synthesis.

Channels are built as a normalized sum over clusters and rays of complex
path gains times outer products of uniform-linear-array response vectors:

    H = sqrt(N_rx*N_tx / (N_cl*N_ray)) * sum_paths  gain * a_rx(aoa) a_tx(aod)^H

Arrays are half-wavelength ULAs with an azimuth-only response, so a path
has two angles: its azimuth of arrival and of departure.

A response is built by power doubling: with u = exp(j*pi*sin(az)), entry k
is u**k/sqrt(n), and entries m..2m-1 are entries 0..m-1 times u**m. That is
one complex exponential per path and at most log2(n) multiplies per entry;
the entries stay within a few ulps per doubling of exp(j*pi*k*sin(az))/sqrt(n).
``draw_channel_set`` makes exactly the draws of four per-ray
``reference.draw_paths`` calls, in the same order, and assembles all four
channels in one batched product; the per-ray model (``PathComponent``,
``steering_vector``, ``build_channel``) lives in ``reference`` with the
other test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Cluster/ray geometry and array sizes for one link configuration."""

    n_clusters: int
    n_rays: int
    n_rx: int
    n_tx: int
    angular_spread_deg: float

    def __post_init__(self):
        for name in ("n_clusters", "n_rays", "n_rx", "n_tx"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.angular_spread_deg) and self.angular_spread_deg >= 0):
            raise ValueError(f"angular_spread_deg must be finite and >= 0, "
                             f"got {self.angular_spread_deg}")

    @property
    def n_paths(self) -> int:
        return self.n_clusters * self.n_rays


@dataclass
class ChannelSet:
    """The four N_rx x N_tx channels of one realization.

    h_sl: source -> legitimate receiver      h_se: source -> eavesdropper
    h_jl: jammer -> legitimate receiver      h_je: jammer -> eavesdropper
    """

    h_sl: np.ndarray
    h_se: np.ndarray
    h_jl: np.ndarray
    h_je: np.ndarray

    def __post_init__(self):
        shape = self.h_sl.shape
        for name in ("h_se", "h_jl", "h_je"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")


def _steering_matrix(n_antennas: int, azimuths: np.ndarray) -> np.ndarray:
    """ULA responses of azimuths of shape (..., P), as columns of an
    (..., n, P) array, built by power doubling (see the module docstring)."""
    u = np.exp(1j * np.pi * np.sin(azimuths))
    out = np.empty(u.shape[:-1] + (n_antennas, u.shape[-1]), dtype=complex)
    out[..., 0, :] = 1.0 / math.sqrt(n_antennas)
    m = 1
    while m < n_antennas:  # u holds u**m
        k = min(m, n_antennas - m)
        np.multiply(out[..., :k, :], u[..., None, :], out=out[..., m:m + k, :])
        m *= 2
        if m < n_antennas:
            u = u * u  # not in place: numpy rounds an aliased 1-element product differently
    return out


def _assemble(params: ChannelParams, gains: np.ndarray, aoa: np.ndarray,
              aod: np.ndarray) -> np.ndarray:
    """The channels of path sets stacked as (..., P) arrays, as one
    (..., n_rx, n_tx) array from one (batched) matrix product."""
    a_rx = _steering_matrix(params.n_rx, aoa)
    a_tx = _steering_matrix(params.n_tx, aod)
    np.conjugate(a_tx, out=a_tx)
    scale = math.sqrt(params.n_rx * params.n_tx / params.n_paths)
    return scale * ((a_rx * gains[..., None, :]) @ a_tx.swapaxes(-1, -2))


def draw_channel_set(params: ChannelParams, rng: np.random.Generator) -> ChannelSet:
    """Draw four independent channels sharing one geometry configuration.

    Each channel takes the draws of one ``draw_paths`` call in two block
    calls: the clusters' uniform aoa and aod centers, then each ray's aoa
    and aod offsets and gain parts as standard normals. ``2*pi*u`` is
    what ``rng.uniform(0, 2*pi)`` computes, ``spread * z`` what
    ``rng.normal(0, spread)`` computes, and the gain parts are divided
    separately, as Python's complex-by-float division does; so each channel
    equals ``reference.build_channel(params, reference.draw_paths(params,
    rng))`` bit for bit.
    """
    n_cl, n_ray = params.n_clusters, params.n_rays
    centers = np.empty((4, n_cl, 2))  # aoa, aod
    z = np.empty((4, n_cl, n_ray, 4))  # aoa offset, aod offset, gain re, gain im
    for h in range(4):
        rng.random(out=centers[h])
        rng.standard_normal(out=z[h])
    centers *= 2.0 * np.pi
    spread = math.radians(params.angular_spread_deg)
    az = (centers[:, :, None, :] + spread * z[..., :2]).reshape(4, -1, 2)
    gains = np.empty((4, n_cl * n_ray), dtype=complex)
    np.divide(z[..., 2:], math.sqrt(2.0), out=gains.view(float).reshape(4, n_cl, n_ray, 2))
    h = _assemble(params, gains, az[..., 0], az[..., 1])
    return ChannelSet(h_sl=h[0], h_se=h[1], h_jl=h[2], h_je=h[3])
