"""Shared builders for the test suite."""

import numpy as np

from secrecy_ascent.channel import ChannelParams, ChannelSet, draw_channel_set
from secrecy_ascent.config import load_config
from secrecy_ascent.gradients import capacity_difference
from secrecy_ascent.metrics import BeamformerState, PowerConfig
from secrecy_ascent.optimizer import warm_start


def scalar_channel(h_sl=1.0, h_se=0.0, h_jl=0.0, h_je=0.0) -> ChannelSet:
    return ChannelSet(
        h_sl=np.array([[h_sl]], dtype=complex),
        h_se=np.array([[h_se]], dtype=complex),
        h_jl=np.array([[h_jl]], dtype=complex),
        h_je=np.array([[h_je]], dtype=complex),
    )


def scalar_state(w_l=1.0, w_e=1.0, f_s=1.0, f_j=1.0) -> BeamformerState:
    return BeamformerState(
        w_l=np.array([w_l], dtype=complex),
        w_e=np.array([w_e], dtype=complex),
        f_s=np.array([f_s], dtype=complex),
        f_j=np.array([f_j], dtype=complex),
    )


def random_instance(n_rx, n_tx, seed, n_clusters=2, n_rays=3, p_s=10.0, p_j=10.0):
    """A seeded (channel set, CA state, powers) triple."""
    params = ChannelParams(
        n_clusters=n_clusters, n_rays=n_rays, n_rx=n_rx, n_tx=n_tx, angular_spread_deg=10.0
    )
    rng = np.random.default_rng(seed)
    ch = draw_channel_set(params, rng)
    bf = warm_start(params, rng)
    return ch, bf, PowerConfig(p_s=p_s, p_j=p_j)


def objective_in(ch, bf, pw, name):
    """c_l - c_e as a function of one beamformer vector, others held."""

    def objective(v):
        return capacity_difference(ch, bf._replace(**{name: v}), pw)

    return objective


# each band's geometry as its bundled preset states it
MMWAVE_PARAMS = load_config("mmwave").channel
SUB6_PARAMS = load_config("sub6").channel
