import math

import numpy as np
import pytest

from helpers import MMWAVE_PARAMS, SUB6_PARAMS
from secrecy_ascent import channel
from secrecy_ascent.channel import ChannelParams, ChannelSet, draw_channel_set
from secrecy_ascent.reference import PathComponent, build_channel, draw_paths, steering_vector


def test_steering_vector_zero_angle():
    v = steering_vector(2, 0.0)
    np.testing.assert_allclose(v, np.array([1, 1]) / math.sqrt(2), atol=1e-15)


def test_steering_vector_single_antenna():
    for angle in (0.0, 1.3, -2.7):
        np.testing.assert_allclose(steering_vector(1, angle), [1.0], atol=1e-15)


def test_steering_vector_broadside():
    # sin(pi/2) = 1 forces alternating signs
    v = steering_vector(4, math.pi / 2)
    np.testing.assert_allclose(v, [0.5, -0.5, 0.5, -0.5], atol=1e-12)


def test_steering_vector_unit_norm_property():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 257))
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        assert abs(np.linalg.norm(steering_vector(n, angle)) - 1.0) < 1e-12


def _steering_angles():
    special = [0.0, math.pi / 2, -math.pi / 2, math.pi, 4 * math.pi, -4 * math.pi, 7.5, -7.5]
    return np.concatenate([special, np.random.default_rng(10).uniform(-4 * np.pi, 4 * np.pi, 24)])


def test_steering_by_power_doubling_matches_closed_form():
    # entry k is u**k/sqrt(n), built by doubling; it must stay at rounding
    # distance of exp(j*pi*k*sin(az))/sqrt(n) up to 256 antennas
    angles = _steering_angles()
    for n in range(1, 257):
        k = np.arange(n)[:, None]
        expected = np.exp(1j * np.pi * k * np.sin(angles)) / math.sqrt(n)
        a = channel._steering_matrix(n, angles)
        assert a.shape == (n, angles.size)
        assert np.max(np.abs(a - expected)) < 1e-12
        for p, az in enumerate(angles):
            v = steering_vector(n, float(az))
            assert np.max(np.abs(v - expected[:, p])) < 1e-12
            assert v.tobytes() == a[:, p].tobytes()


def test_steering_matrix_leading_axes():
    # a stack of angle sets gives the stack of their matrices, bit for bit
    angles = _steering_angles().reshape(4, 8)
    stacked = channel._steering_matrix(16, angles)
    assert stacked.shape == (4, 16, 8)
    for h in range(4):
        assert stacked[h].tobytes() == channel._steering_matrix(16, angles[h]).tobytes()


def test_steering_vector_rejects_bad_count():
    with pytest.raises(ValueError):
        steering_vector(0, 0.0)


def test_draw_paths_cardinality():
    rng = np.random.default_rng(1)
    assert len(draw_paths(MMWAVE_PARAMS, rng)) == 60
    tiny = ChannelParams(n_clusters=1, n_rays=1, n_rx=2, n_tx=2, angular_spread_deg=10)
    assert len(draw_paths(tiny, rng)) == 1


def test_draw_paths_zero_spread_collapses_rays():
    params = ChannelParams(n_clusters=3, n_rays=5, n_rx=2, n_tx=2, angular_spread_deg=0.0)
    paths = draw_paths(params, np.random.default_rng(2))
    for c in range(3):
        cluster = paths[c * 5 : (c + 1) * 5]
        azimuths = {p.aoa_azimuth for p in cluster}
        assert len(azimuths) == 1
        assert len({p.aod_azimuth for p in cluster}) == 1


def test_build_channel_single_path_all_ones():
    params = ChannelParams(n_clusters=1, n_rays=1, n_rx=3, n_tx=5, angular_spread_deg=0)
    path = PathComponent(gain=1.0, aoa_azimuth=0.0, aod_azimuth=0.0)
    h = build_channel(params, [path])
    np.testing.assert_allclose(h, np.ones((3, 5)), atol=1e-12)


def test_build_channel_zero_gains():
    params = ChannelParams(n_clusters=2, n_rays=2, n_rx=2, n_tx=3, angular_spread_deg=10)
    paths = [
        PathComponent(gain=0.0, aoa_azimuth=a, aod_azimuth=-a)
        for a in (0.1, 0.4, 0.9, 1.7)
    ]
    np.testing.assert_array_equal(build_channel(params, paths), np.zeros((2, 3)))


def test_build_channel_linear_in_gains():
    params = ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=4, angular_spread_deg=10)
    rng = np.random.default_rng(3)
    paths = draw_paths(params, rng)
    doubled = [
        PathComponent(2 * p.gain, p.aoa_azimuth, p.aod_azimuth)
        for p in paths
    ]
    np.testing.assert_array_equal(
        build_channel(params, doubled), 2 * build_channel(params, paths)
    )


def test_build_channel_path_count_mismatch():
    params = ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=2, angular_spread_deg=10)
    paths = draw_paths(params, np.random.default_rng(4))
    with pytest.raises(ValueError):
        build_channel(params, paths[:-1])


def test_channel_statistics_match_normalization():
    # E||H||_F^2 = n_rx*n_tx under unit-variance gains and unit-norm steering
    rng = np.random.default_rng(5)
    norm2 = np.empty(1000)
    entry_mean = 0.0
    for i in range(1000):
        h = build_channel(MMWAVE_PARAMS, draw_paths(MMWAVE_PARAMS, rng))
        norm2[i] = np.linalg.norm(h) ** 2
        entry_mean += h.mean()
    scale = MMWAVE_PARAMS.n_rx * MMWAVE_PARAMS.n_tx
    assert abs(norm2.mean() / scale - 1.0) < 0.05
    assert abs(entry_mean / 1000) < 0.1


@pytest.mark.parametrize(
    "params,shape", [(MMWAVE_PARAMS, (4, 64)), (SUB6_PARAMS, (4, 16))]
)
def test_draw_channel_set_shapes(params, shape):
    ch = draw_channel_set(params, np.random.default_rng(6))
    for h in (ch.h_sl, ch.h_se, ch.h_jl, ch.h_je):
        assert h.shape == shape
        assert np.all(np.isfinite(h))


def test_draw_channel_set_deterministic_under_seed():
    a = draw_channel_set(SUB6_PARAMS, np.random.default_rng(7))
    b = draw_channel_set(SUB6_PARAMS, np.random.default_rng(7))
    for name in ("h_sl", "h_se", "h_jl", "h_je"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("params", [MMWAVE_PARAMS, SUB6_PARAMS])
def test_draw_channel_set_equals_per_ray_reference(params):
    # the array draw must reproduce the per-ray path list bit for bit and
    # consume exactly the same stream
    fast, ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(3):
        ch = draw_channel_set(params, fast)
        for name in ("h_sl", "h_se", "h_jl", "h_je"):
            expected = build_channel(params, draw_paths(params, ref))
            assert getattr(ch, name).tobytes() == expected.tobytes()
        assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("params", [MMWAVE_PARAMS, SUB6_PARAMS])
def test_draw_channel_set_stream(params):
    # per channel, two blocks and nothing else: the clusters' aoa and aod
    # centers, then each ray's two offsets and two gain parts
    drawn, ref = np.random.default_rng(9), np.random.default_rng(9)
    draw_channel_set(params, drawn)
    for _ in range(4):
        ref.random(2 * params.n_clusters)
        ref.standard_normal(4 * params.n_clusters * params.n_rays)
    assert drawn.bit_generator.state == ref.bit_generator.state


def test_channel_set_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        ChannelSet(
            h_sl=np.zeros((2, 3), dtype=complex),
            h_se=np.zeros((2, 3), dtype=complex),
            h_jl=np.zeros((2, 4), dtype=complex),
            h_je=np.zeros((2, 3), dtype=complex),
        )


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(n_clusters=0, n_rays=1, n_rx=1, n_tx=1, angular_spread_deg=10)
    for spread in (-1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angular_spread_deg"):
            ChannelParams(n_clusters=1, n_rays=1, n_rx=1, n_tx=1, angular_spread_deg=spread)
