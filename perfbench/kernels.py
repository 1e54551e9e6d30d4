"""Per-call costs of the engine's kernels, on both presets.

Each kernel is called through its public function on a state drawn with
the preset and the run's seed, after a warm-up, and every call is timed on
its own. The gradients rebuild the link quantities on each call, so their
figures are per-call costs, not shares of a loop pass.
"""

from __future__ import annotations

import time

import numpy as np

from secrecy_ascent.channel import draw_channel_set
from secrecy_ascent.config import load_config
from secrecy_ascent.experiment import seed_fanout
from secrecy_ascent.gradients import capacity_difference, grad_fj, grad_fs, grad_we, grad_wl
from secrecy_ascent.metrics import svd_upper_bound
from secrecy_ascent.optimizer import project_ca, project_unit_norm, warm_start

PRESETS = ("mmwave", "sub6")
KERNELS = (
    "gradients.capacity_difference_us",
    "gradients.grad_wl_us",
    "gradients.grad_fs_us",
    "gradients.grad_fj_us",
    "gradients.grad_we_us",
    "optimizer.project_ca_us",
    "optimizer.project_unit_norm_us",
    "optimizer.warm_start_us",
    "metrics.svd_upper_bound_us",
    "channel.draw_channel_set_us",
)
SLOW = {"channel.draw_channel_set_us"}


def _calls(preset: str, seed: int) -> dict:
    cfg = load_config(preset, {"experiment": "fixed_power", "seed": str(seed)})
    params, pw = cfg.channel, cfg.powers
    rng = seed_fanout(seed, 0)
    ch = draw_channel_set(params, rng)
    bf = warm_start(params, rng)
    step = bf.f_s + cfg.optimizer.delta0 * grad_fs(ch, bf, pw)
    return {
        "gradients.capacity_difference_us": lambda: capacity_difference(ch, bf, pw),
        "gradients.grad_wl_us": lambda: grad_wl(ch, bf, pw),
        "gradients.grad_fs_us": lambda: grad_fs(ch, bf, pw),
        "gradients.grad_fj_us": lambda: grad_fj(ch, bf, pw),
        "gradients.grad_we_us": lambda: grad_we(ch, bf, pw),
        "optimizer.project_ca_us": lambda: project_ca(step),
        "optimizer.project_unit_norm_us": lambda: project_unit_norm(step),
        "optimizer.warm_start_us": lambda: warm_start(params, rng),
        "metrics.svd_upper_bound_us": lambda: svd_upper_bound(ch, pw),
        "channel.draw_channel_set_us": lambda: draw_channel_set(params, rng),
    }


def measure(seed: int, repeats: int = 400, slow_repeats: int = 100, warmup: int = 20) -> dict:
    """``<kernel>.<preset>.p50`` and ``.p90`` in microseconds."""
    out = {}
    clock = time.perf_counter_ns
    for preset in PRESETS:
        calls = _calls(preset, seed)
        for name in KERNELS:
            fn = calls[name]
            for _ in range(warmup):
                fn()
            samples = np.empty(slow_repeats if name in SLOW else repeats)
            for i in range(samples.size):
                t0 = clock()
                fn()
                samples[i] = clock() - t0
            p50, p90 = np.percentile(samples, [50, 90]) / 1e3
            out[f"{name}.{preset}.p50"] = float(p50)
            out[f"{name}.{preset}.p90"] = float(p90)
    return out
