"""Secrecy-capacity maximization for jammer-assisted MIMO links.

Clustered geometric channels, analog (constant-amplitude) beamforming, and
projected gradient ascent over precoders and combiners, with fixed-power
and power-adaptive variants plus benchmark diagnostics.
"""

__version__ = "0.1.0"

from .channel import Band, ChannelParams, ChannelSet, draw_channel_set
from .experiment import (
    ExperimentKind,
    SystemConfig,
    TrialError,
    run_fixed_power_experiment,
    run_variable_power_experiment,
    seed_fanout,
)
from .gradients import (
    capacity_difference,
    fd_gradient,
    grad_fj,
    grad_fs,
    grad_we,
    grad_wl,
    gradient_bundle,
    gradient_check_error,
)
from .metrics import BeamformerState, PowerConfig, db_to_linear, linear_to_db, svd_upper_bound
from .optimizer import (
    OptimizerConfig,
    TerminationReason,
    ascend_fixed_power,
    ascend_variable_power,
    ca_violation,
    project_ca,
    project_unit_norm,
    state_ca_violation,
    warm_start,
)
from .reference import (
    PathComponent,
    build_channel,
    capacity,
    draw_paths,
    secrecy_capacity,
    sinr_eavesdropper,
    sinr_legitimate,
    steering_vector,
)

__all__ = [
    "Band",
    "BeamformerState",
    "ChannelParams",
    "ChannelSet",
    "ExperimentKind",
    "OptimizerConfig",
    "PathComponent",
    "PowerConfig",
    "SystemConfig",
    "TerminationReason",
    "TrialError",
    "ascend_fixed_power",
    "ascend_variable_power",
    "build_channel",
    "ca_violation",
    "capacity",
    "capacity_difference",
    "db_to_linear",
    "draw_channel_set",
    "draw_paths",
    "fd_gradient",
    "grad_fj",
    "grad_fs",
    "grad_we",
    "grad_wl",
    "gradient_bundle",
    "gradient_check_error",
    "linear_to_db",
    "project_ca",
    "project_unit_norm",
    "run_fixed_power_experiment",
    "run_variable_power_experiment",
    "secrecy_capacity",
    "seed_fanout",
    "sinr_eavesdropper",
    "sinr_legitimate",
    "state_ca_violation",
    "steering_vector",
    "svd_upper_bound",
    "warm_start",
]
