"""Projected gradient ascent over constant-amplitude analog beamformers.

The four beamformers travel as one packed state x = [w_l | w_e | f_s | f_j]
through ``gradients.LinkKernel``, built once per ascent. Every pass is one
gradient call, one gradient step and one constant-amplitude projection of
the whole packed step, then one link evaluation of the candidate. A 2-norm
step before the projection would change nothing, since ``project_ca`` keeps
only the phases. A step that decreases the objective is a perturbation: the
iterate (and its gradient) is kept and the step size halved (floored at
``delta_min``), which keeps the accepted trajectory monotone.

The acceptance and convergence tests run on the unclamped capacity
difference c_l - c_e. The reported secrecy capacity clamps at zero; running
the loop on the clamped value would freeze any start where the eavesdropper
is ahead, since the clamp is flat there while the difference still climbs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .channel import ChannelParams, ChannelSet
from .gradients import LinkKernel, Links
from .metrics import BeamformerState, PowerConfig, SecrecySnapshot, _check_dims, db_to_linear


@dataclass(frozen=True)
class OptimizerConfig:
    """Step-size schedule, stopping rules, and power adaptation knobs."""

    delta0: float = 0.1
    epsilon: float = 1e-7
    kappa: float = 1e-2
    zeta: Optional[float] = None
    mu: float = db_to_linear(30.0)
    max_iters: int = 10_000
    max_cycles: int = 1_000
    delta_min: float = 1e-6
    optimize_we: bool = False

    def __post_init__(self):
        if self.delta0 <= 0 or self.epsilon <= 0 or self.kappa <= 0:
            raise ValueError("delta0, epsilon and kappa must be > 0")
        if self.mu <= 0 or self.delta_min <= 0:
            raise ValueError("mu and delta_min must be > 0")
        if self.max_iters < 1 or self.max_cycles < 1:
            raise ValueError("max_iters and max_cycles must be >= 1")


class TerminationReason(str, enum.Enum):
    CONVERGED = "converged"
    ITER_CAP = "iter_cap"
    POWER_CAP = "power_cap"
    TARGET_REACHED = "target_reached"
    CYCLE_CAP = "cycle_cap"


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iteration (iteration 0 is the starting point)."""

    cycle: int
    iteration: int
    c_s: float
    c_l: float
    c_e: float
    delta: float
    p_s: float


@dataclass(frozen=True)
class CycleRecord:
    """Converged state of one fixed-power cycle."""

    cycle: int
    c_s: float
    p_s: float
    n_iters: int


@dataclass
class OptimizerTrace:
    records: list[IterationRecord] = field(default_factory=list)
    cycles: list[CycleRecord] = field(default_factory=list)
    reason: TerminationReason = TerminationReason.ITER_CAP
    n_iters: int = 0


@dataclass
class OptimizeResult:
    state: BeamformerState
    snapshot: SecrecySnapshot
    p_s: float
    trace: OptimizerTrace


def project_unit_norm(v: np.ndarray) -> np.ndarray:
    """Scale to unit 2-norm. A zero vector is a degenerate iterate."""
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def project_ca(v: np.ndarray) -> np.ndarray:
    """Force every entry onto modulus 1/sqrt(N), keeping phases.

    Entries with modulus below 1e-12 have no usable phase and are set to
    1/sqrt(N) with phase zero. The output always has unit 2-norm.
    """
    n = v.size
    scale = 1.0 / math.sqrt(n)
    mag = np.abs(v)
    out = np.full(v.shape, scale, dtype=complex)
    ok = mag >= 1e-12
    out[ok] = v[ok] * (scale / mag[ok])
    return out


def ca_violation(v: np.ndarray) -> float:
    """Max deviation of entry moduli from 1/sqrt(N); 0 for a CA vector."""
    return float(np.max(np.abs(np.abs(v) - 1.0 / math.sqrt(v.size))))


def state_ca_violation(bf: BeamformerState) -> float:
    return max(ca_violation(v) for v in bf.vectors())


def warm_start(params: ChannelParams, rng: np.random.Generator) -> BeamformerState:
    """Random start: i.i.d. CN(0,1) draws pushed onto the CA manifold."""

    def draw(n):
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        return project_ca(z)

    return BeamformerState(
        w_l=draw(params.n_rx),
        w_e=draw(params.n_rx),
        f_s=draw(params.n_tx),
        f_j=draw(params.n_tx),
    )


def _snapshot(lk: Links) -> SecrecySnapshot:
    den_l0, den_l1, den_e0, den_e1 = lk.den
    return SecrecySnapshot(gamma_l=den_l1 / den_l0 - 1.0, gamma_e=den_e1 / den_e0 - 1.0,
                           c_l=lk.c_l, c_e=lk.c_e, c_s=max(lk.c_l - lk.c_e, 0.0))


def _project_packed(kernel: LinkKernel, step: np.ndarray) -> np.ndarray:
    """``project_ca`` of every block of a packed step, in one pass.

    When no modulus is below the 1e-12 guard this is exactly ``project_ca``
    block by block, with each block's 1/sqrt(N) from ``kernel.ca_scale``;
    otherwise each block goes through ``project_ca`` itself, and a block
    that is exactly zero, which has no direction to keep, is a degenerate
    iterate.
    """
    mag = np.abs(step)
    if mag.min() >= 1e-12:
        return step * (kernel.ca_scale / mag)
    blocks = kernel.unpack(step).vectors()
    if not all(v.any() for v in blocks):
        raise ValueError("cannot project a zero step block")
    return np.concatenate([project_ca(v) for v in blocks])


def _run_cycle(
    kernel: LinkKernel,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    x: np.ndarray,
    cycle: int,
    records: list[IterationRecord],
    on_accept: Optional[Callable[[BeamformerState], None]],
):
    """One fixed-power ascent of the packed state x until |change| <= epsilon
    or the cap.

    Returns (links, passes, reason); the final state is ``links.x``. Rejected
    passes consume an iteration index but leave the iterate, its gradient and
    the records untouched.
    """
    lk = kernel.links(x, pw)
    diff = lk.c_l - lk.c_e
    if not math.isfinite(diff):
        raise ValueError("non-finite objective at the initial state")
    n_rx = kernel.n_rx
    delta = cfg.delta0
    reason = TerminationReason.ITER_CAP
    grad = None
    n = 0
    for n in range(1, cfg.max_iters + 1):
        if grad is None:
            grad = kernel.gradient(lk, pw, cfg.optimize_we)
        cand = _project_packed(kernel, lk.x + delta * grad)
        if not cfg.optimize_we:
            cand[n_rx:2 * n_rx] = lk.x[n_rx:2 * n_rx]
        lk_cand = kernel.links(cand, pw)
        diff_cand = lk_cand.c_l - lk_cand.c_e
        if not math.isfinite(diff_cand):
            raise ValueError(f"non-finite objective at iteration {n}")
        change = diff_cand - diff
        if change < 0.0:
            # perturbation: revert, then halve the step
            if -change <= cfg.epsilon or delta <= cfg.delta_min:
                reason = TerminationReason.CONVERGED
                break
            delta = max(0.5 * delta, cfg.delta_min)
            continue
        lk, diff, grad = lk_cand, diff_cand, None
        records.append(
            IterationRecord(cycle, n, max(diff, 0.0), lk.c_l, lk.c_e, delta, pw.p_s)
        )
        if on_accept is not None:
            on_accept(kernel.unpack(cand))
        if change <= cfg.epsilon:
            reason = TerminationReason.CONVERGED
            break
    return lk, n, reason


def _start(ch: ChannelSet, pw: PowerConfig, cfg: OptimizerConfig, init: BeamformerState):
    """Check the start, stack the channels for the whole ascent, and record
    the starting point as iteration 0. Returns (kernel, x, trace)."""
    _check_dims(ch, init)
    if state_ca_violation(init) > 1e-6:
        raise ValueError("initial state violates the constant-amplitude constraint")
    kernel = LinkKernel(ch)
    x = kernel.pack(init)
    s0 = _snapshot(kernel.links(x, pw))
    trace = OptimizerTrace()
    trace.records.append(IterationRecord(1, 0, s0.c_s, s0.c_l, s0.c_e, cfg.delta0, pw.p_s))
    return kernel, x, trace


def ascend_fixed_power(
    ch: ChannelSet,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    init: BeamformerState,
    on_accept: Optional[Callable[[BeamformerState], None]] = None,
) -> OptimizeResult:
    """Maximize the secrecy objective at constant source power.

    The eavesdropper combiner stays at its initial value unless
    ``cfg.optimize_we`` turns on the benchmark variant, which ascends w_e
    alongside the other three vectors.
    """
    kernel, x, trace = _start(ch, pw, cfg, init)
    lk, n, reason = _run_cycle(kernel, pw, cfg, x, 1, trace.records, on_accept)
    snap = _snapshot(lk)
    trace.cycles.append(CycleRecord(1, snap.c_s, pw.p_s, n))
    trace.reason = reason
    trace.n_iters = n
    return OptimizeResult(state=kernel.unpack(lk.x), snapshot=snap, p_s=pw.p_s, trace=trace)


def ascend_variable_power(
    ch: ChannelSet,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    init: BeamformerState,
    on_accept: Optional[Callable[[BeamformerState], None]] = None,
) -> OptimizeResult:
    """Repeat fixed-power cycles, raising P_s by kappa*P_s after any cycle
    that misses the secrecy target zeta, up to the power ceiling mu.

    The beamformers carry over between cycles; the step size restarts at
    delta0 each cycle. At least one cycle always runs, so zeta = 0 reports
    the target as reached without touching the power.
    """
    if cfg.zeta is None:
        raise ValueError("variable-power ascent needs cfg.zeta")
    kernel, x, trace = _start(ch, pw, cfg, init)
    p_s = pw.p_s
    total = 0
    reason = TerminationReason.CYCLE_CAP
    for cycle in range(1, cfg.max_cycles + 1):
        pw_c = replace(pw, p_s=p_s)
        lk, n, _ = _run_cycle(kernel, pw_c, cfg, x, cycle, trace.records, on_accept)
        x = lk.x
        total += n
        snap = _snapshot(lk)
        trace.cycles.append(CycleRecord(cycle, snap.c_s, p_s, n))
        if snap.c_s >= cfg.zeta:
            reason = TerminationReason.TARGET_REACHED
            break
        bumped = p_s + cfg.kappa * p_s
        if bumped > cfg.mu:
            reason = TerminationReason.POWER_CAP
            break
        p_s = bumped
    trace.reason = reason
    trace.n_iters = total
    return OptimizeResult(state=kernel.unpack(x), snapshot=_snapshot(lk), p_s=p_s, trace=trace)
