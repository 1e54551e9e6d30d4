"""Monte Carlo harness tying channel draws, ascent runs, and benchmarks.

Each trial owns an independent random stream derived from the master seed
and its trial index. Trials run in contiguous shards of at most
``SHARD_TRIALS``: a shard draws each trial's channel and start from its own
stream, in trial order, and runs all its ascents as the rows of one
lockstep ascent (``optimizer.ascend_rows``), two rows per fixed-power trial
(w_e held and w_e optimized) and one per variable-power trial. A process
pool, if any, maps shards. Since a row's result does not depend on its
batch, results are identical for any shard size or worker count.
Aggregation always reduces in trial-index order.
"""

from __future__ import annotations

import enum
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channel import ChannelParams, draw_channel_set
from .metrics import PowerConfig, linear_to_db, svd_upper_bound
from .optimizer import (
    AscentRow,
    OptimizeResult,
    OptimizerConfig,
    OptimizerTrace,
    ascend_rows,
    warm_start,
)

# The single-ascent entry points stay importable from this module, where
# tools that wrap its per-trial layers look them up; the shards themselves
# run every ascent through ``ascend_rows``.
from .optimizer import ascend_fixed_power, ascend_variable_power  # noqa: F401

# Trials per shard, the unit a worker runs as one lockstep batch: tens of
# trials keep a batch's memory and the wait for a failing shard bounded.
SHARD_TRIALS = 20


class ExperimentKind(str, enum.Enum):
    FIXED_POWER = "fixed_power"
    VARIABLE_POWER = "variable_power"


@dataclass(frozen=True)
class SystemConfig:
    """Everything a run needs: geometry, powers, optimizer knobs, trial plan."""

    channel: ChannelParams
    powers: PowerConfig
    optimizer: OptimizerConfig
    n_trials: int
    seed: int
    experiment: ExperimentKind
    svd_bound_literal: bool = False

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.experiment is ExperimentKind.VARIABLE_POWER and self.optimizer.zeta is None:
            raise ValueError("variable-power experiment needs optimizer.zeta")


@dataclass
class AggregateReport:
    """Monte Carlo means, spreads, and benchmark curves for one experiment.

    Curves share the longest trial's axis; shorter trials are padded by
    carrying their terminal value forward. For fixed power the axis is the
    iteration index (entry 0 is the starting point); for variable power it
    is the cycle index (entry k is cycle k+1).
    """

    experiment: str
    n_trials: int
    c_s_mean_curve: list[float] = field(default_factory=list)
    c_s_we_opt_mean_curve: list[float] = field(default_factory=list)
    p_s_db_mean_curve: list[float] = field(default_factory=list)
    converged_c_s_mean: float = 0.0
    converged_c_s_std: float = 0.0
    converged_c_s_we_opt_mean: float = 0.0
    svd_bound_mean: float = 0.0
    mean_iterations: float = 0.0
    mean_cycles: float = 0.0
    mean_final_p_s_db: float = 0.0
    svd_violations: int = 0
    svd_violation_trials: list[int] = field(default_factory=list)
    termination_reasons: dict[str, int] = field(default_factory=dict)


class TrialError(RuntimeError):
    """A Monte Carlo trial failed; carries enough to reproduce it."""

    def __init__(self, trial_index: int, master_seed: int, cause: BaseException):
        super().__init__(
            f"trial {trial_index} (master seed {master_seed}) failed: {cause}"
        )
        self.trial_index = trial_index
        self.master_seed = master_seed


def seed_fanout(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial_index]))


def _dense_curve(trace: OptimizerTrace) -> np.ndarray:
    """Expand an ascent's accepted-iteration c_s to one value per loop pass.

    Passes with no accepted iteration hold the last accepted value, which is
    exactly the objective of the iterate kept through those passes.
    """
    log = trace.log
    idx = np.searchsorted(log["iteration"], np.arange(trace.n_iters + 1), side="right") - 1
    return log["c_s"][idx]


def _pad_mean(curves: list[np.ndarray]) -> list[float]:
    """Mean across trials after carry-forward padding to the longest curve."""
    length = max(c.size for c in curves)
    padded = np.empty((len(curves), length))
    for i, c in enumerate(curves):
        padded[i, : c.size] = c
        padded[i, c.size :] = c[-1]
    return padded.mean(axis=0).tolist()


def _draw_trials(cfg: SystemConfig, start: int, stop: int):
    """Channel and warm start of trials start..stop-1, each from its own
    stream, in trial order. Stops at the first trial whose draw fails and
    returns (draws, (trial, error) or None)."""
    draws = []
    for i in range(start, stop):
        try:
            rng = seed_fanout(cfg.seed, i)
            ch = draw_channel_set(cfg.channel, rng)
            draws.append((ch, warm_start(cfg.channel, rng)))
        except Exception as exc:
            return draws, (i, exc)
    return draws, None


def _fixed_shard(cfg: SystemConfig, start: int, stop: int):
    """Trials start..stop-1 of a fixed-power study as rows of one lockstep
    ascent: per trial, w_e held then w_e optimized, on the same channel and
    start. Then the SVD diagnostic of each trial, in order.

    Returns ([(res_rand, res_opt, bound)] for the leading trials that
    finished, (first failed trial, its error) or None).
    """
    draws, draw_failure = _draw_trials(cfg, start, stop)
    rows = [AscentRow(ch, cfg.powers, init, optimize_we)
            for ch, init in draws for optimize_we in (False, True)]
    results, error = ascend_rows(rows, cfg.optimizer)
    # rows exist only for the trials drawn, so an ascent failure comes first
    failure = draw_failure if error is None else (start + len(results) // 2, error)
    trials = []
    for k, (ch, _init) in enumerate(draws[:len(results) // 2]):
        try:
            bound = svd_upper_bound(ch, cfg.powers, literal=cfg.svd_bound_literal)
        except Exception as exc:
            return trials, (start + k, exc)
        trials.append((results[2 * k], results[2 * k + 1], bound))
    return trials, failure


def _variable_shard(cfg: SystemConfig, start: int, stop: int):
    """Trials start..stop-1 of a variable-power study as rows of one
    lockstep ascent, one row per trial. Returns ([result] for the leading
    trials that finished, (first failed trial, its error) or None)."""
    draws, draw_failure = _draw_trials(cfg, start, stop)
    rows = [AscentRow(ch, cfg.powers, init, cfg.optimizer.optimize_we) for ch, init in draws]
    results, error = ascend_rows(rows, cfg.optimizer, variable=True)
    return results, draw_failure if error is None else (start + len(results), error)


def _shard_bounds(n_trials: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous shards of SHARD_TRIALS trials, fewer when that would leave
    a worker idle."""
    size = max(1, min(SHARD_TRIALS, -(-n_trials // max(threads, 1))))
    return [(a, min(a + size, n_trials)) for a in range(0, n_trials, size)]


def _run_shard(job):
    """One shard in a worker. An error the shard raises is reported as data,
    as the failure of its first trial: a TrialError would not survive the
    trip back to the parent."""
    shard, cfg, start, stop = job
    try:
        return shard(cfg, start, stop)
    except Exception as exc:
        return [], (start, exc)


def _map_trials(shard, cfg: SystemConfig, threads: int):
    """Run trials 0..n_trials-1 in shards, yielding (index, result) in trial
    order, and raise TrialError for the first trial that failed.

    With threads > 1 a pool runs the shards; on a failure, or when the
    caller stops early, its workers are stopped at once rather than waited
    for.
    """
    bounds = _shard_bounds(cfg.n_trials, threads)
    jobs = [(shard, cfg, a, b) for a, b in bounds]
    pool = None
    if threads > 1 and len(jobs) > 1:
        pool = multiprocessing.Pool(min(threads, len(jobs)))
        outcomes = pool.imap(_run_shard, jobs)
    else:
        outcomes = map(_run_shard, jobs)
    try:
        for start, _ in bounds:
            try:
                trials, failure = next(outcomes)
            except Exception as exc:  # the outcome could not come back from the pool
                trials, failure = [], (start, exc)
            for offset, result in enumerate(trials):
                yield start + offset, result
            if failure is not None:
                index, cause = failure
                raise TrialError(index, cfg.seed, cause) from cause
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def run_fixed_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult, OptimizeResult, float], None]] = None,
) -> AggregateReport:
    """Per trial: one ascent with the eavesdropper combiner held at its
    random start, one benchmark ascent that optimizes it too (same channel
    and same start), and the SVD diagnostic for that realization.

    ``on_trial`` observes every trial in index order, e.g. to stream traces.
    """
    if cfg.experiment is not ExperimentKind.FIXED_POWER:
        raise ValueError("config does not describe a fixed-power experiment")
    curves_rand, curves_opt = [], []
    finals_rand, finals_opt, bounds, iters = [], [], [], []
    violations = []
    reasons: dict[str, int] = {}
    for i, (res_rand, res_opt, bound) in _map_trials(_fixed_shard, cfg, threads):
        if on_trial is not None:
            on_trial(i, res_rand, res_opt, bound)
        curves_rand.append(_dense_curve(res_rand.trace))
        curves_opt.append(_dense_curve(res_opt.trace))
        finals_rand.append(res_rand.snapshot.c_s)
        finals_opt.append(res_opt.snapshot.c_s)
        bounds.append(bound)
        iters.append(res_rand.trace.n_iters)
        reason = res_rand.trace.reason.value
        reasons[reason] = reasons.get(reason, 0) + 1
        if res_rand.snapshot.c_s > bound:
            violations.append(i)
    return AggregateReport(
        experiment=cfg.experiment.value,
        n_trials=cfg.n_trials,
        c_s_mean_curve=_pad_mean(curves_rand),
        c_s_we_opt_mean_curve=_pad_mean(curves_opt),
        converged_c_s_mean=float(np.mean(finals_rand)),
        converged_c_s_std=float(np.std(finals_rand)),
        converged_c_s_we_opt_mean=float(np.mean(finals_opt)),
        svd_bound_mean=float(np.mean(bounds)),
        mean_iterations=float(np.mean(iters)),
        svd_violations=len(violations),
        svd_violation_trials=violations,
        termination_reasons=reasons,
    )


def run_variable_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult], None]] = None,
) -> AggregateReport:
    """Per trial: one variable-power ascent toward the secrecy target."""
    if cfg.experiment is not ExperimentKind.VARIABLE_POWER:
        raise ValueError("config does not describe a variable-power experiment")
    c_s_curves, p_db_curves = [], []
    n_cycles, finals, final_p_db = [], [], []
    reasons: dict[str, int] = {}
    for i, res in _map_trials(_variable_shard, cfg, threads):
        if on_trial is not None:
            on_trial(i, res)
        cyc = res.trace.cycles
        c_s_curves.append(np.array([c.c_s for c in cyc]))
        p_db_curves.append(np.array([linear_to_db(c.p_s) for c in cyc]))
        n_cycles.append(len(cyc))
        finals.append(res.snapshot.c_s)
        final_p_db.append(linear_to_db(res.p_s))
        reason = res.trace.reason.value
        reasons[reason] = reasons.get(reason, 0) + 1
    return AggregateReport(
        experiment=cfg.experiment.value,
        n_trials=cfg.n_trials,
        c_s_mean_curve=_pad_mean(c_s_curves),
        p_s_db_mean_curve=_pad_mean(p_db_curves),
        converged_c_s_mean=float(np.mean(finals)),
        converged_c_s_std=float(np.std(finals)),
        mean_cycles=float(np.mean(n_cycles)),
        mean_final_p_s_db=float(np.mean(final_p_db)),
        termination_reasons=reasons,
    )
