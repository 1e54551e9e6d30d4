"""Monte Carlo harness tying channel draws, ascent runs, and benchmarks.

Each trial owns an independent random stream derived from the master seed
and its trial index. Trials run in contiguous shards of at most
``SHARD_TRIALS``: a shard draws each trial's channel and start from its own
stream, in trial order, and runs all its ascents as the rows of one
lockstep ascent (``optimizer.ascend_rows``), two rows per fixed-power trial
(w_e held and w_e optimized) and one per variable-power trial. A study
runs on n = min(threads, shards) processes, the calling process being
process 0: process k runs shards k, k+n, k+2n, ..., and a worker sends
each outcome back over a pipe of its own. When a study has an observer
for its trials, each trial's main ascent gets its trace.csv rows in the
process that ran it: a worker renders its shard before sending it, and the
calling process renders each trial of its own shards just before handing
it on. Since a row's result does not depend on its batch, results are
identical for any shard size or worker count.
Aggregation always reduces in trial-index order. The trace.csv rows and the
report state each power in dB by the one ``metrics.linear_to_db``.
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

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        variable = self.experiment is ExperimentKind.VARIABLE_POWER
        if variable and self.optimizer.zeta is None:
            raise ValueError("variable-power experiment needs optimizer.zeta")
        if variable and self.powers.p_s > self.optimizer.mu:
            raise ValueError("variable power must start at or below its ceiling: "
                             "'p_s_db' is above 'mu_db'")


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


# trace.csv: one row per accepted iteration of every trial's main ascent
TRACE_HEADER = ["trial", "cycle", "iteration", "c_s", "c_l", "c_e", "delta", "p_s_db"]


def _texts(values: np.ndarray, fmt) -> map:
    """fmt(v) for each of ``values``, computed once per distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    return map([fmt(v) for v in distinct.tolist()].__getitem__, index.tolist())


def _trace_text(trial: int, trace: OptimizerTrace) -> str:
    """The trace.csv rows of one trial's main ascent, read from the columns
    of its iteration log.

    Each row is one ``%`` format of Python ints and floats: a float's ``%s``
    text is its repr, as in ``csv.writer`` (and ``%s`` formats a float
    faster than ``%r``). ``delta`` takes a few values per trial and ``p_s``
    one per cycle, so their text is made once per distinct value.
    """
    log = trace.log
    row = f"{trial},%d,%d,%s,%s,%s,%s,%s\n"
    return "".join(map(row.__mod__, zip(
        log["cycle"].tolist(), log["iteration"].tolist(), log["c_s"].tolist(),
        log["c_l"].tolist(), log["c_e"].tolist(),
        _texts(log["delta"], repr), _texts(log["p_s"], lambda p_s: repr(linear_to_db(p_s))))))


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
            bound = svd_upper_bound(ch, cfg.powers)
        except Exception as exc:
            return trials, (start + k, exc)
        trials.append((results[2 * k], results[2 * k + 1], bound))
    return trials, failure


def _variable_shard(cfg: SystemConfig, start: int, stop: int):
    """Trials start..stop-1 of a variable-power study as rows of one
    lockstep ascent, one row per trial. Returns ([result] for the leading
    trials that finished, (first failed trial, its error) or None)."""
    draws, draw_failure = _draw_trials(cfg, start, stop)
    rows = [AscentRow(ch, cfg.powers, init) for ch, init in draws]
    results, error = ascend_rows(rows, cfg.optimizer, variable=True)
    return results, draw_failure if error is None else (start + len(results), error)


def _shard_bounds(n_trials: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous shards of SHARD_TRIALS trials, fewer when that would leave
    a process idle."""
    size = max(1, min(SHARD_TRIALS, -(-n_trials // threads)))
    return [(a, min(a + size, n_trials)) for a in range(0, n_trials, size)]


def _run_shard(shard, cfg: SystemConfig, start: int, stop: int):
    """One shard, in a worker or in the calling process. An error the shard
    raises is reported as data, as the failure of its first trial: a
    TrialError would not survive the trip back from a worker."""
    try:
        return shard(cfg, start, stop)
    except Exception as exc:
        return [], (start, exc)


def _render(index: int, trial) -> None:
    """Put trial ``index``'s trace.csv rows on its main ascent's trace (the
    first result of a fixed-power trial), in ``trace.csv_rows``."""
    trace = (trial[0] if isinstance(trial, tuple) else trial).trace
    trace.csv_rows = _trace_text(index, trace)


def _shard_worker(conn, shard, cfg: SystemConfig, bounds, render: bool) -> None:
    """Run the shards ``bounds`` in order in a worker process, render their
    trials if asked and send each outcome on ``conn``; stop after a failed
    one. An outcome that cannot be sent ends the worker, which fails that
    shard in the calling process."""
    for start, stop in bounds:
        outcome = _run_shard(shard, cfg, start, stop)
        if render:
            trials = outcome[0]
            for offset in range(len(trials)):  # no loop variable keeps a trial
                _render(start + offset, trials[offset])
            del trials
        conn.send(outcome)
        if outcome[1] is not None:
            break
        del outcome  # sent: free it before the next shard runs
    conn.close()


def _receive(worker, conn, start: int, stop: int):
    """The outcome of the shard of trials start..stop-1 from ``worker``; a
    worker that exits without sending it fails the shard's first trial."""
    try:
        return conn.recv()
    except EOFError:
        worker.join()
        cause = ChildProcessError(f"worker process exited with code {worker.exitcode} "
                                  f"before sending trials {start}..{stop - 1}")
    except Exception as exc:  # the outcome could not be read back
        cause = exc
    return [], (start, cause)


def _map_trials(shard, cfg: SystemConfig, threads: int, render: bool):
    """Run trials 0..n_trials-1 in shards, yielding (index, result) in trial
    order, and raise TrialError for the first trial that failed; ``threads``
    below 1 is a ValueError.

    n = min(threads, shards) processes run trials, and this process is
    process 0: process k runs shards k, k+n, k+2n, ... in order. So this
    process runs shard i itself when i mod n is 0 and otherwise reads it
    from worker i mod n, over that worker's own pipe; an outcome waits in
    its worker until this process reads it. A worker that exits without
    sending a shard fails that shard's first trial, with its exit code. On
    a failure, or when the caller stops early, the live workers are stopped
    at once rather than waited for. Workers start with the platform's
    default start method: on Linux, fork, which starts one in milliseconds
    where spawning it and importing the package takes a third of a second.

    With ``render``, every trial comes with its trace.csv rows
    (``_render``): a worker's shard arrives rendered, and a trial this
    process ran is rendered as it is yielded. A shard's list lets go of
    each trial once yielded, so this process holds the rows it rendered
    for the current trial only.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    bounds = _shard_bounds(cfg.n_trials, threads)
    n = min(threads, len(bounds))
    workers = {}  # process k > 0: (worker, the pipe it sends on)
    try:
        for k in range(1, n):
            conn, child = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(
                target=_shard_worker, daemon=True,
                args=(child, shard, cfg, bounds[k::n], render))
            worker.start()
            workers[k] = worker, conn
            child.close()  # a sibling forked later must not hold it open
        for i, (start, stop) in enumerate(bounds):
            here = i % n == 0
            if here:
                trials, failure = _run_shard(shard, cfg, start, stop)
            else:
                trials, failure = _receive(*workers[i % n], start, stop)
            for offset in range(len(trials)):
                result, trials[offset] = trials[offset], None
                if render and here:
                    _render(start + offset, result)
                yield start + offset, result
            if failure is not None:
                index, cause = failure
                raise TrialError(index, cfg.seed, cause) from cause
    finally:
        for worker, conn in workers.values():
            if worker.is_alive():
                worker.terminate()
        for worker, conn in workers.values():
            worker.join()
            conn.close()


def run_fixed_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult, OptimizeResult, float], None]] = None,
) -> AggregateReport:
    """Per trial: one ascent with the eavesdropper combiner held at its
    random start, one benchmark ascent that optimizes it too (same channel
    and same start), and the SVD diagnostic for that realization.

    ``on_trial`` observes every trial in index order, e.g. to stream traces:
    the first result it gets carries the trial's trace.csv rows in
    ``trace.csv_rows``, rendered where the trial ran. Without an observer
    no rows are rendered, since nothing could read them.
    """
    if cfg.experiment is not ExperimentKind.FIXED_POWER:
        raise ValueError("config does not describe a fixed-power experiment")
    curves_rand, curves_opt = [], []
    finals_rand, finals_opt, bounds, iters = [], [], [], []
    violations = []
    reasons: dict[str, int] = {}
    trials = _map_trials(_fixed_shard, cfg, threads, on_trial is not None)
    for i, (res_rand, res_opt, bound) in trials:
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
    """Per trial: one variable-power ascent toward the secrecy target.
    ``on_trial`` is as in ``run_fixed_power_experiment``."""
    if cfg.experiment is not ExperimentKind.VARIABLE_POWER:
        raise ValueError("config does not describe a variable-power experiment")
    c_s_curves, p_db_curves = [], []
    n_cycles, finals, final_p_db = [], [], []
    reasons: dict[str, int] = {}
    for i, res in _map_trials(_variable_shard, cfg, threads, on_trial is not None):
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
