"""Monte Carlo harness tying channel draws, ascent runs, and benchmarks.

Both experiments run one study plan. Each trial owns an independent random
stream derived from the master seed and its trial index. Trials run in
contiguous shards of at most ``SHARD_TRIALS`` (``_shard``): a shard draws
each trial's channel and start from its own stream, in trial order, and
runs all its ascents as the rows of one lockstep ascent
(``optimizer.ascend_rows``). A fixed-power trial is two rows (w_e held,
w_e optimized) and comes back as (res_rand, res_opt, bound); a
variable-power trial is one row and comes back as (res,). A study runs on
n = min(threads, shards) processes, the calling process being process 0:
process k runs shards k, k+n, k+2n, ..., and a worker sends each outcome
back over a pipe of its own. Since a row's result does not depend on its
batch, results are identical for any shard size or worker count. One loop
(``_run_study``) hands each trial to an observer as ``on_trial(i, *trial)``,
stopping the workers at once if it raises, and reduces the trials in
trial-index order. The trace.csv rows and the report state each power in
dB by the one ``metrics.linear_to_db``.
"""

from __future__ import annotations

import enum
import multiprocessing
from contextlib import closing
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


def _shard(cfg: SystemConfig, start: int, stop: int):
    """Trials start..stop-1 as the rows of one lockstep ascent, each on its
    own channel and start: a fixed-power trial adds two rows, w_e held then
    w_e optimized, and then gets its SVD diagnostic; a variable-power trial
    adds one row.

    Returns ([trial] for the leading trials that finished, (first failed
    trial, its error) or None), a trial being (res_rand, res_opt, bound) at
    fixed power and (res,) at variable power.
    """
    draws, failure = [], None
    for i in range(start, stop):
        try:
            rng = seed_fanout(cfg.seed, i)
            draws.append((draw_channel_set(cfg.channel, rng), warm_start(cfg.channel, rng)))
        except Exception as exc:
            failure = (i, exc)
            break
    fixed = cfg.experiment is ExperimentKind.FIXED_POWER
    holds = (False, True) if fixed else (False,)
    rows = [AscentRow(ch, cfg.powers, init, optimize_we)
            for ch, init in draws for optimize_we in holds]
    results, error = ascend_rows(rows, cfg.optimizer, variable=not fixed)
    n = len(holds)
    if error is not None:  # rows exist only for the trials drawn, so it comes first
        failure = (start + len(results) // n, error)
    trials = []
    for k in range(len(results) // n):
        trial = tuple(results[n * k:n * k + n])
        if fixed:
            try:
                trial += (svd_upper_bound(draws[k][0], cfg.powers),)
            except Exception as exc:
                return trials, (start + k, exc)
        trials.append(trial)
    return trials, failure


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


def _render(index: int, trial: tuple) -> None:
    """Put trial ``index``'s trace.csv rows on its main ascent's trace, the
    trial's first result, in ``trace.csv_rows``."""
    trace = trial[0].trace
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
    """Run trials 0..n_trials-1 in shards of ``shard`` (``_shard``, or a
    stand-in with its signature), yielding (index, trial) in trial order,
    and raise TrialError for the first trial that failed; ``threads`` below
    1 is a ValueError.

    n = min(threads, shards) processes run trials, and this process is
    process 0: process k runs shards k, k+n, k+2n, ... in order. So this
    process runs shard i itself when i mod n is 0 and otherwise reads it
    from worker i mod n, over that worker's own pipe; an outcome waits in
    its worker until this process reads it. A worker that exits without
    sending a shard fails that shard's first trial, with its exit code. On
    a failure, or when the caller closes this generator early (as
    ``_run_study`` does when its observer raises), the live workers are
    stopped at once rather than waited for. Workers start with the platform's
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
                trial, trials[offset] = trials[offset], None
                if render and here:
                    _render(start + offset, trial)
                yield start + offset, trial
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


def _run_study(cfg: SystemConfig, kind: ExperimentKind, threads: int, on_trial):
    """The study ``cfg`` describes, which must be of ``kind``: its trials,
    each handed to ``on_trial`` in index order, reduced to one report. An
    error the observer raises stops the workers before it propagates."""
    if cfg.experiment is not kind:
        raise ValueError(f"config does not describe a {kind.value.replace('_', '-')} experiment")
    fixed = kind is ExperimentKind.FIXED_POWER
    # per trial: the main c_s curve and final c_s; the second curve and final,
    # c_s_we_opt at fixed power and p_s_db at variable power; the iterations
    # or cycles; and at fixed power the SVD diagnostic
    curves, second_curves, finals, second_finals, lengths, bounds = [], [], [], [], [], []
    reasons: dict[str, int] = {}
    with closing(_map_trials(_shard, cfg, threads, on_trial is not None)) as trials:
        for i, trial in trials:
            res = trial[0]
            finals.append(res.snapshot.c_s)
            reason = res.trace.reason.value
            reasons[reason] = reasons.get(reason, 0) + 1
            if fixed:
                _, res_opt, bound = trial
                curves.append(_dense_curve(res.trace))
                second_curves.append(_dense_curve(res_opt.trace))
                second_finals.append(res_opt.snapshot.c_s)
                lengths.append(res.trace.n_iters)
                bounds.append(bound)
            else:
                cycles = res.trace.cycles
                curves.append(np.array([c.c_s for c in cycles]))
                second_curves.append(np.array([linear_to_db(c.p_s) for c in cycles]))
                second_finals.append(linear_to_db(res.p_s))
                lengths.append(len(cycles))
            # every name above now holds trial i, so trial i-1 is let go
            if on_trial is not None:
                on_trial(i, *trial)
    report = AggregateReport(
        experiment=kind.value,
        n_trials=cfg.n_trials,
        c_s_mean_curve=_pad_mean(curves),
        converged_c_s_mean=float(np.mean(finals)),
        converged_c_s_std=float(np.std(finals)),
        termination_reasons=reasons,
    )
    if fixed:
        report.c_s_we_opt_mean_curve = _pad_mean(second_curves)
        report.converged_c_s_we_opt_mean = float(np.mean(second_finals))
        report.svd_bound_mean = float(np.mean(bounds))
        report.mean_iterations = float(np.mean(lengths))
        report.svd_violation_trials = [i for i, (c_s, bound) in enumerate(zip(finals, bounds))
                                       if c_s > bound]
        report.svd_violations = len(report.svd_violation_trials)
    else:
        report.p_s_db_mean_curve = _pad_mean(second_curves)
        report.mean_final_p_s_db = float(np.mean(second_finals))
        report.mean_cycles = float(np.mean(lengths))
    return report


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
    return _run_study(cfg, ExperimentKind.FIXED_POWER, threads, on_trial)


def run_variable_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult], None]] = None,
) -> AggregateReport:
    """Per trial: one variable-power ascent toward the secrecy target.
    ``on_trial`` is as in ``run_fixed_power_experiment``."""
    return _run_study(cfg, ExperimentKind.VARIABLE_POWER, threads, on_trial)
