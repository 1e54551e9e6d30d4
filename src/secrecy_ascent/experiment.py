"""Monte Carlo harness tying channel draws, ascent runs, and benchmarks.

Both experiments run one study plan. Each trial owns an independent random
stream derived from the master seed and its trial index. Trials run in
contiguous shards of at most ``SHARD_TRIALS`` (``_shard``): a shard draws
each trial's channel and start from its own stream, in trial order, and
runs all its ascents as the rows of one lockstep ascent
(``optimizer.ascend_rows``). A fixed-power trial is two rows (w_e held,
w_e optimized) and comes back as (res_rand, res_opt, bound), its SVD
diagnostic taken with its draws; a variable-power trial is one row and
comes back as (res,). A study runs on n = min(threads, shards) processes,
the calling process being process 0: process k runs shards k, k+n, k+2n,
... through one generator (``_outcomes``), which renders a shard's
trace.csv rows before handing the shard on, and a worker sends each
outcome back over a pipe of its own. Since a row's result does not depend
on its batch, results are identical for any shard size or worker count.
One loop (``_run_study``) hands each trial to an observer as
``on_trial(i, *trial)``, stopping the workers at once if it raises, and
reduces the trials in trial-index order, into the report of its
experiment: a ``FixedPowerReport`` or a ``VariablePowerReport``, each
holding only what its experiment computes and writing its own
aggregate.csv rows. The trace.csv rows and the report state each power in
dB by the one ``metrics.linear_to_db``.
"""

from __future__ import annotations

import enum
import multiprocessing
from contextlib import closing
from dataclasses import dataclass
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
    """What both experiments report: Monte Carlo means and spreads, and the
    mean c_s curve on the longest trial's axis, shorter trials padded by
    carrying their terminal value forward. aggregate.csv is the report's
    curves as columns (``aggregate_text``)."""

    experiment: str
    n_trials: int
    c_s_mean_curve: list[float]
    converged_c_s_mean: float
    converged_c_s_std: float
    termination_reasons: dict[str, int]


@dataclass
class FixedPowerReport(AggregateReport):
    """The fixed-power report: its curves share the iteration axis (entry 0
    is the starting point), the w_e-held and the w_e-optimized curves
    padded to one length, the longer ascent's."""

    c_s_we_opt_mean_curve: list[float]
    converged_c_s_we_opt_mean: float
    svd_bound_mean: float
    mean_iterations: float
    svd_violation_trials: list[int]

    @property
    def svd_violations(self) -> int:
        return len(self.svd_violation_trials)

    def aggregate_text(self) -> str:
        """aggregate.csv, one ``%`` format per row, as ``_trace_text`` writes trace.csv."""
        row = f"%d,%s,%s,{self.svd_bound_mean!r}\n"
        rows = zip(range(len(self.c_s_mean_curve)), self.c_s_mean_curve,
                   self.c_s_we_opt_mean_curve)
        return ("iteration,c_s_mean,c_s_we_opt_mean,svd_bound_mean\n"
                + "".join(map(row.__mod__, rows)))


@dataclass
class VariablePowerReport(AggregateReport):
    """The variable-power report: its curves share the cycle axis (entry k
    is cycle k+1)."""

    p_s_db_mean_curve: list[float]
    mean_cycles: float
    mean_final_p_s_db: float

    def aggregate_text(self) -> str:
        """aggregate.csv, as ``FixedPowerReport.aggregate_text`` writes it."""
        rows = zip(range(1, len(self.c_s_mean_curve) + 1), self.c_s_mean_curve,
                   self.p_s_db_mean_curve)
        return "cycle,c_s_mean,p_s_db_mean\n" + "".join(map("%d,%s,%s\n".__mod__, rows))


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


def _pad_mean(curves: list[np.ndarray], length: int) -> list[float]:
    """Mean across trials after carry-forward padding to ``length`` entries."""
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
    w_e optimized, and a variable-power trial adds one. A fixed-power
    trial's SVD diagnostic is taken with its draws, so a trial whose draws
    or diagnostic fail gets no rows, nor do the trials after it.

    Returns ([trial] for the leading trials that finished, (first failed
    trial, its error) or None), a trial being (res_rand, res_opt, bound) at
    fixed power and (res,) at variable power.
    """
    fixed = cfg.experiment is ExperimentKind.FIXED_POWER
    draws, failure = [], None
    for i in range(start, stop):
        try:
            rng = seed_fanout(cfg.seed, i)
            ch = draw_channel_set(cfg.channel, rng)
            init = warm_start(cfg.channel, rng)
            draws.append((ch, init, (svd_upper_bound(ch, cfg.powers),) if fixed else ()))
        except Exception as exc:
            failure = (i, exc)
            break
    holds = (False, True) if fixed else (False,)
    rows = [AscentRow(ch, cfg.powers, init, optimize_we)
            for ch, init, _ in draws for optimize_we in holds]
    results, error = ascend_rows(rows, cfg.optimizer, variable=not fixed)
    n = len(holds)
    if error is not None:  # rows exist only for the trials drawn, so it comes first
        failure = (start + len(results) // n, error)
    return [tuple(results[n * k:n * k + n]) + draws[k][2]
            for k in range(len(results) // n)], failure


def _shard_bounds(n_trials: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous shards of SHARD_TRIALS trials, fewer when that would leave
    a process idle."""
    size = max(1, min(SHARD_TRIALS, -(-n_trials // threads)))
    return [(a, min(a + size, n_trials)) for a in range(0, n_trials, size)]


def _outcomes(shard, cfg: SystemConfig, bounds, render: bool):
    """Run the shards ``bounds`` in order, in whichever process calls this,
    yielding each one's outcome (trials, failure) as ``shard`` returns it;
    stop after a failed one. An error the shard raises is reported as data,
    as the failure of its first trial: a TrialError would not survive the
    trip back from a worker. With ``render``, each trial's trace.csv rows are
    put on its main ascent's trace, the trial's first result, in
    ``trace.csv_rows`` before the outcome is yielded."""
    for start, stop in bounds:
        try:
            trials, failure = shard(cfg, start, stop)
        except Exception as exc:
            trials, failure = [], (start, exc)
        if render:
            for offset in range(len(trials)):  # no loop variable keeps a trial
                trials[offset][0].trace.csv_rows = _trace_text(start + offset,
                                                               trials[offset][0].trace)
        yield trials, failure
        if failure is not None:
            return
        del trials  # handed on: free it before the next shard runs


def _shard_worker(conn, shard, cfg: SystemConfig, bounds, render: bool) -> None:
    """Send the ``_outcomes`` of the shards ``bounds`` on ``conn``, in a
    worker process. An outcome that cannot be sent ends the worker, which
    fails that shard in the calling process."""
    for outcome in _outcomes(shard, cfg, bounds, render):
        conn.send(outcome)
        del outcome  # sent: free it before the next shard runs
    conn.close()


def _received(worker, conn, bounds):
    """The outcomes of the shards ``bounds`` as ``worker`` sends them on
    ``conn``, read as ``_outcomes`` yields them; a worker that exits without
    sending one fails that shard's first trial, with its exit code."""
    for start, stop in bounds:
        try:
            outcome = conn.recv()
        except EOFError:
            worker.join()
            outcome = [], (start, ChildProcessError(
                f"worker process exited with code {worker.exitcode} "
                f"before sending trials {start}..{stop - 1}"))
        except Exception as exc:  # the outcome could not be read back
            outcome = [], (start, exc)
        yield outcome


def _map_trials(shard, cfg: SystemConfig, threads: int, render: bool):
    """Run trials 0..n_trials-1 in shards of ``shard`` (``_shard``, or a
    stand-in with its signature), yielding (index, trial) in trial order,
    and raise TrialError for the first trial that failed; ``threads`` below
    1 is a ValueError.

    n = min(threads, shards) processes run trials, and this process is
    process 0: process k runs shards k, k+n, k+2n, ... in order, through
    ``_outcomes``. Shard i is the next outcome of source i mod n: source 0
    is this process's own ``_outcomes``, and source k > 0 reads worker k's
    pipe (``_received``); an outcome waits in its worker until this process
    reads it. A worker that exits without sending a shard fails that
    shard's first trial, with its exit code. On a failure, or when the
    caller closes this generator early (as ``_run_study`` does when its
    observer raises), the live workers are stopped at once rather than
    waited for. Workers start with the platform's default start method: on
    Linux, fork, which starts one in milliseconds where spawning it and
    importing the package takes a third of a second.

    With ``render``, every trial comes with its trace.csv rows, rendered
    in the process that ran its shard before the shard is handed on. A
    shard's list lets go of each trial once yielded, so this process holds
    the rendered rows of one shard at a time, as a worker does.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    bounds = _shard_bounds(cfg.n_trials, threads)
    n = min(threads, len(bounds))
    sources = [_outcomes(shard, cfg, bounds[0::n], render)]
    workers = []  # (worker, the pipe it sends on) of processes 1..n-1
    try:
        for k in range(1, n):
            conn, child = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(
                target=_shard_worker, daemon=True,
                args=(child, shard, cfg, bounds[k::n], render))
            worker.start()
            workers.append((worker, conn))
            child.close()  # a sibling forked later must not hold it open
            sources.append(_received(worker, conn, bounds[k::n]))
        for i, (start, _) in enumerate(bounds):
            trials, failure = next(sources[i % n])
            for offset in range(len(trials)):
                trial, trials[offset] = trials[offset], None
                yield start + offset, trial
            if failure is not None:
                index, cause = failure
                raise TrialError(index, cfg.seed, cause) from cause
    finally:
        for worker, conn in workers:
            if worker.is_alive():
                worker.terminate()
        for worker, conn in workers:
            worker.join()
            conn.close()


def _run_study(cfg: SystemConfig, kind: ExperimentKind, threads: int, on_trial):
    """The study ``cfg`` describes, which must be of ``kind``: its trials,
    each handed to ``on_trial`` in index order, reduced to the report of
    ``kind``. An error the observer raises stops the workers before it
    propagates."""
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
    # both curve sets on one axis: at fixed power the longer ascent's
    length = max(c.size for c in curves + second_curves)
    common = dict(experiment=kind.value, n_trials=cfg.n_trials,
                  c_s_mean_curve=_pad_mean(curves, length),
                  converged_c_s_mean=float(np.mean(finals)),
                  converged_c_s_std=float(np.std(finals)), termination_reasons=reasons)
    second_curve, second_final = _pad_mean(second_curves, length), float(np.mean(second_finals))
    if fixed:
        return FixedPowerReport(
            **common, c_s_we_opt_mean_curve=second_curve, converged_c_s_we_opt_mean=second_final,
            svd_bound_mean=float(np.mean(bounds)), mean_iterations=float(np.mean(lengths)),
            svd_violation_trials=[i for i, (c_s, bound) in enumerate(zip(finals, bounds))
                                  if c_s > bound])
    return VariablePowerReport(**common, p_s_db_mean_curve=second_curve,
                               mean_cycles=float(np.mean(lengths)), mean_final_p_s_db=second_final)


def run_fixed_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult, OptimizeResult, float], None]] = None,
) -> FixedPowerReport:
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
) -> VariablePowerReport:
    """Per trial: one variable-power ascent toward the secrecy target.
    ``on_trial`` is as in ``run_fixed_power_experiment``."""
    return _run_study(cfg, ExperimentKind.VARIABLE_POWER, threads, on_trial)
