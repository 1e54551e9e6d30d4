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
... through one generator (``_outcomes``), and a worker sends each
outcome back over a pipe of its own. A study with an observer runs
``_rendered_shard``, which appends each trial's trace.csv rows to it as its
last element. Since a row's result does not depend on its batch,
results are identical for any shard size or worker count.
One loop (``_run_study``) hands each trial to an observer as
``on_trial(i, *trial)``, stopping the workers at once if it raises, and
reduces them in trial-index order as they arrive, their curves into one
running sum (``_carry_add``) so that a study's memory does not grow with
its trials, into the report of its experiment: a ``FixedPowerReport`` or a
``VariablePowerReport``, each holding only what its experiment computes; both
render their files by ``AggregateReport.output_texts``. The trace.csv rows and
the report state each power in dB by the one ``metrics.linear_to_db``.
"""

from __future__ import annotations

import enum
import json
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
            raise ValueError("variable-power experiment needs 'zeta'")
        if variable and self.powers.p_s > self.optimizer.mu:
            raise ValueError("variable power must start at or below its ceiling: "
                             "'p_s_db' is above 'mu_db'")


# json's spelling of the floats whose repr is not their json text
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass
class AggregateReport:
    """What both experiments report: Monte Carlo means and spreads, and the
    mean c_s curve on the longest trial's axis, shorter trials padded by
    carrying their terminal value forward. Both reports' output files are
    rendered here (``output_texts``): aggregate.csv, its columns a report's
    ``_axis`` (header, first value), its curves and its ``_constants``, and
    report.json, the report beside its run's manifest."""

    experiment: str
    n_trials: int
    c_s_mean_curve: list[float]
    converged_c_s_mean: float
    converged_c_s_std: float
    termination_reasons: dict[str, int]

    def output_texts(self, manifest: dict) -> tuple[str, str]:
        """(aggregate.csv, report.json) of this report and its run's ``manifest``.
        Each curve value's text is its repr, made once and joined into both
        aggregate.csv's rows (``_aggregate_text``) and report.json's lists.
        report.json is json.dumps({"manifest": manifest, "report": report},
        indent=2) and a newline, byte for byte: json lays out the text with
        each non-empty curve as a marker, a NUL and its name, which no other
        value holds (json escapes a NUL, and a path or a config value has
        none), and each marker's json text is then replaced by the list joined
        from the curve's texts, where json would render it item by item in
        pure Python. A float's json text is its repr, NaN and the infinities apart."""
        curves = {name: list(map(repr, value)) for name, value in vars(self).items()
                  if name.endswith("_curve")}
        marks = {name: "\0" + name for name, texts in curves.items() if texts}
        text = json.dumps({"manifest": manifest, "report": {**vars(self), **marks}}, indent=2)
        for name, mark in marks.items():
            text = text.replace(json.dumps(mark), "[\n      " + ",\n      ".join(
                map(_JSON_FLOATS.get, curves[name], curves[name])) + "\n    ]")
        return self._aggregate_text(curves), text + "\n"

    def _aggregate_text(self, texts: dict[str, list[str]]) -> str:
        """aggregate.csv from ``texts``, each curve's value texts by name: the
        axis column, the curves in field order, each headed by its name less
        ``_curve``, and the constant columns, each constant's text made once."""
        (axis, first), constants = self._axis, self._constants
        header = ",".join([axis, *(name[:-len("_curve")] for name in texts), *constants])
        tail = "".join(f",{getattr(self, name)!r}" for name in constants) + "\n"
        rows = zip(map(str, range(first, first + len(self.c_s_mean_curve))), *texts.values())
        return header + "\n" + "".join([",".join(row) + tail for row in rows])


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

    _axis, _constants = ("iteration", 0), ("svd_bound_mean",)

    @property
    def svd_violations(self) -> int:
        return len(self.svd_violation_trials)


@dataclass
class VariablePowerReport(AggregateReport):
    """The variable-power report: its curves share the cycle axis (entry k
    is cycle k+1)."""

    p_s_db_mean_curve: list[float]
    mean_cycles: float
    mean_final_p_s_db: float

    _axis, _constants = ("cycle", 1), ()


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


def _dense_curve(trace: OptimizerTrace, length: int) -> np.ndarray:
    """An ascent's accepted-iteration c_s as one value per loop pass, for
    ``length`` passes from the starting point.

    Passes with no accepted iteration, or past the ascent's end, hold the last
    accepted value: exactly the objective of the iterate kept through them.
    """
    idx = np.searchsorted(trace.log["iteration"], np.arange(length), side="right") - 1
    return trace.c_s[idx]


def _carry_add(total: np.ndarray, curves: np.ndarray) -> np.ndarray:
    """total + curves (curves as rows), the shorter carried forward at its last column."""
    if total.shape[1] < curves.shape[1]:
        total, curves = curves, total
    total = total.copy()
    total[:, :curves.shape[1]] += curves
    total[:, curves.shape[1]:] += curves[:, -1:]
    return total


# trace.csv: one row per accepted iteration of every trial's main ascent
TRACE_HEADER = ["trial", "cycle", "iteration", "c_s", "c_l", "c_e", "delta", "p_s_db"]


def _texts(values: np.ndarray) -> map:
    """repr(v) for each of ``values``, computed once per distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    return map([repr(v) for v in distinct.tolist()].__getitem__, index.tolist())


def _trace_text(trial: int, trace: OptimizerTrace) -> str:
    """The trace.csv rows of one trial's main ascent, read from the columns
    of its iteration log and, for ``p_s_db``, from its cycles.

    Each row is one f-string of Python ints and texts, a float's text being
    its repr, as in ``csv.writer``. A row's head, ``trial,cycle,``, and its
    ``p_s_db`` tail are made once per cycle, and ``delta``, which takes a
    few values per trial, has its text made once per distinct value.
    """
    log = trace.log
    heads = [f"{trial},{k}," for k in range(1, len(trace.cycles) + 1)]
    tails = [f",{linear_to_db(c.p_s)!r}\n" for c in trace.cycles]
    return "".join([f"{heads[k]}{t},{c_s!r},{c_l!r},{c_e!r},{delta}{tails[k]}"
                    for k, t, c_s, c_l, c_e, delta in zip(
                        (log["cycle"] - 1).tolist(), log["iteration"].tolist(),
                        trace.c_s.tolist(), log["c_l"].tolist(), log["c_e"].tolist(),
                        _texts(log["delta"]))])


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


def _rendered_shard(cfg: SystemConfig, start: int, stop: int):
    """``_shard``, each trial ending with its main ascent's trace.csv rows."""
    trials, failure = _shard(cfg, start, stop)
    for k in range(len(trials)):  # no loop variable keeps a trial
        trials[k] += (_trace_text(start + k, trials[k][0].trace),)
    return trials, failure


def _outcomes(shard, cfg: SystemConfig, bounds):
    """Run the shards ``bounds`` in order, in whichever process calls this,
    yielding each one's outcome (trials, failure) as ``shard`` returns it;
    stop after a failed one. An error the shard raises is reported as data,
    as the failure of its first trial: a TrialError would not survive the
    trip back from a worker."""
    for start, stop in bounds:
        try:
            trials, failure = shard(cfg, start, stop)
        except Exception as exc:
            trials, failure = [], (start, exc)
        yield trials, failure
        if failure is not None:
            return
        del trials  # handed on: free it before the next shard runs


def _shard_worker(conn, shard, cfg: SystemConfig, bounds) -> None:
    """Send the ``_outcomes`` of the shards ``bounds`` on ``conn``, in a
    worker process. An outcome that cannot be sent ends the worker, which
    fails that shard in the calling process."""
    for outcome in _outcomes(shard, cfg, bounds):
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


def _map_trials(shard, cfg: SystemConfig, threads: int):
    """Run trials 0..n_trials-1 in shards of ``shard`` (``_shard``,
    ``_rendered_shard``, or a stand-in with their signature), yielding
    (index, trial) in trial order, and raise TrialError for the first trial
    that failed; ``threads`` below 1 is a ValueError.

    Shards are contiguous, of SHARD_TRIALS trials or fewer when that would
    leave a process idle. n = min(threads, shards) processes run trials,
    and this process is process 0: process k runs shards k, k+n, k+2n, ...
    in order, through ``_outcomes``. Shard i is the next outcome of source i
    mod n: source 0 is this process's own ``_outcomes``, and source k > 0
    reads worker k's pipe (``_received``); an outcome waits in its worker
    until this process reads it. A worker that exits without sending a shard
    fails that shard's first trial, with its exit code; one that cannot
    start (a refused fork, no descriptor left) fails its first shard's first
    trial, naming the OSError. On a failure, or when the caller closes this
    generator early (as ``_run_study`` does when its observer raises), the
    live workers are stopped at once rather than waited for. Workers start
    with the platform's default start method: on Linux, fork, which starts
    one in milliseconds where spawning it and importing the package takes a
    third of a second. A shard's list lets go of each trial once yielded, so
    this process holds one shard's trials at a time, as a worker does.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    size = max(1, min(SHARD_TRIALS, -(-cfg.n_trials // threads)))
    bounds = [(a, min(a + size, cfg.n_trials)) for a in range(0, cfg.n_trials, size)]
    n = min(threads, len(bounds))
    sources = [_outcomes(shard, cfg, bounds[0::n])]
    workers = []  # (worker, the pipe it sends on) of processes 1..n-1, the last maybe unstarted
    try:
        for k in range(1, n):
            try:
                conn, child = multiprocessing.Pipe(duplex=False)
                with child:  # a sibling forked later must not hold it open
                    worker = multiprocessing.Process(
                        target=_shard_worker, daemon=True,
                        args=(child, shard, cfg, bounds[k::n]))
                    workers.append((worker, conn))
                    worker.start()
            except OSError as exc:  # a refused fork, or no descriptor left
                cause = ChildProcessError(f"could not start a worker process: {exc!r}")
                sources.append(iter([([], (bounds[k][0], cause))]))
                break
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
            if worker.pid is not None:  # a worker that could not start has none
                worker.join()
            conn.close()


def _run_study(cfg: SystemConfig, kind: ExperimentKind, threads: int, on_trial):
    """The study ``cfg`` describes, which must be of ``kind``: its trials,
    each handed to ``on_trial`` in index order, reduced to the report of
    ``kind``. Its mean curves are summed row by row from +0.0; a trial's
    curve is padded with its final value, so each converged mean is its
    curve's last point. An error the observer raises stops the workers
    before it propagates."""
    if cfg.experiment is not kind:
        raise ValueError(f"config does not describe a {kind.value.replace('_', '-')} experiment")
    fixed = kind is ExperimentKind.FIXED_POWER
    # the trials' curves summed as they arrive: row 0 c_s, row 1 c_s_we_opt
    # at fixed power and p_s_db at variable power; and per trial its final
    # c_s, the iterations or cycles, and at fixed power the SVD diagnostic
    total, finals, lengths, bounds = np.zeros((2, 1)), [], [], []
    reasons: dict[str, int] = {}
    shard = _shard if on_trial is None else _rendered_shard
    with closing(_map_trials(shard, cfg, threads)) as trials:
        for i, trial in trials:
            res = trial[0]
            reason = res.trace.reason.value
            reasons[reason] = reasons.get(reason, 0) + 1
            if fixed:
                res_opt, bound = trial[1:3]
                length = max(res.trace.n_iters, res_opt.trace.n_iters) + 1  # the longer ascent's
                curves = np.stack([_dense_curve(r.trace, length) for r in (res, res_opt)])
                lengths.append(res.trace.n_iters)
                bounds.append(bound)
            else:
                cycles = res.trace.cycles
                curves = np.array([(c.c_s, linear_to_db(c.p_s)) for c in cycles]).T
                lengths.append(len(cycles))
            total = _carry_add(total, curves)
            finals.append(float(curves[0, -1]))  # a float: a view would hold the curves
            # every name above now holds trial i, so trial i-1 is let go
            if on_trial is not None:
                on_trial(i, *trial)
    curve, second = (total / cfg.n_trials).tolist()
    common = dict(experiment=kind.value, n_trials=cfg.n_trials, c_s_mean_curve=curve,
                  converged_c_s_mean=curve[-1], converged_c_s_std=float(np.std(finals)),
                  termination_reasons=reasons)
    if fixed:
        # c_s is clamped at 0 and the diagnostic is not: a trial with no
        # secrecy does not exceed a negative diagnostic. At 1x1 the diagnostic
        # is c_l - c_e by another evaluation path, so an excess within 1e-12
        # relative is rounding, not a violation
        return FixedPowerReport(
            **common, c_s_we_opt_mean_curve=second, converged_c_s_we_opt_mean=second[-1],
            svd_bound_mean=float(np.mean(bounds)), mean_iterations=float(np.mean(lengths)),
            svd_violation_trials=[i for i, (c_s, bound) in enumerate(zip(finals, bounds))
                                  if c_s - max(bound, 0.0) > 1e-12 * max(1.0, abs(bound))])
    return VariablePowerReport(**common, p_s_db_mean_curve=second,
                               mean_cycles=float(np.mean(lengths)), mean_final_p_s_db=second[-1])


def run_fixed_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult, OptimizeResult, float, str], None]] = None,
) -> FixedPowerReport:
    """Per trial: one ascent with the eavesdropper combiner held at its
    random start, one benchmark ascent that optimizes it too (same channel
    and same start), and the SVD diagnostic for that realization.

    ``on_trial(i, res_rand, res_opt, bound, rows)`` observes every trial in
    index order, e.g. to stream traces: ``rows`` is the trace.csv text of
    its main ascent, ``res_rand``, rendered where the trial ran. Without an
    observer no rows are rendered, since nothing could read them.
    """
    return _run_study(cfg, ExperimentKind.FIXED_POWER, threads, on_trial)


def run_variable_power_experiment(
    cfg: SystemConfig,
    threads: int = 1,
    on_trial: Optional[Callable[[int, OptimizeResult, str], None]] = None,
) -> VariablePowerReport:
    """Per trial: one variable-power ascent toward the secrecy target.
    ``on_trial(i, res, rows)`` is as in ``run_fixed_power_experiment``."""
    return _run_study(cfg, ExperimentKind.VARIABLE_POWER, threads, on_trial)
