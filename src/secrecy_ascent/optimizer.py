"""Projected gradient ascent over constant-amplitude analog beamformers.

There is one ascent loop, ``ascend_rows``, and it runs many ascents in
lockstep: each row of its batch is one ascent (a channel realization, the
powers, a start, and whether w_e is ascended too), and the rows travel as
one (B, 2*n_rx + 2*n_tx) array of packed states x = [w_l | w_e | f_s | f_j]
through ``gradients.LinkKernel``, built once per batch. Every pass makes,
for all active rows at once, one gradient call, one gradient step and one
constant-amplitude projection of the packed steps, on the batch's CA
moduli, and one link evaluation of the candidates: the kernel models links
only. A 2-norm step before the projection (``_project_packed``, of which
``project_ca`` is one block) would change nothing, since it keeps only the
phases. The accept / revert-and-halve / converge decision (``_decide``) is
one loop over the list of the rows' changes, on Python floats; every array
operation stays batched. A step that decreases a row's objective is a
perturbation: the row keeps its iterate and halves its step size (floored
at ``delta_min``), which keeps the accepted trajectory monotone. Every pass
does this same work, whichever rows accept. Finished rows leave; the batch
compacts the rest. A row's records, final state and termination reason are
bit-identical however many rows share its batch; ``ascend_fixed_power``
and ``ascend_variable_power`` are batches of one row.

The bookkeeping is per batch, not per row: each pass logs its accepted rows
with a few array copies, each row's id, cycle and cycle start sit in one
int array of the live rows, and its power in the kernel's weights only; a
cycle's power and final c_s live in its ``CycleRecord``. When the batch
ends the log becomes one column array per ascent (``OptimizerTrace.log``);
records are built from it only on request, and every c_s from c_l and c_e
by the one clamp ``clamp_c_s``. Each row counts its own passes, cycle by
cycle: an ascent's ``n_iters`` is read as the sum of its cycles'. An
``OptimizeResult`` adds to its trace only the final state and its c_l and c_e;
``_split_log`` builds each result once, with its log. A record is a dataclass
only if its ``__post_init__`` validates its fields (``ChannelParams``,
``ChannelSet``, ``PowerConfig``, ``OptimizerConfig``, ``SystemConfig``) or it
is one of the reports, which share fields and methods; every other record,
``BeamformerState`` and ``OptimizerTrace`` too, is a NamedTuple.

The acceptance and convergence tests run on the unclamped capacity
difference c_l - c_e. The reported secrecy capacity clamps at zero; running
the loop on the clamped value would freeze any start where the eavesdropper
is ahead, since the clamp is flat there while the difference still climbs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, get_type_hints

import numpy as np

from .channel import ChannelParams, ChannelSet
from .gradients import LinkKernel, Links
from .metrics import BeamformerState, PowerConfig, _check_dims, _unpack_state, db_to_linear


@dataclass(frozen=True)
class OptimizerConfig:
    """Step-size schedule, stopping rules, and power adaptation knobs."""

    delta0: float = 0.1
    epsilon: float = 1e-7
    kappa: float = 1e-2
    zeta: float = 4.0  # secrecy target in bps/Hz, read by variable-power ascents
    mu: float = db_to_linear(30.0)
    max_iters: int = 10_000
    max_cycles: int = 1_000
    delta_min: float = 1e-6

    def __post_init__(self):
        for name in ("delta0", "epsilon", "kappa", "mu", "delta_min", "max_iters", "max_cycles"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # false for a NaN; no int overflows
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            if name.startswith("max_") and value != int(value):  # the loop meets a cap by ==
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not math.isfinite(self.zeta):
            raise ValueError(f"zeta must be finite, got {self.zeta!r}")
        if self.delta_min > self.delta0:  # the first rejection would end the cycle
            raise ValueError(f"delta_min ({self.delta_min!r}) must be <= delta0 ({self.delta0!r})")


class TerminationReason(str, enum.Enum):
    CONVERGED = "converged"
    ITER_CAP = "iter_cap"
    POWER_CAP = "power_cap"
    TARGET_REACHED = "target_reached"
    CYCLE_CAP = "cycle_cap"


class IterationRecord(NamedTuple):
    """One accepted iteration; cycle 1's iteration 0 is the starting point. Its
    power is its cycle's, ``trace.cycles[rec.cycle - 1].p_s``, and its c_s is
    ``clamp_c_s(rec.c_l, rec.c_e)``. A later cycle's start is not logged."""

    cycle: int
    iteration: int
    c_l: float
    c_e: float
    delta: float


# An ascent's iteration log: one element per accepted iteration, with the
# fields of IterationRecord.
ITERATION_DTYPE = np.dtype([(name, np.int64 if kind is int else float)
                            for name, kind in get_type_hints(IterationRecord).items()])


def clamp_c_s(c_l, c_e) -> np.ndarray:
    """The secrecy capacity max(c_l - c_e, 0), elementwise, -0.0 kept as the
    builtin ``max`` keeps it: the one clamp that makes every reported c_s."""
    diff = np.subtract(c_l, c_e)
    return np.where(diff < 0.0, 0.0, diff)


class CycleRecord(NamedTuple):
    """Converged state of one fixed-power cycle. A cycle's number is its
    position in ``OptimizerTrace.cycles`` plus one."""

    c_s: float
    p_s: float
    n_iters: int


class OptimizerTrace(NamedTuple):
    """How one ascent went: its accepted iterations, its fixed-power cycles
    in order, and why it ended. ``n_iters``, its loop passes, is the sum of
    its cycles'.

    ``log`` holds the accepted iterations as columns, an ITERATION_DTYPE
    array in order of acceptance; it crosses a worker's pipe as one array.
    ``records`` is the log as IterationRecords and ``c_s`` its clamped c_s,
    both built on each use: the loop and the run outputs read the columns.
    """

    log: np.ndarray
    cycles: list[CycleRecord]
    reason: TerminationReason

    @property
    def n_iters(self) -> int:
        return sum(c.n_iters for c in self.cycles)

    c_s = property(lambda self: clamp_c_s(self.log["c_l"], self.log["c_e"]))

    @property
    def records(self) -> list[IterationRecord]:
        return list(map(IterationRecord._make, self.log.tolist()))


class OptimizeResult(NamedTuple):
    """A finished ascent: its final state, its trace, and the state's c_l and
    c_e at the last cycle's power, which the log lacks after a power restart
    that accepts no step. Its c_s and power are its last cycle's."""

    state: BeamformerState
    trace: OptimizerTrace
    c_l: float
    c_e: float


def project_unit_norm(v: np.ndarray) -> np.ndarray:
    """Scale to unit 2-norm. A zero vector is a degenerate iterate."""
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def project_ca(v: np.ndarray) -> np.ndarray:
    """``_project_packed`` of one block: v's entries on modulus 1/sqrt(N),
    phases kept, in a new complex array of unit 2-norm. A NaN or infinite
    entry has no phase, but it is a degenerate iterate, not a small one: it
    raises ValueError.
    """
    if not np.isfinite(np.abs(v)).all():
        raise ValueError("cannot project a non-finite vector")
    out = v.astype(complex)
    _project_packed(1.0 / math.sqrt(v.size), out, np.empty(v.shape))
    return out


def ca_violation(v: np.ndarray) -> float:
    """Max deviation of entry moduli from 1/sqrt(N); 0 for a CA vector. A
    vector with a NaN or infinite entry is inf, which fails a bound compared
    either way: a NaN would pass ``>=``, and would hide in ``max``."""
    dev = float(np.max(np.abs(np.abs(v) - 1.0 / math.sqrt(v.size))))
    return dev if math.isfinite(dev) else math.inf


def state_ca_violation(bf: BeamformerState) -> float:
    return max(map(ca_violation, bf))


def _ca_moduli(n_rx: int, n_tx: int) -> np.ndarray:
    """Each entry's CA modulus in a packed row: 1/sqrt(N) of its block."""
    return np.repeat([1.0 / math.sqrt(n_rx), 1.0 / math.sqrt(n_tx)], [2 * n_rx, 2 * n_tx])


def warm_start(params: ChannelParams, rng: np.random.Generator) -> BeamformerState:
    """Random start: i.i.d. uniform phases for w_l, w_e, f_s, f_j in that
    order, the law of CN(0,1) draws pushed onto the CA manifold, drawn as
    one packed row and returned as its four views."""
    n_rx, n_tx = params.n_rx, params.n_tx
    x = np.exp(2j * np.pi * rng.random(2 * (n_rx + n_tx))) * _ca_moduli(n_rx, n_tx)
    return _unpack_state(x, n_rx, n_tx)


def _project_packed(ca, y: np.ndarray, mag: np.ndarray) -> None:
    """The CA projection, in place: each entry of y keeps its phase and
    takes the modulus 1/sqrt(N) of its block from ``ca`` (per entry, or one
    scalar), so each block has unit 2-norm; one with modulus below 1e-12,
    a zero block's included, takes phase zero. A NaN entry, which fails
    that comparison, stays NaN, and an infinite one comes out NaN (inf * 0);
    the pass then finds the row's objective non-finite, and
    ``_Lockstep._fail_first`` names the step as the cause. ``mag`` is
    scratch of y's shape.
    """
    mag = np.abs(y, out=mag)
    if mag.min() >= 1e-12:
        y *= np.divide(ca, mag, out=mag)
        return
    tiny = mag < 1e-12
    y *= np.divide(ca, mag, out=mag, where=~tiny)
    np.copyto(y, ca, where=tiny)


def _decide(change: list[float], delta: np.ndarray, eps: float, delta_min: float,
            capped: Sequence[int]) -> tuple[list[int], list, Optional[list[float]]]:
    """One pass's accept / revert-and-halve / converge decision, row by row,
    on the rows' changes of c_l - c_e and their step sizes ``delta``.

    A change >= 0 is accepted. A change < -eps is rejected: the row's step
    size is halved, floored at delta_min. A row's cycle ends (converged) when
    |change| <= eps, so a change in [-eps, 0) is reverted and ends it, or
    when a rejected step was already at delta_min. A row in ``capped`` whose
    cycle does not converge ends at the iteration cap.

    Returns the accepted rows, the ended rows as (row, reason), and the new
    step sizes of every row, or None when no row was rejected.
    """
    accepted, ends, steps = [], [], None
    for j, d in enumerate(change):
        if d >= 0.0:
            accepted.append(j)
            if d > eps:
                continue
        elif d < -eps:
            if steps is None:
                steps = delta.tolist()
            step = steps[j]
            steps[j] = max(step * 0.5, delta_min)
            if step > delta_min:
                continue
        ends.append((j, TerminationReason.CONVERGED))
    if capped:
        converged = {j for j, _ in ends}
        ends += [(j, TerminationReason.ITER_CAP) for j in capped if j not in converged]
    return accepted, ends, steps


class AscentRow(NamedTuple):
    """One ascent of a lockstep batch: a channel realization, the powers,
    the starting point, and whether w_e is ascended too (the benchmark
    variant) or held at its start."""

    channel: ChannelSet
    powers: PowerConfig
    init: BeamformerState
    optimize_we: bool = False


class _Lockstep:
    """The rows of one ``ascend_rows`` call and their shared pass loop.

    Row-indexed arrays (kernel, with the rows' channels and powers, links, with
    their gradient, ``delta``, ``hold``, ``meta``) hold the active rows only,
    in row order, compacted into the prefix when rows leave; cycle records and
    ``finals``, a finished row's (state, reason, c_l, c_e), are kept per row
    id. ``ca`` is each packed entry's CA modulus, and ``mag``, the projection's
    one scratch array, is viewed at the live rows. ``meta`` row j is the ints
    [row id, cycle, pass the cycle started at]; its power is the kernel's
    ``link_weights[j, 0, 0]``. At the top of every pass every active row's id
    is below ``failed_at``, the first failed row's id, so the decision only
    sees finite changes of live rows: a pass that fails a row drops it and the
    rows after it, and is redone for the rows before it.

    The iteration log is kept per pass, as (pass, meta rows, [c_l, c_e,
    c_l - c_e] rows, ``delta`` rows) of the rows accepted in it; when the
    batch ends ``_split_log`` turns it into each row's ITERATION_DTYPE log
    and builds each result once, with its log. A pass that accepts every
    row logs ``meta`` itself, so ``meta`` is replaced, never written in place.
    """

    def __init__(self, rows, cfg: OptimizerConfig, variable: bool):
        self.cfg, self.variable = cfg, variable
        self.finals, self.results = [None] * len(rows), []
        self.failed_at, self.error = len(rows), None
        for i, row in enumerate(rows):
            try:
                _check_dims(row.channel, row.init)
            except ValueError as exc:
                self.failed_at, self.error = i, exc
                break
        rows = rows[:self.failed_at]
        self.meta = np.array([(i, 1, 0) for i in range(len(rows))], np.int64)
        if not rows:
            return
        kernel = self.kernel = LinkKernel([r.channel for r in rows], [r.powers for r in rows])
        self.cur, self.cand = (Links(len(rows), kernel.n_rx, kernel.n_tx) for _ in range(2))
        self.ca, self.mag = _ca_moduli(kernel.n_rx, kernel.n_tx), np.empty(self.cur.x.shape)
        for row, x in zip(rows, self.cur.x):
            np.concatenate(row.init, out=x)
        # an entry off its CA modulus fails a start; a NaN is left to the objective's check
        off = np.flatnonzero((np.abs(np.abs(self.cur.x) - self.ca) > 1e-6).any(axis=1))
        if off.size:
            self.failed_at = int(off[0])
            self.error = ValueError("initial state violates the constant-amplitude constraint")
        self.hold = np.array([not row.optimize_we for row in rows])
        self.delta = np.full(len(rows), cfg.delta0)
        self.cycles = [[] for _ in rows]
        self._compact()
        kernel.evaluate(self.cur)
        self.log = [(0, self.meta, self.cur.cd.copy(), self.delta.copy())]
        self._fail_first(self.cur.diff.tolist(), 0)
        self._compact()

    def _compact(self, finished: Sequence[int] = ()) -> None:
        """Drop the rows at the indices ``finished`` and every row from the first failed one."""
        keep = self.meta[:, 0] < self.failed_at
        keep.put(finished, False)
        if keep.all():
            return
        self.kernel.compact(keep)
        self.cur.compact(keep)
        self.hold, self.delta, self.meta = self.hold[keep], self.delta[keep], self.meta[keep]

    def _log(self, n_pass: int, rows: Optional[np.ndarray] = None) -> None:
        """Log the new iterates (already in ``cur``) of every row, or of the
        rows at the indices ``rows``."""
        if rows is None:
            self.log.append((n_pass, self.meta, self.cur.cd.copy(), self.delta.copy()))
        else:
            self.log.append((n_pass, self.meta[rows], self.cur.cd[rows], self.delta[rows]))

    def _end_cycles(self, ends, n_pass: int) -> list[int]:
        """Close the cycles of the rows ``ends`` [(j, reason)] and return the
        rows that finished. The decisions are made row by row; the new meta,
        step sizes and powers of the rows that start their next cycle, at a
        higher power, are written once for all such rows."""
        cfg = self.cfg
        c_s, meta = clamp_c_s(self.cur.c_l, self.cur.c_e).tolist(), self.meta.tolist()
        p_s = self.kernel.link_weights[:, 0, 0].tolist()
        finished, restart = [], []
        for j, reason in ends:
            i, cycle, start = meta[j]
            self.cycles[i].append(CycleRecord(c_s[j], p_s[j], n_pass - start))
            if self.variable:
                raised = p_s[j] + cfg.kappa * p_s[j]
                if c_s[j] >= cfg.zeta:
                    reason = TerminationReason.TARGET_REACHED
                elif raised > cfg.mu:
                    reason = TerminationReason.POWER_CAP
                elif cycle == cfg.max_cycles:
                    reason = TerminationReason.CYCLE_CAP
                else:
                    restart.append(j)
                    meta[j], p_s[j] = [i, cycle + 1, n_pass], raised
                    continue
            self._finish(j, i, reason)
            finished.append(j)
        if restart:
            self.meta = np.array(meta)  # a new array: the log holds the old one
            self.delta.put(restart, cfg.delta0)
            self.kernel.set_p_s(np.array(p_s), self.cur)
            self._fail_first(self.cur.diff.tolist(), n_pass)
        return finished

    def _finish(self, j: int, i: int, reason: TerminationReason) -> None:
        c_l, c_e, _ = self.cur.cd[j].tolist()
        state = _unpack_state(self.cur.x[j].copy(), self.cur.n_rx, self.cur.n_tx)
        self.finals[i] = (state, reason, c_l, c_e)

    def _fail_first(self, values: list[float], n_pass: int, cand=None) -> None:
        """Fail the first row whose value is not finite, if any: ``values`` are
        the objectives after a cycle starts, or the changes to the candidates
        ``cand``. The projection gives every finite step a finite candidate,
        so a candidate with a non-finite entry came from a non-finite step."""
        j = next((j for j, v in enumerate(values) if not math.isfinite(v)), None)
        if j is None:
            return
        if cand is not None and not np.isfinite(cand[j]).all():
            cause = "cannot project a non-finite vector"
        else:
            cause = "non-finite objective"
        i, cycle, start = self.meta[j].tolist()
        at = f"cycle {cycle}, iteration {n_pass - start}"
        self.failed_at = i
        self.error = ValueError(f"{cause} at {at if n_pass else 'the initial state'}")

    def _next_cap(self) -> int:
        """The pass at which the first active row's cycle reaches max_iters."""
        return min(self.meta[:, 2].tolist()) + self.cfg.max_iters

    def _split_log(self) -> None:
        """Build each finished row's result, with its trace's log: the row's
        entries of the pass log, in pass order, as one ITERATION_DTYPE array,
        c_l and c_e unclamped. Each field is gathered into row order on its own,
        and each table of the pass log is dropped once its columns are taken,
        the meta columns before the log is allocated: no table is reordered whole."""
        n_done = self.failed_at
        if not n_done:
            return
        passes, metas, cds, deltas = zip(*self.log)
        del self.log  # each table's per-pass arrays go once it is concatenated
        meta = np.concatenate(metas)
        iteration = np.repeat(passes, [*map(len, metas)]) - meta[:, 2]
        del metas
        order = np.argsort(meta[:, 0], kind="stable")
        bounds = np.searchsorted(meta[order, 0], np.arange(n_done + 1)).tolist()
        cycle, iteration = meta[order, 1], iteration[order]
        del meta
        log = np.empty(len(order), ITERATION_DTYPE)
        log["cycle"], log["iteration"] = cycle, iteration
        del cycle, iteration
        cd = np.concatenate(cds)
        del cds
        log["c_l"], log["c_e"] = cd[order, 0], cd[order, 1]
        del cd
        log["delta"] = np.concatenate(deltas)[order]
        for i, (state, reason, c_l, c_e) in enumerate(self.finals[:n_done]):
            trace = OptimizerTrace(log[bounds[i]:bounds[i + 1]], self.cycles[i], reason)
            self.results.append(OptimizeResult(state, trace, c_l, c_e))

    def run(self) -> None:
        cfg = self.cfg
        eps, delta_min = cfg.epsilon, cfg.delta_min
        n_pass, n_rows = 0, 0
        while len(self.meta):
            n_pass += 1
            if n_rows != len(self.meta):
                # rows left: the views of the rest
                n_rows, kernel, delta = len(self.meta), self.kernel, self.delta
                delta_col, hold, mag = delta[:, None], self.hold[:, None], self.mag[:n_rows]
                self.cand.resize(n_rows)
                next_cap = self._next_cap()
            cur, cand = self.cur, self.cand
            # held rows need no zero g_we block: their w_e is restored below
            kernel.gradient(cur)
            np.multiply(cur.g_re, delta_col, out=cand.x_re)
            cand.x += cur.x
            _project_packed(self.ca, cand.x, mag)
            np.copyto(cand.we, cur.we, where=hold)
            kernel.evaluate(cand)

            # the decision, row by row on Python floats (``_decide``)
            change = np.subtract(cand.diff, cur.diff).tolist()
            if not math.isfinite(sum(change)):
                # the first failed row and the rows after it leave; the rows
                # before it redo the pass, to the same bits
                self._fail_first(change, n_pass, cand.x)
                self._compact()
                n_pass -= 1
                continue
            capped = ()
            if n_pass == next_cap:
                start = n_pass - cfg.max_iters
                capped = [j for j, s in enumerate(self.meta[:, 2].tolist()) if s == start]
            accepted, ends, steps = _decide(change, delta, eps, delta_min, capped)
            if steps is not None:
                delta[:] = steps
            if len(accepted) == n_rows:
                self.cur, self.cand = cand, cur
                self._log(n_pass)
            elif accepted:
                rows = np.array(accepted)
                mask = np.zeros(n_rows, bool)
                mask[rows] = True
                cur.assign(cand, mask)
                self._log(n_pass, rows)
            if not ends:
                continue
            self._compact(self._end_cycles(ends, n_pass))
            next_cap = self._next_cap() if len(self.meta) else 0
        self._split_log()


def ascend_rows(
    rows,
    cfg: OptimizerConfig,
    variable: bool = False,
) -> tuple[list[OptimizeResult], Optional[Exception]]:
    """Run the ascents of ``rows`` (AscentRows sharing n_rx and n_tx) in
    lockstep, as rows of one batch.

    Each pass makes one gradient call, one step and one CA projection and one
    link evaluation for all active rows, then decides accept /
    revert-and-halve / converge in one loop over the rows' changes. A step
    that decreases a row's objective is a perturbation: that row keeps its
    iterate and halves its step size, floored at ``cfg.delta_min``. At fixed power each row runs
    one cycle until |change| <= epsilon or ``cfg.max_iters`` passes. With
    ``variable`` set each row repeats cycles, raising its own P_s by
    kappa*P_s after a cycle that misses the secrecy target zeta, up to the
    ceiling mu: its step size restarts at delta0 and its links are
    re-weighed at the new power, while the other rows carry on. A row
    that finishes leaves the batch. Each row's ``optimize_we`` decides
    whether its w_e is ascended.

    Returns the results of the leading rows that finished, up to the first
    row that failed (a start that fails its checks, a non-finite objective
    or a non-finite step), and that row's error, or None if no
    row failed. That row and the rows after it leave the batch on the pass
    that fails, which the rows before it redo; no iterate of theirs is logged
    from that pass on. A row's result does not depend on the other rows of
    its batch.
    """
    batch = _Lockstep(list(rows), cfg, variable)
    batch.run()
    return batch.results, batch.error


def _ascend_one(row: AscentRow, cfg: OptimizerConfig, variable: bool) -> OptimizeResult:
    results, error = ascend_rows([row], cfg, variable)
    if error is not None:
        raise error
    return results[0]


def ascend_fixed_power(
    ch: ChannelSet,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    init: BeamformerState,
) -> OptimizeResult:
    """Maximize the secrecy objective at constant source power: a batch of
    one row in ``ascend_rows``.

    The eavesdropper combiner stays at its initial value; the benchmark
    variant, which ascends w_e alongside the other three vectors, is an
    ``AscentRow(..., optimize_we=True)`` in ``ascend_rows``.
    """
    return _ascend_one(AscentRow(ch, pw, init), cfg, False)


def ascend_variable_power(
    ch: ChannelSet,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    init: BeamformerState,
) -> OptimizeResult:
    """Repeat fixed-power cycles, raising P_s by kappa*P_s after any cycle
    that misses the secrecy target zeta, up to the power ceiling mu: a batch
    of one row in ``ascend_rows``.

    The beamformers carry over between cycles; the step size restarts at
    delta0 each cycle. At least one cycle always runs, so zeta = 0 reports
    the target as reached without touching the power. The eavesdropper
    combiner stays at its initial value.
    """
    return _ascend_one(AscentRow(ch, pw, init), cfg, True)
