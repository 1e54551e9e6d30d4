"""Projected gradient ascent over constant-amplitude analog beamformers.

There is one ascent loop, ``ascend_rows``, and it runs many ascents in
lockstep: each row of its batch is one ascent (a channel realization, the
powers, a start, and whether w_e is ascended too), and the rows travel as
one (B, 2*n_rx + 2*n_tx) array of packed states x = [w_l | w_e | f_s | f_j]
through ``gradients.LinkKernel``, built once per batch. Every pass makes,
for all active rows at once, one gradient call, one gradient step and one
constant-amplitude projection of the packed steps, one link evaluation of
the candidates and one vectorized accept / revert-and-halve / converge
decision. A 2-norm step before the projection would change nothing, since
``project_ca`` keeps only the phases. A step that decreases a row's
objective is a perturbation: the row keeps its iterate (and gradient) and
halves its step size (floored at ``delta_min``), which keeps the accepted
trajectory monotone. Rows that finish leave the batch, which then shrinks.
A row's records, final state and termination reason are bit-identical
however many rows share its batch; ``ascend_fixed_power`` and
``ascend_variable_power`` are batches of one row.

The bookkeeping is per batch, not per row: each pass logs its accepted rows
with a few array copies, and each row's id, cycle, cycle start and p_s sit
in one array that shrinks with the batch. When the batch ends the log becomes
one column array per ascent (``OptimizerTrace.log``); records are built
from it only on request.

The acceptance and convergence tests run on the unclamped capacity
difference c_l - c_e. The reported secrecy capacity clamps at zero; running
the loop on the clamped value would freeze any start where the eavesdropper
is ahead, since the clamp is flat there while the difference still climbs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence, get_type_hints

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

    def __post_init__(self):
        floats = (self.delta0, self.epsilon, self.kappa, self.mu, self.delta_min)
        if not all(map(math.isfinite, floats + ((self.zeta,) if self.zeta is not None else ()))):
            raise ValueError("delta0, epsilon, kappa, zeta, mu and delta_min must be finite")
        if not (self.delta0 > 0 and self.epsilon > 0 and self.kappa > 0):
            raise ValueError("delta0, epsilon and kappa must be > 0")
        if not (self.mu > 0 and self.delta_min > 0):
            raise ValueError("mu and delta_min must be > 0")
        if self.delta_min > self.delta0:  # the first rejection would end the cycle
            raise ValueError(f"delta_min ({self.delta_min!r}) must be <= delta0 ({self.delta0!r})")
        if self.max_iters < 1 or self.max_cycles < 1:
            raise ValueError("max_iters and max_cycles must be >= 1")


class TerminationReason(str, enum.Enum):
    CONVERGED = "converged"
    ITER_CAP = "iter_cap"
    POWER_CAP = "power_cap"
    TARGET_REACHED = "target_reached"
    CYCLE_CAP = "cycle_cap"


class IterationRecord(NamedTuple):
    """One accepted iteration. Cycle 1's iteration 0 is the starting point; a
    later cycle's start, the last state at the raised power, is not logged."""

    cycle: int
    iteration: int
    c_s: float
    c_l: float
    c_e: float
    delta: float
    p_s: float


# An ascent's iteration log: one element per accepted iteration, with the
# fields of IterationRecord.
ITERATION_DTYPE = np.dtype([(name, np.int64 if kind is int else float)
                            for name, kind in get_type_hints(IterationRecord).items()])


@dataclass(frozen=True)
class CycleRecord:
    """Converged state of one fixed-power cycle."""

    cycle: int
    c_s: float
    p_s: float
    n_iters: int


@dataclass(eq=False)
class OptimizerTrace:
    """How one ascent went: its accepted iterations, its fixed-power cycles,
    why it ended and after how many loop passes.

    ``log`` holds the accepted iterations as columns, an ITERATION_DTYPE
    array in order of acceptance; it crosses a worker's pipe as one array.
    ``records`` is the same as a list of IterationRecords, built on each
    use: the loop and the run outputs read the columns. ``csv_rows`` is text
    a study renders from the log in the process that ran the ascent
    (``experiment._trace_text``), so that it crosses a pipe ready to write;
    None when none was rendered.
    """

    log: np.ndarray = field(default_factory=lambda: np.empty(0, ITERATION_DTYPE))
    cycles: list[CycleRecord] = field(default_factory=list)
    reason: TerminationReason = TerminationReason.ITER_CAP
    n_iters: int = 0
    csv_rows: Optional[str] = None

    @property
    def records(self) -> list[IterationRecord]:
        return list(map(tuple.__new__, repeat(IterationRecord), self.log.tolist()))


@dataclass
class OptimizeResult:
    state: BeamformerState
    snapshot: SecrecySnapshot
    trace: OptimizerTrace

    @property
    def p_s(self) -> float:
        """The source power of the last cycle, the one the state and the
        snapshot are at."""
        return self.trace.cycles[-1].p_s


def project_unit_norm(v: np.ndarray) -> np.ndarray:
    """Scale to unit 2-norm. A zero vector is a degenerate iterate."""
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def project_ca(v: np.ndarray) -> np.ndarray:
    """Force every entry onto modulus 1/sqrt(N), keeping phases.

    Entries with modulus below 1e-12 have no usable phase and are set to
    1/sqrt(N) with phase zero. The output always has unit 2-norm. A NaN or
    infinite entry has no phase either, but it is a degenerate iterate, not
    a small one: it raises ValueError.
    """
    n = v.size
    scale = 1.0 / math.sqrt(n)
    mag = np.abs(v)
    if not np.isfinite(mag).all():
        raise ValueError("cannot project a non-finite vector")
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
    """Random start: i.i.d. uniform phases for w_l, w_e, f_s, f_j in that
    order, the law of CN(0,1) draws pushed onto the CA manifold."""

    def draw(n):
        return np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n)

    return BeamformerState(
        w_l=draw(params.n_rx),
        w_e=draw(params.n_rx),
        f_s=draw(params.n_tx),
        f_j=draw(params.n_tx),
    )


def _snapshot(lk: Links, row: int) -> SecrecySnapshot:
    (_, den_l0, den_l1), (_, den_e0, den_e1) = lk.den[row].T.tolist()
    c_l, c_e, diff = lk.cd[row].tolist()
    return SecrecySnapshot(gamma_l=den_l1 / den_l0 - 1.0, gamma_e=den_e1 / den_e0 - 1.0,
                           c_l=c_l, c_e=c_e, c_s=max(diff, 0.0))


def _project_packed(kernel: LinkKernel, y: np.ndarray,
                    mag: Optional[np.ndarray] = None) -> dict[int, ValueError]:
    """``project_ca`` of every block of every row of y, in place.

    When no modulus is below the 1e-12 guard this is exactly ``project_ca``
    block by block, with each block's 1/sqrt(N) from ``kernel.ca_scale``;
    otherwise the rows holding such an entry, or a NaN (which fails the
    guard's comparison), go through ``project_ca`` block by block. Such a
    row with an exactly-zero block, which has no direction to keep, or with
    a non-finite entry is a degenerate iterate: it is left as it is and
    returned, by row index, with its error. An infinite entry passes the
    guard and comes out NaN; the pass then finds the row's objective
    non-finite, and ``_Lockstep._fail_first`` names the step as the cause.
    ``mag`` is scratch of y's shape, if given.
    """
    mag = np.abs(y, out=mag)
    if mag.min() >= 1e-12:
        y *= np.divide(kernel.ca_scale, mag, out=mag)
        return {}
    guarded = ~(mag.min(axis=1) >= 1e-12)
    failed = {}
    for row in np.flatnonzero(guarded).tolist():
        blocks = kernel.unpack(y[row]).vectors()
        try:
            if not all(v.any() for v in blocks):
                raise ValueError("cannot project a zero step block")
            y[row] = np.concatenate([project_ca(v) for v in blocks])
        except ValueError as exc:
            failed[row] = exc
    fast = ~guarded
    y[fast] *= kernel.ca_scale / mag[fast]
    return failed


@dataclass(frozen=True)
class AscentRow:
    """One ascent of a lockstep batch: a channel realization, the powers,
    the starting point, and whether w_e is ascended too (the benchmark
    variant) or held at its start."""

    channel: ChannelSet
    powers: PowerConfig
    init: BeamformerState
    optimize_we: bool = False


def _check_start(row: AscentRow) -> None:
    _check_dims(row.channel, row.init)
    if state_ca_violation(row.init) > 1e-6:
        raise ValueError("initial state violates the constant-amplitude constraint")


class _Lockstep:
    """The rows of one ``ascend_rows`` call and their shared pass loop.

    Row-indexed arrays (kernel, with the rows' channels and powers, links,
    gradient, ``delta``, ``hold``, ``meta``) hold the active rows only, in
    row order, and shrink when rows leave; results and cycle records are
    kept per row id. ``meta`` row j is [row id, cycle, pass the cycle
    started at, p_s]. At the top of every pass every active row's id is
    below ``failed_at``, the first failed row's id, so the decision only
    sees finite changes of live rows: a pass that fails a row drops it and
    the rows after it, and is redone for the rows before it.

    The iteration log is kept per pass, as (pass, meta rows, [c_l, c_e,
    c_l - c_e] rows, ``delta`` rows) of the rows accepted in it; when the
    batch ends ``_split_log`` turns it into each row's ITERATION_DTYPE log.
    A pass that accepts every row logs ``meta`` itself, so ``meta`` is
    replaced, never written in place. Its p_s column is the p_s the kernel
    holds.
    """

    def __init__(self, rows, cfg: OptimizerConfig, variable: bool, on_accept):
        self.cfg, self.variable, self.on_accept = cfg, variable, on_accept
        self.results: list[Optional[OptimizeResult]] = [None] * len(rows)
        self.failed_at, self.error = len(rows), None
        for i, row in enumerate(rows):
            try:
                _check_start(row)
            except ValueError as exc:
                self.failed_at, self.error = i, exc
                break
        rows = rows[:self.failed_at]
        self.n_active = len(rows)
        if not rows:
            return
        self.kernel = LinkKernel([row.channel for row in rows], [row.powers for row in rows])
        self.cur = self.kernel.links([row.init for row in rows])
        self.hold = np.array([not row.optimize_we for row in rows])
        self.delta = np.full(len(rows), cfg.delta0)
        self.meta = np.array([(i, 1, 0, row.powers.p_s) for i, row in enumerate(rows)],
                             dtype=float)
        self.cycles = [[] for _ in rows]
        self.log = [(0, self.meta, self.cur.cd.copy(), self.delta.copy())]
        self._check_finite(range(len(rows)))
        self._compact()

    def _check_finite(self, rows) -> None:
        """Fail the first of the active rows ``rows``, each at the start of
        a cycle, whose objective is not finite."""
        bad = [j for j in rows if not math.isfinite(self.cur.diff[j])]
        if bad:
            i, cycle = self.meta[min(bad), :2].tolist()
            self.failed_at = int(i)
            at = "the initial state" if cycle == 1 else f"cycle {int(cycle)}, iteration 0"
            self.error = ValueError(f"non-finite objective at {at}")

    def _compact(self, finished: Sequence[int] = ()) -> None:
        """Drop the rows at the indices ``finished`` and every row from the first failed one."""
        keep = self.meta[:, 0] < self.failed_at
        keep.put(finished, False)
        if keep.all():
            return
        self.n_active = int(keep.sum())
        self.kernel, self.cur = self.kernel.take(keep), self.cur.take(keep)
        self.hold, self.delta, self.meta = self.hold[keep], self.delta[keep], self.meta[keep]

    def _log(self, n_pass: int, rows: Optional[np.ndarray] = None) -> None:
        """Log the new iterates (already in ``cur``) of every row, or of the
        rows at the indices ``rows``."""
        cur = self.cur
        if rows is None:
            self.log.append((n_pass, self.meta, cur.cd.copy(), self.delta.copy()))
        else:
            self.log.append((n_pass, self.meta[rows], cur.cd[rows], self.delta[rows]))
        if self.on_accept is not None:
            for j in range(self.n_active) if rows is None else rows.tolist():
                self.on_accept(int(self.meta[j, 0]), self.kernel.unpack(cur.x[j].copy()))

    def _end_cycles(self, ends, n_pass: int) -> tuple[list[int], bool]:
        """Close the cycles of the rows ``ends`` [(j, reason)]. Returns the
        rows that finished and whether any row starts its next cycle, at a
        higher power; the decisions are made row by row, and the new meta,
        step sizes and powers are written once for all such rows."""
        cfg = self.cfg
        cd, meta = self.cur.cd.tolist(), self.meta.tolist()
        finished, restart = [], []
        for j, reason in ends:
            i, cycle, start, p_s = meta[j]
            i, c_s = int(i), max(cd[j][2], 0.0)
            self.cycles[i].append(CycleRecord(int(cycle), c_s, p_s, n_pass - int(start)))
            if self.variable:
                raised = p_s + cfg.kappa * p_s
                if c_s >= cfg.zeta:
                    reason = TerminationReason.TARGET_REACHED
                elif raised > cfg.mu:
                    reason = TerminationReason.POWER_CAP
                elif cycle == cfg.max_cycles:
                    reason = TerminationReason.CYCLE_CAP
                else:
                    restart.append(j)
                    meta[j] = [i, cycle + 1.0, n_pass, raised]
                    continue
            self._finish(j, i, reason, n_pass)
            finished.append(j)
        if restart:
            self.meta = np.array(meta)  # a new array: the log holds the old one
            self.delta.put(restart, cfg.delta0)
            self.kernel.set_p_s(self.meta[:, 3])
            self.kernel.refresh(self.cur)
            self._check_finite(restart)
        return finished, bool(restart)

    def _finish(self, j: int, i: int, reason: TerminationReason, n_pass: int) -> None:
        trace = OptimizerTrace(cycles=self.cycles[i], reason=reason, n_iters=n_pass)
        state = self.kernel.unpack(self.cur.x[j].copy())
        self.results[i] = OptimizeResult(state, _snapshot(self.cur, j), trace)

    def _fail_first(self, change: np.ndarray, degenerate: dict, cand: np.ndarray,
                    n_pass: int) -> None:
        """Fail the first row whose step had a zero or non-finite block or
        whose candidate objective is not finite. A candidate with a
        non-finite entry came from a non-finite step, not from the
        objective."""
        j = min([*degenerate, *np.flatnonzero(~np.isfinite(change)).tolist()])
        if j in degenerate:
            cause = degenerate[j]
        elif not np.isfinite(cand[j]).all():
            cause = "cannot project a non-finite vector"
        else:
            cause = "non-finite objective"
        i, cycle, start, _ = self.meta[j].tolist()
        self.failed_at = int(i)
        self.error = ValueError(f"{cause} at cycle {int(cycle)}, iteration {n_pass - int(start)}")

    def _next_cap(self) -> int:
        """The pass at which the first active row's cycle reaches max_iters."""
        return int(np.minimum.reduce(self.meta[:, 2])) + self.cfg.max_iters

    def _split_log(self) -> None:
        """Give each finished row's trace its log: the rows' entries of the
        pass log, in pass order, as one ITERATION_DTYPE array per row."""
        n_done = self.failed_at
        if not n_done:
            return
        passes, metas, cds, deltas = zip(*self.log)
        meta = np.concatenate(metas)
        order = np.argsort(meta[:, 0], kind="stable")
        meta = meta[order]
        cd = np.concatenate(cds)[order]
        counts = np.fromiter(map(len, metas), dtype=np.intp, count=len(metas))
        log = np.empty(len(meta), ITERATION_DTYPE)
        log["cycle"] = meta[:, 1]
        log["iteration"] = np.repeat(passes, counts)[order] - meta[:, 2]
        # max(c_l - c_e, 0) exactly as the builtin takes it, -0.0 included
        log["c_s"] = np.where(cd[:, 2] < 0.0, 0.0, cd[:, 2])
        log["c_l"], log["c_e"] = cd[:, 0], cd[:, 1]
        log["delta"] = np.concatenate(deltas)[order]
        log["p_s"] = meta[:, 3]
        bounds = np.searchsorted(meta[:, 0], np.arange(n_done + 1)).tolist()
        for i in range(n_done):
            self.results[i].trace.log = log[bounds[i]:bounds[i + 1]]

    def run(self) -> None:
        cfg = self.cfg
        eps, delta_min = cfg.epsilon, cfg.delta_min
        n_pass, n_rows = 0, 0
        while self.n_active:
            n_pass += 1
            if n_rows != self.n_active:
                # rows left: fresh buffers, and the gradient of the rest
                n_rows, kernel, delta = self.n_active, self.kernel, self.delta
                delta_col = delta[:, None]
                hold = self.hold[:, None] if self.hold.any() else None
                cand = Links(n_rows, kernel.n_rx, kernel.n_tx)
                grad = np.empty(cand.x.shape, dtype=complex)
                grad_re = grad.view(float)
                change, ended_by = np.empty(n_rows), np.empty(n_rows)
                accepted, ended = np.empty(n_rows, dtype=bool), np.empty(n_rows, dtype=bool)
                stale, next_cap = True, self._next_cap()
            cur = self.cur
            if stale:
                # held rows need no zero g_we block: their w_e is restored below
                kernel.gradient(cur, out=grad)
            np.multiply(grad_re, delta_col, out=cand.x_re)
            cand.x += cur.x
            degenerate = _project_packed(kernel, cand.x, cand.mag)
            if hold is not None:
                np.copyto(cand.we, cur.we, where=hold)
            kernel.evaluate(cand)

            # the decision, for every row at once: accept a step that does not
            # lower c_l - c_e; end the cycle when |change| <= epsilon, or when
            # a rejected step was already at the floor; otherwise revert and
            # halve the step (floored at delta_min)
            np.subtract(cand.diff, cur.diff, out=change)
            if degenerate or not math.isfinite(np.add.reduce(change)):
                # the first failed row and the rows after it leave; the rows
                # before it redo the pass, to the same bits
                self._fail_first(change, degenerate, cand.x, n_pass)
                self._compact()
                n_pass -= 1
                continue
            np.greater_equal(change, 0.0, out=accepted)
            np.less_equal(np.abs(change, out=ended_by), eps, out=ended)
            n_accepted = np.count_nonzero(accepted)
            if n_accepted < n_rows:
                # a floor row's halved delta returns to delta_min
                rejected = change < -eps
                ended |= (delta <= delta_min) & rejected
                np.multiply(delta, 0.5, out=delta, where=rejected)
                np.maximum(delta, delta_min, out=delta)
            stale = n_accepted > 0
            if n_accepted == n_rows:
                self.cur, cand = cand, cur
                self._log(n_pass)
            elif stale:
                cur.assign(cand, accepted)
                self._log(n_pass, accepted.nonzero()[0])

            ends = []
            if np.count_nonzero(ended):
                ends = [(j, TerminationReason.CONVERGED) for j in ended.nonzero()[0].tolist()]
            if n_pass == next_cap:
                capped = (self.meta[:, 2] == n_pass - cfg.max_iters) & ~ended
                ends += [(j, TerminationReason.ITER_CAP) for j in capped.nonzero()[0].tolist()]
            if not ends:
                continue
            finished, restarted = self._end_cycles(ends, n_pass)
            stale |= restarted
            self._compact(finished)
            next_cap = self._next_cap() if self.n_active else 0
        self._split_log()


def ascend_rows(
    rows,
    cfg: OptimizerConfig,
    variable: bool = False,
    on_accept: Optional[Callable[[int, BeamformerState], None]] = None,
) -> tuple[list[OptimizeResult], Optional[Exception]]:
    """Run the ascents of ``rows`` (AscentRows sharing n_rx and n_tx) in
    lockstep, as rows of one batch.

    Each pass makes one gradient call, one step and one CA projection, one
    link evaluation and one vectorized accept / revert-and-halve / converge
    decision for all active rows. A step that decreases a row's objective is
    a perturbation: that row keeps its iterate (and gradient) and halves its
    step size, floored at ``cfg.delta_min``. At fixed power each row runs
    one cycle until |change| <= epsilon or ``cfg.max_iters`` passes. With
    ``variable`` set each row repeats cycles, raising its own P_s by
    kappa*P_s after a cycle that misses the secrecy target zeta, up to the
    ceiling mu: its step size restarts at delta0 and its denominators are
    recomputed from the stored scalars, while the other rows carry on. A row
    that finishes leaves the batch. Each row's ``optimize_we`` decides
    whether its w_e is ascended.

    Returns the results of the leading rows that finished, up to the first
    row that failed (a start that fails its checks, a non-finite objective,
    a zero or non-finite step block), and that row's error, or None if no
    row failed. That row and the rows after it leave the batch on the pass
    that fails, which the rows before it redo; ``on_accept(row, state)``
    observes every accepted iterate, and none of an abandoned row from then
    on. A row's result does not depend on the other rows of its batch.
    """
    if variable and cfg.zeta is None:
        raise ValueError("variable-power ascent needs cfg.zeta")
    batch = _Lockstep(list(rows), cfg, variable, on_accept)
    batch.run()
    return batch.results[:batch.failed_at], batch.error


def _ascend_one(row: AscentRow, cfg: OptimizerConfig, variable: bool, on_accept):
    observe = None if on_accept is None else (lambda _row, state: on_accept(state))
    results, error = ascend_rows([row], cfg, variable, observe)
    if error is not None:
        raise error
    return results[0]


def ascend_fixed_power(
    ch: ChannelSet,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    init: BeamformerState,
    on_accept: Optional[Callable[[BeamformerState], None]] = None,
) -> OptimizeResult:
    """Maximize the secrecy objective at constant source power: a batch of
    one row in ``ascend_rows``.

    The eavesdropper combiner stays at its initial value; the benchmark
    variant, which ascends w_e alongside the other three vectors, is an
    ``AscentRow(..., optimize_we=True)`` in ``ascend_rows``.
    """
    return _ascend_one(AscentRow(ch, pw, init), cfg, False, on_accept)


def ascend_variable_power(
    ch: ChannelSet,
    pw: PowerConfig,
    cfg: OptimizerConfig,
    init: BeamformerState,
    on_accept: Optional[Callable[[BeamformerState], None]] = None,
) -> OptimizeResult:
    """Repeat fixed-power cycles, raising P_s by kappa*P_s after any cycle
    that misses the secrecy target zeta, up to the power ceiling mu: a batch
    of one row in ``ascend_rows``.

    The beamformers carry over between cycles; the step size restarts at
    delta0 each cycle. At least one cycle always runs, so zeta = 0 reports
    the target as reached without touching the power. The eavesdropper
    combiner stays at its initial value.
    """
    return _ascend_one(AscentRow(ch, pw, init), cfg, True, on_accept)
