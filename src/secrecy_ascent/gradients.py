"""Conjugate (Wirtinger) gradients of the secrecy objective.

All gradients are taken with respect to the conjugated vector, so that for
the real objective c(v) the steepest-ascent update is v + delta * grad. The
1/ln(2) factor from the base-2 logarithms is kept.

The objective differentiated here is the smooth capacity difference
c_l - c_e; the clamp max(., 0) is flat wherever it binds and the ascent
direction of the difference is what drives the optimizer.

Every analytic value comes from one fused kernel, ``LinkKernel``, which
works on a batch of B rows, each a channel realization with a packed state
x = [w_l | w_e | f_s | f_j]: one stacked matmul gives every row's four
receive images, one reduction the bilinear scalars and combiner norms, and
one gradient call the packed conjugate gradients. Each row's powers enter
only the denominators and are held in the kernel next to its channels;
a power change (``set_p_s``) re-weighs the links' scalars in place. Every
operation is row-wise: a row's values are bit-identical however many rows
share its batch. A kernel builds its channels' conjugates with them, and
``LinkKernel.links(states)`` packs B BeamformerStates into a new ``Links``,
which holds their link quantities, gradient and evaluation scratch; a batch
builds each once and compacts its live rows in place. The optimizer's
lockstep loop runs on them. The kernel evaluates any state, on the
constant-amplitude (CA) manifold or off it; the CA moduli, the projection
and its scratch are the optimizer's batch's. At a single state,
``capacity_difference`` is a batch of one row, ``gradient_bundle`` returns
that row's four gradient blocks as a ``BeamformerState``, and each
``grad_*`` is one field of it: views for tests and tools, which no engine
module calls (``gradcheck`` checks the packed gradient). The per-vector
forms the kernel is tested against are in ``reference``.

``fd_gradient`` is an independent central-difference oracle over the real
and imaginary parts of each coordinate, assembled into the same convention
0.5 * (d/dRe + j * d/dIm). It is the arbiter used by the test suite: the
analytic forms below are the ones that agree with it (for the source
precoder this means source-side factors P_s, h_sl, f_s in the legitimate
term and P_s, h_se, f_s in the eavesdropper term).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .channel import ChannelSet
from .metrics import LN2, BeamformerState, PowerConfig, _check_dims, _unpack_state


_GRAD_SIGN = np.array([1.0, -1.0]) / LN2


# Rows [1/den1, 1/den1 - 1/den0, 1/den1 - 1/den0] from [1/(sigma2 |w|^2), 1/den0,
# 1/den1]: the denominator factors of the source, jammer and combiner terms.
# Its products are exact, so each entry rounds once.
_DEN_FACTORS = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, -1.0, 1.0]])


class Links:
    """Link quantities of B packed states, one row each, their gradient and
    evaluation scratch, in arrays of B rows allocated once. The live rows
    are their first rows, which ``resize`` views and ``compact`` fills.

    ``x`` row: the packed state [w_l | w_e | f_s | f_j], an array of its own
    so that the step and the projection run on contiguous rows. ``buf`` row:
    [z_s | z_j | w_l w_e], where z_t = [H_tl f_t | H_te f_t] are transmitter
    t's receive images (s source, j jammer) and the last block is a copy of
    the combiners, made at each evaluation; ``zb`` views it as
    (B, 3, 2, n_rx). ``s`` = w^H [z_s, z_j, w] per receiver (B, 3, 2): the
    bilinear scalars, then the combiner norms. ``den`` = [sigma2 |w|^2, den0,
    den1] per receiver, with den0 = noise + jamming and den1 = den0 + source
    term, and ``cd`` = [c_l, c_e, c_l - c_e]. ``g`` is where
    ``LinkKernel.gradient`` writes the gradient at ``x``. The rest is scratch
    of ``LinkKernel.evaluate`` and ``gradient``.
    """

    def __init__(self, n_rows: int, n_rx: int, n_tx: int):
        self.n_rx, self.n_tx = n_rx, n_tx
        self._full = dict(  # every array, at its full row count
            buf=np.empty((n_rows, 6 * n_rx), dtype=complex),
            x=np.empty((n_rows, 2 * (n_rx + n_tx)), dtype=complex),
            g=np.empty((n_rows, 2 * (n_rx + n_tx)), dtype=complex),
            s=np.empty((n_rows, 3, 2), dtype=complex),
            den=np.empty((n_rows, 3, 2)),
            cd=np.empty((n_rows, 3)),
            t=np.empty((n_rows, 3, 2)),
            logs=np.empty((n_rows, 3, 2)),
            inv=np.empty((n_rows, 3, 2)),
            factors=np.empty((n_rows, 3, 2)),
            coef=np.empty((n_rows, 3, 2), dtype=complex),
            weighted=np.empty((n_rows, 2, 2, 1, n_rx), dtype=complex),
            legs=np.empty((n_rows, 4, 1, n_tx), dtype=complex))
        self.resize(n_rows)

    def resize(self, n_rows: int) -> None:
        """View the first ``n_rows`` rows of every array, and derive the views."""
        b, n_rx, n_tx, r2 = n_rows, self.n_rx, self.n_tx, 2 * self.n_rx
        vars(self).update({k: a[:b] for k, a in self._full.items()})
        self.x_re, self.g_re = self.x.view(float), self.g.view(float)  # re and im, interleaved
        self.zb = self.buf.reshape(b, 3, 2, n_rx)
        self.w = self.zb[:, 2:]
        self.we = self.x[:, n_rx:r2]
        self.diff = self.cd[:, 2]
        self._images = self.buf[:, :2 * r2].reshape(b, 2, r2, 1)
        self._combiners, self._combiner_copy = self.x[:, :r2], self.buf[:, 2 * r2:]
        self._g_w = self.g[:, :r2].reshape(b, 2, n_rx)
        self._g_f = self.g[:, r2:].reshape(b, 2, n_tx)
        self._precoders = self.x[:, r2:].reshape(b, 2, n_tx, 1)
        self.t_s, self.t_rev = self.t[:, :2], self.t[:, ::-1]
        self.log0, self.log1 = self.logs[:, 1], self.logs[:, 2]
        self.c, self.c_l, self.c_e = self.cd[:, :2], self.cd[:, 0], self.cd[:, 1]
        self.factors_w, self.coef_w = self.factors[:, 2], self.coef[:, 2]
        self.coef_z = self.coef[..., None]
        # legs sl, se, jl, je: transmitter t's [l | e] legs weighted by [w_l | w_e]
        self.coef_legs = self.coef[:, :2, :, None, None]
        self.w_legs = self.x[:, :r2].reshape(b, 1, 2, 1, n_rx)
        self.weighted_legs = self.weighted.reshape(b, 4, 1, n_rx)
        self.legs_l, self.legs_e = self.legs.reshape(b, 2, 2, n_tx).transpose(2, 0, 1, 3)

    def compact(self, keep: np.ndarray) -> None:
        """Move the link quantities of the kept rows to the front, in order, and resize."""
        n_rows = int(np.count_nonzero(keep))
        for a in (self.buf, self.x, self.s, self.den, self.cd):
            a[:n_rows] = a[keep]  # a[keep] is a copy, made before the write
        self.resize(n_rows)

    def assign(self, other: "Links", rows: np.ndarray) -> None:
        """Copy ``other``'s rows where ``rows`` is set."""
        np.copyto(self.buf, other.buf, where=rows[:, None])
        np.copyto(self.x, other.x, where=rows[:, None])
        np.copyto(self.s, other.s, where=rows[:, None, None])
        np.copyto(self.den, other.den, where=rows[:, None, None])
        np.copyto(self.cd, other.cd, where=rows[:, None])


class LinkKernel:
    """The four channels of B realizations, stacked once, and the fused
    link and gradient evaluation of B packed states, one row each.

    ``h`` is (B, 2, 2*n_rx, n_tx): for each transmitter (source, jammer) its
    channels to the legitimate receiver and the eavesdropper stacked, so one
    stacked mat-vec per transmitter gives both receive images. ``h_conj``
    is conj(h) as (B, 4, n_rx, n_tx), one channel per leg in the order
    sl, se, jl, je: the four legs H^H a of the precoder gradients are
    computed as row vectors a^T conj(H), each in its own slice, and the
    legitimate and eavesdropper legs are summed in pairs, so legs with equal
    inputs get equal values and symmetric legs cancel exactly.

    ``link_weights`` row b is [[p_s, p_s], [p_j, p_j], [sigma2_l,
    sigma2_e]], from row b of ``powers``: the weights of |s_s|^2, |s_j|^2
    and the combiner norm in each receiver's denominators (columns:
    legitimate, eavesdropper). ``grad_weights`` is the same with the
    eavesdropper column negated and 1/ln 2 folded in, the weights of the
    conjugate gradient of c_l - c_e. All are built here, with the batch.
    Every operation is row-wise, so a row's values do not depend on the
    other rows of its batch.
    """

    def __init__(self, channels, powers):
        n_rx, n_tx = shape = channels[0].h_sl.shape
        if any(c.h_sl.shape != shape for c in channels):
            raise ValueError("all rows of a kernel must share n_rx and n_tx")
        if len(powers) != len(channels):
            raise ValueError("a kernel needs one PowerConfig per channel set")
        self.n_rx, self.n_tx = n_rx, n_tx
        self.h = np.array([(c.h_sl, c.h_se, c.h_jl, c.h_je) for c in channels],
                          dtype=complex).reshape(len(channels), 2, 2 * n_rx, n_tx)
        self.h_conj = self.h.conj().reshape(len(channels), 4, n_rx, n_tx)
        self.link_weights = np.array(
            [[[pw.p_s, pw.p_s], [pw.p_j, pw.p_j], [pw.sigma2_l, pw.sigma2_e]] for pw in powers],
            dtype=float)
        self.grad_weights = self.link_weights * _GRAD_SIGN

    def set_p_s(self, p_s: np.ndarray, lk: Links) -> None:
        """Set every row's source power, one value per row, and re-weigh lk's
        scalars ``s``, which hold no power, into its denominators and capacities."""
        np.copyto(self.link_weights[:, 0], p_s[:, None])
        np.multiply(self.link_weights[:, 0], _GRAD_SIGN, out=self.grad_weights[:, 0])
        self._weigh(lk)

    def compact(self, keep: np.ndarray) -> None:
        """Keep the rows where ``keep`` is set, moved to the front in order."""
        n_rows = int(np.count_nonzero(keep))
        for name in ("h", "h_conj", "link_weights", "grad_weights"):
            a = getattr(self, name)
            a[:n_rows] = a[keep]
            setattr(self, name, a[:n_rows])

    def links(self, states: Sequence[BeamformerState]) -> Links:
        """Fresh links at ``states``, one BeamformerState per row, each
        packed into its row x = [w_l | w_e | f_s | f_j]."""
        lk = Links(len(states), self.n_rx, self.n_tx)
        for bf, row in zip(states, lk.x):
            np.concatenate(bf, out=row)
        self.evaluate(lk)
        return lk

    def evaluate(self, lk: Links) -> None:
        """Fill lk's receive images, scalars, denominators and capacities
        from its states ``lk.x``, under the powers the kernel holds."""
        np.matmul(self.h, lk._precoders, out=lk._images)
        np.copyto(lk._combiner_copy, lk._combiners)
        np.vecdot(lk.w, lk.zb, out=lk.s)
        self._weigh(lk)

    def _weigh(self, lk: Links) -> None:
        """Fill lk's denominators and capacities from its scalars ``lk.s``."""
        np.abs(lk.s, out=lk.t)
        np.square(lk.t_s, out=lk.t_s)
        np.multiply(lk.t, self.link_weights, out=lk.t)
        np.add.accumulate(lk.t_rev, axis=1, out=lk.den)
        np.log2(lk.den, out=lk.logs)
        np.subtract(lk.log1, lk.log0, out=lk.c)
        np.subtract(lk.c_l, lk.c_e, out=lk.diff)

    def gradient(self, lk: Links) -> np.ndarray:
        """Fill and return ``lk.g``, the packed conjugate gradients
        [g_wl | g_we | g_fs | g_fj] of c_l - c_e at lk's states, one row each.

        coef[t, r] weights receiver r's combiner in transmitter t's precoder
        gradient; its conjugate weights the receive image z[t, r] in combiner
        r's gradient, and coef[2, r] weights the combiner itself.
        """
        np.matmul(_DEN_FACTORS, np.divide(1.0, lk.den, out=lk.inv), out=lk.factors)
        np.multiply(lk.factors, self.grad_weights, out=lk.factors)
        np.multiply(lk.factors, lk.s, out=lk.coef)
        np.copyto(lk.coef_w, lk.factors_w)
        np.multiply(lk.coef_legs, lk.w_legs, out=lk.weighted)
        np.matmul(lk.weighted_legs, self.h_conj, out=lk.legs)
        np.add(lk.legs_l, lk.legs_e, out=lk._g_f)
        np.vecdot(lk.coef_z, lk.zb, axis=1, out=lk._g_w)
        return lk.g


def _evaluate(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig):
    _check_dims(ch, bf)
    kernel = LinkKernel((ch,), (pw,))
    return kernel, kernel.links([bf])


def gradient_bundle(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> BeamformerState:
    """The conjugate gradients of c_l - c_e w.r.t. all four vectors at one
    state, in the state's fields, from one kernel evaluation (a batch of one
    row): ``LinkKernel.gradient``'s packed row, unpacked."""
    kernel, lk = _evaluate(ch, bf, pw)
    return _unpack_state(kernel.gradient(lk)[0], kernel.n_rx, kernel.n_tx)


def grad_wl(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the legitimate combiner. Each
    ``grad_*`` call builds a one-row kernel and the whole packed gradient:
    for several blocks of one state, take one ``gradient_bundle``."""
    return gradient_bundle(ch, bf, pw).w_l


def grad_fj(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the jammer precoder (built as in ``grad_wl``)."""
    return gradient_bundle(ch, bf, pw).f_j


def grad_fs(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the source precoder (built as in ``grad_wl``)."""
    return gradient_bundle(ch, bf, pw).f_s


def grad_we(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> np.ndarray:
    """Gradient w.r.t. the conjugate of the eavesdropper combiner
    (benchmark mode: ascending it degrades the eavesdropper link), built as in ``grad_wl``."""
    return gradient_bundle(ch, bf, pw).w_e


def capacity_difference(ch: ChannelSet, bf: BeamformerState, pw: PowerConfig) -> float:
    """Unclamped c_l - c_e, the smooth function the gradients differentiate."""
    return float(_evaluate(ch, bf, pw)[1].diff[0])


def gradient_check_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Relative 2-norm disagreement between a gradient and its oracle.

    Degenerate configurations (a scalar combiner, zeroed powers) have
    exactly-zero gradients where a relative error is meaningless; when both
    sides are below the finite-difference noise floor the error is 0.
    """
    norm_ref = float(np.linalg.norm(reference))
    norm_ana = float(np.linalg.norm(analytic))
    if norm_ref < 1e-8 and norm_ana < 1e-8:
        return 0.0
    return float(np.linalg.norm(analytic - reference)) / max(norm_ref, 1e-8)


def fd_gradient(
    objective: Callable[[np.ndarray], float], point: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference conjugate gradient of a real objective.

    Probes each coordinate along the real and imaginary axes and assembles
    0.5 * (d/dRe + j * d/dIm). Independent of every analytic form above.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    grad = np.zeros(point.shape, dtype=complex)
    for k in range(point.size):
        probes = []
        for step in (h, -h, 1j * h, -1j * h):
            v = point.astype(complex)  # a new array
            v[k] += step
            val = objective(v)
            if not np.isfinite(val):
                raise ValueError(f"objective not finite at probe {k}, step {step}")
            probes.append(val)
        d_re = (probes[0] - probes[1]) / (2.0 * h)
        d_im = (probes[2] - probes[3]) / (2.0 * h)
        grad[k] = 0.5 * (d_re + 1j * d_im)
    return grad
