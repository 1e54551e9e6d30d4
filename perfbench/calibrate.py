"""A fixed reference loop that tracks the machine's current speed.

On a shared 2-vCPU Xeon virtual machine (2.1 GHz) the speed drifted by up
to 2x over tens of seconds: one 1000-pass mmwave trial, run again and again
in one process, took anywhere from 0.15 to 0.32 s, with no CPU steal
reported. Raw wall-clock rates of two sets of runs of the same code made
twenty minutes apart differed by 30%.

The loop below mimics one ascent pass of the engine on a 4x64 array
(complex matrix-vector products, a vdot, a phase projection and scalar
math) but calls nothing from ``secrecy_ascent``, so no change to the
package can move it. Timed right before and after each study, it tells
how fast the machine ran meanwhile, and the benchmark scales each timing
to the fixed constant ``NOMINAL_S``:

  rate at nominal speed = measured rate * reference_s / NOMINAL_S

A workload that runs on a process pool runs the loop on as many CPUs as
the pool has workers, all at once, and takes the mean: one CPU of the two
tells little about the pair.
"""

from __future__ import annotations

import math
import multiprocessing
import time

import numpy as np

PASSES = 2000
NOMINAL_S = 0.025  # about one process's reference_seconds() on that machine; only
                   # its constancy matters, since results are compared run to run


def reference_seconds() -> float:
    """Wall time of ``PASSES`` passes of the reference loop."""
    rng = np.random.default_rng(0)
    h = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    w = np.full(4, 0.5 + 0j)
    f = np.full(64, 0.125 + 0j)
    started = time.perf_counter()
    for _ in range(PASSES):
        a = h @ f
        s = np.vdot(w, a)
        den = 1.0 + abs(s) ** 2
        g = (h.conj().T @ w) * (s / den)
        f = f + 0.01 * g
        f = f / np.abs(f) * 0.125
        math.log2(den)
    return time.perf_counter() - started


def _serve(conn) -> None:
    while conn.recv():
        conn.send(reference_seconds())


class Reference:
    """Times the reference loop in ``processes`` processes at once."""

    def __init__(self, processes: int = 1):
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(processes - 1):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child,), daemon=True)
            proc.start()
            self._helpers.append((proc, conn))
        self.measure()  # returns once every helper has started; not a sample

    def measure(self) -> float:
        for _proc, conn in self._helpers:
            conn.send(True)
        times = [reference_seconds()] + [conn.recv() for _proc, conn in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
