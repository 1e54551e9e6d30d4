"""Spans around the layer boundaries of a ``secrecy-ascent run``.

Nothing in the package is changed: the tracer replaces, for the length of
a ``with`` block, the module attributes that each layer's caller looks up at
call time, and puts the originals back afterwards:

- ``secrecy_ascent.cli``: ``resolve_config_file``, ``build_system_config``,
  ``run_fixed_power_experiment``, ``run_variable_power_experiment``, and the
  ``on_trial`` callback the CLI passes to the latter two;
- ``secrecy_ascent.experiment``: ``draw_channel_set``, ``warm_start``,
  ``ascend_fixed_power``, ``ascend_variable_power``, ``svd_upper_bound``.

With a process pool the trial layers run in the workers, out of reach of
these wrappers, so ``in_trial=False`` leaves them unwrapped.

A span is ``(name, start, end, parent, trial)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``trial`` the trial index the work
belongs to. Spans stay in memory; ``studies.py`` writes them out when its
last study has ended.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager

from secrecy_ascent import cli, experiment
from secrecy_ascent.optimizer import state_ca_violation

CA_TOL = 1e-9
CLI_LAYERS = {
    "resolve_config_file": "config.resolve",
    "build_system_config": "config.build",
}
RUN_LAYERS = ("run_fixed_power_experiment", "run_variable_power_experiment")
TRIAL_LAYERS = {
    "draw_channel_set": "channel.draw",
    "warm_start": "optimizer.warm_start",
    "ascend_fixed_power": "optimizer.ascend",
    "ascend_variable_power": "optimizer.ascend",
    "svd_upper_bound": "metrics.svd",
}


@contextmanager
def _patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


class DispatchMark:
    """Untraced timing: only the moment the CLI dispatches the trials."""

    def __init__(self):
        self.dispatched = None

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for name in RUN_LAYERS:
                stack.enter_context(_patched(cli, name, self._mark(getattr(cli, name))))
            yield self

    def _mark(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.dispatched = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapper


class Tracer(DispatchMark):
    """Records spans and per-layer counts of the studies run inside it."""

    def __init__(self, in_trial: bool = True):
        super().__init__()
        self.in_trial = in_trial
        self.spans: list = []
        self._stack: list[int] = []
        self.trial = 0
        self.counts: dict[str, int] = {}
        self.ca_violations: dict[int, str] = {}
        self.wait_s = 0.0
        self._last_return = None

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for name, span in CLI_LAYERS.items():
                stack.enter_context(_patched(cli, name, self._span(span, getattr(cli, name))))
            for name in RUN_LAYERS:
                stack.enter_context(_patched(cli, name, self._run(getattr(cli, name))))
            if self.in_trial:
                for name, span in TRIAL_LAYERS.items():
                    fn = getattr(experiment, name)
                    hook = self._count_ascent if span == "optimizer.ascend" else None
                    stack.enter_context(_patched(experiment, name, self._span(span, fn, hook)))
            yield self

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.trial)
            self.add(name + ".calls")
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_ascent(self, res) -> None:
        trace = res.trace
        accepted = len(trace.records) - 1  # record 0 is the starting point
        self.add("optimizer.iters", trace.n_iters)
        self.add("optimizer.accepted", accepted)
        self.add("optimizer.rejected", trace.n_iters - accepted)
        self.add("optimizer.cycles", len(trace.cycles))
        self.add("optimizer.reason." + trace.reason.value)

    def _run(self, fn):
        spanned = self._span("experiment.run", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callback = kwargs.get("on_trial")
            if callback is not None:
                kwargs["on_trial"] = self._on_trial(callback)
            self.trial = 0
            self.dispatched = self._last_return = time.perf_counter()
            return spanned(*args, **kwargs)

        return wrapper

    def _on_trial(self, callback):
        spanned = self._span("cli.on_trial", callback)

        def wrapper(i, *results):
            self.wait_s += time.perf_counter() - self._last_return
            self.trial = i
            spanned(i, *results)
            self._last_return = time.perf_counter()
            self.trial = i + 1
            self.add("cli.trace_rows", len(results[0].trace.records))
            for res in results:
                if hasattr(res, "state") and state_ca_violation(res.state) > CA_TOL:
                    self.ca_violations[i] = f"returned state violates CA by more than {CA_TOL}"

        return wrapper

    def layer_times(self) -> dict[str, float]:
        """Total time per span name, and the run spans' self time."""
        totals: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for name, start, end, parent, _trial in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals["experiment.self"] = sum(
            (end - start) - child_time.get(index, 0.0)
            for index, (name, start, end, _parent, _trial) in enumerate(self.spans)
            if name == "experiment.run"
        )
        return totals
