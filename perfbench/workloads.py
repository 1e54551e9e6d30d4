"""The benchmark's workloads: one ``secrecy-ascent run`` command line each.

Every workload is a closed loop: one process runs the whole study, and the
next study starts only after the previous one has written ``report.json``.
The study seed is the benchmark's ``--seed`` argument; the program receives
nothing else from the benchmark.

The iteration caps are there to make the work per trial nearly independent
of the seed. Uncapped, a trial's loop passes vary by 2-3x between seeds
(mmwave: 13.5k-20k passes per trial; sub6 variable power at -10 dB:
22k-55k), so a run of a few trials cannot repeat its trials/s across seeds.
With the caps almost every ascent ends at ``iter_cap`` or ``power_cap``
after a nearly fixed number of passes (sub6-variable: 10.4k-11.1k passes per
eight trials), and trials/s measures the engine's speed rather than the
draw of channels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    experiment: str
    overrides: tuple[str, ...]
    threads: int
    trials: int            # trials in one study (one CLI run)
    warmup_trials: int     # untimed study run before timing starts
    smoke_trials: int
    default_seed: int
    held_out_seed: int     # kept out of tuning, for confirming later claims
    why: str
    reasons: frozenset     # termination reasons a report may count

    def argv(self, out_dir: str, seed: int, trials: int, threads: int | None = None) -> list[str]:
        """The ``secrecy-ascent`` argument list of one study."""
        return [
            "run", "--config", self.preset, "--experiment", self.experiment,
            *self.overrides,
            "--seed", str(seed), "--trials", str(trials),
            "--threads", str(self.threads if threads is None else threads),
            "--out", out_dir,
        ]


FIXED_REASONS = frozenset({"converged", "iter_cap"})
VARIABLE_REASONS = frozenset({"target_reached", "power_cap", "cycle_cap"})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mmwave-fixed",
            preset="mmwave",
            experiment="fixed_power",
            overrides=("--max-iters", "1000"),
            threads=1,
            trials=2,
            warmup_trials=1,
            smoke_trials=1,
            default_seed=101,
            held_out_seed=1101,
            why="headline fixed-power study on 4x64 arrays: two ascents of 1000 passes per trial, "
                "so almost all time is in the optimizer loop and its gradients",
            reasons=FIXED_REASONS,
        ),
        Workload(
            name="sub6-variable",
            preset="sub6",
            experiment="variable_power",
            overrides=("--p-s-db", "-10", "--mu-db", "-5", "--max-iters", "12"),
            threads=1,
            trials=8,
            warmup_trials=1,
            smoke_trials=1,
            default_seed=202,
            held_out_seed=1202,
            why="variable power on 4x16 arrays: ~116 short power cycles per trial, no w_e ascent "
                "and no SVD, so per-call overhead and the cycle loop dominate",
            reasons=VARIABLE_REASONS,
        ),
        Workload(
            name="sub6-early",
            preset="sub6",
            experiment="fixed_power",
            overrides=("--max-iters", "60"),
            threads=2,
            trials=40,
            warmup_trials=16,
            smoke_trials=8,
            default_seed=303,
            held_out_seed=1303,
            why="first-60-iteration study over many short trials on a 2-worker pool: channel "
                "draws, the pool, aggregation and trace output carry a large share",
            reasons=FIXED_REASONS,
        ),
    )
}
