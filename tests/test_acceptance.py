"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria run at their stated trial counts, so this module
is the slow part of the suite (tens of minutes on one core). Shared
experiment runs are computed once per module.
"""

import itertools
import math
import time

import numpy as np
import pytest

from helpers import objective_in, random_instance
from secrecy_ascent.channel import ChannelParams, draw_channel_set
from secrecy_ascent.config import load_config
from secrecy_ascent.experiment import (run_fixed_power_experiment, run_variable_power_experiment,
                                       seed_fanout)
from secrecy_ascent.gradients import (fd_gradient, grad_fj, grad_fs, grad_we, grad_wl,
                                      gradient_check_error)
from secrecy_ascent.metrics import BeamformerState, PowerConfig
from secrecy_ascent.optimizer import (AscentRow, OptimizerConfig, ascend_fixed_power, ascend_rows,
                                      project_ca, project_unit_norm, state_ca_violation,
                                      warm_start)
from secrecy_ascent.reference import secrecy_capacity

pytestmark = pytest.mark.acceptance

POWERS = PowerConfig(p_s=10.0, p_j=10.0)

FIXED_TRIALS = 200
VARIABLE_TRIALS = 100


def _criterion(index: int, label: str, failures: list[str], notes: str = "") -> None:
    verdict = "PASS" if not failures else "FAIL"
    line = f"[ACCEPTANCE {index}] {verdict}: {label}"
    if notes:
        line += f" | {notes}"
    print(line)
    for failure in failures:
        print(f"    - {failure}")
    assert not failures, f"criterion {index} failed: {'; '.join(failures)}"


def _band_config(preset, n_trials, seed, experiment):
    # a band's study as `run --config <preset>` builds it
    return load_config(preset, {"n_trials": str(n_trials), "seed": str(seed),
                                "experiment": experiment})


@pytest.fixture(scope="module")
def fixed_reports():
    reports = {}
    for label, seed in [("mmwave", 101), ("sub6", 102)]:
        cfg = _band_config(label, FIXED_TRIALS, seed, "fixed_power")
        t0 = time.perf_counter()
        reports[label] = run_fixed_power_experiment(cfg)
        print(f"fixed-power {label}: {FIXED_TRIALS} trials in {time.perf_counter() - t0:.0f}s")
    return reports


@pytest.fixture(scope="module")
def variable_reports():
    reports = {}
    for label, seed in [("mmwave", 201), ("sub6", 202)]:
        cfg = _band_config(label, VARIABLE_TRIALS, seed, "variable_power")
        t0 = time.perf_counter()
        reports[label] = run_variable_power_experiment(cfg)
        print(f"variable-power {label}: {VARIABLE_TRIALS} trials in {time.perf_counter() - t0:.0f}s")
    return reports


def test_acceptance_1_gradient_oracle_agreement():
    """Analytic gradients match central finite differences at every dim."""
    grad_fn = {"w_l": grad_wl, "f_j": grad_fj, "f_s": grad_fs, "w_e": grad_we}
    started = time.perf_counter()
    worst = 0.0
    failures = []
    for dims in [(1, 1), (2, 2), (4, 16), (4, 64)]:
        for k in range(100):
            ch, bf, pw = random_instance(*dims, seed=1000 + k, n_clusters=3, n_rays=4)
            for name, fn in grad_fn.items():
                err = gradient_check_error(
                    fn(ch, bf, pw),
                    fd_gradient(objective_in(ch, bf, pw, name), getattr(bf, name)),
                )
                worst = max(worst, err)
                if err >= 1e-5:
                    failures.append(f"dims {dims} seed {1000+k} grad {name}: rel err {err:.2e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _criterion(1, "gradient/oracle agreement < 1e-5 at dims (1,1),(2,2),(4,16),(4,64)",
               failures, notes=f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_fixed_power_convergence_profile(fixed_reports):
    """Converged mean levels, iteration counts, and early-iteration ordering."""
    mm, s6 = fixed_reports["mmwave"], fixed_reports["sub6"]
    failures = []
    if not (2.0 <= mm.converged_c_s_mean <= 2.8):
        failures.append(f"mmwave converged mean {mm.converged_c_s_mean:.3f} not in [2.0, 2.8]")
    if not (1.7 <= s6.converged_c_s_mean <= 2.5):
        failures.append(f"sub6 converged mean {s6.converged_c_s_mean:.3f} not in [1.7, 2.5]")
    for label, rep in (("mmwave", mm), ("sub6", s6)):
        if not (250 <= rep.mean_iterations <= 550):
            failures.append(
                f"{label} mean iterations to converge {rep.mean_iterations:.0f} not in [250, 550]"
            )
    window = range(1, 61)
    mm_curve, s6_curve = np.array(mm.c_s_mean_curve), np.array(s6.c_s_mean_curve)
    above = sum(1 for t in window if s6_curve[t] > mm_curve[t])
    if above < 54:  # "~first 60 iterations", allowing boundary noise
        failures.append(f"sub6 curve above mmwave in only {above}/60 early iterations")
    _criterion(
        2,
        "fixed-power profile: mmwave 2.4±0.4, sub6 2.1±0.4, convergence 400±150 iters, "
        "sub6 leads early",
        failures,
        notes=(
            f"mmwave {mm.converged_c_s_mean:.3f} @ {mm.mean_iterations:.0f} iters, "
            f"sub6 {s6.converged_c_s_mean:.3f} @ {s6.mean_iterations:.0f} iters, "
            f"sub6 early lead {above}/60"
        ),
    )


def test_acceptance_3_variable_power_cycles_to_target(variable_reports):
    """Cycles to reach zeta=4 bps/Hz from 10 dB, and the final source power."""
    mm, s6 = variable_reports["mmwave"], variable_reports["sub6"]
    failures = []
    if not (152 <= mm.mean_cycles <= 272):
        failures.append(f"mmwave mean cycles {mm.mean_cycles:.1f} not in [152, 272]")
    if not (212 <= s6.mean_cycles <= 332):
        failures.append(f"sub6 mean cycles {s6.mean_cycles:.1f} not in [212, 332]")
    if not (15.5 <= mm.mean_final_p_s_db <= 18.5):
        failures.append(f"mmwave final P_s {mm.mean_final_p_s_db:.2f} dB not in [15.5, 18.5]")
    if not (14.12 <= s6.mean_final_p_s_db <= 17.12):
        failures.append(f"sub6 final P_s {s6.mean_final_p_s_db:.2f} dB not in [14.12, 17.12]")
    if not mm.mean_cycles < s6.mean_cycles:
        failures.append(
            f"ordering violated: mmwave cycles {mm.mean_cycles:.1f} "
            f">= sub6 cycles {s6.mean_cycles:.1f}"
        )
    _criterion(
        3,
        "variable-power: 212±60 / 272±60 cycles, final P_s 17±1.5 / 15.62±1.5 dB, "
        "mmwave needs fewer cycles",
        failures,
        notes=(
            f"mmwave {mm.mean_cycles:.1f} cycles -> {mm.mean_final_p_s_db:.2f} dB, "
            f"sub6 {s6.mean_cycles:.1f} cycles -> {s6.mean_final_p_s_db:.2f} dB"
        ),
    )


def test_acceptance_4_benchmark_ordering_and_bound(fixed_reports):
    """Optimized-w_e runs dominate on the mean; converged runs respect the
    singular-value diagnostic in at least 99% of trials."""
    failures = []
    notes = []
    for label, rep in fixed_reports.items():
        if rep.converged_c_s_mean > rep.converged_c_s_we_opt_mean:
            failures.append(
                f"{label}: random-w_e mean {rep.converged_c_s_mean:.3f} exceeds "
                f"optimized-w_e mean {rep.converged_c_s_we_opt_mean:.3f}"
            )
        rate = rep.svd_violations / rep.n_trials
        notes.append(
            f"{label}: we-opt {rep.converged_c_s_we_opt_mean:.3f} >= rand "
            f"{rep.converged_c_s_mean:.3f}, bound violations {rep.svd_violations}/{rep.n_trials}"
        )
        if rate > 0.01:
            failures.append(
                f"{label}: converged c_s exceeds the SVD diagnostic in "
                f"{rep.svd_violations}/{rep.n_trials} trials "
                f"(violating trials: {rep.svd_violation_trials[:10]}...)"
            )
    _criterion(4, "benchmark ordering and bound respect (>=99% of trials)",
               failures, notes="; ".join(notes))


def test_acceptance_5_optimizer_invariants():
    """Exact invariants: monotone accepted trajectories, feasible iterates,
    idempotent projections."""
    failures = []
    checked_states = 0

    def feasible(_row, state):
        nonlocal checked_states
        checked_states += 1
        if state_ca_violation(state) >= 1e-9:
            failures.append("accepted iterate violates CA constraint")
        for v in state:
            if abs(np.linalg.norm(v) - 1.0) >= 1e-9:
                failures.append("accepted iterate violates unit norm")

    run_plan = [(2, 8, 0), (2, 8, 1), (3, 16, 2), (2, 4, 3), (4, 64, 4), (4, 16, 5)]
    for n_rx, n_tx, seed in run_plan:
        ch, bf, pw = random_instance(n_rx, n_tx, seed=500 + seed, n_clusters=3, n_rays=5)
        results, error = ascend_rows([AscentRow(ch, pw, bf)], OptimizerConfig(max_iters=1500),
                                     on_accept=feasible)
        assert error is None, error
        res = results[0]
        c_s = res.trace.c_s.tolist()
        if not all(b >= a for a, b in zip(c_s, c_s[1:])):
            failures.append(f"non-monotone accepted trajectory at dims ({n_rx},{n_tx})")

    rng = np.random.default_rng(60)
    worst_ca, worst_un = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ca = project_ca(v)
        un = project_unit_norm(v)
        worst_ca = max(worst_ca, float(np.max(np.abs(project_ca(ca) - ca))))
        worst_un = max(worst_un, float(np.max(np.abs(project_unit_norm(un) - un))))
    if worst_ca > 1e-15:
        failures.append(f"project_ca not idempotent to 1e-15 (worst {worst_ca:.2e})")
    if worst_un > 1e-15:
        failures.append(f"project_unit_norm not idempotent to 1e-15 (worst {worst_un:.2e})")
    _criterion(5, "optimizer invariants: monotone traces, feasible iterates, "
                  "idempotent projections",
               failures, notes=f"{checked_states} accepted iterates checked")


def test_acceptance_6_small_instance_exhaustive_oracle():
    """Ascent reaches >=95% of the 8-phase exhaustive optimum at 2x2 in
    >=90% of 100 seeded trials."""
    params = ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=2, angular_spread_deg=10)
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
    scale = 1 / math.sqrt(2)

    def grid_best(ch, w_e):
        # c_s is invariant to each vector's global phase: pin entry 0 at phase 0
        best = -1.0
        for p_w, p_s, p_j in itertools.product(phases, repeat=3):
            bf = BeamformerState(
                w_l=np.array([scale, scale * p_w]),
                w_e=w_e,
                f_s=np.array([scale, scale * p_s]),
                f_j=np.array([scale, scale * p_j]),
            )
            best = max(best, secrecy_capacity(ch, bf, POWERS).c_s)
        return best

    wins = 0
    worst_ratio = float("inf")
    for trial in range(100):
        rng = seed_fanout(300, trial)
        ch = draw_channel_set(params, rng)
        init = warm_start(params, rng)
        res = ascend_fixed_power(ch, POWERS, OptimizerConfig(), init)
        best = grid_best(ch, init.w_e)
        ratio = res.trace.cycles[-1].c_s / best if best > 0 else float("inf")
        worst_ratio = min(worst_ratio, ratio)
        if ratio >= 0.95:
            wins += 1
    failures = []
    if wins < 90:
        failures.append(f"only {wins}/100 trials reached 95% of the exhaustive optimum")
    _criterion(6, "small-instance exhaustive oracle: >=95% attainment in >=90% of trials",
               failures, notes=f"{wins}/100 wins, worst ratio {worst_ratio:.3f}")


def test_acceptance_7_trace_determinism(tmp_path):
    """Identical config + seed gives byte-identical trace.csv, independent of
    the worker count."""
    import secrecy_ascent.cli as cli

    digests = []
    for name, threads in [("r1", None), ("r2", None), ("r3", "2")]:
        argv = [
            "run", "--config", "mmwave", "--out", str(tmp_path / name),
            "--trials", "3", "--max-iters", "250", "--seed", "9",
        ]
        if threads:
            argv += ["--threads", threads]
        assert cli.main(argv) == 0
        digests.append((tmp_path / name / "trace.csv").read_bytes())
    failures = []
    if not (digests[0] == digests[1] == digests[2]):
        failures.append("trace.csv differs across reruns or thread counts")
    _criterion(7, "byte-identical trace.csv across reruns and thread counts", failures)
