"""Trial-throughput benchmark of the secrecy-ascent Monte Carlo engine.

usage (from the repository root):

  python3 perfbench/run.py --workload mmwave-fixed --seed 101 --seconds 20 --trace 0
  python3 perfbench/run.py --workload sub6-early --seed 303 --seconds 20 --trace 1
  python3 perfbench/run.py --smoke      # every workload, both modes, tiny plans

Every invocation first runs the gradient oracle gate (``gradcheck`` at
n_tx=64 and n_tx=16); a failing gate means no figure is produced.

``--trace 0`` measures the end-to-end metrics with tracing off:
  trials_per_s  median over repeated studies of trials / (first trial
                dispatch -> report.json written), each scaled to the
                nominal machine speed of ``calibrate.py``
  setup_s       median over fresh interpreters of the time to the first
                trial dispatch (import, argv, config), scaled likewise
  peak_rss_mb   max resident set of the study process, or of its largest
                pool worker if larger
``--trace 1`` runs the same studies untraced and traced and prints the
per-layer metrics, the kernel microbenchmarks and the trace overhead, and
evaluates the written predictions in ``predictions.json``.

Every study's outputs are checked (see ``checks.py``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` (trials) and ``metrics``; the exit code is 0 only if every check
and the gate passed. Work directories go to ``.perfbench_runs/`` under the
repository root and are removed afterwards; a JSON record of each run (with
machine details, the trace.csv digest and, for traced runs, the spans)
stays in ``.perfbench_runs/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".perfbench_runs"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# Only modules that leave numpy unimported load here: the others are imported
# inside functions, after pin_threads() and the check that the sources exist.
from perfbench.env import child_env, pin_threads, provenance  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
STUDY_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="study seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time spent repeating the timed study")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default 0; both with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny plans, one study per phase; every workload unless one is given")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def gradient_gate(cli) -> tuple[bool, list[str]]:
    """``secrecy-ascent gradcheck`` at n_tx=64 and 16; exit 1 fails the gate."""
    ok, lines = True, []
    for n_tx in (64, 16):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["gradcheck", "--n-rx", "4", "--n-tx", str(n_tx)])
        ok = ok and code == 0
        lines.append(f"gradcheck n_rx=4 n_tx={n_tx}: exit {code}")
    return ok, lines


def setup_times(workload, seed: int, trials: int, count: int, work: Path) -> list[tuple]:
    """(seconds, reference seconds just before) for ``count`` fresh starts."""
    from perfbench.calibrate import reference_seconds

    times = []
    for k in range(count):
        argv = workload.argv(str(work / f"setup{k}"), seed, trials)
        reference = reference_seconds()
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), repr(spawned), *argv],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
        times.append((float(proc.stdout.split()[-1]), reference))
    return times


def run_studies(job: dict, work: Path) -> dict:
    job_path, result_path = work / "job.json", work / "studies.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "studies.py"), str(job_path), str(result_path)],
        capture_output=True, text=True, env=child_env(), timeout=STUDY_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"study process failed: {proc.stderr.strip()[-800:]}")
    return json.loads(result_path.read_text())


def hand_run(workload, seed: int, trials: int, work: Path) -> dict:
    """The same study through ``python -m secrecy_ascent.cli``, nothing wrapped."""
    out_dir = work / "hand-run"
    proc = subprocess.run(
        [sys.executable, "-m", "secrecy_ascent.cli", *workload.argv(str(out_dir), seed, trials)],
        capture_output=True, text=True, env=child_env(), timeout=STUDY_TIMEOUT_S,
    )
    return {"dir": str(out_dir), "exit": proc.returncode, "stderr": proc.stderr, "trials": trials}


def raw_rate(study: dict) -> float:
    return study["trials"] / study["window_s"]


def median_rate(studies: list[dict]) -> float:
    """Median trials/s over studies, each scaled to the nominal machine speed."""
    from perfbench.calibrate import NOMINAL_S

    return statistics.median(raw_rate(s) * s["reference_s"] / NOMINAL_S
                             for s in studies if s["window_s"])


def layer_metrics(workload, studies: list[dict], set_check) -> dict:
    """Per-layer figures per study, averaged over the traced studies.

    On a pooled workload the in-trial layers (channel, optimizer, metrics,
    experiment self time) come from the threads=1 companion study.
    """
    from secrecy_ascent.optimizer import TerminationReason

    traced = [s for s in studies if s["phase"] == "traced"]
    in_trial = [s for s in studies if s["phase"] == "companion"] or traced
    unrepeatable: set[str] = set()

    def time_of(key, src):
        return statistics.fmean(s["layers"]["times"][key] for s in src)

    def count_of(key, src):
        values = {s["layers"]["counts"].get(key, 0) for s in src}
        if len(values) > 1:
            unrepeatable.add(src[0]["phase"])
            set_check.notes.append(f"count {key} differs between studies of one seed: {sorted(values)}")
        return max(values)

    def window(src):
        return statistics.fmean(s["window_s"] for s in src)

    m = {
        "config.resolve_s": time_of("config.resolve_s", traced),
        "config.build_s": time_of("config.build_s", traced),
        "channel.draw_s": time_of("channel.draw_s", in_trial),
        "channel.draw_calls": count_of("channel.draw.calls", in_trial),
        "optimizer.warm_start_s": time_of("optimizer.warm_start_s", in_trial),
        "optimizer.ascend_s": time_of("optimizer.ascend_s", in_trial),
        "optimizer.iters": count_of("optimizer.iters", in_trial),
        "optimizer.accepted": count_of("optimizer.accepted", in_trial),
        "optimizer.rejected": count_of("optimizer.rejected", in_trial),
        "optimizer.cycles": count_of("optimizer.cycles", in_trial),
        "metrics.svd_s": time_of("metrics.svd_s", in_trial),
        "metrics.svd_calls": count_of("metrics.svd.calls", in_trial),
        "experiment.self_s": time_of("experiment.self_s", in_trial),
        "experiment.result_wait_s": time_of("experiment.result_wait_s", traced),
        "cli.trace_write_s": time_of("cli.trace_write_s", traced),
        "cli.trace_rows": count_of("cli.trace_rows", traced),
        "cli.trace_bytes": count_of("cli.trace_bytes", traced),
        "cli.finalize_s": time_of("cli.finalize_s", traced),
        "trace.spans": count_of("trace.spans", traced),
    }
    for reason in TerminationReason:
        m[f"optimizer.reason.{reason.value}"] = count_of(f"optimizer.reason.{reason.value}", in_trial)
    iters = m["optimizer.iters"]
    m["optimizer.accept_ratio"] = m["optimizer.accepted"] / iters if iters else 0.0
    m["optimizer.us_per_iter"] = 1e6 * m["optimizer.ascend_s"] / iters if iters else 0.0
    for key in ("channel.draw", "optimizer.ascend", "metrics.svd", "experiment.self"):
        m[f"{key}_share"] = m[f"{key}_s"] / window(in_trial)
    for key in ("experiment.result_wait", "cli.trace_write"):
        m[f"{key}_share"] = m[f"{key}_s"] / window(traced)
    untraced = median_rate([s for s in studies if s["phase"] == "untraced"])
    m["trace.overhead_frac"] = 1.0 - median_rate(traced) / untraced
    # counts that do not repeat fail the trials of one study per phase
    set_check.failed += sum(next(s["trials"] for s in studies if s["phase"] == phase)
                            for phase in unrepeatable)
    return m


def evaluate_predictions(name: str, metrics: dict) -> list[dict]:
    spec = json.loads((ROOT / "perfbench" / "predictions.json").read_text())["predictions"]
    results = []
    for p in spec:
        if p["workload"] != name:
            continue
        value = metrics[p["layer"]]
        op, *bounds = p["check"]
        held = {
            "<=": lambda: value <= bounds[0],
            ">=": lambda: value >= bounds[0],
            "==": lambda: value == bounds[0],
            "between": lambda: bounds[0] <= value <= bounds[1],
        }[op]()
        results.append(dict(p, value=value, held=held))
    return results


def plan_phases(workload, trace: int, seconds: float, min_reps: int) -> list[dict]:
    """The study phases of one run; ``studies.py`` says how a phase runs."""
    if trace == 0:
        return [dict(name="untraced", traced=False, seconds=seconds, min_reps=min_reps)]
    pooled = workload.threads > 1
    phases = [
        dict(name="untraced", traced=False, seconds=seconds / 2, min_reps=1),
        dict(name="traced", traced=True, in_trial=not pooled, seconds=seconds / 2, min_reps=1),
    ]
    if pooled:
        phases.append(dict(name="companion", traced=True, in_trial=True, threads=1,
                           seconds=0, min_reps=1))
    return phases


def run_workload(workload, seed: int, seconds: float, trace: int, smoke: bool,
                 gate_ok: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines to print before it."""
    from perfbench import kernels
    from perfbench.calibrate import NOMINAL_S
    from perfbench.checks import StudySet

    stem = f"{workload.name}-seed{seed}-trace{trace}"
    work = RUNS / f"{stem}-{os.getpid()}"
    results_dir = RUNS / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    trials = workload.smoke_trials if smoke else workload.trials
    phases = plan_phases(workload, trace, 0.0 if smoke else seconds, 1 if smoke else 3)
    job = dict(workload=workload.name, seed=seed, trials=trials,
               warmup_trials=1 if smoke else workload.warmup_trials,
               phases=phases, work_dir=str(work),
               spans_path=str(results_dir / f"{stem}-spans.csv"))
    lines = []
    try:
        setup = setup_times(workload, seed, trials, 1 if smoke else SETUP_PROBES, work) \
            if trace == 0 else []
        ran = run_studies(job, work)
        studies = ran["studies"]
        if trace == 1:
            studies.append(dict(hand_run(workload, seed, trials, work), phase="hand-run"))
        set_check = StudySet(workload.reasons)
        for k, s in enumerate(studies):
            bad = s.get("layers", {}).get("ca_violations")
            set_check.check(f"{s['phase']} study {k}", Path(s["dir"]), s["trials"], s["exit"],
                            s["stderr"], bad)
        timed = [s for s in studies if s["phase"] == "untraced"]
        if trace == 0:
            metrics = {
                "trials_per_s": (median_rate(timed), "1/s"),
                "setup_s": (statistics.median(t * NOMINAL_S / ref for t, ref in setup), "s"),
                "peak_rss_mb": (ran["peak_rss_kib"] / 1024.0, "MiB"),
            }
            predictions = []
        else:
            layers = layer_metrics(workload, studies, set_check)
            if smoke:
                layers.update(kernels.measure(seed, repeats=20, slow_repeats=5, warmup=2))
            else:
                layers.update(kernels.measure(seed))
            metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
            predictions = evaluate_predictions(workload.name, layers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = gate_ok and set_check.failed == 0
    result = {
        "correct": correct,
        "attempted": set_check.attempted,
        "failed": set_check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines.append(f"workload {workload.name} seed {seed} trace {trace}: "
                 f"{len(timed)} timed studies x {trials} trials, "
                 f"{set_check.attempted} trials checked")
    lines.append(f"trace.csv sha256 {set_check.digest}")
    lines.extend(f"check failed: {note}" for note in set_check.notes)
    if not gate_ok:
        lines.append("gradient gate FAILED: no figure counts")
    if trace == 1 and workload.threads > 1:
        lines.append("in-trial layers measured on the threads=1 companion study, "
                     "whose trace.csv must match the pooled studies byte for byte")
    for p in predictions:
        status = "held" if p["held"] else "FAILED"
        lines.append(f"prediction {status}: {p['layer']} = {p['value']:.6g} "
                     f"{p['check']} -> {p['end_to_end']} on {p['workload']}")
    for k, (v, u) in metrics.items():
        lines.append(f"{k} = {v:.6g} {u}")
    if timed:
        lines.append(f"unscaled: trials_per_s {statistics.median(map(raw_rate, timed)):.6g} 1/s, "
                     f"reference loop median {statistics.median(s['reference_s'] for s in timed):.6g} s "
                     f"(nominal {NOMINAL_S} s)")
    lines.append(f"trials_attempted = {set_check.attempted} count")
    lines.append(f"trials_failed = {set_check.failed} count")
    record = dict(result, workload=workload.name, seed=seed, trace=trace, smoke=smoke,
                  provenance=provenance(), trace_sha256=set_check.digest,
                  termination_reasons=set_check.reasons, notes=set_check.notes,
                  gate_ok=gate_ok, setup_samples_s=setup,
                  peak_rss=dict((k, ran[k]) for k in ("rss_self_kib", "rss_largest_child_kib")),
                  predictions=predictions,
                  studies=[dict(phase=s["phase"], trials=s["trials"], window_s=s.get("window_s"),
                                reference_s=s.get("reference_s")) for s in studies])
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result, lines


def unit_of(name: str) -> str:
    if name.endswith((".p50", ".p90")):
        return "us"
    if name.endswith("_share") or name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "secrecy_ascent" / "cli.py").is_file():
        print(f"no secrecy_ascent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    from secrecy_ascent import cli

    gate_ok, gate_lines = gradient_gate(cli)
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    modes = [args.trace] if args.trace is not None else ([0, 1] if args.smoke else [0])
    print("provenance " + json.dumps(provenance()))
    print("\n".join(gate_lines))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            workload = WORKLOADS[name]
            seed = workload.default_seed if args.seed is None else args.seed
            for trace in modes:
                result, lines = run_workload(workload, seed, args.seconds, trace, args.smoke,
                                             gate_ok)
                print("\n".join(lines))
                if args.smoke:
                    print(f"smoke-result {name} {trace} {json.dumps(result)}")
                    for key in ("attempted", "failed"):
                        summary[key] += result[key]
                    summary["correct"] = summary["correct"] and result["correct"]
                else:
                    summary = result
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
