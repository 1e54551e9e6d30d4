"""Run the studies of one benchmark run in a process of their own.

usage: python3 perfbench/studies.py <job.json> <result.json>

``run.py`` starts this script so that the peak resident set it reports
belongs to the studies alone: no output check, set-up probe or gradient
check runs in this process. A study is ``secrecy_ascent.cli.main`` called
in process with the workload's ``run`` arguments.

The job names the workload, seed and trial counts, and a list of phases.
Each phase repeats the same study, untraced or traced, until its seconds
are spent and it has made at least ``min_reps`` studies. One untimed
warm-up study comes first. The reference loop of ``calibrate.py`` runs
between studies, on as many processes as the study uses; each study
records the mean of the two measurements around it. A study's time runs from the moment the CLI
dispatches the first trial until ``main`` returns, after ``report.json``
is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parents[1])]

from perfbench.env import pin_threads  # noqa: E402

pin_threads()

from secrecy_ascent import cli  # noqa: E402

from perfbench.calibrate import Reference  # noqa: E402
from perfbench.tracer import DispatchMark, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MAX_REPS = 200  # bounds the disk a fast machine fills with study outputs


def run_study(argv: list[str], marker) -> dict:
    """One CLI run under ``marker``; exit code, stderr and the timed window."""
    out, err = io.StringIO(), io.StringIO()
    with marker.installed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed study, not a failed benchmark
            code = "exception"
            traceback.print_exc()
    ended = time.perf_counter()
    window = ended - marker.dispatched if marker.dispatched is not None else None
    return {"exit": code, "stderr": err.getvalue()[-4000:], "window_s": window, "ended": ended}


def layer_record(tracer: Tracer, study: dict, trace_path: Path) -> dict:
    """Per-layer totals of one traced study."""
    times = tracer.layer_times()
    run_end = max((s[2] for s in tracer.spans if s[0] == "experiment.run"), default=study["ended"])
    return {
        "times": {
            "config.resolve_s": times.get("config.resolve", 0.0),
            "config.build_s": times.get("config.build", 0.0),
            "channel.draw_s": times.get("channel.draw", 0.0),
            "optimizer.warm_start_s": times.get("optimizer.warm_start", 0.0),
            "optimizer.ascend_s": times.get("optimizer.ascend", 0.0),
            "metrics.svd_s": times.get("metrics.svd", 0.0),
            "experiment.self_s": times["experiment.self"],
            "experiment.result_wait_s": tracer.wait_s,
            "cli.trace_write_s": times.get("cli.on_trial", 0.0),
            "cli.finalize_s": study["ended"] - run_end,
        },
        "counts": dict(
            tracer.counts,
            **{"cli.trace_bytes": trace_path.stat().st_size if trace_path.is_file() else 0,
               "trace.spans": len(tracer.spans)},
        ),
        "ca_violations": tracer.ca_violations,
    }


def run_phase(workload, job: dict, phase: dict, work: Path, spans_out) -> list[dict]:
    studies = []
    threads = phase.get("threads") or workload.threads
    with Reference(processes=threads) as reference:
        started = time.perf_counter()
        before = reference.measure()
        while len(studies) < MAX_REPS:
            out_dir = work / phase["name"] / f"rep{len(studies)}"
            argv = workload.argv(str(out_dir), job["seed"], job["trials"], threads)
            tracer = Tracer(in_trial=phase["in_trial"]) if phase["traced"] else DispatchMark()
            study = run_study(argv, tracer)
            after = reference.measure()
            study.update(phase=phase["name"], dir=str(out_dir), trials=job["trials"],
                         reference_s=(before + after) / 2)
            before = after
            if phase["traced"]:
                study["layers"] = layer_record(tracer, study, out_dir / "trace.csv")
                spans_out.append((phase["name"], len(studies), tracer))
            studies.append(study)
            if (time.perf_counter() - started >= phase["seconds"]
                    and len(studies) >= phase["min_reps"]):
                break
    return studies


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    workload = WORKLOADS[job["workload"]]
    work = Path(job["work_dir"])
    warmup = workload.argv(str(work / "warmup"), job["seed"], job["warmup_trials"])
    run_study(warmup, DispatchMark())
    spans: list = []
    studies = []
    for phase in job["phases"]:
        studies.extend(run_phase(workload, job, phase, work, spans))
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if spans:
        with open(job["spans_path"], "w") as fh:
            fh.write("phase,rep,span,name,start,end,parent,trial\n")
            for phase, rep, tracer in spans:
                for index, (name, start, end, parent, trial) in enumerate(tracer.spans):
                    fh.write(f"{phase},{rep},{index},{name},{start:.9f},{end:.9f},{parent},{trial}\n")
    for study in studies:
        study.pop("ended")
    Path(result_path).write_text(json.dumps({
        "studies": studies,
        "peak_rss_kib": max(rss_self, rss_children),
        "rss_self_kib": rss_self,
        "rss_largest_child_kib": rss_children,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
