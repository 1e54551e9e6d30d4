"""Command-line front end: run experiments, validate configs, check gradients.

``gradcheck`` checks the packed gradient the ascent steps along against one
central-difference pass over the packed state per instance, block by block.

Outputs of ``run``, the last two rendered by the report (``output_texts``):
  trace.csv      per accepted iteration of every trial's main ascent
                 (columns: trial, cycle, iteration, c_s, c_l, c_e, delta, p_s_db)
  aggregate.csv  the report's mean curves as columns, benchmark columns included
  report.json    aggregate report plus a manifest (config snapshot, seed,
                 version, duration, output paths)
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelParams, draw_channel_set
from .config import SCHEMA, ConfigError, build_system_config, flat_items, resolve_config_file
from .experiment import (
    TRACE_HEADER,
    ExperimentKind,
    TrialError,
    run_fixed_power_experiment,
    run_variable_power_experiment,
)
from .gradients import LinkKernel, fd_gradient, gradient_check_error
from .metrics import PowerConfig, _unpack_state
from .optimizer import warm_start

GRADCHECK_TOL = 1e-5


def cmd_run(config_path: str, overrides: dict[str, str], output_dir: str, threads: int) -> int:
    started = time.perf_counter()
    resolved = resolve_config_file(config_path, overrides)
    cfg = build_system_config(resolved)
    fixed = cfg.experiment is ExperimentKind.FIXED_POWER

    out = Path(output_dir)
    trace_path = out / "trace.csv"
    aggregate_path = out / "aggregate.csv"
    report_path = out / "report.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        # a run that fails must not leave a previous run's summary beside its trace
        aggregate_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        fh = open(trace_path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"--out {output_dir}: cannot create {exc.filename}: "
                          f"{exc.strerror}") from None

    run = run_fixed_power_experiment if fixed else run_variable_power_experiment
    try:
        with fh:
            fh.write(",".join(TRACE_HEADER) + "\n")
            # a trial's last element is its rows, rendered where it ran
            report = run(cfg, threads=threads, on_trial=lambda i, *trial: fh.write(trial[-1]))

        # what produced the outputs and where they went
        manifest = {
            "config": dict(flat_items(resolved)),
            "seed": cfg.seed,
            "version": __version__,
            "duration_s": round(time.perf_counter() - started, 3),
            "outputs": {
                "trace_csv": str(trace_path),
                "aggregate_csv": str(aggregate_path),
                "report_json": str(report_path),
            },
        }
        aggregate_csv, report_json = report.output_texts(manifest)
        with open(aggregate_path, "w", newline="") as fh:
            fh.write(aggregate_csv)
        with open(report_path, "w") as fh:
            fh.write(report_json)
    except OSError as exc:
        # a write that fails fails the run, which leaves no summary; ``fh`` is
        # the file being written, unless the error is that of opening one
        aggregate_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        print(f"runtime error: --out {output_dir}: cannot write {exc.filename or fh.name}: "
              f"{exc.strerror}", file=sys.stderr)
        return 1

    print(f"wrote {trace_path}, {aggregate_path}, {report_path}")
    print(
        f"{report.experiment}: n_trials={report.n_trials} "
        f"converged c_s mean={report.converged_c_s_mean:.4f} bps/Hz"
    )
    reasons = ", ".join(f"{name}={count}"
                        for name, count in sorted(report.termination_reasons.items()))
    print(f"termination: {reasons}")
    if fixed and report.svd_violations:
        print(
            f"note: converged c_s exceeded the SVD diagnostic in "
            f"{report.svd_violations}/{report.n_trials} trials"
        )
    return 0


def cmd_validate(config_path: str, overrides: dict[str, str]) -> int:
    resolved = resolve_config_file(config_path, overrides)
    build_system_config(resolved)
    for key, value in flat_items(resolved):
        print(f"{key} = {value}")
    return 0


def cmd_gradcheck(n_rx: int, n_tx: int, instances: int, corrupt: bool) -> int:
    params = ChannelParams(n_clusters=3, n_rays=4, n_rx=n_rx, n_tx=n_tx, angular_spread_deg=10.0)
    pw = PowerConfig(p_s=10.0, p_j=10.0)
    rng = np.random.default_rng(0)
    worst = {"w_l": 0.0, "f_j": 0.0, "f_s": 0.0, "w_e": 0.0}
    for _ in range(instances):
        ch = draw_channel_set(params, rng)
        kernel = LinkKernel((ch,), (pw,))  # one per instance: each probe is one row
        lk = kernel.links([warm_start(params, rng)])
        grad = _unpack_state(kernel.gradient(lk)[0], n_rx, n_tx)
        if corrupt:
            grad = grad._replace(w_l=grad.w_l + 1e-3)
        ref = _unpack_state(fd_gradient(
            lambda x: float(kernel.links([_unpack_state(x, n_rx, n_tx)]).diff[0]), lk.x[0]),
            n_rx, n_tx)
        for name in worst:
            worst[name] = max(worst[name],
                              gradient_check_error(getattr(grad, name), getattr(ref, name)))
    ok = all(err < GRADCHECK_TOL for err in worst.values())
    for name, err in worst.items():
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"grad {name}: max relative error {err:.3e}  [{status}]")
    return 0 if ok else 1


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    # a flag's destination is its key, and a flag not given sets nothing
    for key in SCHEMA:
        flag = "trials" if key == "n_trials" else key.replace("_", "-")
        parser.add_argument(f"--{flag}", dest=key, metavar="V", default=argparse.SUPPRESS)


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    return {key: value for key, value in vars(args).items() if key in SCHEMA}


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrecy-ascent",
        description="Secrecy-capacity maximization over analog beamformers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment and write outputs")
    p_run.add_argument("--config", required=True,
                       help="config file path or bundled preset (mmwave, sub6)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--threads", type=_positive_int, default=1,
                       help="processes that run trials at once (default: 1)")
    _add_override_flags(p_run)

    p_val = sub.add_parser("validate", help="parse and validate a config, print it resolved")
    p_val.add_argument("--config", required=True)
    _add_override_flags(p_val)

    p_grad = sub.add_parser("gradcheck",
                            help="compare analytic gradients against finite differences")
    p_grad.add_argument("--n-rx", type=_positive_int, default=4)
    p_grad.add_argument("--n-tx", type=_positive_int, default=16)
    p_grad.add_argument("--instances", type=_positive_int, default=5)
    p_grad.add_argument("--corrupt", action="store_true",
                        help="corrupt one gradient to confirm the check trips")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, _collect_overrides(args), args.out, args.threads)
        if args.command == "validate":
            return cmd_validate(args.config, _collect_overrides(args))
        return cmd_gradcheck(args.n_rx, args.n_tx, args.instances, args.corrupt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrialError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
