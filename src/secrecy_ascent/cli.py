"""Command-line front end: run experiments, validate configs, check gradients.

Outputs of ``run``:
  trace.csv      per accepted iteration of every trial's main ascent
                 (columns: trial, cycle, iteration, c_s, c_l, c_e, delta, p_s_db)
  aggregate.csv  the report's mean curves as columns, benchmark columns included
  report.json    aggregate report plus a manifest (config snapshot, seed,
                 version, duration, output paths)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
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
from .gradients import capacity_difference, fd_gradient, gradient_bundle, gradient_check_error
from .metrics import PowerConfig
from .optimizer import warm_start

GRADCHECK_TOL = 1e-5


@dataclass
class RunManifest:
    """What produced a run's outputs and where they went."""

    config: dict[str, str]
    seed: int
    version: str
    duration_s: float
    outputs: dict[str, str] = field(default_factory=dict)


def _fields(obj) -> dict:
    """A dataclass's fields as a dict, without copying their values."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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

    with fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        # the shards render each trial's rows where it ran; this only writes them
        run = run_fixed_power_experiment if fixed else run_variable_power_experiment
        report = run(cfg, threads=threads,
                     on_trial=lambda i, res, *_: fh.write(res.trace.csv_rows))

    with open(aggregate_path, "w", newline="") as fh:
        fh.write(report.aggregate_text())

    manifest = RunManifest(
        config=dict(flat_items(resolved)),
        seed=cfg.seed,
        version=__version__,
        duration_s=round(time.perf_counter() - started, 3),
        outputs={
            "trace_csv": str(trace_path),
            "aggregate_csv": str(aggregate_path),
            "report_json": str(report_path),
        },
    )
    with open(report_path, "w") as fh:
        fh.write(json.dumps({"manifest": _fields(manifest), "report": _fields(report)},
                            indent=2) + "\n")

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


def cmd_gradcheck(n_rx: int, n_tx: int, seed: int, instances: int, corrupt: bool) -> int:
    params = ChannelParams(n_clusters=3, n_rays=4, n_rx=n_rx, n_tx=n_tx, angular_spread_deg=10.0)
    pw = PowerConfig(p_s=10.0, p_j=10.0)
    rng = np.random.default_rng(seed)
    worst = {"w_l": 0.0, "f_j": 0.0, "f_s": 0.0, "w_e": 0.0}
    for _ in range(instances):
        ch = draw_channel_set(params, rng)
        bf = warm_start(params, rng)
        bundle = gradient_bundle(ch, bf, pw)
        for name in worst:
            grad = getattr(bundle, name)
            if corrupt and name == "w_l":
                grad = grad + 1e-3

            def objective(v, _name=name):
                return capacity_difference(ch, replace(bf, **{_name: v}), pw)

            ref = fd_gradient(objective, getattr(bf, name))
            worst[name] = max(worst[name], gradient_check_error(grad, ref))
    ok = all(err < GRADCHECK_TOL for err in worst.values())
    for name, err in worst.items():
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"grad {name}: max relative error {err:.3e}  [{status}]")
    return 0 if ok else 1


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    n_trials = parser.add_mutually_exclusive_group()  # --n-trials and its alias
    for key in SCHEMA:
        group = n_trials if key == "n_trials" else parser
        group.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")
    n_trials.add_argument("--trials", dest="cfg_n_trials", metavar="V",
                          help="alias for --n-trials")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    return {
        name[len("cfg_"):]: value
        for name, value in vars(args).items()
        if name.startswith("cfg_") and value is not None
    }


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _default_threads() -> int:
    """SECRECY_ASCENT_THREADS, read as ``--threads`` reads its value, or 1
    when it is unset or empty."""
    env = os.environ.get("SECRECY_ASCENT_THREADS", "")
    try:
        return _positive_int(env) if env else 1
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"SECRECY_ASCENT_THREADS: {exc}") from None


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
    p_run.add_argument("--threads", type=_positive_int, default=None,
                       help="processes that run trials at once (default: SECRECY_ASCENT_THREADS or 1)")
    _add_override_flags(p_run)

    p_val = sub.add_parser("validate", help="parse and validate a config, print it resolved")
    p_val.add_argument("--config", required=True)
    _add_override_flags(p_val)

    p_grad = sub.add_parser("gradcheck",
                            help="compare analytic gradients against finite differences")
    p_grad.add_argument("--n-rx", type=_positive_int, default=4)
    p_grad.add_argument("--n-tx", type=_positive_int, default=16)
    p_grad.add_argument("--seed", type=_int_at_least(0), default=0)
    p_grad.add_argument("--instances", type=_positive_int, default=5)
    p_grad.add_argument("--corrupt", action="store_true",
                        help="corrupt one gradient to confirm the check trips")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            threads = args.threads if args.threads is not None else _default_threads()
            return cmd_run(args.config, _collect_overrides(args), args.out, threads)
        if args.command == "validate":
            return cmd_validate(args.config, _collect_overrides(args))
        return cmd_gradcheck(args.n_rx, args.n_tx, args.seed, args.instances, args.corrupt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrialError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
