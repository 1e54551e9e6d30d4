import ast
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import secrecy_ascent as sa
import secrecy_ascent.experiment as exp
from secrecy_ascent.experiment import _dense_curve, _pad_mean
from secrecy_ascent.optimizer import ITERATION_DTYPE, IterationRecord, OptimizerTrace

SMALL = sa.ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=8, angular_spread_deg=10)


def small_config(n_trials=3, seed=42, experiment=sa.ExperimentKind.FIXED_POWER, **opt):
    opt.setdefault("max_iters", 400)
    if experiment is sa.ExperimentKind.VARIABLE_POWER:
        opt.setdefault("zeta", 0.5)
    return sa.SystemConfig(
        channel=SMALL,
        powers=sa.PowerConfig(p_s=10.0, p_j=10.0),
        optimizer=sa.OptimizerConfig(**opt),
        n_trials=n_trials,
        seed=seed,
        experiment=experiment,
    )


def test_seed_fanout_reproducible_and_distinct():
    a = sa.seed_fanout(9, 4).standard_normal(8)
    b = sa.seed_fanout(9, 4).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = sa.seed_fanout(9, 5).standard_normal(8)
    assert not np.array_equal(a, c)
    d = sa.seed_fanout(10, 4).standard_normal(8)
    assert not np.array_equal(a, d)


def test_dense_curve_carries_values_forward():
    recs = [
        IterationRecord(1, 0, 0.5, 1.0, 0.5, 0.1, 10.0),
        IterationRecord(1, 2, 0.9, 1.4, 0.5, 0.1, 10.0),
        IterationRecord(1, 5, 1.2, 1.7, 0.5, 0.1, 10.0),
    ]
    trace = OptimizerTrace(np.array(recs, dtype=ITERATION_DTYPE), n_iters=7)
    np.testing.assert_allclose(
        _dense_curve(trace), [0.5, 0.5, 0.9, 0.9, 0.9, 1.2, 1.2, 1.2]
    )


@pytest.mark.parametrize("kind", list(sa.ExperimentKind))
def test_shard_results_pickle_round_trip(kind):
    # shard results cross a worker's pipe: states as one packed array each,
    # traces as their column logs; they must come back bit for bit
    # a trial is (res_rand, res_opt, bound) at fixed power and (res,) at
    # variable power: its results, then the bound if it has one
    cfg = small_config(n_trials=3, experiment=kind, max_iters=60)
    trials, failure = exp._shard(cfg, 0, 3)
    assert failure is None and len(trials) == 3
    assert {len(t) for t in trials} == {3 if kind is sa.ExperimentKind.FIXED_POWER else 1}
    back, _ = pickle.loads(pickle.dumps((trials, failure)))
    assert [t[2:] for t in back] == [t[2:] for t in trials]
    pairs = [(g, w) for got, want in zip(back, trials) for g, w in zip(got[:2], want[:2])]
    for got, want in pairs:
        for g, w in zip(got.state.vectors(), want.state.vectors()):
            assert (g.shape, g.dtype) == (w.shape, w.dtype)
            assert g.tobytes() == w.tobytes()
        assert got.trace.log.dtype == want.trace.log.dtype
        assert got.trace.log.tobytes() == want.trace.log.tobytes()
        assert got.trace.records == want.trace.records
        assert got.trace.cycles == want.trace.cycles
        assert (got.trace.reason, got.trace.n_iters) == (want.trace.reason, want.trace.n_iters)
        assert (got.p_s, got.snapshot) == (want.p_s, want.snapshot)


def test_state_pickle_keeps_mixed_blocks():
    # blocks of different dtypes or ranks are not packed; each comes back as it was
    bf = sa.BeamformerState(w_l=np.ones(2), w_e=np.ones(2, dtype=complex),
                            f_s=np.arange(3.0) + 1j, f_j=np.zeros((1, 3), dtype=complex))
    back = pickle.loads(pickle.dumps(bf))
    for g, w in zip(back.vectors(), bf.vectors()):
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes())


def test_pad_mean_carries_terminal_values():
    curves = [np.array([1.0, 2.0]), np.array([3.0])]
    np.testing.assert_allclose(_pad_mean(curves, 2), [2.0, 2.5])
    np.testing.assert_allclose(_pad_mean(curves, 4), [2.0, 2.5, 2.5, 2.5])


def _report_reads(fn: ast.FunctionDef, fixture: str) -> set[str]:
    """The attributes criterion ``fn`` reads from the reports of ``fixture``:
    those of the names it binds to ``fixture[...]``, to the reports of
    ``fixture.items()``, or to the reports of a tuple of (label, report)
    pairs."""
    names = set()
    for node in ast.walk(fn):  # breadth first: a statement before those it holds
        if isinstance(node, ast.Assign):
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            if all(isinstance(v, ast.Subscript) and isinstance(v.value, ast.Name)
                   and v.value.id == fixture for v in values):
                names |= {n.id for t in node.targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)}
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
            it = ast.unparse(node.iter)
            pairs = node.iter.elts if isinstance(node.iter, ast.Tuple) else []
            if it == f"{fixture}.items()" or pairs and all(
                    isinstance(p, ast.Tuple) and ast.unparse(p.elts[-1]) in names
                    for p in pairs):
                names.add(node.target.elts[-1].id)
    return {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in names}


def test_acceptance_criteria_read_only_what_their_reports_hold():
    # criteria 2-4 take minutes and run only in the full suite: a report
    # field they read that a report no longer has must fail here instead
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    criteria = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reports = {
        "fixed_reports": sa.run_fixed_power_experiment(small_config(n_trials=2, max_iters=60)),
        "variable_reports": sa.run_variable_power_experiment(
            small_config(n_trials=2, experiment=sa.ExperimentKind.VARIABLE_POWER, max_iters=60)),
    }
    seen = {}
    for name, fn in criteria.items():
        if name.startswith(("test_acceptance_2", "test_acceptance_3", "test_acceptance_4")):
            (fixture,) = [a.arg for a in fn.args.args]
            seen[name] = reads = _report_reads(fn, fixture)
            assert reads, name
            assert [attr for attr in sorted(reads) if not hasattr(reports[fixture], attr)] == []
    assert len(seen) == 3
    assert {"mean_cycles", "svd_violations", "svd_violation_trials"} <= set().union(*seen.values())


def test_fixed_power_single_trial_equals_its_trace():
    cfg = small_config(n_trials=1)
    seen = {}

    def observe(i, res, res_opt, bound):
        seen["res"] = res
        seen["bound"] = bound

    report = sa.run_fixed_power_experiment(cfg, on_trial=observe)
    res = seen["res"]
    assert report.converged_c_s_mean == pytest.approx(res.snapshot.c_s)
    assert report.svd_bound_mean == pytest.approx(seen["bound"])
    assert report.mean_iterations == res.trace.n_iters
    dense = _dense_curve(res.trace)
    np.testing.assert_allclose(report.c_s_mean_curve, dense)


def run_study(cfg, **kwargs):
    """The public runner of ``cfg``'s experiment."""
    fixed = cfg.experiment is sa.ExperimentKind.FIXED_POWER
    return (sa.run_fixed_power_experiment if fixed else sa.run_variable_power_experiment)(
        cfg, **kwargs)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", list(sa.ExperimentKind))
def test_each_trial_comes_with_its_rows_and_is_let_go_once_observed(kind, threads):
    # the main ascent carries its trace.csv rows, rendered where it ran; a
    # trial observed before the current one is no longer held, rows and all.
    # A fixed-power trial is observed as (i, res, res_opt, bound) and a
    # variable-power one as (i, res)
    cfg = small_config(n_trials=4, max_iters=30, experiment=kind)
    seen = []

    def observe(i, res, *rest):
        assert [ref() for ref in seen] == [None] * len(seen)
        assert res.trace.csv_rows == exp._trace_text(i, res.trace)
        if kind is sa.ExperimentKind.FIXED_POWER:
            res_opt, bound = rest
            assert res_opt.trace.csv_rows is None and bound > 0
            seen.append(weakref.ref(res_opt.trace))
        else:
            assert rest == ()
        seen.append(weakref.ref(res.trace))

    run_study(cfg, threads=threads, on_trial=observe)
    assert len(seen) == (8 if kind is sa.ExperimentKind.FIXED_POWER else 4)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_study_without_an_observer_renders_no_rows(monkeypatch, threads):
    # nothing could read the rows; a worker that tried would die and fail
    # the study
    def refuse(i, trace):
        raise AssertionError("rendered")

    monkeypatch.setattr(exp, "_trace_text", refuse)
    cfg = small_config(n_trials=4, max_iters=30)
    assert asdict(sa.run_fixed_power_experiment(cfg, threads=threads)) == asdict(
        sa.run_fixed_power_experiment(cfg))


def test_fixed_power_experiment_deterministic():
    cfg = small_config()
    a = sa.run_fixed_power_experiment(cfg)
    b = sa.run_fixed_power_experiment(cfg)
    assert asdict(a) == asdict(b)


def test_fixed_power_deterministic_across_thread_counts():
    cfg = small_config(n_trials=4)
    serial = sa.run_fixed_power_experiment(cfg, threads=1)
    parallel = sa.run_fixed_power_experiment(cfg, threads=2)
    assert asdict(serial) == asdict(parallel)


def test_fixed_power_trials_are_order_independent_streams():
    # trial k's results do not depend on how many trials ran before it
    cfg3 = small_config(n_trials=3)
    cfg1 = small_config(n_trials=1)
    finals = []
    sa.run_fixed_power_experiment(cfg3, on_trial=lambda i, r, o, b: finals.append(r.snapshot.c_s))
    first = []
    sa.run_fixed_power_experiment(cfg1, on_trial=lambda i, r, o, b: first.append(r.snapshot.c_s))
    assert finals[0] == first[0]


def test_fixed_power_rejects_wrong_kind():
    cfg = small_config(experiment=sa.ExperimentKind.VARIABLE_POWER)
    with pytest.raises(ValueError):
        sa.run_fixed_power_experiment(cfg)
    with pytest.raises(ValueError):
        sa.run_variable_power_experiment(small_config())


def test_variable_power_experiment_curves():
    cfg = small_config(n_trials=3, experiment=sa.ExperimentKind.VARIABLE_POWER, zeta=0.5)
    report = sa.run_variable_power_experiment(cfg)
    assert report.experiment == "variable_power"
    assert len(report.c_s_mean_curve) == len(report.p_s_db_mean_curve)
    assert report.mean_cycles >= 1.0
    assert set(report.termination_reasons) <= {
        "target_reached", "power_cap", "cycle_cap"
    }
    assert np.all(np.isfinite(report.c_s_mean_curve))


def test_variable_power_experiment_deterministic():
    cfg = small_config(n_trials=2, experiment=sa.ExperimentKind.VARIABLE_POWER, zeta=0.5)
    a = sa.run_variable_power_experiment(cfg)
    b = sa.run_variable_power_experiment(cfg)
    assert asdict(a) == asdict(b)


def test_trial_error_identifies_seed(monkeypatch):
    import secrecy_ascent.experiment as exp

    def boom(cfg, start, stop):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(exp, "_shard", boom)
    cfg = small_config(n_trials=2, seed=77)
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg)
    assert err.value.trial_index == 0
    assert err.value.master_seed == 77
    assert "77" in str(err.value)


TRIAL_SLEEP_S = 0.5


def _fail_first_then_sleep(cfg, start, stop):
    # module level, as the shard functions it stands in for
    if start == 0:
        raise RuntimeError("synthetic failure")
    time.sleep(TRIAL_SLEEP_S * (stop - start))


def test_pool_failure_cancels_pending_trials(monkeypatch):
    # 40 trials on 2 workers, each shard sleeping 0.5 s per trial: finishing
    # the sleeping shard takes 10 s, so an error that waits for it misses the
    # bound
    import secrecy_ascent.experiment as exp

    monkeypatch.setattr(exp, "_shard", _fail_first_then_sleep)
    cfg = small_config(n_trials=40, seed=78)
    started = time.perf_counter()
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg, threads=2)
    elapsed = time.perf_counter() - started
    assert err.value.trial_index == 0
    assert err.value.master_seed == 78
    assert elapsed < 10 * TRIAL_SLEEP_S


def _fail_now_or_sleep_long(cfg, start, stop):
    if start == 0:
        return [], (0, RuntimeError("synthetic failure"))
    time.sleep(5.0)
    return [], None


def test_failing_shard_stops_the_other_workers(monkeypatch):
    # shard 0 reports a failure at once while the other worker's shard
    # sleeps 5 s: the error must not wait for it
    import secrecy_ascent.experiment as exp

    monkeypatch.setattr(exp, "_shard", _fail_now_or_sleep_long)
    cfg = small_config(n_trials=2, seed=79)
    started = time.perf_counter()
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg, threads=2)
    assert time.perf_counter() - started < 2.0
    assert err.value.trial_index == 0
    assert err.value.master_seed == 79


def _fail_past_the_first_shard(cfg, start, stop):
    if start == 0:
        return [], None
    raise RuntimeError("synthetic failure")


def test_failure_in_a_pool_shard_names_its_trial(monkeypatch):
    # shard 0 runs in this process; a failure in a shard the pool runs must
    # come back with its own trial index
    monkeypatch.setattr(exp, "_shard", _fail_past_the_first_shard)
    cfg = small_config(n_trials=40, seed=80)
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg, threads=2)
    assert err.value.trial_index == 20
    assert err.value.master_seed == 80


def _fail_naming_the_process(cfg, start, stop):
    raise RuntimeError(os.getpid())


@pytest.mark.parametrize("n_trials, threads, lead_here", [
    (40, 2, True),  # two shards, two processes: this one runs shard 0
    (60, 2, True),  # three shards on two processes: this one runs shards 0 and 2
    (60, 3, True),
])
def test_lead_shard_runs_here_only_while_threads_bound_the_processes(
        monkeypatch, n_trials, threads, lead_here):
    monkeypatch.setattr(exp, "_shard", _fail_naming_the_process)
    cfg = small_config(n_trials=n_trials)
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg, threads=threads)
    assert err.value.trial_index == 0
    assert (err.value.__cause__.args[0] == os.getpid()) is lead_here


DEAD_WORKER_STUDY = """
import os
import secrecy_ascent as sa
import secrecy_ascent.experiment as exp

N_TRIALS, SHARD_TRIALS, DIES_AT = %d, %d, %d
_shard = exp._shard

def die_at_a_shard(cfg, start, stop):
    if start == DIES_AT:
        os._exit(3)
    return _shard(cfg, start, stop)

if __name__ == "__main__":
    exp._shard, exp.SHARD_TRIALS = die_at_a_shard, SHARD_TRIALS
    cfg = sa.SystemConfig(
        channel=sa.ChannelParams(n_clusters=2, n_rays=3, n_rx=2, n_tx=8, angular_spread_deg=10),
        powers=sa.PowerConfig(p_s=10.0, p_j=10.0), optimizer=sa.OptimizerConfig(max_iters=30),
        n_trials=N_TRIALS, seed=81, experiment=sa.ExperimentKind.FIXED_POWER)
    seen = []
    try:
        sa.run_fixed_power_experiment(cfg, threads=2, on_trial=lambda i, *trial: seen.append(i))
    except sa.TrialError as err:
        print(err.trial_index, err.master_seed, repr(err.__cause__), seen, sep="|")
"""


def run_dead_worker_study(tmp_path, n_trials, shard_trials, dies_at):
    """(failed trial, seed, cause, observed trials) of a study at threads=2
    whose worker exits with code 3 when it reaches the shard at ``dies_at``.
    The study runs in a child interpreter, so a hang fails the test at the
    timeout instead of stalling the suite; it is a file, so a worker that is
    not forked can import its shard."""
    script = tmp_path / "study.py"
    script.write_text(DEAD_WORKER_STUDY % (n_trials, shard_trials, dies_at))
    env = dict(os.environ, PYTHONPATH=str(Path(exp.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().split("|")


def test_a_worker_that_dies_fails_the_study(tmp_path):
    # a 4-trial study at threads=2: its second shard's worker exits without
    # sending a result; the study must fail naming trial 2 and the exit
    # code, not wait for the result
    trial, seed, cause, seen = run_dead_worker_study(tmp_path, 4, 20, 2)
    assert (trial, seed, seen) == ("2", "81", "[0, 1]")
    assert "exited with code 3" in cause


def test_a_worker_that_dies_on_a_later_shard_fails_the_study(tmp_path):
    # ten one-trial shards at threads=2: the worker sends shards 1 and 3 and
    # exits at shard 5, its third; every trial before it is observed
    trial, seed, cause, seen = run_dead_worker_study(tmp_path, 10, 1, 5)
    assert (trial, seed, seen) == ("5", "81", "[0, 1, 2, 3, 4]")
    assert "exited with code 3 before sending trials 5..5" in cause


def _fail_past_the_first_shard_fast(cfg, start, stop):
    if start == 0:
        return [], None
    return [], (start, RuntimeError("synthetic failure"))


@pytest.mark.parametrize("shard, n_trials", [
    (None, 2),                              # succeeds
    (_fail_now_or_sleep_long, 2),           # fails in this process's shard
    (_fail_past_the_first_shard_fast, 40),  # fails in a worker's shard
])
def test_no_worker_outlives_its_study(monkeypatch, shard, n_trials):
    if shard is not None:
        monkeypatch.setattr(exp, "_shard", shard)
    cfg = small_config(n_trials=n_trials, max_iters=30)
    if shard is None:
        sa.run_fixed_power_experiment(cfg, threads=2)
    else:
        with pytest.raises(sa.TrialError):
            sa.run_fixed_power_experiment(cfg, threads=2)
    assert multiprocessing.active_children() == []


_real_shard = exp._shard


def _run_here_or_sleep_long(cfg, start, stop):
    if start == 0:
        return _real_shard(cfg, start, stop)
    time.sleep(5.0)
    return [], None


@pytest.mark.parametrize("kind", list(sa.ExperimentKind))
def test_a_failing_observer_stops_the_workers(monkeypatch, kind):
    # the observer fails at trial 0, as run's trace.csv write does on a full
    # disk, while the worker's shard sleeps 5 s: the worker must be gone
    # while the error is still held, not only once it is let go
    def observe(i, *trial):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(exp, "_shard", _run_here_or_sleep_long)
    cfg = small_config(n_trials=2, max_iters=30, experiment=kind)
    started = time.perf_counter()
    with pytest.raises(OSError) as err:
        run_study(cfg, threads=2, on_trial=observe)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - started < 2.0
    assert err.value.errno == 28


@pytest.mark.parametrize("n_trials, threads, shard_trials, pool_sizes", [
    (2, 2, 20, [1]),  # two shards: this process runs one, one worker the other
    (1, 2, 20, []),   # one shard: no workers
    (3, 2, 1, [1]),   # more shards than threads: this process and one worker run them
    (3, 4, 1, [2]),
    (3, 1, 1, []),
])
def test_pool_has_a_worker_per_shard_past_the_first(
        monkeypatch, n_trials, threads, shard_trials, pool_sizes):
    # pool_sizes: the worker processes the study starts, as one pool, or no
    # pool when it starts none
    real_start, started = multiprocessing.Process.start, []

    def recording_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(exp, "SHARD_TRIALS", shard_trials)
    monkeypatch.setattr(multiprocessing.Process, "start", recording_start)
    cfg = small_config(n_trials=n_trials, max_iters=30)
    report = sa.run_fixed_power_experiment(cfg, threads=threads)
    assert ([len(started)] if started else []) == pool_sizes
    assert asdict(report) == asdict(sa.run_fixed_power_experiment(cfg))


def _pid_per_trial(cfg, start, stop):
    return [os.getpid()] * (stop - start), None


@pytest.mark.parametrize("threads, groups", [
    (2, [[0, 2, 4], [1, 3]]),
    (3, [[0, 3], [1, 4], [2]]),
])
def test_shards_run_round_robin_over_this_process_and_its_workers(
        monkeypatch, threads, groups):
    # five one-trial shards on min(threads, 5) processes: process k runs
    # shards k, k+n, ..., and process 0 is this one
    monkeypatch.setattr(exp, "SHARD_TRIALS", 1)
    cfg = small_config(n_trials=5)
    pids = [pid for _, pid in exp._map_trials(_pid_per_trial, cfg, threads, False)]
    assert len(pids) == 5
    ran = [{pids[i] for i in group} for group in groups]
    assert all(len(one) == 1 for one in ran)
    assert ran[0] == {os.getpid()}
    assert len(set.union(*ran)) == len(groups)


@pytest.mark.parametrize("threads", [0, -4])
def test_map_trials_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        next(exp._map_trials(exp._shard, small_config(), threads, False))


def test_system_config_validation():
    with pytest.raises(ValueError):
        small_config(n_trials=0)
    with pytest.raises(ValueError):
        replace(small_config(), seed=-1)
    with pytest.raises(ValueError):
        sa.SystemConfig(
            channel=SMALL,
            powers=sa.PowerConfig(p_s=1.0, p_j=1.0),
            optimizer=sa.OptimizerConfig(),  # no zeta
            n_trials=1,
            seed=0,
            experiment=sa.ExperimentKind.VARIABLE_POWER,
        )


def test_benchmark_ordering_small_sample():
    # optimizing w_e can only help on average; modest sample keeps this fast
    cfg = small_config(n_trials=20, max_iters=600)
    report = sa.run_fixed_power_experiment(cfg)
    assert report.converged_c_s_we_opt_mean >= report.converged_c_s_mean - 0.05
