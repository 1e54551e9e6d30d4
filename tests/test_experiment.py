import multiprocessing
import os
import pickle
import time
from dataclasses import asdict, replace

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
    # shard results cross the process pool: states as one packed array each,
    # traces as their column logs; they must come back bit for bit
    cfg = small_config(n_trials=3, experiment=kind, max_iters=60)
    fixed = kind is sa.ExperimentKind.FIXED_POWER
    trials, failure = (exp._fixed_shard if fixed else exp._variable_shard)(cfg, 0, 3)
    assert failure is None and len(trials) == 3
    back, _ = pickle.loads(pickle.dumps((trials, failure)))
    if fixed:
        assert [t[2] for t in back] == [t[2] for t in trials]
        pairs = [(g, w) for got, want in zip(back, trials) for g, w in zip(got[:2], want[:2])]
    else:
        pairs = list(zip(back, trials))
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
    np.testing.assert_allclose(_pad_mean(curves), [2.0, 2.5])


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

    monkeypatch.setattr(exp, "_fixed_shard", boom)
    cfg = small_config(n_trials=2, seed=77)
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg)
    assert err.value.trial_index == 0
    assert err.value.master_seed == 77
    assert "77" in str(err.value)


TRIAL_SLEEP_S = 0.5


def _fail_first_then_sleep(cfg, start, stop):
    # module level: a process pool pickles its worker by name
    if start == 0:
        raise RuntimeError("synthetic failure")
    time.sleep(TRIAL_SLEEP_S * (stop - start))


def test_pool_failure_cancels_pending_trials(monkeypatch):
    # 40 trials on 2 workers, each shard sleeping 0.5 s per trial: finishing
    # the sleeping shard takes 10 s, so an error that waits for it misses the
    # bound
    import secrecy_ascent.experiment as exp

    monkeypatch.setattr(exp, "_fixed_shard", _fail_first_then_sleep)
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

    monkeypatch.setattr(exp, "_fixed_shard", _fail_now_or_sleep_long)
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
    monkeypatch.setattr(exp, "_fixed_shard", _fail_past_the_first_shard)
    cfg = small_config(n_trials=40, seed=80)
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg, threads=2)
    assert err.value.trial_index == 20
    assert err.value.master_seed == 80


def _fail_naming_the_process(cfg, start, stop):
    raise RuntimeError(os.getpid())


@pytest.mark.parametrize("n_trials, threads, lead_here", [
    (40, 2, True),   # two shards, two processes: this one runs shard 0
    (60, 2, False),  # three shards: two workers run them all
    (60, 3, True),
])
def test_lead_shard_runs_here_only_while_threads_bound_the_processes(
        monkeypatch, n_trials, threads, lead_here):
    monkeypatch.setattr(exp, "_fixed_shard", _fail_naming_the_process)
    cfg = small_config(n_trials=n_trials)
    with pytest.raises(sa.TrialError) as err:
        sa.run_fixed_power_experiment(cfg, threads=threads)
    assert err.value.trial_index == 0
    assert (err.value.__cause__.args[0] == os.getpid()) is lead_here


@pytest.mark.parametrize("n_trials, threads, shard_trials, pool_sizes", [
    (2, 2, 20, [1]),  # two shards: this process runs one, one worker the other
    (1, 2, 20, []),   # one shard: no pool
    (3, 2, 1, [2]),   # more shards than threads: threads workers run them all
    (3, 4, 1, [2]),
    (3, 1, 1, []),
])
def test_pool_has_a_worker_per_shard_past_the_first(
        monkeypatch, n_trials, threads, shard_trials, pool_sizes):
    real_pool, sizes = multiprocessing.Pool, []

    def recording_pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(exp, "SHARD_TRIALS", shard_trials)
    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    cfg = small_config(n_trials=n_trials, max_iters=30)
    report = sa.run_fixed_power_experiment(cfg, threads=threads)
    assert sizes == pool_sizes
    assert asdict(report) == asdict(sa.run_fixed_power_experiment(cfg))


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
