"""Golden traces: two short seeded runs compared with committed trace.csv files.

Byte identity holds only under one BLAS kernel: OpenBLAS's SkylakeX,
Haswell and Sandybridge kernels write three different digests for each plan
below. What the kernels share is checked here, so the test holds on any of
them: the header, every (trial, cycle, iteration) key and the ``delta`` and
``p_s_db`` text are equal, and ``c_s``, ``c_l`` and ``c_e`` agree within
``CAPACITY_TOL`` bps/Hz. Across those three kernels the worst capacity
difference was 1.2e-14 on the fixed plan and 1.0e-11 on the variable plan.
The plans are short: on a long one the kernels' values drift apart until a
decision flips.

Each plan also runs on two processes, as two shards of half its trials, so
the results of one shard cross a worker's pipe before they are written.
"""

import csv
from pathlib import Path

import pytest

import secrecy_ascent.cli as cli

DATA = Path(__file__).parent / "data"
CAPACITY_TOL = 1e-9
# golden file: the ``run`` arguments that wrote it
PLANS = {
    "golden_sub6_fixed.csv": ["--config", "sub6", "--max-iters", "60", "--trials", "4",
                              "--seed", "303"],
    "golden_sub6_variable.csv": ["--config", "sub6", "--experiment", "variable_power",
                                 "--p-s-db", "-10", "--mu-db", "-8", "--max-iters", "12",
                                 "--trials", "2", "--seed", "202"],
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


RUNS = [pytest.param(golden, threads, id=golden if threads == "1" else f"{golden}-threads-2")
        for threads in ("1", "2") for golden in sorted(PLANS)]


@pytest.mark.parametrize("golden, threads", RUNS)
def test_a_run_reproduces_its_golden_trace(golden, threads, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", *PLANS[golden], "--threads", threads, "--out", str(out)]) == 0
    want, got = read_rows(DATA / golden), read_rows(out / "trace.csv")
    assert got[0] == want[0]
    header = want[0]
    keys = [header.index(name) for name in ("trial", "cycle", "iteration")]
    texts = [header.index(name) for name in ("delta", "p_s_db")]
    capacities = [header.index(name) for name in ("c_s", "c_l", "c_e")]
    assert [[row[k] for k in keys] for row in got[1:]] == [[row[k] for k in keys]
                                                          for row in want[1:]]
    worst = 0.0
    for n, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        assert [row[k] for k in texts] == [ref[k] for k in texts], f"line {n}"
        worst = max(worst, *(abs(float(row[k]) - float(ref[k])) for k in capacities))
    assert worst <= CAPACITY_TOL
