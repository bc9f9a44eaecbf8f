"""Self-tests of the benchmark (short horizons; about a minute).

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import os
import pstats
import shutil
import subprocess
import sys
import time
from dataclasses import asdict

import pytest

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ROOT = os.path.dirname(_BENCH)
for path in (os.path.join(_ROOT, "src"), _BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

#: simulated seconds per workload: long enough to reach every layer the
#: full run reaches (compaction and GC on node-mixed, fluid epochs on
#: epoch-loaded)
SHORT = {"node-mixed": 1.5, "cluster-read": 0.4, "epoch-loaded": 3.0}


def _run(workload, seed=5, profiler=None):
    now = time.monotonic()
    return workloads.run(workload, seed, now, now, profiler=profiler,
                         horizon=SHORT[workload])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_for_a_seed(workload):
    first, second = _run(workload), _run(workload)
    assert first.counts == second.counts
    assert first.sim == second.sim
    assert first.fingerprint == second.fingerprint
    assert all(ok for ok, _detail in first.checks.values()), first.checks
    assert first.failed == 0 and first.completed > 0
    assert _run(workload, seed=6).fingerprint != first.fingerprint


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_profiling_leaves_the_simulation_unchanged(workload):
    plain = _run(workload)
    traced = _run(workload, profiler=cProfile.Profile())
    assert traced.fingerprint == plain.fingerprint
    assert traced.counts == plain.counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fold_accounts_for_the_traced_time(workload):
    profiler = cProfile.Profile()
    traced = _run(workload, profiler=profiler)
    stats = pstats.Stats(profiler)
    folded = layers.fold(stats)
    assert set(folded) == set(layers.BUCKETS)
    total = sum(folded.values())
    assert total == pytest.approx(layers.total_self(stats), rel=1e-9)
    # Self time misses only the profiler's own bookkeeping.
    measured = traced.host["profiled_s"]
    assert 0.75 * measured <= total <= 1.05 * measured
    assert folded["other"] < 0.02 * total
    if workload == "epoch-loaded":
        assert folded["engine"] == 0.0 and folded["net"] == 0.0
        assert folded["workload"] > 0.0 and folded["obs"] > 0.0
    if workload == "node-mixed":
        assert folded["net"] == 0.0
        assert folded["engine"] > 0.0
    if workload == "cluster-read":
        assert folded["net"] > 0.0


def _caller_in_bench():
    return sorted(range(20000), key=lambda v: -v)


def test_fold_charges_builtins_to_their_caller():
    profiler = cProfile.Profile()
    profiler.enable()
    _caller_in_bench()
    profiler.disable()
    folded = layers.fold(pstats.Stats(profiler))
    assert folded["bench"] > 0.0
    assert folded["bench"] >= 0.9 * sum(folded.values())


def test_epoch_checks_agree_and_catch_a_mismatch():
    ff = asdict(_run("epoch-loaded"))
    ref = workloads.des_check(5, horizon=SHORT["epoch-loaded"])
    checks = bench_run.epoch_checks(ff, ref)
    assert all(ok for ok, _detail in checks.values()), checks
    ff["tenants"]["t0"]["tasks"] += 1
    assert not bench_run.epoch_checks(ff, ref)["ff_agrees_des"][0]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(_BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_reported_metrics():
    import json

    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert bench_run.WORKLOADS == workloads.WORKLOADS
