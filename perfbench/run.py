"""Whole-stack benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload node-mixed --seed 1 --seconds 30 --trace 0

Workloads: ``node-mixed``, ``cluster-read``, ``epoch-loaded`` (see
``workloads.py`` and ``README.md``).  Every repetition runs in a fresh
interpreter (``child.py``), so each pays its own imports and device
construction and reports its own peak memory.

``--trace 0`` repeats the seed's run until ``--seconds`` of host time
have passed (at least three times) and reports the end-to-end metrics:
host set-up, total and request-rate medians, peak RSS, and the simulated
throughput, latency and reservation share (identical on every
repetition of a seed).  ``--trace 1`` runs two untraced repetitions, one
profiled repetition and one with a different seed, and reports the
per-layer metrics instead.

Output checks, all outside the timed region: every repetition of a seed
prints the same simulated fingerprint; node-mixed and cluster-read lose
no acknowledged write; epoch-loaded agrees exactly with its
event-by-event replay and its VOP audit reconciles at 1.0000.  The
traced invocation also checks that profiling leaves the fingerprint
unchanged and that a different seed changes it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the program under
test is missing or a run crashed (no JSON line then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_CHILD = os.path.join(_HERE, "child.py")

WORKLOADS = ("node-mixed", "cluster-read", "epoch-loaded")
#: repetitions of the seed's run, at least and at most
MIN_REPS = 3
MAX_REPS = 20
#: untraced repetitions a traced run's overhead is measured against
TRACE_BASE_REPS = 2
#: host seconds after which no further repetition starts, and after
#: which a running child is killed (the whole run must end by 180 s)
START_BUDGET_S = 120.0
KILL_BUDGET_S = 170.0
#: the different seed for the fingerprint check
ALT_SEED_OFFSET = 1_000_003

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "sim_kops": "kop/s",
    "sim_p99_ms": "ms",
    "min_res_share": "ratio",
}

LAYER_SELF = ("sim", "ssd", "core", "engine", "node", "net", "workload", "obs", "bench", "other")

#: per-layer metrics: name -> unit
PER_LAYER = {
    **{f"{layer}.self_us_per_req": "us" for layer in LAYER_SELF},
    "sim.actions_per_req": "count",
    "sim.resumes_per_req": "count",
    "ssd.precondition_s": "s",
    "ssd.ops_per_req": "count",
    "ssd.fast_admit_share": "ratio",
    "ssd.gc_pages_per_req": "count",
    "ssd.flash_write_amp": "ratio",
    "ssd.busy_share": "ratio",
    "core.chunks_per_req": "count",
    "core.vops_per_req": "VOP",
    "engine.write_amp": "ratio",
    "engine.reads_per_get": "count",
    "engine.table_cache_hit": "ratio",
    "engine.compaction_mib": "MiB",
    "engine.put_stalls": "count",
    "node.retries_per_kreq": "count",
    "net.msgs_per_req": "count",
    "net.nic_wait_us": "us",
    "net.rpc_retries": "count",
    "net.repl_applies_per_put": "count",
    "workload.ff_fraction": "ratio",
    "workload.fluid_fraction": "ratio",
    "workload.des_s.confirming": "s",
    "workload.des_s.gc": "s",
    "workload.des_s.backlog": "s",
    "setup.imports_s": "s",
    "setup.wiring_s": "s",
    "trace.overhead_share": "ratio",
    "sim_p50_ms": "ms",
    "sim_get_p50_ms": "ms",
    "sim_get_p99_ms": "ms",
    "sim_put_p50_ms": "ms",
    "sim_put_p99_ms": "ms",
    "ff_p99_err": "ratio",
}

#: per-request counts copied straight from a run's stats
_COPIED = (
    "ssd.ops_per_req", "ssd.gc_pages_per_req", "ssd.flash_write_amp", "ssd.busy_share",
    "core.chunks_per_req", "core.vops_per_req", "engine.write_amp",
    "engine.table_cache_hit", "engine.compaction_mib", "engine.put_stalls",
    "node.retries_per_kreq", "net.msgs_per_req", "net.nic_wait_us", "net.rpc_retries",
    "net.repl_applies_per_put", "workload.ff_fraction", "workload.fluid_fraction",
    "workload.des_s.confirming", "workload.des_s.gc", "workload.des_s.backlog",
)

#: simulated latencies not every workload has (epoch-loaded has no
#: GET/PUT split): per-layer metrics, printed by the untraced run too
_SIM_EXTRA = ("sim_p50_ms", "sim_get_p50_ms", "sim_get_p99_ms", "sim_put_p50_ms", "sim_put_p99_ms")


#: children import from cached bytecode, as a user's repeated runs do
#: (the first run in a fresh checkout writes the cache, inside it)
_CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(Exception):
    """A child crashed or timed out: no result can be reported."""


class Runner:
    """Spawns children against one overall deadline."""

    def __init__(self, workload: str):
        self.workload = workload
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, seed: int, *extra: str) -> dict:
        budget = KILL_BUDGET_S - self.elapsed()
        if budget <= 0:
            raise BenchError("out of time before the run's checks finished")
        t0 = time.monotonic()
        cmd = [sys.executable, _CHILD, "--workload", self.workload, "--seed", str(seed),
               "--t0", repr(t0), *extra]
        try:
            proc = subprocess.run(cmd, cwd=_ROOT, env=_CHILD_ENV, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {' '.join(extra) or 'run'} timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"child exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, seed: int, seconds: float, min_reps: int) -> List[dict]:
        """The seed's run, repeated until ``seconds`` have passed."""
        reps: List[dict] = []
        while len(reps) < min_reps or (
            self.elapsed() < seconds and len(reps) < MAX_REPS
            and self.elapsed() < START_BUDGET_S
        ):
            reps.append(self.child(seed))
        return reps


def epoch_checks(run: dict, ref: dict) -> Dict[str, list]:
    """Fast-forward vs DES replay vs audited run, per tenant."""
    checks = {}
    ff, des, audited = run["tenants"], ref["des"], ref["audited"]
    for label, other in (("des", des), ("audited", audited)):
        bad = [
            name for name in sorted(ff)
            if any(ff[name][k] != other[name][k] for k in ("tasks", "ops", "bytes"))
            or abs(ff[name]["vops"] - other[name]["vops"]) > 1e-6 * max(other[name]["vops"], 1.0)
        ]
        checks[f"ff_agrees_{label}"] = [
            not bad and sorted(ff) == sorted(other),
            f"tenants disagreeing: {bad}" if bad else "tasks/ops/bytes exact, VOPs to 1e-6",
        ]
    recon = ref["audit"]["reconciliation"]
    checks["audit_reconciles"] = [
        ref["audit"]["ok"] and f"{recon:.4f}" == "1.0000", f"reconciliation {recon:.6f}"
    ]
    return checks


def ff_p99_err(run: dict, ref: dict) -> float:
    """|FF worst-tenant p99 - DES worst-tenant p99| / DES worst-tenant p99."""
    ff = max(t["p99"] for t in run["tenants"].values())
    des = max(t["p99"] for t in ref["des"].values())
    return abs(ff - des) / des


def child_checks(runs: List[dict]) -> Dict[str, list]:
    checks = {}
    for run in runs:
        for name, (ok, detail) in run["checks"].items():
            prior = checks.get(name)
            if prior is None or (prior[0] and not ok):
                checks[name] = [ok, detail]
    return checks


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    first = reps[0]
    metrics = {
        "setup_s": median(r["host"]["setup_s"] for r in reps),
        "total_s": median(r["host"]["total_s"] for r in reps),
        "req_per_s": median(r["completed"] / r["host"]["run_s"] for r in reps),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in reps),
    }
    for name in ("sim_kops", "sim_p99_ms", "min_res_share"):
        metrics[name] = first["sim"][name]
    return metrics


def per_layer(base: List[dict], traced: dict) -> Dict[str, float]:
    requests = max(traced["completed"], 1)
    counts, profile, host = traced["counts"], traced["profile"], traced["host"]
    calls = profile["calls"]
    metrics = {
        f"{layer}.self_us_per_req": profile["fold"][layer] * 1e6 / requests
        for layer in LAYER_SELF
    }
    for name in _COPIED:
        metrics[name] = counts.get(name, 0.0)
    event_ops = counts["ssd.ops"] - calls["ssd.epoch_ops"]
    gets = counts.get("engine.gets", 0)
    metrics.update({
        "sim.actions_per_req": counts["sim.actions"] / requests,
        "sim.resumes_per_req": calls["sim.resumes"] / requests,
        "ssd.precondition_s": host["precondition_s"],
        "ssd.fast_admit_share": calls["ssd.fast_finishes"] / event_ops if event_ops else 0.0,
        "engine.reads_per_get": calls["engine.table_reads"] / gets if gets else 0.0,
        "setup.imports_s": host["imports_s"],
        "setup.wiring_s": host["wiring_s"],
        "trace.overhead_share": host["run_s"] / median(r["host"]["run_s"] for r in base) - 1.0,
    })
    for name in _SIM_EXTRA:
        metrics[name] = traced["sim"].get(name, 0.0)
    metrics["ff_p99_err"] = 0.0
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload)
    if trace:
        reps = runner.repeat(seed, 0.0, TRACE_BASE_REPS)
    else:
        reps = runner.repeat(seed, seconds, MIN_REPS)
    prints = sorted({r["fingerprint"] for r in reps})
    checks = {"same_seed_repeats": [len(prints) == 1, f"fingerprints {prints}"]}
    runs = list(reps)
    extra_sim: Dict[str, float] = {}
    if trace:
        # The traced invocation also carries the different-seed check,
        # so the untraced invocations spend their time on repetitions.
        traced = runner.child(seed, "--trace")
        alt = runner.child(seed + ALT_SEED_OFFSET)
        runs += [traced, alt]
        checks["trace_unperturbed"] = [
            traced["fingerprint"] == prints[0],
            f"traced {traced['fingerprint']} vs untraced {prints[0]}",
        ]
        checks["seed_changes_output"] = [
            alt["fingerprint"] != prints[0],
            f"seed {seed}: {prints[0]}, seed {seed + ALT_SEED_OFFSET}: {alt['fingerprint']}",
        ]
        folded = sum(traced["profile"]["fold"].values())
        total_self = traced["profile"]["total_self_s"]
        checks["fold_conserves_time"] = [
            math.isclose(folded, total_self, rel_tol=1e-9, abs_tol=1e-9),
            f"folded {folded:.6f}s of {total_self:.6f}s self time",
        ]
        metrics = per_layer(reps, traced)
    else:
        metrics = end_to_end(reps)
        extra_sim = {name: reps[0]["sim"][name] for name in _SIM_EXTRA if name in reps[0]["sim"]}
    checks.update(child_checks(runs))
    if workload == "epoch-loaded":
        ref = runner.child(seed, "--role", "des")
        checks.update(epoch_checks(reps[0], ref))
        err = ff_p99_err(reps[0], ref)
        if trace:
            metrics["ff_p99_err"] = err
        else:
            extra_sim["ff_p99_err"] = err
    return {
        "checks": checks,
        "metrics": metrics,
        "extra": extra_sim,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "reps": len(reps),
        "samples": reps[0]["sim"]["latency_samples"],
        "elapsed_s": runner.elapsed(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Whole-stack benchmark (see module doc).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"perfbench: no program to measure (src/repro missing under {_ROOT})",
              file=sys.stderr)
        return 2
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed {args.seed}: {out['reps']} repetitions, "
          f"{out['samples']} latency samples, {out['elapsed_s']:.1f}s")
    for name, value in out["metrics"].items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    for name, value in out["extra"].items():
        print(f"{name:28s} {value:16.6f} {PER_LAYER[name]}  (per-layer: not every workload has it)")
    for name, (ok, detail) in out["checks"].items():
        print(f"check {name:22s} {'ok' if ok else 'FAIL'}  {detail}")
    correct = all(ok for ok, _detail in out["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in out["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
