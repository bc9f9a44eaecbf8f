"""The benchmark's three whole-stack workloads.

Each workload builds its system through public constructors, drives it
for a fixed *simulated* horizon, and returns a :class:`RunResult`: host
timings (set-up split into imports, device construction and wiring),
the simulated end-to-end figures, exact per-layer work counts read from
the layers' public stats objects, a fingerprint of everything simulated,
and the outcome of its output checks.

Nothing here edits the simulator.  Host time is measured around calls
into public entry points; device construction is timed by wrapping
``SsdDevice.__init__`` from outside (:class:`Probe`); request latency is
measured by the benchmark's own client wrappers (:class:`Recorder`).

Workloads (one host process, one thread; simulated clients are DES
coroutines):

- ``node-mixed``: one ``StorageNode`` (intel320, 256 MiB logical), three
  bootstrapped tenants with 4 closed-loop ``KvLoad`` workers each.
- ``cluster-read``: 3-node ``StorageCluster``, primary-backup RF=2, 6
  partitions, one reserved tenant with 8 closed-loop ``ClusterClient``
  workers doing 90% 4 KiB GETs over 4096 uniform keys.
- ``epoch-loaded``: ``run_epoch_trial(fast_forward=True)`` with 4
  open-loop Poisson tenants at 65% of calibrated VOP capacity, 90% 4 KiB
  reads / 10% 4 KiB writes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import OpKind, Reservation, make_cost_model, reference_calibration
from repro.faults import StorageFault
from repro.net import NetConfig
from repro.node import StorageCluster, StorageNode
from repro.sim import Simulator
from repro.ssd import SsdDevice, get_profile
from repro.workload import EpochTenantSpec, run_epoch_trial
from repro.workload.generator import KvLoad, KvTenantSpec, bootstrap_tenant, start_kv_load

KIB = 1024
MIB = 1024 * 1024

#: per-workload simulated horizon and warm-up (seconds); the simulated
#: metrics cover [warmup, horizon], the host metrics the whole run
HORIZONS = {
    "node-mixed": (6.0, 1.0),
    "cluster-read": (2.0, 0.5),
    "epoch-loaded": (10.0, 0.0),
}
WORKLOADS = tuple(HORIZONS)

#: utilisation and read share of the epoch-loaded tenants (epochfig's
#: loaded-mixed scenario)
EPOCH_UTIL = 0.65
EPOCH_READ_FRACTION = 0.9
CLUSTER_KEYS = 4096
CLUSTER_WORKERS = 8
CLUSTER_TENANT = "t1"


@dataclass
class RunResult:
    """One workload run, as the parent process receives it."""

    workload: str
    seed: int
    horizon: float
    #: host seconds: imports, device construction, the rest of set-up,
    #: set-up total, the timed run, and set-up + timed run
    host: Dict[str, float] = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    #: simulated end-to-end figures (deterministic for a seed)
    sim: Dict[str, float] = field(default_factory=dict)
    #: exact per-layer counts from public stats objects
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: requests (tasks on epoch-loaded) completed in the timed run
    completed: int = 0
    fingerprint: str = ""
    #: check name -> (ok, detail)
    checks: Dict[str, list] = field(default_factory=dict)
    #: profiler fold + call counts (traced runs only)
    profile: Dict[str, float] = field(default_factory=dict)
    #: epoch-loaded only: per-tenant exact counts, for the DES agreement check
    tenants: Dict[str, dict] = field(default_factory=dict)


class Probe:
    """Times device construction from outside and hands out the devices.

    Wraps ``SsdDevice.__init__`` (FTL preconditioning happens there) for
    the life of the probe; :meth:`close` restores it.  ``on_device`` runs
    after each construction — the traced epoch run starts its profiler
    there, since the trial builds its device internally.
    """

    def __init__(self):
        self.precondition_s = 0.0
        self.devices: List[SsdDevice] = []
        self.on_device: Optional[Callable[[], None]] = None
        self._orig = SsdDevice.__init__
        probe = self

        def timed_init(device, *args, **kwargs):
            started = time.perf_counter()
            probe._orig(device, *args, **kwargs)
            probe.precondition_s += time.perf_counter() - started
            probe.devices.append(device)
            if probe.on_device is not None:
                probe.on_device()

        SsdDevice.__init__ = timed_init

    def close(self) -> None:
        SsdDevice.__init__ = self._orig


def percentile(samples: List[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default convention)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]) or math.isinf(ordered[lo]):
        return ordered[hi]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Recorder:
    """The benchmark's client wrapper: per-request simulated latency.

    Every request is timed from invocation to completion in simulated
    time.  Requests issued after ``warmup`` feed the latency samples; a
    request that fails (any :class:`StorageFault`) is counted against
    the attempts and recorded as an infinite latency, so it misses every
    latency limit.  Acknowledged PUTs are logged for the read-back check.
    """

    def __init__(self, sim: Simulator, warmup: float, horizon: float):
        self.sim = sim
        self.warmup = warmup
        self.horizon = horizon
        self.latency: Dict[str, List[float]] = {"get": [], "put": []}
        self.attempted = 0
        self.failed = 0
        #: completed inside the timed run / inside [warmup, horizon]
        self.completed = 0
        self.window_completed = 0
        self.inflight = 0
        self.put_bytes = 0
        #: (tenant, key) -> (ack time, sizes acked at that instant)
        self.acked: Dict[tuple, tuple] = {}

    def call(self, kind: str, request, tenant: str, key: int, size: int = 0):
        sim = self.sim
        started = sim.now
        self.attempted += 1
        self.inflight += 1
        try:
            result = yield from request
        except StorageFault:
            self.inflight -= 1
            self.failed += 1
            if started >= self.warmup:
                self.latency[kind].append(math.inf)
            return None
        self.inflight -= 1
        done = sim.now
        if started >= self.warmup:
            self.latency[kind].append(done - started)
        if done <= self.horizon:
            self.completed += 1
            if done >= self.warmup:
                self.window_completed += 1
        if kind == "put":
            self.put_bytes += size
            slot = (tenant, key)
            last = self.acked.get(slot)
            if last is not None and last[0] == done:
                last[1].add(size)
            else:
                self.acked[slot] = (done, {size})
        return result

    def sim_metrics(self) -> Dict[str, float]:
        gets, puts = self.latency["get"], self.latency["put"]
        both = gets + puts
        window = self.horizon - self.warmup
        return {
            "sim_kops": self.window_completed / window / 1000.0,
            "sim_p50_ms": percentile(both, 50) * 1e3,
            "sim_p99_ms": percentile(both, 99) * 1e3,
            "sim_get_p50_ms": percentile(gets, 50) * 1e3,
            "sim_get_p99_ms": percentile(gets, 99) * 1e3,
            "sim_put_p50_ms": percentile(puts, 50) * 1e3,
            "sim_put_p99_ms": percentile(puts, 99) * 1e3,
            "latency_samples": len(both),
        }

    def read_back(self, get: Callable) -> int:
        """Drain in-flight requests, then read every acked key; returns
        how many acknowledged writes were lost."""
        sim = self.sim
        sim.step_while(lambda: self.inflight > 0)
        lost = [0]
        by_tenant: Dict[str, list] = {}
        for (tenant, key), (_t, sizes) in sorted(self.acked.items()):
            by_tenant.setdefault(tenant, []).append((key, sizes))

        def reader(tenant, items):
            for key, sizes in items:
                size = yield from get(tenant, key)
                if size not in sizes:
                    lost[0] += 1

        procs = [sim.process(reader(t, items)) for t, items in sorted(by_tenant.items())]
        sim.step_while(lambda: not all(p.triggered for p in procs))
        if not all(p.triggered and p.ok for p in procs):
            raise RuntimeError("read-back did not complete")
        return lost[0]


class NodeClient:
    """A ``StorageNode`` stand-in for ``KvLoad``: GET/PUT go through the
    :class:`Recorder`, everything else reaches the node."""

    def __init__(self, node: StorageNode, recorder: Recorder):
        self._node = node
        self._rec = recorder

    def __getattr__(self, name):
        return getattr(self._node, name)

    def get(self, tenant: str, key: int):
        return self._rec.call("get", self._node.get(tenant, key), tenant, key)

    def put(self, tenant: str, key: int, size: int):
        return self._rec.call("put", self._node.put(tenant, key, size), tenant, key, size)


def _fingerprint(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _device_counts(devices, sim_seconds: float, requests: int, put_bytes: int) -> Dict:
    reads = sum(d.stats.reads for d in devices)
    writes = sum(d.stats.writes for d in devices)
    write_bytes = sum(d.stats.write_bytes for d in devices)
    gc_pages = sum(d.stats.gc_pages_copied for d in devices)
    page = devices[0].profile.page_size
    channels = sum(d.profile.channels for d in devices)
    per = max(requests, 1)
    return {
        "ssd.ops": reads + writes,
        "ssd.ops_per_req": (reads + writes) / per,
        "ssd.gc_pages_per_req": gc_pages / per,
        "ssd.flash_write_amp": (write_bytes + gc_pages * page) / write_bytes
        if write_bytes else 0.0,
        "ssd.busy_share": sum(d.stats.channel_busy for d in devices)
        / (channels * sim_seconds),
        "engine.write_amp": write_bytes / put_bytes if put_bytes else 0.0,
    }


def _usage_counts(schedulers, requests: int) -> Dict:
    usages = [s.usage(t) for s in schedulers for t in sorted(s.tenants)]
    per = max(requests, 1)
    return {
        "core.chunks_per_req": sum(u.ops for u in usages) / per,
        "core.vops_per_req": sum(u.vops for u in usages) / per,
    }


def _engine_counts(engines, requests: int) -> Dict:
    stats = [e.stats for e in engines]
    probes = sum(s.index_probes for s in stats)
    return {
        "engine.gets": sum(s.gets for s in stats),
        "engine.table_cache_hit": sum(s.index_cache_hits for s in stats) / probes
        if probes else 0.0,
        "engine.compaction_mib": sum(s.compaction_input_bytes for s in stats) / MIB,
        "engine.put_stalls": sum(s.put_stalls for s in stats),
    }


class _Timed:
    """Host timestamps of one run, relative to the parent's spawn time."""

    def __init__(self, t0: float, imported: float):
        self.t0 = t0
        self.imported = imported
        self.ready = 0.0
        self.end = 0.0

    def host(self, precondition_s: float) -> Dict[str, float]:
        setup = self.ready - self.t0
        imports = self.imported - self.t0
        return {
            "imports_s": imports,
            "precondition_s": precondition_s,
            "wiring_s": setup - imports - precondition_s,
            "setup_s": setup,
            "run_s": self.end - self.ready,
            "total_s": self.end - self.t0,
            # the interval a traced run profiles
            "profiled_s": self.end - self.ready,
        }


# -- node-mixed -----------------------------------------------------------------


def node_specs() -> List[KvTenantSpec]:
    return [
        KvTenantSpec(
            "gold", get_fraction=0.9, get_size=4 * KIB, put_size=4 * KIB,
            n_keys=8000, zipf_theta=0.9, workers=4,
            reservation=Reservation(gets=8000.0),
        ),
        KvTenantSpec(
            "silver", get_fraction=0.5, get_size=8 * KIB, put_size=8 * KIB,
            n_keys=6000, workers=4,
            reservation=Reservation(gets=2000.0, puts=2000.0),
        ),
        KvTenantSpec(
            "scav", get_fraction=0.2, get_size=32 * KIB, put_size=32 * KIB,
            n_keys=1000, workers=4,
        ),
    ]


def _reserved_shares(pairs) -> float:
    """min of achieved over reserved rate, over pairs with a reservation."""
    shares = [achieved / reserved for achieved, reserved in pairs if reserved > 0]
    return min(shares)


def run_node_mixed(seed: int, timed: _Timed, probe: Probe, horizon: float,
                   warmup: float, profiler=None) -> RunResult:
    sim = Simulator()
    node = StorageNode(sim, profile="intel320", seed=seed)
    specs = node_specs()
    for spec in specs:
        node.add_tenant(spec.name, spec.reservation)
        bootstrap_tenant(node.engines[spec.name], spec.n_keys, spec.get_size)
    rec = Recorder(sim, warmup, horizon)
    load = KvLoad(sim, NodeClient(node, rec), specs)
    start_kv_load(load, horizon, seed=seed)

    seq0 = sim._seq
    timed.ready = time.monotonic()
    if profiler is not None:
        profiler.enable()
    sim.run(until=warmup)
    at_warmup = {s.name: node.stats(s.name).snapshot() for s in specs}
    sim.run(until=horizon)
    if profiler is not None:
        profiler.disable()
    timed.end = time.monotonic()

    result = RunResult("node-mixed", seed, horizon)
    result.host = timed.host(probe.precondition_s)
    result.peak_rss_mib = _peak_rss_mib()
    seq = sim._seq - seq0
    window = horizon - warmup
    pairs = []
    for spec in specs:
        delta = node.stats(spec.name).delta(at_warmup[spec.name])
        pairs.append((delta.get_units / window, spec.reservation.gets))
        pairs.append((delta.put_units / window, spec.reservation.puts))
    result.sim = rec.sim_metrics()
    result.sim["min_res_share"] = _reserved_shares(pairs)
    requests = rec.completed
    stats = [node.stats(s.name) for s in specs]
    result.counts = {
        "requests": requests,
        "sim.actions": seq,
        **_device_counts([node.device], horizon, requests, rec.put_bytes),
        **_usage_counts([node.scheduler], requests),
        **_engine_counts(node.engines.values(), requests),
        "node.retries_per_kreq": sum(s.retries for s in stats) * 1000.0 / max(requests, 1),
    }
    result.attempted, result.failed, result.completed = rec.attempted, rec.failed, requests
    result.fingerprint = _fingerprint({
        "sim": result.sim,
        "counts": result.counts,
        "latency_sum": [sum(v) for _k, v in sorted(rec.latency.items())],
        "tenants": [vars(s) for s in stats],
        "device": vars(node.device.stats),
    })
    lost = rec.read_back(node.get)
    result.checks["no_lost_writes"] = [lost == 0, f"{lost} of {len(rec.acked)} acked keys lost"]
    node.stop()
    return result


# -- cluster-read ---------------------------------------------------------------


def run_cluster_read(seed: int, timed: _Timed, probe: Probe, horizon: float,
                     warmup: float, profiler=None) -> RunResult:
    sim = Simulator()
    cluster = StorageCluster(
        sim, n_nodes=3, profile="intel320", partitions_per_tenant=6,
        seed=seed, net=NetConfig(rf=2),
    )
    reservation = Reservation(gets=12000.0, puts=2000.0)
    cluster.add_tenant(CLUSTER_TENANT, reservation)
    client = cluster.make_client()
    rec = Recorder(sim, warmup, horizon)

    def worker(index: int):
        rng = random.Random(f"cluster-read:{seed}:{index}")
        while sim.now < horizon:
            key = rng.randrange(CLUSTER_KEYS)
            if rng.random() < 0.9:
                yield from rec.call("get", client.get(CLUSTER_TENANT, key), CLUSTER_TENANT, key)
            else:
                yield from rec.call(
                    "put", client.put(CLUSTER_TENANT, key, 4 * KIB), CLUSTER_TENANT, key, 4 * KIB
                )

    for index in range(CLUSTER_WORKERS):
        sim.process(worker(index), name=f"bench.worker{index}")

    seq0 = sim._seq
    timed.ready = time.monotonic()
    if profiler is not None:
        profiler.enable()
    sim.run(until=warmup)
    at_warmup = cluster.total_stats(CLUSTER_TENANT)
    sim.run(until=horizon)
    if profiler is not None:
        profiler.disable()
    timed.end = time.monotonic()

    result = RunResult("cluster-read", seed, horizon)
    result.host = timed.host(probe.precondition_s)
    result.peak_rss_mib = _peak_rss_mib()
    seq = sim._seq - seq0
    window = horizon - warmup
    total = cluster.total_stats(CLUSTER_TENANT)
    delta = total.delta(at_warmup)
    result.sim = rec.sim_metrics()
    result.sim["min_res_share"] = _reserved_shares([
        (delta.get_units / window, reservation.gets),
        (delta.put_units / window, reservation.puts),
    ])
    requests = rec.completed
    nodes = list(cluster.nodes.values())
    links = list(cluster.fabric.link_stats.values())
    messages = sum(s.messages for s in links)
    endpoints = [client.rpc] + [s.rpc for s in cluster.services.values()]
    result.counts = {
        "requests": requests,
        "sim.actions": seq,
        **_device_counts([n.device for n in nodes], horizon, requests, rec.put_bytes),
        **_usage_counts([n.scheduler for n in nodes], requests),
        **_engine_counts([e for n in nodes for e in n.engines.values()], requests),
        "node.retries_per_kreq": sum(
            n.request_stats[t].retries for n in nodes for t in n.request_stats
        ) * 1000.0 / max(requests, 1),
        "net.msgs_per_req": messages / max(requests, 1),
        "net.nic_wait_us": sum(s.queue_wait for s in links) / messages * 1e6 if messages else 0.0,
        "net.rpc_retries": sum(e.stats.retries for e in endpoints),
        "net.repl_applies_per_put": total.repl_applies / total.puts if total.puts else 0.0,
    }
    result.attempted, result.failed, result.completed = rec.attempted, rec.failed, requests
    result.fingerprint = _fingerprint({
        "sim": result.sim,
        "counts": result.counts,
        "latency_sum": [sum(v) for _k, v in sorted(rec.latency.items())],
        "tenant": vars(total),
        "devices": [vars(n.device.stats) for n in nodes],
        "rpc": [vars(e.stats) for e in endpoints],
    })
    lost = rec.read_back(client.get)
    result.checks["no_lost_writes"] = [lost == 0, f"{lost} of {len(rec.acked)} acked keys lost"]
    cluster.stop()
    return result


# -- epoch-loaded ---------------------------------------------------------------


def epoch_specs() -> List[EpochTenantSpec]:
    model = make_cost_model("exact", reference_calibration("intel320"))
    mean = (EPOCH_READ_FRACTION * model.cost(OpKind.READ, 4 * KIB)
            + (1.0 - EPOCH_READ_FRACTION) * model.cost(OpKind.WRITE, 4 * KIB))
    rate = EPOCH_UTIL * model.max_iop / mean / 4
    return [
        EpochTenantSpec(name=f"t{i}", rate=rate, read_fraction=EPOCH_READ_FRACTION)
        for i in range(4)
    ]


def epoch_trial(seed: int, horizon: float, fast_forward: bool, audit: bool = False):
    return run_epoch_trial(
        get_profile("intel320"), epoch_specs(), horizon=horizon, seed=seed,
        fast_forward=fast_forward, audit=audit, device_seed=seed,
    )


def epoch_tenants(trial) -> Dict[str, dict]:
    """Per-tenant exact counts plus p99 (the DES agreement check's input)."""
    return {
        name: {
            "tasks": t.tasks, "ops": t.ops, "bytes": t.bytes, "vops": t.vops,
            "p99": t.latency.percentile(99),
        }
        for name, t in sorted(trial.tenants.items())
    }


def _merged_percentile(histograms, pct: float) -> float:
    """Percentile over several same-bucket histograms' merged counts.

    ``Histogram`` has no merge; its exact min/max pin the percentile
    ends, so they are carried over from the private fields."""
    from repro.obs import Histogram

    merged = Histogram(histograms[0].bounds)
    for h in histograms:
        merged.counts = [a + b for a, b in zip(merged.counts, h.counts)]
        merged.count += h.count
        merged.sum += h.sum
        merged._min = min(merged._min, h._min)
        merged._max = max(merged._max, h._max)
    return merged.percentile(pct)


def run_epoch_loaded(seed: int, timed: _Timed, probe: Probe, horizon: float,
                     warmup: float, profiler=None) -> RunResult:
    profiled = []
    if profiler is not None:
        def start_profiler():
            profiled.append(time.monotonic())
            profiler.enable()

        probe.on_device = start_profiler
    trial = epoch_trial(seed, horizon, fast_forward=True)
    returned = time.monotonic()
    if profiler is not None:
        profiler.disable()
    # The trial times its own event loop (wall_seconds); everything else
    # inside the call (device construction, scheduler, monitor) is set-up.
    timed.ready = returned - trial.wall_seconds
    timed.end = returned

    result = RunResult("epoch-loaded", seed, horizon)
    result.host = timed.host(probe.precondition_s)
    if profiled:
        result.host["profiled_s"] = returned - profiled[0]
    result.peak_rss_mib = _peak_rss_mib()
    device = probe.devices[-1]
    tenants = trial.tenants
    specs = {t.spec.name: t.spec for t in tenants.values()}
    histograms = [t.latency for _n, t in sorted(tenants.items())]
    requests = trial.total_tasks
    result.sim = {
        "sim_kops": requests / horizon / 1000.0,
        "sim_p50_ms": _merged_percentile(histograms, 50) * 1e3,
        "sim_p99_ms": _merged_percentile(histograms, 99) * 1e3,
        # Open-loop tenants below their allocation are entitled to their
        # offered rate: the share is achieved over offered.
        "min_res_share": min(
            t.tasks / horizon / specs[name].rate for name, t in tenants.items()
        ),
        "worst_p99_ms": max(t.latency.percentile(99) for t in tenants.values()) * 1e3,
        "latency_samples": sum(h.count for h in histograms),
    }
    result.counts = {
        "requests": requests,
        "sim.actions": device.sim._seq,
        **_device_counts([device], horizon, requests, 0),
        "core.chunks_per_req": trial.total_ops / max(requests, 1),
        "core.vops_per_req": trial.total_vops / max(requests, 1),
        "workload.ff_fraction": trial.ff_fraction,
        "workload.fluid_fraction": trial.fluid_fraction,
        **{f"workload.des_s.{reason}": trial.des_reasons.get(reason, 0.0)
           for reason in ("confirming", "gc", "backlog")},
    }
    failed = sum(t.failed_ops for t in tenants.values())
    result.attempted, result.failed, result.completed = requests + failed, failed, requests
    result.tenants = epoch_tenants(trial)
    result.fingerprint = _fingerprint({
        "sim": result.sim,
        "counts": result.counts,
        "tenants": result.tenants,
        "segments": [(s.t0, s.t1, s.mode, s.reason, s.tasks) for s in trial.segments],
        "device": vars(device.stats),
    })
    return result


RUNNERS = {
    "node-mixed": run_node_mixed,
    "cluster-read": run_cluster_read,
    "epoch-loaded": run_epoch_loaded,
}


def run(workload: str, seed: int, t0: float, imported: float, profiler=None,
        horizon: Optional[float] = None) -> RunResult:
    """Run one workload in this process (the child's entry point).

    ``t0`` is the monotonic time the run started (the parent takes it
    just before spawning this interpreter); ``imported`` is when the
    program's modules finished importing.  ``horizon`` overrides the
    workload's simulated length (the self-tests use short runs).
    """
    default_horizon, warmup = HORIZONS[workload]
    horizon = default_horizon if horizon is None else horizon
    warmup = min(warmup, horizon / 4)
    probe = Probe()
    try:
        return RUNNERS[workload](
            seed, _Timed(t0, imported), probe, horizon, warmup, profiler=profiler
        )
    finally:
        probe.close()


def des_check(seed: int, horizon: Optional[float] = None) -> Dict:
    """epoch-loaded's reference runs: a DES replay and an audited
    fast-forward run of the same seed."""
    horizon = HORIZONS["epoch-loaded"][0] if horizon is None else horizon
    des = epoch_trial(seed, horizon, fast_forward=False)
    audited = epoch_trial(seed, horizon, fast_forward=True, audit=True)
    return {
        "des": epoch_tenants(des),
        "audited": epoch_tenants(audited),
        "audit": {
            "reconciliation": audited.audit_summary["reconciliation"],
            "ok": bool(audited.audit_summary["ok"]),
        },
    }
