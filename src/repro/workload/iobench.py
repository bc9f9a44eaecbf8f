"""Raw-IO multi-tenant trial driver.

This is the micro-benchmark harness behind Figs 4, 5, 7 and 9: N
backlogged tenants issue low-level reads/writes straight to the Libra
scheduler (no persistence engine), each with a bounded pool of IO
workers, equal VOP allocations, and a specified op-size / mix-ratio
workload.  The harness measures per-tenant physical IOP throughput and
scheduler-charged VOP consumption over a warm measurement window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..core.calibration import reference_calibration
from ..core.scheduler import LibraScheduler, SchedulerConfig
from ..core.tags import IoTag, OpKind, RequestClass
from ..core.vop import CostModel, make_cost_model
from ..sim import Simulator
from ..ssd import SsdDevice, SsdProfile
from .distributions import FixedSize, LogNormalSize

__all__ = [
    "TenantSpec",
    "TenantResult",
    "TrialResult",
    "DeviceEnv",
    "run_raw_trial",
    "run_interference_trial",
    "isolated_iops",
]

KIB = 1024


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's raw-IO workload.

    ``read_fraction`` is the probability each issued op is a read (1.0
    → pure reader, 0.0 → pure writer).  ``sigma`` switches sizes from
    fixed to log-normal with that standard deviation (bytes).
    """

    name: str
    read_fraction: float
    read_size: int = 4 * KIB
    write_size: int = 4 * KIB
    sigma: Optional[float] = None
    workers: int = 4

    def size_dist(self, kind: OpKind):
        mean = self.read_size if kind == OpKind.READ else self.write_size
        if self.sigma is None:
            return FixedSize(mean)
        return LogNormalSize(mean=mean, sigma=self.sigma)


@dataclass
class TenantResult:
    """Measured per-tenant activity over the measurement window."""

    spec: TenantSpec
    ops: int = 0
    tasks: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes: int = 0
    vops: float = 0.0
    allocation: float = 0.0

    def iops_per_sec(self, duration: float) -> float:
        """Completed submitted ops per second (chunks of one op merged)."""
        return self.tasks / duration

    def vops_per_sec(self, duration: float) -> float:
        return self.vops / duration


@dataclass
class TrialResult:
    """Everything measured in one multi-tenant trial."""

    duration: float
    tenants: Dict[str, TenantResult]

    @property
    def total_vops_per_sec(self) -> float:
        return sum(t.vops for t in self.tenants.values()) / self.duration

    @property
    def total_iops_per_sec(self) -> float:
        return sum(t.ops for t in self.tenants.values()) / self.duration

    @property
    def total_bandwidth(self) -> float:
        """Aggregate bytes/second."""
        return sum(t.bytes for t in self.tenants.values()) / self.duration


class DeviceEnv:
    """A reusable (simulator, device) pair for sweep harnesses.

    Constructing a structural device ages its FTL (``Ftl.precondition``):
    about 0.1 s for a 256 MiB ``intel320`` on a 2-CPU host (median of
    ten fresh interpreters; 0.4 s before preconditioning went bulk).
    Sweeps reuse one aged device and run trials back to back, exactly
    like benchmarking a single physical drive.

    ``device="surrogate"`` swaps in the fitted statistical device
    (:class:`~repro.ssd.SurrogateDevice`) — no FTL, no preconditioning,
    latencies sampled from the committed surrogate artifact — for
    sweeps where distribution shape matters more than structural
    fidelity.  The structural device takes its queue count and
    arbitration from the profile (``profile.with_queues(n)``).
    """

    def __init__(self, profile: SsdProfile, seed: int = 11, device: str = "ssd"):
        self.profile = profile
        self.sim = Simulator()
        if device == "ssd":
            self.device = SsdDevice(self.sim, profile, seed=seed)
        elif device == "surrogate":
            from ..ssd.surrogate import SurrogateDevice

            self.device = SurrogateDevice(self.sim, profile, seed=seed)
        else:
            raise ValueError(f"unknown device kind {device!r} (ssd|surrogate)")


def run_raw_trial(
    profile: SsdProfile,
    specs: Sequence[TenantSpec],
    duration: float = 0.4,
    warmup: float = 0.15,
    seed: int = 7,
    cost_model: Union[str, CostModel] = "exact",
    allocations: Optional[Dict[str, float]] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    env: Optional[DeviceEnv] = None,
    tracer=None,
    audit=None,
) -> TrialResult:
    """Run one multi-tenant raw-IO trial and measure the steady window.

    Tenants default to *equal* VOP allocations summing to the device's
    interference-free max (the Fig 4/7 setup); pass ``allocations`` to
    override.  The trial issues IO tagged ``RAW`` directly to a fresh
    Libra scheduler over the (possibly reused) device.

    ``tracer`` (a :class:`repro.obs.Tracer`) records scheduler queue/
    service and device stage spans; ``audit`` (a
    :class:`repro.obs.VopAudit`) is attached to the trial's scheduler
    and device.  Audited runs should use a *fresh* ``env`` — the audit
    reconciles against device-op streams starting from attachment, and
    a reused, still-draining device would show ops the scheduler never
    charged.
    """
    if env is None:
        env = DeviceEnv(profile, seed=seed)
    sim, device = env.sim, env.device
    if tracer is not None:
        device.tracer = tracer
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, reference_calibration(profile.name))
    scheduler = LibraScheduler(
        sim, device, cost_model, config=scheduler_config, tracer=tracer
    )
    if audit is not None:
        audit.attach(scheduler, device)
    if allocations is None:
        share = cost_model.max_iop / len(specs)
        allocations = {spec.name: share for spec in specs}
    for spec in specs:
        scheduler.register_tenant(spec.name, allocations[spec.name])

    rng = random.Random(seed)
    page = profile.page_size
    start = sim.now
    horizon = start + warmup + duration

    def worker(spec: TenantSpec, read_dist, write_dist, tag: IoTag):
        while sim.now < horizon:
            if rng.random() < spec.read_fraction:
                size = read_dist.sample(rng)
                max_slot = (profile.logical_capacity - size) // page
                yield scheduler.read(rng.randrange(0, max_slot) * page, size, tag=tag)
            else:
                size = write_dist.sample(rng)
                max_slot = (profile.logical_capacity - size) // page
                yield scheduler.write(rng.randrange(0, max_slot) * page, size, tag=tag)

    for spec in specs:
        tag = IoTag(spec.name, RequestClass.RAW)
        read_dist = spec.size_dist(OpKind.READ)
        write_dist = spec.size_dist(OpKind.WRITE)
        for _ in range(spec.workers):
            sim.process(worker(spec, read_dist, write_dist, tag))

    sim.run(until=start + warmup)
    baselines = {spec.name: scheduler.usage(spec.name).snapshot() for spec in specs}
    sim.run(until=horizon)
    scheduler.stop()

    tenants: Dict[str, TenantResult] = {}
    for spec in specs:
        delta = scheduler.usage(spec.name).delta(baselines[spec.name])
        tenants[spec.name] = TenantResult(
            spec=spec,
            ops=delta.ops,
            tasks=delta.tasks,
            read_ops=delta.read_ops,
            write_ops=delta.write_ops,
            bytes=delta.bytes,
            vops=delta.vops,
            allocation=allocations[spec.name],
        )
    # Drain in-flight IO so a reused env starts the next trial clean.
    sim.run(until=sim.now + 0.05)
    return TrialResult(duration=duration, tenants=tenants)


def run_interference_trial(
    profile: SsdProfile,
    read_size: int,
    write_size: int,
    read_fraction: Optional[float] = None,
    n_tenants: int = 8,
    workers_per_tenant: int = 4,
    sigma: Optional[float] = None,
    duration: float = 0.4,
    warmup: float = 0.15,
    seed: int = 7,
    cost_model: Union[str, CostModel] = "exact",
    env: Optional[DeviceEnv] = None,
    audit=None,
) -> TrialResult:
    """The Fig 4 experiment at one grid point.

    ``read_fraction=None`` is the exclusive "1:1 mix": half the tenants
    are pure readers, half pure writers.  Otherwise every tenant issues
    reads with the given probability.
    """
    specs: List[TenantSpec] = []
    for i in range(n_tenants):
        if read_fraction is None:
            fraction = 1.0 if i < n_tenants // 2 else 0.0
        else:
            fraction = read_fraction
        specs.append(
            TenantSpec(
                name=f"t{i}",
                read_fraction=fraction,
                read_size=read_size,
                write_size=write_size,
                sigma=sigma,
                workers=workers_per_tenant,
            )
        )
    return run_raw_trial(
        profile,
        specs,
        duration=duration,
        warmup=warmup,
        seed=seed,
        cost_model=cost_model,
        env=env,
        audit=audit,
    )


def isolated_iops(profile_name: str, kind: OpKind, size: int) -> float:
    """Interference-free IOP/s a pure workload of this shape achieves.

    Used to compute expected throughput (tenant share × isolated rate)
    for the Fig 7 throughput ratios.  Interpolates the reference
    calibration curve.
    """
    from ..core.vop import _CurveInterpolator  # shared interpolation

    calibration = reference_calibration(profile_name)
    return _CurveInterpolator(calibration.curve(kind)).achieved_iops(size)
