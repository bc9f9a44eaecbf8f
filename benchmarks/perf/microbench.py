"""Kernel and scheduler microbenchmarks.

The kernel bench drives a fixed, purely kernel-bound workload — timeout
chains, event ping-pong relays, and spawn/join churn — through a DES
kernel module and reports logical events completed per wall-clock
second.  The same workload runs against the live ``repro.sim.core`` and
the frozen :mod:`refkernel` snapshot, so the speedup number is
self-contained (measured on this machine, this run) rather than a
comparison against numbers recorded elsewhere.

The scheduler bench measures end-to-end chunk throughput of the DDRR
scheduler in front of the simulated SSD — the actual hot loop behind
every figure grid — as completed chunks per wall second.
"""

from __future__ import annotations

import time
from typing import Any, Dict

__all__ = [
    "kernel_events_per_sec",
    "kernel_speedup",
    "scheduler_ops_per_sec",
]


def _timeout_chain(sim, rounds: int, counter):
    """Heap-heavy: one timeout round-trip per event."""
    timeout = sim.timeout
    for _ in range(rounds):
        yield timeout(0.001)
        counter[0] += 1


def _relay(sim, inbox, rounds: int, counter):
    """Event-callback-heavy: a value handed down a chain of waits."""
    for _ in range(rounds):
        value = yield inbox
        inbox = sim.event()
        inbox.succeed(value + 1)
        counter[0] += 1


def _spawn_join(sim, rounds: int, counter):
    """Process churn: spawn a trivial child, then join it *after* it
    finished — the already-processed-event resume path."""

    def child():
        return 1
        yield  # pragma: no cover - forces generator form

    for _ in range(rounds):
        proc = sim.process(child())
        yield sim.timeout(0.0005)
        yield proc  # finished by now: resume must not lose the value
        counter[0] += 2


def kernel_events_per_sec(kernel_module, scale: int = 1) -> Dict[str, Any]:
    """Run the fixed kernel workload; return events/sec and the checksum.

    ``kernel_module`` must expose the ``Simulator`` API (the live
    ``repro.sim.core`` or ``refkernel``).  ``scale`` multiplies the
    workload size.  The logical event count is workload-defined, so
    rates from different kernels are directly comparable.
    """
    sim = kernel_module.Simulator()
    counter = [0]
    chains, relays, spawners = 40 * scale, 40 * scale, 20 * scale
    rounds = 250
    for _ in range(chains):
        sim.process(_timeout_chain(sim, rounds, counter))
    for _ in range(relays):
        inbox = sim.event()
        sim.process(_relay(sim, inbox, rounds, counter))
        inbox.succeed(0)
    for _ in range(spawners):
        sim.process(_spawn_join(sim, rounds, counter))
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return {
        "events": counter[0],
        "wall_seconds": elapsed,
        "events_per_sec": counter[0] / elapsed if elapsed > 0 else 0.0,
    }


def kernel_speedup(scale: int = 1, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-``repeats`` events/sec for the live kernel vs the frozen
    reference, plus their ratio (the figure tracked PR-to-PR)."""
    from repro.sim import core as live_kernel

    from . import refkernel

    def best(module):
        runs = [kernel_events_per_sec(module, scale=scale) for _ in range(repeats)]
        return max(runs, key=lambda r: r["events_per_sec"])

    ref = best(refkernel)
    live = best(live_kernel)
    if ref["events"] != live["events"]:
        raise AssertionError(
            f"kernel workload divergence: ref completed {ref['events']} events, "
            f"live completed {live['events']}"
        )
    return {
        "events": live["events"],
        "ref_events_per_sec": ref["events_per_sec"],
        "events_per_sec": live["events_per_sec"],
        "speedup": live["events_per_sec"] / ref["events_per_sec"],
    }


def scheduler_ops_per_sec(
    sim_seconds: float = 0.5, tenants: int = 4, tracer=None, num_queues: int = 0
) -> Dict[str, Any]:
    """End-to-end DDRR hot loop: backlogged 4K chunks through the
    scheduler and device, reported as completed chunks per wall second.

    ``tracer`` (a :class:`repro.obs.Tracer`, typically with
    ``enabled=False``) is installed on the scheduler and device — the
    knob behind the tracing-overhead gate in the perf harness.
    ``num_queues > 0`` runs the device on ``profile.with_queues(n)``,
    that many SQ/CQ pairs (the ``nvme`` harness stage)."""
    from repro.core.calibration import reference_calibration
    from repro.core.scheduler import LibraScheduler
    from repro.core.tags import IoTag, RequestClass
    from repro.core.vop import make_cost_model
    from repro.sim import Simulator
    from repro.ssd import SsdDevice, get_profile

    import random

    profile = get_profile("intel320")
    sim = Simulator()
    if num_queues > 0:
        profile = profile.with_queues(num_queues)
    device = SsdDevice(sim, profile, seed=3, tracer=tracer)
    cost_model = make_cost_model("exact", reference_calibration(profile.name))
    scheduler = LibraScheduler(sim, device, cost_model, tracer=tracer)
    share = cost_model.max_iop / tenants
    rng = random.Random(3)
    page = profile.page_size
    max_slot = (profile.logical_capacity - 4096) // page

    def worker(tag):
        while sim.now < sim_seconds:
            if rng.random() < 0.5:
                yield scheduler.read(rng.randrange(0, max_slot) * page, 4096, tag=tag)
            else:
                yield scheduler.write(rng.randrange(0, max_slot) * page, 4096, tag=tag)

    for t in range(tenants):
        name = f"t{t}"
        scheduler.register_tenant(name, share)
        tag = IoTag(name, RequestClass.RAW)
        for _ in range(4):
            sim.process(worker(tag))
    started = time.perf_counter()
    sim.run(until=sim_seconds)
    elapsed = time.perf_counter() - started
    scheduler.stop()
    sim.run()
    ops = sum(scheduler.usage(f"t{t}").ops for t in range(tenants))
    return {
        "ops": ops,
        "sim_seconds": sim_seconds,
        "wall_seconds": elapsed,
        "ops_per_sec": ops / elapsed if elapsed > 0 else 0.0,
    }
