"""Structural SSD performance model.

The device is a small queueing network in simulated time:

- **submission queues** — ``profile.num_queues`` SQ/CQ pairs of
  ``profile.queue_depth`` slots each.  A SATA drive is the one-queue
  case: its single SQ is the NCQ (depth 32, as in every paper
  experiment).  Tenants get SQs round-robin in order of first
  submission (the dispatch ``ctx`` carries the tenant name); anonymous
  submitters share SQ 0;
- a **command-tag pool** — the controller core holds at most
  ``profile.core_tags`` commands (default ``2 * queue_depth``).  A
  command in an SQ waits for a tag; when one frees, round-robin (burst
  1) or weighted-round-robin (burst = per-SQ weight) picks which SQ's
  head is fetched next, per the NVMe arbitration mechanisms.  With one
  queue the pool outnumbers the slots, so no command ever waits;
- one **controller lane per queue** — a FIFO server whose per-op
  service is ``overhead + bytes * byte_cost``.  The fixed overhead caps
  IOP/s at small sizes (the paper's "processor bound by its controller
  and on-die logic"); the byte term models the host link/DMA.  More
  queues mean more lanes, which is what lifts the SATA IOP ceiling;
- **C parallel channels** — each chunk of an op occupies one channel for
  ``access/program latency + bytes * byte_cost``.  Aggregate channel
  bandwidth caps throughput at large sizes (the "data channel"
  bottleneck).  Ops stripe page-wise across channels via the FTL, so
  reads land where their data lives and writes spread round-robin;
- an **FTL** (:mod:`repro.ssd.ftl`) whose garbage collection injects
  read-merge-write copy traffic and erase stalls under sustained
  overwrite — the erase-before-write penalty.

Because both bottleneck stages exist, IOP/s and bandwidth vary
non-linearly with op size (Fig 3), writes interfere with reads by
occupying channels for program latencies (Fig 4), and writes cost more
than reads with the gap narrowing at large sizes (Fig 6).

Stage queueing uses reservation timestamps rather than server processes:
an op reserves ``start = max(now, stage_free_at)`` and waits until its
finish time.  This is exact for FIFO deterministic servers and keeps the
event count per IO to a handful.

Because the stages are next-free-time accumulators, the common-case op
timeline is fully computable at submit: when an op is admitted with no
active fault window, no GC loop running, a free SQ slot and a free
command tag, the device takes a **zero-coroutine fast path** — it books
the controller-lane and channel reservations synchronously and
schedules one completion action at the analytic finish time
(:meth:`Simulator.call_at`), with no generator, no semaphore event, and
no timeout.  Any condition that makes the timeline stateful (fault
windows, GC backpressure, SQ or tag saturation, out-of-range IO)
degrades that op to the coroutine pipeline (:meth:`SsdDevice._do_io`).
Both paths book through the same :meth:`SsdDevice._book` at identical
times, so same-seed runs are byte-identical with the fast path on or
off (``fast_path=False`` forces the coroutine path; the determinism
suite holds the equivalence).

When constructed with a :class:`~repro.faults.FaultPlan`, the device
consults a :class:`~repro.faults.FaultInjector` at op admission: stall
windows delay admission, degraded-bandwidth windows scale channel
service, latency windows pad completion, and error/corruption windows
fail the op (raised at completion time, after the op has occupied the
stages it reserved — a failing op still consumes device time).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional

from ..faults import CorruptionError, FaultInjector, FaultPlan
from ..sim import OK_RESULT, Event, Process, Semaphore, Simulator
from .ftl import Ftl
from .profiles import SsdProfile
from .stats import SsdStats

__all__ = ["SsdDevice", "FluidPipeline"]


def _succeed_event(event: Event, _result) -> None:
    """Completion sink adapter: trigger the fast-path op's Event."""
    event.succeed()


class FluidPipeline:
    """Virtual controller/channel reservation state for one fluid epoch.

    A snapshot of the device's per-queue controller lanes and channel
    next-free times that the fluid fast-forward engine
    (:mod:`repro.workload.epoch`) advances privately: chunk service
    plans produced by :meth:`SsdDevice.epoch_read`/
    :meth:`~SsdDevice.epoch_write` are reserved here at their *virtual
    dispatch* times, reproducing the FIFO queue-wait + service latency
    the real reservation timeline would have charged — without touching
    the live device state, so an abandoned epoch leaves nothing to
    unwind.
    """

    __slots__ = ("lanes", "chan_free")

    def __init__(self, lanes, chan_free):
        self.lanes = list(lanes)
        self.chan_free = list(chan_free)

    def reserve(self, at: float, q: int, ctrl_service: float, services) -> float:
        """Reserve one chunk dispatched at ``at`` on SQ ``q``; returns its finish.

        Same shape as the device's :meth:`~SsdDevice._book`: the chunk
        clears queue ``q``'s controller lane first, then occupies its
        channels no earlier than that.
        """
        lanes = self.lanes
        free = lanes[q]
        start = at if at > free else free
        ready = start + ctrl_service
        lanes[q] = ready
        finish = ready
        chan_free = self.chan_free
        for chan, service in services:
            s = chan_free[chan]
            if s < ready:
                s = ready
            f = s + service
            chan_free[chan] = f
            if f > finish:
                finish = f
        return finish


class SsdDevice:
    """A simulated SSD: submit reads/writes, get completion events."""

    def __init__(
        self,
        sim: Simulator,
        profile: SsdProfile,
        seed: int = 0,
        precondition: bool = True,
        age_factor: float = 2.0,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
        fast_path: bool = True,
    ):
        nq = profile.num_queues
        if nq < 1:
            raise ValueError(f"num_queues {nq} must be >= 1")
        if profile.arbitration == "wrr":
            weights = profile.wrr_weights or (1,) * nq
            if len(weights) != nq:
                raise ValueError(f"wrr_weights {weights} must have {nq} entries")
            if any(w < 1 for w in weights):
                raise ValueError(f"wrr_weights {weights} must all be >= 1")
        elif profile.arbitration == "rr":
            weights = (1,) * nq
        else:
            raise ValueError(f"unknown arbitration {profile.arbitration!r} (rr|wrr)")
        self.sim = sim
        self.profile = profile
        #: admit common-case ops on the zero-coroutine analytic path;
        #: False forces every op through the coroutine pipeline (the
        #: equivalence knob the fast-path byte-identity tests turn)
        self.fast_path = fast_path
        self.ftl = Ftl(profile, seed=seed)
        self.stats = SsdStats()
        #: optional repro.obs Tracer recording controller/channel spans
        self.tracer = tracer
        #: called as ("read"|"write", size) whenever a host op finishes
        #: occupying the device (success or injected fault) — the raw
        #: op stream the VOP audit reconciles scheduler charges against.
        #: Plain strings keep repro.ssd free of repro.core imports.
        self.op_observer = None
        #: Chrome-trace process track name for this device's spans
        self.trace_name = f"ssd.{profile.name}"
        self.faults: Optional[FaultInjector] = (
            FaultInjector(fault_plan, name=profile.name) if fault_plan is not None else None
        )
        self.num_queues = nq
        self._sqs = [
            Semaphore(sim, profile.queue_depth, name=f"{profile.name}.sq{q}")
            for q in range(nq)
        ]
        #: per-queue controller lane next-free times
        self._ctrl_lanes = [0.0] * nq
        self._chan_free_at = [0.0] * profile.channels
        self._free_tags = profile.core_tags or 2 * profile.queue_depth
        #: per-SQ FIFO of commands holding a slot but awaiting a tag
        self._fetch_wait: List[Deque[Event]] = [deque() for _ in range(nq)]
        self._weights = weights
        self._arb_cursor = 0
        self._burst_left = weights[0]
        #: tenant -> SQ index, assigned round-robin at first submission
        self._queue_map: Dict[object, int] = {}
        self._gc_running = False
        self._gc_progress: Event = sim.event()
        if precondition:
            self.ftl.precondition(age_factor=age_factor)

    # -- public IO interface ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Host-visible depth: slots summed over every SQ."""
        return self.num_queues * self.profile.queue_depth

    @property
    def in_flight(self) -> int:
        """Outstanding host ops: occupied SQ slots, tagged or not."""
        return self.queue_depth - sum(sq.value for sq in self._sqs)

    @property
    def queue_backlogs(self) -> List[int]:
        """Per-SQ occupied slots (the fluid monitor's eligibility input)."""
        depth = self.profile.queue_depth
        return [depth - sq.value for sq in self._sqs]

    @property
    def fetch_backlogs(self) -> List[int]:
        """Per-SQ commands holding a slot but still waiting for a tag."""
        return [len(w) for w in self._fetch_wait]

    @property
    def gc_running(self) -> bool:
        """True while the background GC loop owns channel time."""
        return self._gc_running

    def queue_for(self, tenant) -> int:
        """SQ serving ``tenant``: round-robin by first use, None -> SQ 0."""
        if self.num_queues == 1 or tenant is None:
            return 0
        q = self._queue_map.get(tenant)
        if q is None:
            q = self._queue_map[tenant] = len(self._queue_map) % self.num_queues
        return q

    def read(self, offset: int, size: int, ctx=None) -> Event:
        """Submit a read; the returned event triggers on completion.

        ``ctx`` is an optional ``(trace_id, tenant)`` pair: the tenant
        picks the SQ, and both are attached to the op's
        controller/channel spans when a tracer is installed.
        """
        done = Event(self.sim)
        proc = self._submit(True, offset, size, ctx, _succeed_event, done)
        return done if proc is None else proc

    def write(self, offset: int, size: int, ctx=None) -> Event:
        """Submit a write; the returned event triggers on completion."""
        done = Event(self.sim)
        proc = self._submit(False, offset, size, ctx, _succeed_event, done)
        return done if proc is None else proc

    def submit(self, is_read: bool, offset: int, size: int, ctx, callback, cb_arg) -> None:
        """Slim submission: completion arrives as ``callback(cb_arg, result)``.

        The scheduler's dispatch path.  On the fast path no Event (and
        no Process) is allocated at all: the single scheduled finish
        action invokes the callback directly with the shared
        :data:`~repro.sim.OK_RESULT`.  The fallback degrades to the
        coroutine pipeline and hands its :class:`Process` to the same
        callback (a Process exposes the same ``ok``/``value`` shape, and
        carries the fault when the op failed).
        """
        proc = self._submit(is_read, offset, size, ctx, callback, cb_arg)
        if proc is not None:
            proc.callbacks.append(partial(callback, cb_arg))

    def trim(self, offset: int, size: int) -> None:
        """Invalidate a logical range (instant, as TRIM effectively is)."""
        self.ftl.trim(offset, size)
        self.stats.trims += 1

    # -- epoch fast-forward (analytic accounting, no events) ----------------------
    #
    # During a quiet steady-state epoch the runner (repro.workload.epoch)
    # skips the event loop entirely and accounts each op here: same
    # stats counters and FTL mutations as the zero-coroutine fast path,
    # but applied synchronously with no SQ slot, no reservation
    # timeline, and no completion action.  Both hooks build the chunk's
    # *service plan* — ``(ctrl_service, [(channel, service), ...])``.
    # A quiet epoch (no ``pipeline``) is valid only while the device is
    # idle, where every stage queue is empty and an op's latency is its
    # own service: the controller time plus the longest channel service.
    # A fluid (stable-backlog) epoch passes a ``pipeline`` (see
    # :meth:`fluid_pipeline`) and gets the plan itself, which the fluid
    # engine reserves at the chunk's DDRR dispatch time.  Count and byte
    # effects are exact in both regimes; only the latency model differs
    # (idle vs queued).

    def epoch_read(self, offset: int, size: int, pipeline=None):
        """Account one epoch read.

        Without ``pipeline``: quiet-epoch form, returns the idle-device
        latency.  With ``pipeline``: fluid-epoch form, returns the
        ``(ctrl_service, services)`` plan for
        :meth:`FluidPipeline.reserve` (stats booked here either way).
        """
        profile = self.profile
        stats = self.stats
        ctrl = profile.ctrl_overhead_read + size * profile.ctrl_byte_cost
        stats.controller_busy += ctrl
        stats.reads += 1
        stats.read_bytes += size
        return self._epoch_plan(ctrl, self._read_services(offset, size), pipeline)

    def epoch_write(self, offset: int, size: int, pipeline=None):
        """Account one epoch write.

        Applies the write to the FTL page map exactly as the event-driven
        path would, so GC-onset timing stays faithful across an epoch —
        the runner checks ``ftl.gc_needed`` after each analytic write and
        falls back to event-by-event mode when the watermark crosses.
        Returns the idle-device latency, or (with ``pipeline``) the
        chunk's ``(ctrl_service, services)`` plan — see
        :meth:`epoch_read`.
        """
        profile = self.profile
        stats = self.stats
        ctrl = profile.ctrl_overhead_write + size * profile.ctrl_byte_cost
        stats.controller_busy += ctrl
        stats.writes += 1
        stats.write_bytes += size
        return self._epoch_plan(ctrl, self._write_services(offset, size), pipeline)

    def _epoch_plan(self, ctrl: float, services, pipeline):
        """Book the plan's channel time; return the plan or its idle latency."""
        stats = self.stats
        longest = 0.0
        for _chan, service in services:
            stats.channel_busy += service
            if service > longest:
                longest = service
        if pipeline is not None:
            return ctrl, services
        return ctrl + longest

    def fluid_pipeline(self) -> FluidPipeline:
        """Virtual reservation state seeded from the live accumulators.

        The fluid engine advances this copy at virtual dispatch times,
        booking each chunk on the lane of :meth:`queue_for` its tenant —
        the same map live submission uses.  The live lanes and channels
        stay untouched, so post-epoch event-driven IO sees exactly the
        stale-but-harmless accumulator values a quiet fast-forward would
        have left behind (``max(now, free_at)`` absorbs them).
        """
        return FluidPipeline(self._ctrl_lanes, self._chan_free_at)

    def maybe_collect(self) -> None:
        """Start the background GC loop if the watermarks call for it.

        Public poke for the epoch runner: it detects the watermark
        crossing analytically (between events, where no write completion
        exists to trigger GC) and kicks the loop after re-entering
        event-by-event mode.
        """
        self._maybe_start_gc()

    # -- admission -----------------------------------------------------------------

    def _submit(self, is_read, offset, size, ctx, callback, cb_arg) -> Optional[Process]:
        """Admit one op on its tenant's SQ.

        Fast path: books the op and schedules ``callback(cb_arg,
        OK_RESULT)`` at its finish time, returning None.  Otherwise
        starts and returns the coroutine fallback; the caller decides
        how its completion is delivered.
        """
        q = 0 if ctx is None or self.num_queues == 1 else self.queue_for(ctx[1])
        finish = self._admit_fast(is_read, q, offset, size, ctx)
        if finish is None:
            return self.sim.process(self._do_io(is_read, q, offset, size, ctx))
        done = self._finish_fast_read if is_read else self._finish_fast_write
        self.sim.call_at(finish, done, (callback, cb_arg, size, q))
        return None

    def _admit_fast(self, is_read: bool, q: int, offset: int, size: int, ctx) -> Optional[float]:
        """Admit an op analytically; returns its finish time, or None.

        None means the op's timeline is stateful — a fault window is
        active, the GC loop is reserving channel time (or, for a write,
        the free pool is starved), SQ ``q`` is full, no command tag is
        free or earlier commands in ``q`` already wait for one (FIFO
        within an SQ), or the range is invalid (the coroutine path owns
        the failure semantics) — and nothing was reserved.  On success
        the op holds an SQ slot, a tag, and exactly the reservations
        the coroutine path would have booked at this instant.
        """
        if self._gc_running or not self.fast_path:
            return None
        if not is_read and self.ftl.host_starved:
            return None
        faults = self.faults
        if faults is not None and not faults.quiescent(self.sim.now):
            return None
        if offset < 0 or size <= 0 or offset + size > self.profile.logical_capacity:
            return None
        if self._free_tags == 0 or self._fetch_wait[q] or not self._sqs[q].try_acquire():
            return None
        self._free_tags -= 1
        finish = self._book(is_read, q, offset, size, ctx)
        # The coroutine path sleeps `finish - now`, landing on
        # now + (finish - now) — associate the same way so fast-path
        # completions are bitwise-identical to the fallback's.
        now = self.sim.now
        return now + (finish - now)

    def _finish_fast_read(self, arg) -> None:
        """One-shot completion for a fast-path read.

        Mirrors the coroutine epilogue exactly: observer, stats, slot
        release (waking any waiter before the consumer runs), then the
        completion delivery.
        """
        deliver, sink, size, q = arg
        if self.op_observer is not None:
            self.op_observer("read", size)
        stats = self.stats
        stats.reads += 1
        stats.read_bytes += size
        self._release(q)
        deliver(sink, OK_RESULT)

    def _finish_fast_write(self, arg) -> None:
        """One-shot completion for a fast-path write (kicks GC first)."""
        deliver, sink, size, q = arg
        if self.op_observer is not None:
            self.op_observer("write", size)
        stats = self.stats
        stats.writes += 1
        stats.write_bytes += size
        self._maybe_start_gc()
        self._release(q)
        deliver(sink, OK_RESULT)

    def _do_io(self, is_read: bool, q: int, offset: int, size: int, ctx=None):
        """Coroutine fallback for every op the fast path declines."""
        yield self._sqs[q].acquire()
        if self._free_tags > 0 and not self._fetch_wait[q]:
            self._free_tags -= 1
        else:
            fetched = self.sim.event()
            self._fetch_wait[q].append(fetched)
            yield fetched  # the arbiter took the tag for us
        try:
            if not is_read:
                # Flow control: a fetched write stalls while the free
                # pool is down to the GC reserve — the "write cliff" of
                # a saturated SSD.  It holds its tag, so backpressure
                # reaches the other queues; GC wakes it after every
                # reclaimed block.
                while self.ftl.host_starved:
                    self._maybe_start_gc()
                    yield self._gc_progress
            # Faults are drawn at admission (windows apply at op
            # arrival) but raised at completion: a failing op still
            # occupies the controller and channels for its service.
            scale, extra, fault = yield from self._admit_faults(offset, size, not is_read)
            finish = self._book(is_read, q, offset, size, ctx, scale) + extra
            if finish > self.sim.now:
                yield self.sim.timeout(finish - self.sim.now)
            stats = self.stats
            if self.op_observer is not None:
                self.op_observer("read" if is_read else "write", size)
            if fault is not None:
                # A failed write's FTL mapping stands: a failed program
                # may leave torn pages behind, exactly like real media.
                if not is_read:
                    stats.write_faults += 1
                elif isinstance(fault, CorruptionError):
                    stats.corrupt_reads += 1
                else:
                    stats.read_faults += 1
                raise fault
            if is_read:
                stats.reads += 1
                stats.read_bytes += size
            else:
                stats.writes += 1
                stats.write_bytes += size
                self._maybe_start_gc()
        finally:
            self._release(q)

    def _admit_faults(self, offset: int, size: int, write: bool = False):
        """DES sub-generator: apply the fault plan at op admission.

        Waits out any active stall window, then returns the op's
        ``(service_scale, extra_latency, fault_or_None)`` under the
        windows active at the (post-stall) admission time.
        """
        if self.faults is None:
            return 1.0, 0.0, None
        stall_end = self.faults.stall_until(self.sim.now)
        if stall_end > self.sim.now:
            self.stats.stall_seconds += stall_end - self.sim.now
            yield self.sim.timeout(stall_end - self.sim.now)
        now = self.sim.now
        scale = self.faults.service_scale(now)
        extra = self.faults.extra_latency(now)
        if scale > 1.0:
            self.stats.degraded_ops += 1
        if extra > 0.0:
            self.stats.fault_delay_seconds += extra
        if write:
            fault = self.faults.draw_write_fault(now, offset, size)
        else:
            fault = self.faults.draw_read_fault(now, offset, size)
        return scale, extra, fault

    # -- tags and arbitration ------------------------------------------------------

    def _release(self, q: int) -> None:
        """Recycle an op's command tag and SQ slot."""
        self._free_tags += 1
        # Commands wait for a tag only while the pool is empty, so only
        # the release that refills it can have anyone to grant.
        if self._free_tags == 1:
            self._arb_pump()
        self._sqs[q].release()

    def _arb_pump(self) -> None:
        """Grant freed tags to waiting SQ heads per the arbitration policy."""
        while self._free_tags > 0:
            q = self._next_waiting_sq()
            if q is None:
                return
            self._free_tags -= 1
            self._fetch_wait[q].popleft().succeed()

    def _next_waiting_sq(self) -> Optional[int]:
        """Weighted-round-robin scan: next SQ with a waiting command.

        Plain round-robin is the weight-1 special case.  The cursor
        serves up to ``weight`` consecutive commands from one SQ (an
        arbitration burst) before moving on.
        """
        waiting = self._fetch_wait
        n = self.num_queues
        for _ in range(n + 1):
            q = self._arb_cursor
            if self._burst_left > 0 and waiting[q]:
                self._burst_left -= 1
                return q
            self._arb_cursor = (q + 1) % n
            self._burst_left = self._weights[self._arb_cursor]
        return None

    # -- stages --------------------------------------------------------------------

    def _read_services(self, offset: int, size: int):
        """Channel plan of one read: ``[(channel, service), ...]``.

        Sub-page reads move only the requested bytes off the flash
        register.  A valid single-page read takes one map lookup; an
        invalid range falls through to :meth:`Ftl.read_channels`, which
        raises.
        """
        profile = self.profile
        access = profile.read_access
        byte_cost = profile.read_byte_cost
        if (
            0 < size <= profile.page_size - offset % profile.page_size
            and 0 <= offset
            and offset + size <= profile.logical_capacity
        ):
            return ((self.ftl.read_channel(offset), access + size * byte_cost),)
        return [
            (chan, access + nbytes * byte_cost)
            for chan, _pages, nbytes in self.ftl.read_channels(offset, size)
        ]

    def _write_services(self, offset: int, size: int):
        """Apply a write to the FTL; its channel plan ``[(channel, service), ...]``."""
        profile = self.profile
        prog = profile.prog_latency
        page_cost = profile.page_size * profile.write_byte_cost
        return [
            (chan, prog + pages * page_cost)
            for chan, pages in self.ftl.host_write(offset, size).programs
        ]

    def _book(self, is_read: bool, q: int, offset: int, size: int, ctx, scale=1.0) -> float:
        """Reserve queue ``q``'s controller lane, then the op's channels.

        Returns when the op's last channel finishes.  ``scale`` stretches
        channel service (a degraded-bandwidth fault window).
        """
        profile = self.profile
        if is_read:
            ready = self._reserve_ctrl(q, profile.ctrl_overhead_read, size, ctx)
            services = self._read_services(offset, size)
        else:
            ready = self._reserve_ctrl(q, profile.ctrl_overhead_write, size, ctx)
            services = self._write_services(offset, size)
        finish = ready
        reserve = self._reserve_channel
        for chan, service in services:
            t = reserve(ready, chan, service * scale, ctx)
            if t > finish:
                finish = t
        return finish

    def _reserve_ctrl(self, q: int, overhead: float, size: int, ctx=None) -> float:
        """FIFO-reserve queue ``q``'s controller lane; return when the op clears it.

        Reservation timestamps make stage occupancy known synchronously,
        so the span (start, finish) is recorded here rather than when
        the op's completion timeout fires.
        """
        service = overhead + size * self.profile.ctrl_byte_cost
        lanes = self._ctrl_lanes
        start = max(self.sim.now, lanes[q])
        lanes[q] = start + service
        self.stats.controller_busy += service
        tr = self.tracer
        if tr is not None and tr.enabled:
            trace, tenant = ctx if ctx is not None else (None, None)
            tr.span(
                "ctrl", "ssd", self.trace_name,
                "ctrl" if self.num_queues == 1 else f"ctrl{q}",
                start, start + service,
                trace=trace, args={"tenant": tenant} if tenant else None,
            )
        return start + service

    def _reserve_channel(
        self, after: float, chan: int, service: float, ctx=None, label: str = "chan"
    ) -> float:
        """FIFO-reserve a channel no earlier than ``after``; return finish."""
        start = max(after, self._chan_free_at[chan])
        self._chan_free_at[chan] = start + service
        self.stats.channel_busy += service
        tr = self.tracer
        if tr is not None and tr.enabled:
            trace, tenant = ctx if ctx is not None else (None, None)
            tr.span(
                label, "ssd", self.trace_name, f"chan{chan}", start, start + service,
                trace=trace, args={"tenant": tenant} if tenant else None,
            )
        return start + service

    # -- garbage collection --------------------------------------------------------

    def _maybe_start_gc(self) -> None:
        if not self._gc_running and (self.ftl.gc_needed or self.ftl.host_starved):
            self._gc_running = True
            self.sim.process(self._gc_loop(), name=f"{self.profile.name}.gc")

    def _gc_loop(self):
        """Background GC: evacuate victims until the high watermark.

        Copy traffic and erases go through the same channel reservations
        as host IO, so GC contends with (and slows) the foreground — the
        paper's erase-before-write penalty made visible.
        """
        profile = self.profile
        try:
            while not self.ftl.gc_satisfied:
                move = self.ftl.collect_victim()
                if move is None:
                    break
                # Reserve the copy/erase work on the channels (delaying
                # queued foreground IO accordingly)...
                added = 0.0
                if move.valid_pages:
                    # Read the live pages off the victim's channel...
                    read_service = move.valid_pages * (
                        profile.read_access / 4  # sequential in-block reads pipeline
                        + profile.page_size * profile.read_byte_cost
                    )
                    self._reserve_channel(
                        self.sim.now, move.victim_channel, read_service,
                        label="gc.read",
                    )
                    added += read_service
                    # ...and program them on the GC active channels.
                    for chan, pages in move.copies:
                        service = (
                            profile.prog_latency
                            + pages * profile.page_size * profile.write_byte_cost
                        )
                        self._reserve_channel(self.sim.now, chan, service, label="gc.prog")
                        added += service
                # The erase itself stalls the victim's channel.
                self._reserve_channel(
                    self.sim.now, move.victim_channel, profile.erase_latency,
                    label="gc.erase",
                )
                added += profile.erase_latency
                self.stats.gc_runs += 1
                self.stats.gc_pages_copied += move.valid_pages
                self.stats.gc_blocks_erased += 1
                # ...but pace the loop by the aggregate work it injects,
                # not by FIFO completion: a real controller interleaves
                # GC with host IO rather than queueing one victim at a
                # time behind the entire host backlog.  Capacity stays
                # honest because the reservations above consume real
                # channel time either way.
                yield self.sim.timeout(added / profile.channels)
                self._signal_gc_progress()
        finally:
            self._gc_running = False
            self._signal_gc_progress()

    def _signal_gc_progress(self) -> None:
        done, self._gc_progress = self._gc_progress, self.sim.event()
        done.succeed()
