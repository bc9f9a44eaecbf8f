"""Page-mapped flash translation layer.

Models the SSD-internal log-structured write path the paper describes in
§3.2: host writes append to pre-erased blocks, a page map tracks the
live location of each logical page, and garbage collection performs
read-merge-write of still-valid pages to replenish the free-block pool.
This is the mechanism behind write amplification and the
erase-before-write penalty; it is what makes small random overwrites
expensive and whole-file TRIMs (the LSM engine's deleted SSTables)
nearly free.

The FTL is purely bookkeeping — it computes *what* flash work an
operation implies (which channels program/copy/erase how many pages).
The device model charges the corresponding simulated time.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from .ftl_policy import make_ftl_policy
from .profiles import SsdProfile

__all__ = ["Ftl", "WritePlan", "GcMove"]

UNMAPPED = -1

#: host appends ``precondition`` materializes at a time; keeps its
#: temporary arrays small (large transient numpy buffers leave the
#: process heap grown, raising peak RSS for the rest of the run)
_PRECONDITION_CHUNK = 1 << 13


@dataclass
class WritePlan:
    """Flash work implied by one host write.

    ``programs`` lists (channel, pages-to-program-there) chunks.  An op
    writes its pages in stripe-sized chunks across consecutive channels,
    so small ops land on one channel (one program latency) while large
    ops fan out — this is what amortizes program latency and makes write
    bandwidth climb with op size until the channels saturate.
    """

    programs: List[Tuple[int, int]]
    pages: int

    @property
    def program_pages(self) -> int:
        return sum(n for _c, n in self.programs)


@dataclass
class GcMove:
    """One garbage-collection step: evacuate + erase a victim block."""

    victim: int
    victim_channel: int
    copies: List[Tuple[int, int]]  # (destination channel, pages programmed)
    valid_pages: int


class Ftl:
    """Log-structured page-mapped FTL with pluggable GC/stream policy.

    ``policy`` (a name, class, or :class:`~repro.ssd.ftl_policy.FtlPolicy`
    instance; default from ``profile.ftl_policy``) owns victim selection
    and host write-stream routing; the mechanism here — page map, append
    streams, evacuate-and-erase — is policy-independent.
    """

    def __init__(self, profile: SsdProfile, seed: int = 0, policy=None):
        self.profile = profile
        self.rng = random.Random(seed)
        if policy is None:
            policy = getattr(profile, "ftl_policy", "greedy")
        self.policy = make_ftl_policy(policy)
        n_pages = profile.logical_pages
        n_blocks = profile.physical_blocks
        if n_blocks <= profile.gc_reserve_blocks + 2 * profile.channels:
            raise ValueError(
                f"profile {profile.name}: {n_blocks} blocks is too few for "
                f"{profile.channels} channels plus GC reserve"
            )
        #: logical page -> physical block holding its live copy
        self.page_to_block = np.full(n_pages, UNMAPPED, dtype=np.int32)
        #: physical block -> count of live pages
        self.block_valid = np.zeros(n_blocks, dtype=np.int32)
        #: physical block -> channel it was allocated on (-1 while free)
        self.block_channel = np.full(n_blocks, -1, dtype=np.int16)
        #: physical block -> logical page appended at each slot, in append
        #: order (lazy: may hold pages since overwritten).  Slots at or past
        #: an open block's fill are stale; closed blocks are always full.
        self.block_slots = np.zeros(
            (n_blocks, profile.pages_per_block), dtype=np.int32
        )
        self.free_blocks: Deque[int] = deque(range(n_blocks))
        #: host page-write clock and per-block birth stamp (block age for
        #: cost-benefit scoring; maintained unconditionally — two integer
        #: stores per append)
        self.write_seq = 0
        self.block_seq = np.zeros(n_blocks, dtype=np.int64)
        #: per-stream, per-channel active block for host writes; GC keeps
        #: its own single stream of destination blocks
        n_streams = self.policy.n_streams
        self._host_active: List[List[Optional[int]]] = [
            [None] * profile.channels for _ in range(n_streams)
        ]
        self._host_fill: List[List[int]] = [
            [0] * profile.channels for _ in range(n_streams)
        ]
        self._host_cursor = [0] * n_streams
        self._gc_active: List[Optional[int]] = [None] * profile.channels
        self._gc_fill: List[int] = [0] * profile.channels
        self._gc_cursor = 0
        self._routed = n_streams > 1
        self.emergency_gcs = 0
        self.policy.bind(self)
        # Watermarks depend only on construction-time constants; they
        # are precomputed because gc_needed/host_starved sit on the
        # per-op hot path (consulted at every write completion).
        # Block-count floor keeps the GC trigger safely above the host
        # starvation threshold even on tiny test devices.
        self._gc_low_blocks = max(
            int(n_blocks * profile.gc_low_watermark),
            profile.gc_reserve_blocks + 2 * profile.channels,
        )
        self._gc_high_blocks = max(
            int(n_blocks * profile.gc_high_watermark),
            self._gc_low_blocks + 2 * profile.channels,
        )
        self._starve_blocks = profile.gc_reserve_blocks + 2

    # -- capacity state ------------------------------------------------------

    @property
    def free_fraction(self) -> float:
        """Fraction of physical blocks on the free list."""
        return len(self.free_blocks) / len(self.block_valid)

    @property
    def gc_needed(self) -> bool:
        """True when the pool has drained below the low watermark."""
        return len(self.free_blocks) <= self._gc_low_blocks

    @property
    def gc_satisfied(self) -> bool:
        """True when GC has refilled the pool to the high watermark."""
        return len(self.free_blocks) >= self._gc_high_blocks

    @property
    def host_starved(self) -> bool:
        """True when host writes must stall for GC (the write cliff).

        The last few free blocks are reserved for GC's own destination
        blocks; letting the host consume them would deadlock collection.
        """
        return len(self.free_blocks) <= self._starve_blocks

    @property
    def gc_spare_pages(self) -> int:
        """Upper bound on host pages writable before ``gc_needed`` flips.

        Free blocks above the low watermark, in pages.  An estimate, not
        a guarantee: host writes drain the pool one *active block* at a
        time, so the true crossing also depends on per-channel fill
        levels — callers that fast-forward must still re-check
        ``gc_needed`` after every analytic write.
        """
        spare = len(self.free_blocks) - self._gc_low_blocks
        return max(0, spare) * self.profile.pages_per_block

    def pages_until_gc(self) -> int:
        """Tighter projection of host pages writable before ``gc_needed``.

        Refines :attr:`gc_spare_pages` with the fill headroom left in
        the currently open host append blocks: those pages consume no
        free block, so they come on top of the spare-block budget.  GC's
        own active blocks are excluded (their fill is copy traffic, not
        host writes).  Still an upper bound — write striping can retire
        active blocks unevenly across channels — so fast-forwarding
        callers must re-check ``gc_needed`` after every analytic write;
        the point of the refinement is fewer prematurely ended epochs,
        not a guarantee.
        """
        per_block = self.profile.pages_per_block
        spare = len(self.free_blocks) - self._gc_low_blocks
        if spare < 0:
            return 0
        open_pages = 0
        for stream in range(len(self._host_active)):
            active = self._host_active[stream]
            fill = self._host_fill[stream]
            for chan in range(self.profile.channels):
                if active[chan] is not None:
                    open_pages += per_block - fill[chan]
        return spare * per_block + open_pages

    # -- address helpers -----------------------------------------------------

    def _page_range(self, offset: int, size: int) -> range:
        if size <= 0:
            raise ValueError(f"io size must be positive, got {size}")
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        page = self.profile.page_size
        first = offset // page
        last = (offset + size - 1) // page
        if last >= self.profile.logical_pages:
            raise ValueError(
                f"io [{offset}, {offset + size}) beyond logical capacity "
                f"{self.profile.logical_capacity}"
            )
        return range(first, last + 1)

    def read_channel(self, offset: int) -> int:
        """Channel serving the single page at ``offset``.

        Fast path for the epoch engines' dominant case (page-sized
        reads): one map lookup instead of :meth:`read_channels`'s
        per-channel accounting.  The caller guarantees the offset is
        within logical capacity.
        """
        p = offset // self.profile.page_size
        block = self.page_to_block[p]
        if block == UNMAPPED:
            return p % self.profile.channels
        return int(self.block_channel[block])

    def read_channels(self, offset: int, size: int) -> List[Tuple[int, int, int]]:
        """Map a host read to per-channel work.

        Returns (channel, pages, bytes) triples.  Bytes are the actual
        transfer sizes (sub-page reads move only the requested bytes off
        the flash register).  Unmapped pages read as if striped by LBA.
        """
        page = self.profile.page_size
        nchan = self.profile.channels
        pages = self._page_range(offset, size)
        per_chan_pages = [0] * nchan
        per_chan_bytes = [0] * nchan
        end = offset + size
        for p in pages:
            block = self.page_to_block[p]
            chan = int(self.block_channel[block]) if block != UNMAPPED else p % nchan
            lo = max(offset, p * page)
            hi = min(end, (p + 1) * page)
            per_chan_pages[chan] += 1
            per_chan_bytes[chan] += hi - lo
        return [
            (c, per_chan_pages[c], per_chan_bytes[c])
            for c in range(nchan)
            if per_chan_pages[c]
        ]

    # -- host writes ---------------------------------------------------------

    def host_write(self, offset: int, size: int) -> WritePlan:
        """Apply a host write to the map and return the flash work.

        Every touched logical page is rewritten in full (log-structured:
        no in-place update), so sub-page writes still program a whole
        page — the cost-per-byte penalty of small writes.  Pages are
        striped in ``stripe_pages`` chunks over consecutive channels
        starting from the write stream's rotating cursor, so concurrent
        small ops spread across channels while one large op parallelizes
        internally.  Multi-stream policies route the whole op to one
        stream (op-granularity separation, as NVMe write streams do).
        """
        pages = self._page_range(offset, size)
        stream = self.policy.route(self, pages) if self._routed else 0
        programs = [0] * self.profile.channels
        nchan = self.profile.channels
        stripe = self.profile.stripe_pages
        cursor = self._host_cursor
        start = cursor[stream]
        cursor[stream] = (start + 1) % nchan
        for i, p in enumerate(pages):
            chan = (start + i // stripe) % nchan
            self._append_page(p, chan, stream)
            programs[chan] += 1
        if self._routed:
            self.policy.note_host_write(self, pages)
        return WritePlan(
            programs=[(c, n) for c, n in enumerate(programs) if n],
            pages=len(pages),
        )

    def trim(self, offset: int, size: int) -> int:
        """Invalidate a logical range (file deletion). Returns pages freed."""
        freed = 0
        for p in self._page_range(offset, size):
            block = self.page_to_block[p]
            if block != UNMAPPED:
                self.block_valid[block] -= 1
                self.page_to_block[p] = UNMAPPED
                freed += 1
        return freed

    def _append_page(self, logical_page: int, channel: int, stream: int = 0) -> None:
        """Append one host page to ``channel``'s active block in ``stream``.

        Invalidates the previous copy.
        """
        old = self.page_to_block[logical_page]
        if old != UNMAPPED:
            self.block_valid[old] -= 1
        active, fill = self._host_active[stream], self._host_fill[stream]
        self.write_seq += 1
        block = active[channel]
        if block is None or fill[channel] >= self.profile.pages_per_block:
            block = self._allocate_block(channel)
            active[channel] = block
            fill[channel] = 0
        self.page_to_block[logical_page] = block
        self.block_valid[block] += 1
        self.block_slots[block, fill[channel]] = logical_page
        fill[channel] += 1

    def _allocate_block(self, channel: int) -> int:
        if not self.free_blocks:
            # Emergency: evacuate synchronously so the write can proceed.
            # The device-level flow control (host writes stall while
            # ``host_starved``) is sized to make this unreachable; count
            # it so tests can assert the background GC keeps up.
            self.emergency_gcs += 1
            move = self.collect_victim()
            if move is None:
                raise RuntimeError("FTL out of space: no GC victim available")
        block = self.free_blocks.popleft()
        self.block_channel[block] = channel
        self.block_seq[block] = self.write_seq
        return block

    # -- garbage collection ----------------------------------------------------

    def active_blocks(self) -> List[Optional[int]]:
        """All blocks currently open for appends (never GC victims)."""
        out: List[Optional[int]] = []
        for lane in self._host_active:
            out.extend(lane)
        out.extend(self._gc_active)
        return out

    def pick_victim(self) -> Optional[int]:
        """Policy-chosen victim: the next closed block GC should evacuate."""
        return self.policy.select_victim(self)

    def collect_victim(self) -> Optional[GcMove]:
        """Evacuate and erase the best victim block.

        The map is updated immediately; the device model charges the
        corresponding channel time afterwards.  Returns None when no
        victim exists.
        """
        victim = self.pick_victim()
        if victim is None:
            return None
        victim_channel = int(self.block_channel[victim])
        nchan = self.profile.channels
        ppb = self.profile.pages_per_block
        stripe = self.profile.stripe_pages
        start = self._gc_cursor
        self._gc_cursor = (start + 1) % nchan
        # Live pages in slot order; a page appended to the victim twice
        # moves once, from its first slot.
        slots = self.block_slots[victim]
        live = list(dict.fromkeys(slots[self.page_to_block[slots] == victim].tolist()))
        active, fill = self._gc_active, self._gc_fill
        copies = [0] * nchan
        dest: List[int] = []
        dest_slot: List[int] = []
        for i in range(len(live)):
            chan = (start + i // stripe) % nchan
            block = active[chan]
            if block is None or fill[chan] >= ppb:
                if not self.free_blocks:
                    raise RuntimeError(
                        "FTL exhausted: GC needs a destination block but the "
                        "free pool is empty (reserve misconfigured)"
                    )
                block = active[chan] = self._allocate_block(chan)
                fill[chan] = 0
            dest.append(block)
            dest_slot.append(fill[chan])
            fill[chan] += 1
            copies[chan] += 1
        if live:
            self.page_to_block[live] = dest
            self.block_slots[dest, dest_slot] = live
            np.add.at(self.block_valid, dest, 1)
        # Erase: back to the free pool.
        self.block_valid[victim] = 0
        self.block_channel[victim] = -1
        self.free_blocks.append(victim)
        return GcMove(
            victim=victim,
            victim_channel=victim_channel,
            copies=[(c, n) for c, n in enumerate(copies) if n],
            valid_pages=len(live),
        )

    # -- preconditioning --------------------------------------------------------

    def precondition(self, age_factor: float = 2.0) -> None:
        """Bring the device to its aged steady state, instantly.

        Fills the logical space in LBA order (so sequential reads stripe
        evenly across channels, matching a freshly streamed device), then
        ages the device with ``age_factor`` × logical-capacity worth of
        uniform random page overwrites, running GC as a real device
        would.  This converges the per-block valid-count distribution to
        the greedy-GC steady state so write workloads see realistic
        (finite!) write amplification from their first IO.

        The result is exactly that of appending one page at a time and
        collecting whenever ``gc_needed`` flips, but host appends are
        applied in bulk: each window runs up to the append that
        allocates the block taking the pool to the low watermark, then
        GC runs.
        """
        if age_factor < 0:
            raise ValueError(f"age_factor {age_factor} must be >= 0")
        n_pages = self.profile.logical_pages
        nchan = self.profile.channels
        stripe = self.profile.stripe_pages
        cursor = self._host_cursor[0]
        # LBA-ordered fill striped so sequential reads parallelize, then
        # random overwrites rotating channels from the host cursor.
        for lo in range(0, n_pages, _PRECONDITION_CHUNK):
            pages = np.arange(lo, min(lo + _PRECONDITION_CHUNK, n_pages))
            self._append_with_gc(pages, pages // stripe % nchan)
        n_age = int(n_pages * age_factor)
        for lo in range(0, n_age, _PRECONDITION_CHUNK):
            i = np.arange(lo, min(lo + _PRECONDITION_CHUNK, n_age))
            self._append_with_gc(self._draw_pages(n_pages, len(i)), (cursor + i) % nchan)
        self._sync_gc()
        self.emergency_gcs = 0

    def _append_with_gc(self, pages: np.ndarray, chans: np.ndarray) -> None:
        """Host-append ``pages`` to ``chans``, collecting at each GC trigger."""
        chans = chans.astype(np.int16)  # small ints: the stable argsort is a radix sort
        pos = 0
        while pos < len(pages):
            budget = len(self.free_blocks) - self._gc_low_blocks
            if budget > 0:
                pos += self._append_run(pages[pos:], chans[pos:], budget)
            else:  # already at the trigger: GC follows the next append
                self._append_page(int(pages[pos]), int(chans[pos]))
                pos += 1
            if self.gc_needed:
                self._sync_gc()

    def _draw_pages(self, n: int, count: int) -> np.ndarray:
        """``count`` successive ``self.rng.randrange(n)`` values, in bulk.

        ``randrange(n)`` draws ``getrandbits(k)``, ``k = n.bit_length()``,
        until a value is below ``n``; for ``k <= 32`` each draw is the top
        ``k`` bits of one 32-bit Mersenne Twister word, and
        ``getrandbits(32 * m)`` is the next ``m`` words, least significant
        first.  Each round takes exactly as many words as values are still
        missing, so no word beyond the last accepted one is consumed: the
        values and the final RNG state match one-at-a-time draws.
        """
        k = n.bit_length()
        if k > 32:
            raise ValueError(f"{n} logical pages exceed 32-bit page numbers")
        out = [np.empty(0, dtype=np.int64)]
        need = count
        while need:
            raw = self.rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            vals = np.frombuffer(raw, dtype="<u4") >> (32 - k)
            vals = vals[vals < n]
            out.append(vals.astype(np.int64))
            need -= len(vals)
        return np.concatenate(out)

    def _append_run(self, pages: np.ndarray, chans: np.ndarray, max_allocs: int) -> int:
        """Append host ``pages[i]`` to channel ``chans[i]`` in order, in bulk.

        Leaves the state of one :meth:`_append_page` per page (stream 0),
        stopping after the append that allocates the ``max_allocs``-th new
        block; the free pool must hold that many.  Returns the number of
        pages appended.
        """
        ppb = self.profile.pages_per_block
        nchan = self.profile.channels
        active, fill = self._host_active[0], self._host_fill[0]
        # Every ppb appends on a channel allocate at least one block, so
        # this prefix reaches the max_allocs-th allocation if any does.
        n = min(len(pages), (max_allocs + nchan) * ppb)
        pages, chans = pages[:n], chans[:n]
        # Slot position of each append along its channel, counted from the
        # open block's first slot; a channel with no open block starts full.
        start = np.array([ppb if b is None else f for b, f in zip(active, fill)])
        counts = np.bincount(chans, minlength=nchan)
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(chans, kind="stable")] = np.arange(n) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        position = start[chans] + rank
        slot = position % ppb
        nth = position // ppb  # 0: the open block, k: the channel's k-th new one
        alloc_at = np.flatnonzero((slot == 0) & (nth > 0))
        if len(alloc_at) >= max_allocs:
            alloc_at = alloc_at[:max_allocs]
            n = int(alloc_at[-1]) + 1
            pages, chans, slot, nth = pages[:n], chans[:n], slot[:n], nth[:n]
        # Free blocks are popped in global append order, each stamped with
        # the host clock of the append that opened it.
        fresh = np.array(
            [self.free_blocks.popleft() for _ in range(len(alloc_at))],
            dtype=np.int64,
        )
        self.block_channel[fresh] = chans[alloc_at]
        self.block_seq[fresh] = self.write_seq + 1 + alloc_at
        lut = np.full((nchan, int(nth.max()) + 1), UNMAPPED, dtype=np.int64)
        lut[:, 0] = [UNMAPPED if b is None else b for b in active]
        lut[chans[alloc_at], nth[alloc_at]] = fresh
        block = lut[chans, nth]
        self.block_slots[block, slot] = pages
        # Last writer wins: each page's final copy is its last append, and
        # every earlier copy, in the run or before it, lost its valid page.
        uniq, first_rev = np.unique(pages[::-1], return_index=True)
        final = block[n - 1 - first_rev]
        old = self.page_to_block[uniq]
        nb = len(self.block_valid)
        self.block_valid -= np.bincount(old[old != UNMAPPED], minlength=nb).astype(np.int32)
        self.block_valid += np.bincount(final, minlength=nb).astype(np.int32)
        self.page_to_block[uniq] = final
        # Each channel's last append leaves its open block and fill.
        counts = np.bincount(chans, minlength=nchan)  # the run as cut
        for c in np.flatnonzero(counts).tolist():
            last = int(start[c] + counts[c] - 1)
            active[c] = int(lut[c, last // ppb])
            fill[c] = last % ppb + 1
        self.write_seq += n
        return n

    def _sync_gc(self) -> None:
        """Run GC to the high watermark with no simulated time cost."""
        while not self.gc_satisfied:
            if self.collect_victim() is None:  # pragma: no cover - defensive
                break
