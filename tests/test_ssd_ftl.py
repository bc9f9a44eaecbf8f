"""Unit tests for the flash translation layer."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.ssd.ftl import UNMAPPED, Ftl
from repro.ssd.profiles import PROFILES, SsdProfile

KIB = 1024
MIB = 1024 * 1024


def small_profile(**overrides) -> SsdProfile:
    defaults = dict(
        name="tiny",
        channels=4,
        logical_capacity=16 * MIB,
        overprovision=0.5,
    )
    defaults.update(overrides)
    return SsdProfile(**defaults)


def make_ftl(**overrides) -> Ftl:
    return Ftl(small_profile(**overrides), seed=7)


def test_geometry_sanity():
    profile = small_profile()
    assert profile.block_size == 256 * KIB
    assert profile.physical_capacity == 24 * MIB
    assert profile.logical_pages == 4096
    assert profile.physical_blocks == 96


def test_too_few_blocks_rejected():
    with pytest.raises(ValueError):
        Ftl(small_profile(logical_capacity=1 * MIB, channels=10))


def test_write_maps_pages():
    ftl = make_ftl()
    plan = ftl.host_write(0, 8 * KIB)
    assert plan.pages == 2
    assert plan.program_pages == 2
    assert ftl.page_to_block[0] != UNMAPPED
    assert ftl.page_to_block[1] != UNMAPPED
    assert ftl.page_to_block[2] == UNMAPPED


def test_small_write_lands_on_one_channel():
    ftl = make_ftl()
    plan = ftl.host_write(0, 16 * KIB)  # 4 pages < stripe (8 pages)
    assert len(plan.programs) == 1
    assert plan.programs[0][1] == 4


def test_large_write_stripes_across_channels():
    ftl = make_ftl()
    stripe_bytes = ftl.profile.stripe_pages * ftl.profile.page_size
    plan = ftl.host_write(0, 3 * stripe_bytes)  # 3 stripe chunks
    assert len(plan.programs) == 3
    assert all(n == ftl.profile.stripe_pages for _c, n in plan.programs)


def test_consecutive_small_writes_rotate_channels():
    ftl = make_ftl()
    chans = [ftl.host_write(i * 4096, 4096).programs[0][0] for i in range(4)]
    assert len(set(chans)) == 4  # profile has 4 channels


def test_subpage_write_programs_full_page():
    ftl = make_ftl()
    plan = ftl.host_write(0, 1 * KIB)
    assert plan.pages == 1
    assert plan.program_pages == 1


def test_unaligned_span_counts_pages():
    ftl = make_ftl()
    # 1KB..9KB touches pages 0, 1, 2
    plan = ftl.host_write(1 * KIB, 8 * KIB)
    assert plan.pages == 3


def test_overwrite_invalidates_old_copy():
    ftl = make_ftl()
    ftl.host_write(0, 4 * KIB)
    old_block = int(ftl.page_to_block[0])
    old_valid = int(ftl.block_valid[old_block])
    ftl.host_write(0, 4 * KIB)
    assert int(ftl.block_valid[old_block]) == old_valid - 1 or \
        int(ftl.page_to_block[0]) != old_block


def test_valid_counts_conserved():
    ftl = make_ftl()
    for i in range(100):
        ftl.host_write((i % 50) * 4 * KIB, 4 * KIB)
    mapped = int((ftl.page_to_block != UNMAPPED).sum())
    assert mapped == 50
    assert int(ftl.block_valid.sum()) == 50


def test_trim_unmaps_and_frees_valid():
    ftl = make_ftl()
    ftl.host_write(0, 64 * KIB)
    assert ftl.trim(0, 64 * KIB) == 16
    assert int(ftl.block_valid.sum()) == 0
    assert ftl.page_to_block[0] == UNMAPPED
    # Double trim is a no-op.
    assert ftl.trim(0, 64 * KIB) == 0


def test_read_channels_covers_span():
    ftl = make_ftl()
    ftl.host_write(0, 32 * KIB)
    chunks = ftl.read_channels(0, 32 * KIB)
    assert sum(pages for _c, pages, _b in chunks) == 8
    assert sum(nbytes for _c, _p, nbytes in chunks) == 32 * KIB


def test_read_channels_subpage_transfers_partial_bytes():
    ftl = make_ftl()
    ftl.host_write(0, 4 * KIB)
    chunks = ftl.read_channels(0, 1 * KIB)
    assert len(chunks) == 1
    _c, pages, nbytes = chunks[0]
    assert pages == 1 and nbytes == 1 * KIB


def test_read_unmapped_uses_lba_striping():
    ftl = make_ftl()
    chunks = ftl.read_channels(0, 16 * KIB)
    # 4 consecutive unmapped pages -> 4 distinct channels.
    assert len(chunks) == 4


def test_io_bounds_checked():
    ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.host_write(-4096, 4096)
    with pytest.raises(ValueError):
        ftl.host_write(0, 0)
    with pytest.raises(ValueError):
        ftl.read_channels(ftl.profile.logical_capacity, 4096)


def test_gc_reclaims_space():
    ftl = make_ftl()
    ftl.precondition(age_factor=1.0)
    # Burn free blocks with overwrites until below the low watermark.
    i = 0
    while not ftl.gc_needed:
        ftl.host_write((i % ftl.profile.logical_pages) * 4096, 4096)
        i += 1
    while not ftl.gc_satisfied:
        move = ftl.collect_victim()
        assert move is not None
        assert 0 <= move.valid_pages <= ftl.profile.pages_per_block
    assert len(ftl.free_blocks) >= ftl._gc_high_blocks  # pool recovered


def test_gc_preserves_mapping_integrity():
    ftl = make_ftl()
    ftl.precondition(age_factor=2.0)
    # Every mapped page's block must claim it as valid.
    mapped = int((ftl.page_to_block != UNMAPPED).sum())
    assert mapped == ftl.profile.logical_pages
    assert int(ftl.block_valid.sum()) == mapped
    # Valid count per block never exceeds block capacity.
    assert int(ftl.block_valid.max()) <= ftl.profile.pages_per_block


def test_gc_victim_excludes_active_blocks():
    ftl = make_ftl()
    ftl.precondition(age_factor=1.0)
    victim = ftl.pick_victim()
    assert victim is not None
    active = {b for b in ftl.active_blocks() if b is not None}
    assert victim not in active


def test_precondition_reaches_steady_state_amplification():
    ftl = make_ftl()
    ftl.precondition(age_factor=2.0)
    # After aging, victims should carry noticeably fewer valid pages
    # than a full block — otherwise GC would be a death spiral.
    victim = ftl.pick_victim()
    assert int(ftl.block_valid[victim]) < ftl.profile.pages_per_block * 0.8


def test_no_emergency_gc_during_precondition():
    ftl = make_ftl()
    ftl.precondition(age_factor=2.0)
    assert ftl.emergency_gcs == 0


def test_host_starved_flag():
    ftl = make_ftl()
    assert not ftl.host_starved
    # Drain the pool to the reserve.
    reserve = ftl.profile.gc_reserve_blocks
    while len(ftl.free_blocks) > reserve + 2:
        ftl._allocate_block(0)
    assert ftl.host_starved


# ---------------------------------------------------------------------------
# Bulk preconditioning: pinned aged state and a per-page reference
# ---------------------------------------------------------------------------


def _appended(ftl: Ftl, block: int) -> list:
    """Pages appended to ``block`` since it was opened, in append order."""
    n = ftl.profile.pages_per_block
    lanes = list(zip(ftl._host_active, ftl._host_fill))
    lanes.append((ftl._gc_active, ftl._gc_fill))
    for active, fill in lanes:
        if block in active:
            n = fill[active.index(block)]
    return ftl.block_slots[block, :n].tolist()


def ftl_fingerprint(ftl: Ftl) -> str:
    """sha256 over every piece of FTL state a later operation can observe.

    Page map, valid counts, block channels and birth stamps, free-pool
    order, open blocks with their fills and cursors, the host clock, the
    RNG state, and the live pages of each allocated block in append
    order (the order GC evacuates them in).
    """
    h = hashlib.sha256()
    for arr in (ftl.page_to_block, ftl.block_valid, ftl.block_channel, ftl.block_seq):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((
        list(ftl.free_blocks), ftl._host_active, ftl._host_fill, ftl._host_cursor,
        ftl._gc_active, ftl._gc_fill, ftl._gc_cursor, ftl.write_seq,
        ftl.emergency_gcs, ftl.rng.getstate(),
    )).encode())
    live = [
        (b, [p for p in _appended(ftl, b) if ftl.page_to_block[p] == b])
        for b in range(len(ftl.block_valid))
        if ftl.block_channel[b] >= 0
    ]
    h.update(repr(live).encode())
    return h.hexdigest()[:16]


#: ftl_fingerprint after Ftl(profile.with_capacity(24 MiB), seed=7,
#: policy).precondition(age), recorded from the per-page preconditioning
#: loop the bulk path replaced.  Also pins CPython's randrange/getrandbits
#: word layout on every Python version CI runs.  (nvme and oczvector share
#: flash geometry, so their aged states coincide.)
PINNED_PRECONDITION = {
    ("intel320", "greedy", 0.0): "721a21f4765d14e1",
    ("intel320", "greedy", 0.5): "9999193f729115d6",
    ("intel320", "greedy", 1.37): "4ec83b768c0fc97e",
    ("intel320", "greedy", 2.0): "1fd1475db1553460",
    ("intel320", "costbenefit", 0.0): "721a21f4765d14e1",
    ("intel320", "costbenefit", 0.5): "4be1d882ba9a3f19",
    ("intel320", "costbenefit", 1.37): "e1303687951afbca",
    ("intel320", "costbenefit", 2.0): "24141b36ce083017",
    ("intel320", "hotcold", 0.0): "f129c1dd578d5bf1",
    ("intel320", "hotcold", 0.5): "8a5fb93940fe62f2",
    ("intel320", "hotcold", 1.37): "46a33db8bc30f24e",
    ("intel320", "hotcold", 2.0): "1eb5dbd471c7c3b4",
    ("samsung840", "greedy", 0.0): "721a21f4765d14e1",
    ("samsung840", "greedy", 0.5): "9999193f729115d6",
    ("samsung840", "greedy", 1.37): "4ec83b768c0fc97e",
    ("samsung840", "greedy", 2.0): "1fd1475db1553460",
    ("samsung840", "costbenefit", 0.0): "721a21f4765d14e1",
    ("samsung840", "costbenefit", 0.5): "4be1d882ba9a3f19",
    ("samsung840", "costbenefit", 1.37): "e1303687951afbca",
    ("samsung840", "costbenefit", 2.0): "24141b36ce083017",
    ("samsung840", "hotcold", 0.0): "f129c1dd578d5bf1",
    ("samsung840", "hotcold", 0.5): "8a5fb93940fe62f2",
    ("samsung840", "hotcold", 1.37): "46a33db8bc30f24e",
    ("samsung840", "hotcold", 2.0): "1eb5dbd471c7c3b4",
    ("oczvector", "greedy", 0.0): "3d9c9a8c803340ce",
    ("oczvector", "greedy", 0.5): "c8f7d97666fcce22",
    ("oczvector", "greedy", 1.37): "4af5e015a541134e",
    ("oczvector", "greedy", 2.0): "b33602bf87e64a79",
    ("oczvector", "costbenefit", 0.0): "3d9c9a8c803340ce",
    ("oczvector", "costbenefit", 0.5): "d489e87d4c82f057",
    ("oczvector", "costbenefit", 1.37): "05770c29c24b14f8",
    ("oczvector", "costbenefit", 2.0): "e7fbf3f5b3f42eae",
    ("oczvector", "hotcold", 0.0): "04f44ea1cc69d0f7",
    ("oczvector", "hotcold", 0.5): "e7309a541fafd95d",
    ("oczvector", "hotcold", 1.37): "a03974a37834f804",
    ("oczvector", "hotcold", 2.0): "135a1c1595592581",
    ("nvme", "greedy", 0.0): "3d9c9a8c803340ce",
    ("nvme", "greedy", 0.5): "c8f7d97666fcce22",
    ("nvme", "greedy", 1.37): "4af5e015a541134e",
    ("nvme", "greedy", 2.0): "b33602bf87e64a79",
    ("nvme", "costbenefit", 0.0): "3d9c9a8c803340ce",
    ("nvme", "costbenefit", 0.5): "d489e87d4c82f057",
    ("nvme", "costbenefit", 1.37): "05770c29c24b14f8",
    ("nvme", "costbenefit", 2.0): "e7fbf3f5b3f42eae",
    ("nvme", "hotcold", 0.0): "04f44ea1cc69d0f7",
    ("nvme", "hotcold", 0.5): "e7309a541fafd95d",
    ("nvme", "hotcold", 1.37): "a03974a37834f804",
    ("nvme", "hotcold", 2.0): "135a1c1595592581",
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_precondition_state_is_pinned(name):
    profile = PROFILES[name].with_capacity(24 * MIB)
    got = {}
    for policy in ("greedy", "costbenefit", "hotcold"):
        for age in (0.0, 0.5, 1.37, 2.0):
            ftl = Ftl(profile, seed=7, policy=policy)
            ftl.precondition(age_factor=age)
            got[policy, age] = ftl_fingerprint(ftl)
    want = {
        (policy, age): digest
        for (prof, policy, age), digest in PINNED_PRECONDITION.items()
        if prof == name
    }
    assert got == want


def reference_precondition(ftl: Ftl, age_factor: float) -> None:
    """The per-page preconditioning loop: one append, then the GC check."""
    n_pages = ftl.profile.logical_pages
    nchan = ftl.profile.channels
    stripe = ftl.profile.stripe_pages
    for p in range(n_pages):
        ftl._append_page(p, (p // stripe) % nchan)
        if ftl.gc_needed:
            ftl._sync_gc()
    for i in range(int(n_pages * age_factor)):
        chan = (ftl._host_cursor[0] + i) % nchan
        ftl._append_page(ftl.rng.randrange(n_pages), chan)
        if ftl.gc_needed:
            ftl._sync_gc()
    ftl._sync_gc()
    ftl.emergency_gcs = 0


def _prop_profile(channels, stripe, pages_per_block, logical_pages, overprovision):
    return SsdProfile(
        name="prop", channels=channels, stripe_pages=stripe,
        pages_per_block=pages_per_block,
        logical_capacity=logical_pages * 4 * KIB, overprovision=overprovision,
    )


def _gc_can_settle(profile: SsdProfile) -> bool:
    """Room for the live data, every open block and the GC high watermark.

    Without it synchronous GC never reaches its target (evacuating full
    blocks frees nothing), on either preconditioning path.
    """
    if profile.physical_blocks <= profile.gc_reserve_blocks + 2 * profile.channels:
        return False
    ftl = Ftl(profile)
    data_blocks = -(-profile.logical_pages // profile.pages_per_block)
    spare = profile.physical_blocks - ftl._gc_high_blocks
    return spare >= data_blocks + 3 * profile.channels + 2


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    age_factor=st.floats(0.0, 2.5),
    channels=st.integers(1, 8),
    stripe=st.integers(1, 12),
    pages_per_block=st.sampled_from([8, 12, 16, 32]),
    # powers of two make half of randrange's raw draws rejections
    logical_pages=st.one_of(
        st.sampled_from([512, 1024, 2048, 4096]), st.integers(500, 4000)
    ),
    overprovision=st.floats(0.3, 1.5),
    policy=st.sampled_from(["greedy", "costbenefit", "hotcold"]),
    passes=st.integers(1, 2),
    # host writes first: partly filled open blocks, a second stream, or a
    # pool already at the GC trigger when aging starts
    prewrites=st.integers(0, 600),
)
def test_bulk_precondition_matches_per_page_reference(
    seed, age_factor, channels, stripe, pages_per_block, logical_pages,
    overprovision, policy, passes, prewrites,
):
    profile = _prop_profile(
        channels, stripe, pages_per_block, logical_pages, overprovision
    )
    assume(_gc_can_settle(profile))
    bulk = Ftl(profile, seed=seed, policy=policy)
    ref = Ftl(profile, seed=seed, policy=policy)
    writes = random.Random(seed)
    for _ in range(prewrites):
        if bulk.gc_needed:  # stop at the GC trigger: aging starts from there
            break
        pages = writes.randint(1, 3 * stripe)
        first = writes.randrange(logical_pages - pages + 1)
        for ftl in (bulk, ref):
            ftl.host_write(first * 4 * KIB, pages * 4 * KIB)
    for _ in range(passes):
        bulk.precondition(age_factor=age_factor)
        reference_precondition(ref, age_factor)
        assert ftl_fingerprint(bulk) == ftl_fingerprint(ref)


def test_gc_window_can_end_mid_stripe(monkeypatch):
    """Re-preconditioning an aged FTL triggers GC inside the LBA fill,
    at appends that are not on a stripe boundary; bulk still matches."""
    profile = _prop_profile(3, 5, 12, 1024, 1.0)
    bulk = Ftl(profile, seed=3)
    ref = Ftl(profile, seed=3)
    bulk.precondition(age_factor=1.0)
    reference_precondition(ref, 1.0)
    fill_start = bulk.write_seq
    triggers = []
    sync_gc = Ftl._sync_gc

    def spy(self):
        triggers.append(self.write_seq - fill_start)
        sync_gc(self)

    monkeypatch.setattr(Ftl, "_sync_gc", spy)
    bulk.precondition(age_factor=0.0)  # all fill: every trigger but the last
    assert any(t % profile.stripe_pages for t in triggers[:-1])
    monkeypatch.undo()
    reference_precondition(ref, 0.0)
    assert ftl_fingerprint(bulk) == ftl_fingerprint(ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4096, 6000, 2**20])
def test_bulk_page_draws_match_randrange(n):
    ftl = Ftl(small_profile(), seed=11)
    rng = random.Random(11)
    want = [rng.randrange(n) for _ in range(5000)]
    assert ftl._draw_pages(n, 5000).tolist() == want
    assert ftl.rng.getstate() == rng.getstate()
