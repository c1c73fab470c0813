"""Cache timing model: LRU correctness and hierarchy latencies."""

from hypothesis import given, strategies as st

from repro.mem import Cache, MemoryHierarchy
from repro.pipeline import O3Core, baseline_config
from repro.pipeline.config import MemConfig
from repro.workloads import get_workload


def test_cache_hit_after_fill():
    cache = Cache("t", size_bytes=1024, assoc=2, line_bytes=64, latency=3)
    assert not cache.lookup(0x100)
    cache.fill(0x100)
    assert cache.lookup(0x100)
    assert cache.lookup(0x13F)   # same line
    assert not cache.lookup(0x140)


def test_cache_lru_eviction():
    # 2 ways, 1 set: 128-byte cache with 64-byte lines.
    cache = Cache("t", size_bytes=128, assoc=2, line_bytes=64, latency=3)
    cache.fill(0 * 64)
    cache.fill(2 * 64)
    cache.lookup(0)              # make line 0 most recent
    cache.fill(4 * 64)           # evicts line 2*64
    assert cache.lookup(0)
    assert not cache.lookup(2 * 64)
    assert cache.lookup(4 * 64)


def test_dirty_writeback_counted():
    cache = Cache("t", size_bytes=128, assoc=1, line_bytes=64, latency=3)
    cache.fill(0, dirty=True)
    wrote_back = cache.fill(128)   # conflicting set, dirty victim
    assert wrote_back
    assert cache.writebacks == 1


@given(st.lists(st.integers(min_value=0, max_value=31), max_size=200))
def test_cache_matches_reference_lru(addresses):
    """Fully-associative reference LRU vs the model with 1 set."""
    cache = Cache("t", size_bytes=4 * 64, assoc=4, line_bytes=64, latency=3)
    reference = []  # list of line ids, most recent last
    for line in addresses:
        addr = line * 64
        hit = cache.lookup(addr)
        ref_hit = line in reference
        assert hit == ref_hit
        if ref_hit:
            reference.remove(line)
        elif len(reference) == 4:
            reference.pop(0)
        reference.append(line)
        cache.fill(addr)


def test_hierarchy_latencies():
    hier = MemoryHierarchy(MemConfig(l1d_size=128, l1d_assoc=2,
                                     l2_size=1024, l2_assoc=2))
    assert hier.access(0x1000) == 120       # cold
    assert hier.access(0x1000) == 3         # L1 hit
    assert hier.access(0x1008) == 3         # same line
    # Evict from the single-set L1 with lines that land in *different*
    # L2 sets, so 0x1000 stays L2-resident.
    hier.access(0x1040)
    hier.access(0x1080)
    assert hier.access(0x1000) == 12        # L1 miss, L2 hit


def test_hierarchy_stats():
    hier = MemoryHierarchy(MemConfig())
    hier.access(0)
    hier.access(0)
    stats = hier.stats()
    assert stats["l1_hits"] == 1
    assert stats["l1_misses"] == 1
    assert stats["dram_accesses"] == 1


def test_flat_core_reads_mem_geometry():
    """The flat model and store-to-load forwarding take ``mem.*``."""
    _mod, prog = get_workload("bfs").build(0.05)
    default = O3Core(prog, baseline_config())
    small = O3Core(prog, baseline_config(mem={
        "l1d_size": 1024, "l1d_assoc": 2, "l1d_latency": 5}))
    assert small.hierarchy.l1.size_bytes == 1024
    assert small.hierarchy.l1.latency == 5
    assert small.execute_stage.fwd_latency == 5
    base, tiny = default.run().stats, small.run().stats
    assert small.hierarchy.l1.misses > default.hierarchy.l1.misses
    assert tiny.cycles > base.cycles
