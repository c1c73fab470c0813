"""Port-based memory system (``mem.model = "ported"``).

Covers the port/MSHR timing model in isolation (merge, stall,
bandwidth, squash survival), the dirty-propagation fix shared with the
flat hierarchy, the hypothesis latency-bounds property, and the
core-level contracts: lockstep-green ported runs across the micro
matrix, MSHR occupancy > 1 on the MLP probe, wrong-path fills visible
to the correct path, and event/counter agreement.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    Cache,
    MemPort,
    MemoryHierarchy,
    MSHRFile,
    PortedMemorySystem,
)
from repro.obs import (
    CallbackSink,
    MetricsSink,
    Observability,
    run_lockstep,
)
from repro.obs.events import CommitEvent, MemAccessEvent, SquashEvent
from repro.pipeline import O3Core, baseline_config, mssr_config
from repro.pipeline.config import MemConfig
from repro.workloads import get_workload

_LINE = 64


def _port(mshrs=4, ports=2, l1_size=128, l1_assoc=1, l2_size=1024,
          l2_assoc=2):
    l1 = Cache("L1D", l1_size, l1_assoc, _LINE, latency=3)
    l2 = Cache("L2", l2_size, l2_assoc, _LINE, latency=12)
    return MemPort("dport", l1, l2, dram_latency=120, mshrs=mshrs,
                   ports=ports)


# ---------------------------------------------------------------------------
# Cache generalisation
# ---------------------------------------------------------------------------
def test_probe_has_no_side_effects():
    cache = Cache("t", 128, 2, _LINE, 3)
    cache.fill(0)
    hits, misses, tick = cache.hits, cache.misses, cache._tick
    assert cache.probe(0)
    assert not cache.probe(2 * _LINE)
    assert (cache.hits, cache.misses, cache._tick) == (hits, misses, tick)


def test_fill_tracks_victim_and_counts():
    cache = Cache("t", 64, 1, _LINE, 3)       # one line total
    cache.fill(0, dirty=True)
    assert cache.fills == 1
    assert cache.last_victim_line is None     # free way, no victim
    wrote_back = cache.fill(2 * _LINE)
    assert wrote_back
    assert cache.fills == 2
    assert cache.last_victim_line == 0
    assert cache.last_victim_dirty
    cache.fill(2 * _LINE, dirty=True)         # fill-hit: no new victim
    assert cache.fills == 2
    assert cache.last_victim_line is None


def test_flush_returns_dirty_count():
    cache = Cache("t", 512, 2, _LINE, 3)
    cache.fill(0, dirty=True)
    cache.fill(2 * _LINE, dirty=True)
    cache.fill(5 * _LINE)
    assert cache.flush() == 2
    assert not cache.probe(0)
    assert cache.flush() == 0


# ---------------------------------------------------------------------------
# Dirty propagation (the flat-model write-miss fix, shared by the port)
# ---------------------------------------------------------------------------
def test_store_miss_marks_l2_copy_dirty():
    # Regression: a write miss used to install the L2 copy clean, so the
    # store's dirt vanished once the L1 copy was silently reused.
    hier = MemoryHierarchy(MemConfig(l1d_size=128, l1d_assoc=2,
                                     l2_size=1024, l2_assoc=2))
    hier.access(0x1000, is_write=True)        # miss all the way to DRAM
    assert hier.l2.flush() == 1               # the L2 copy is dirty


def test_l1_dirty_victim_propagates_to_l2():
    # Write-hit dirties only the L1 copy; evicting it must push the
    # dirty state down into the (clean) L2 copy.
    hier = MemoryHierarchy(MemConfig(l1d_size=128, l1d_assoc=2,
                                     l2_size=2048, l2_assoc=4))
    hier.access(0x1000)                       # clean fill everywhere
    hier.access(0x1000, is_write=True)        # L1 write hit: L1 dirty only
    # Two clean reads conflicting in the single L1 set but landing in
    # different L2 sets evict 0x1000 from L1.
    hier.access(0x1040)
    hier.access(0x1080)
    assert not hier.l1.probe(0x1000)
    assert hier.l2.flush() == 1               # dirt arrived in L2


def test_port_propagates_dirty_victim():
    port = _port(l1_size=64, l1_assoc=1, l2_size=2048, l2_assoc=4)
    port.request(0, 0x1000, is_write=True)    # L1+L2 copies dirty
    port.request(200, 0x1040)                 # clean fill evicts 0x1000
    assert not port.l1.probe(0x1000)
    assert port.l2.flush() >= 1


# ---------------------------------------------------------------------------
# MSHR file + port timing
# ---------------------------------------------------------------------------
def test_mshr_file_basics():
    mshrs = MSHRFile(2)
    mshrs.allocate(1, 120)
    mshrs.allocate(2, 50)
    assert mshrs.full() and mshrs.peak == 2
    assert mshrs.earliest() == 50
    assert mshrs.pending(1) == 120
    mshrs.drain(50)
    assert mshrs.occupancy() == 1 and not mshrs.full()
    assert mshrs.pending(2) is None
    with pytest.raises(ValueError):
        MSHRFile(0)


def test_same_line_miss_merges():
    port = _port()
    done = port.request(0, 0x1000)
    assert done == 120                        # cold DRAM miss
    merged = port.request(1, 0x1008)          # same line, fill in flight
    assert merged == done                     # rides the existing fill
    assert port.mshrs.merges == 1
    assert port.l2.misses == 1                # no duplicate L2 probe


def test_merge_checked_before_eager_l1_tags():
    # Fills are eager, so without the merge-first ordering this request
    # would fake an L1 hit (cycle 1 + 3) while the data is in flight.
    port = _port()
    port.request(0, 0x1000)
    assert port.l1.probe(0x1000)              # tags already updated
    assert port.request(1, 0x1000) == 120     # but timing says: wait


def test_mshr_full_stalls_until_earliest_fill():
    port = _port(mshrs=2, ports=8)
    a = port.request(0, 0x1000)
    b = port.request(0, 0x2000)
    assert a == b == 120
    c = port.request(0, 0x3000)               # both MSHRs busy
    assert port.mshrs.stalls == 1
    assert c == 240                           # waits to 120, then DRAM


def test_port_bandwidth_staggers_same_cycle_requests():
    port = _port(ports=1)
    port.l1.fill(0)
    port.l1.fill(_LINE)                       # different L1 sets
    assert port.request(5, 0) == 8            # first of the cycle
    assert port.request(5, _LINE) == 9        # second starts a cycle late


def test_independent_misses_overlap():
    # The whole point of the ported model: two misses in flight cost one
    # DRAM round-trip of wall-clock, not two.
    port = _port(ports=2)
    a = port.request(0, 0x1000)
    b = port.request(0, 0x2000)
    assert a == 120 and b == 120
    assert port.mshrs.peak == 2


def test_mshr_entries_survive_squash():
    # A squash never deallocates MSHR entries: the fill completes and
    # warms the caches for whoever asks next.
    port = _port()
    done = port.request(0, 0x1000)            # wrong-path miss
    # ... the requesting instruction is squashed here; the port hears
    # nothing.  A later same-line request still merges onto the fill,
    assert port.request(10, 0x1000) == done
    assert port.mshrs.merges == 1
    # and after the fill lands the line is simply resident.
    assert port.request(done + 1, 0x1000) == done + 1 + 3
    assert port.l1.hits == 1


# ---------------------------------------------------------------------------
# Latency bounds (hypothesis)
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=127),
                          st.booleans(),
                          st.integers(min_value=0, max_value=3)),
                max_size=120))
def test_request_latency_bounds(ops):
    """Every completion lies in [cycle + L1 hit, queueing + DRAM]."""
    port = _port(mshrs=4, ports=2, l1_size=4 * _LINE, l1_assoc=2,
                 l2_size=16 * _LINE, l2_assoc=2)
    cycle = 0
    horizon = 0                               # max completion seen so far
    for line, is_write, advance in ops:
        cycle += advance
        done = port.request(cycle, line * _LINE, is_write=is_write)
        assert done >= cycle + port.l1.latency
        # start <= max(cycle + bw backlog, earliest in-flight fill) and
        # the worst residency added on top of start is one DRAM trip.
        bw_backlog = (len(ops) - 1) // port.ports
        assert done <= max(horizon, cycle + bw_backlog) \
            + port.dram_latency
        horizon = max(horizon, done)


# ---------------------------------------------------------------------------
# PortedMemorySystem: shared L2, flat-compatible warm surface
# ---------------------------------------------------------------------------
def test_l1i_and_l1d_share_one_l2():
    system = PortedMemorySystem(MemConfig())
    assert isinstance(system.l1i, Cache) and isinstance(system.l1d, Cache)
    assert system.iport.l2 is system.dport.l2 is system.l2
    # An instruction fetch warms the unified L2 for the data side.
    delay = system.icache.access(0x4000, 0x4000, cycle=0)
    assert delay == 120                       # cold: DRAM through L2
    assert system.dport.request(500, 0x4000) == 500 + 12   # L2 hit


def test_warm_paths_populate_without_mshr_traffic():
    system = PortedMemorySystem(MemConfig())
    system.warm(0x2000, is_write=True)
    system.warm_inst(0x8000)
    assert system.l1d.probe(0x2000) and system.l2.probe(0x2000)
    assert system.l1i.probe(0x8000) and system.l2.probe(0x8000)
    assert system.dport.mshrs.occupancy() == 0
    assert system.iport.mshrs.occupancy() == 0
    stats = system.stats()
    assert stats["dram_accesses"] == 0        # warmup is not timed traffic
    assert {"mshr_merges", "mshr_stalls", "mshr_peak"} <= set(stats)


def test_ported_model_rejects_legacy_icache_knob():
    with pytest.raises(ValueError, match="icache_lines"):
        baseline_config(frontend={"decoupled": True, "icache_lines": 64},
                        mem={"model": "ported"})


# ---------------------------------------------------------------------------
# Core-level: lockstep correctness, MLP, wrong-path fills, events
# ---------------------------------------------------------------------------
_SCALE = 0.05

_MICROS = ["nested-mispred", "linear-mispred", "ptr-chase",
           "ptr-chase-dep"]


def _ported_config(kind, **mem):
    overrides = {"model": "ported"}
    overrides.update(mem)
    if kind == "mssr":
        return mssr_config(num_streams=2, mem=overrides)
    return baseline_config(mem=overrides)


@pytest.mark.parametrize("kind", ["baseline", "mssr"])
@pytest.mark.parametrize("name", _MICROS)
def test_ported_lockstep_micro_matrix(name, kind):
    _mod, prog = get_workload(name).build(_SCALE)
    outcome = run_lockstep(prog, _ported_config(kind))
    assert outcome.ok, "%s/%s:\n%s" % (name, kind,
                                       outcome.divergence.format())


def test_ported_lockstep_with_tiny_caches():
    # Small caches + 1 MSHR + 1 port: constant eviction, merging and
    # stalling; squash reuse must still be architecturally invisible.
    _mod, prog = get_workload("nested-mispred").build(_SCALE)
    config = _ported_config("mssr", l1d_size=1024, l2_size=8192,
                            mshrs=1, ports=1)
    outcome = run_lockstep(prog, config)
    assert outcome.ok, outcome.divergence.format()


def test_ptr_chase_exposes_mlp():
    _mod, prog = get_workload("ptr-chase").build(0.1)
    result = O3Core(prog, _ported_config("baseline")).run()
    stats = result.stats
    assert stats.mem_mshr_peak > 1            # overlapping misses
    assert stats.mem_dram_accesses > 0
    _mod, dep_prog = get_workload("ptr-chase-dep").build(0.1)
    dep = O3Core(dep_prog, _ported_config("baseline")).run()
    # The dependent chain can't overlap its misses and pays for it.
    assert stats.mem_mshr_peak > dep.stats.mem_mshr_peak
    assert dep.stats.cycles > result.stats.cycles


def test_wrong_path_fill_visible_to_correct_path():
    """A squashed-stream load's fill warms the hierarchy: some line is
    first touched (L2/DRAM) by a never-committed seq, and a later
    committed access to it hits."""
    _mod, prog = get_workload("mcf").build(0.3)
    events = []
    obs = Observability(sinks=[CallbackSink(events.append)])
    result = O3Core(prog, _ported_config("mssr"), obs=obs).run()
    assert result.stats.mem_wrong_path_insts > 0

    squashed, committed = set(), set()
    by_line = {}
    for event in events:
        kind = type(event)
        if kind is SquashEvent:
            squashed.update(event.squashed_seqs)
        elif kind is CommitEvent:
            committed.add(event.seq)
        elif kind is MemAccessEvent:
            by_line.setdefault(event.addr // _LINE, []).append(event)

    warmed = False
    for accesses in by_line.values():
        first = accesses[0]
        if first.level not in ("l2", "dram"):
            continue
        if first.seq not in squashed or first.seq in committed:
            continue
        if any(later.seq in committed
               and later.level in ("l1", "l2", "mshr")
               for later in accesses[1:]):
            warmed = True
            break
    assert warmed


def test_metrics_sink_recomputes_mem_counters():
    _mod, prog = get_workload("ptr-chase").build(0.08)
    metrics = MetricsSink()
    obs = Observability(sinks=[metrics])
    result = O3Core(prog, _ported_config("mssr"), obs=obs).run()
    assert result.stats.mem_accesses > 0
    assert metrics.verify(result.stats) == []

