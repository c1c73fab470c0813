"""The pipeline event bus and its metrics view.

An :class:`Observability` instance is the single funnel through which
the simulator explains itself. It plays two roles:

* **metrics view** — it owns the run's
  :class:`~repro.pipeline.stats.SimStats` and exposes one typed helper
  per countable moment (``commit``, ``squash``, ``reconverge``, ...).
  Call sites never poke counters directly any more, so a counter and
  its corresponding event can never drift apart.
* **event bus** — when at least one sink is attached (``enabled``),
  the same helpers (plus the guarded ``emit_*`` helpers for the
  counter-less stages) construct typed event records and fan them out
  to every sink.

The disabled path is the default and is kept near-zero-overhead: no
event objects are built, and hot stages guard emission with a single
``if core.obs.enabled`` attribute test.
"""

from repro.obs.events import (
    CommitEvent,
    FetchEvent,
    FetchStallEvent,
    FtqEnqueueEvent,
    IcacheAccessEvent,
    IntervalEvent,
    IssueEvent,
    MemAccessEvent,
    ReconvergeEvent,
    RenameEvent,
    ReuseAttemptEvent,
    SquashEvent,
    WritebackEvent,
    WrongPathCaptureEvent,
)
from repro.pipeline.stats import SimStats


class Observability:
    """Typed event bus + the :class:`SimStats` metrics view over it."""

    __slots__ = ("stats", "sinks", "enabled", "cycle")

    def __init__(self, stats=None, sinks=()):
        self.stats = stats if stats is not None else SimStats()
        self.sinks = []
        self.enabled = False
        self.cycle = 0
        for sink in sinks:
            self.attach(sink)

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------
    def attach(self, sink):
        """Attach a sink; enables event emission. Returns the sink."""
        self.sinks.append(sink)
        self.enabled = True
        return sink

    def detach(self, sink):
        """Detach a sink; emission stops when the last one is removed."""
        self.sinks.remove(sink)
        self.enabled = bool(self.sinks)

    def close(self):
        """Close every sink (flush trace files)."""
        for sink in self.sinks:
            sink.close()

    def emit(self, event):
        """Dispatch one event record to every sink."""
        for sink in self.sinks:
            sink.emit(event)

    def dump_recent(self):
        """Formatted lines from any attached ring-buffer sinks (newest
        last); empty when no ring buffer is attached."""
        lines = []
        for sink in self.sinks:
            dump = getattr(sink, "format_lines", None)
            if dump is not None:
                lines.extend(dump())
        return lines

    # ------------------------------------------------------------------
    # Counter-bearing helpers (always called; events only when enabled)
    # ------------------------------------------------------------------
    def ftq_enqueue(self, block, occupancy):
        self.stats.ftq_enqueues += 1
        if self.enabled:
            self.emit(FtqEnqueueEvent(self.cycle, block.block_id,
                                      block.start_pc, block.pred_next_pc,
                                      occupancy))

    def fetch_stall(self, reason):
        stats = self.stats
        stats.fetch_stalls += 1
        stats.fetch_stall_reasons[reason] = \
            stats.fetch_stall_reasons.get(reason, 0) + 1
        if self.enabled:
            self.emit(FetchStallEvent(self.cycle, reason))

    def icache_access(self, start_pc, end_pc, hit, delay):
        stats = self.stats
        stats.icache_accesses += 1
        if not hit:
            stats.icache_misses += 1
        if self.enabled:
            self.emit(IcacheAccessEvent(self.cycle, start_pc, end_pc, hit,
                                        delay))

    def mem_access(self, cycle, seq, addr, is_write, level, latency,
                   outstanding, merged):
        """One L1D-port request (ported memory model only). ``level``
        is ``l1`` / ``l2`` / ``dram`` / ``mshr`` (same-line merge)."""
        stats = self.stats
        stats.mem_accesses += 1
        if level == "l1":
            stats.mem_l1d_hits += 1
        elif level == "l2":
            stats.mem_l1d_misses += 1
            stats.mem_l2_hits += 1
        elif level == "dram":
            stats.mem_l1d_misses += 1
            stats.mem_l2_misses += 1
            stats.mem_dram_accesses += 1
        else:  # mshr merge
            stats.mem_mshr_merges += 1
        if outstanding > stats.mem_mshr_peak:
            stats.mem_mshr_peak = outstanding
        if self.enabled:
            self.emit(MemAccessEvent(cycle, seq, addr, is_write, level,
                                     latency, outstanding, merged))

    def mem_mshr_stall(self):
        """An L1D-port request found every MSHR busy and waited."""
        self.stats.mem_mshr_stalls += 1

    def mem_wrong_path(self, count):
        """``count`` squashed (wrong-path) instructions had issued a
        memory access before the squash (ported model only)."""
        self.stats.mem_wrong_path_insts += count

    def wrong_path_capture(self, block, pending):
        self.stats.wpb_captures_ftq += 1
        if self.enabled:
            self.emit(WrongPathCaptureEvent(self.cycle, block.block_id,
                                            block.start_pc, block.end_pc,
                                            block.num_insts, pending))

    def fetch_block(self, block):
        self.stats.fetched_insts += len(block.insts)
        if self.enabled:
            self.emit(FetchEvent(self.cycle, block.block_id,
                                 block.start_pc, block.end_pc,
                                 block.inst_summaries()))

    def commit(self, dyn):
        self.stats.committed_insts += 1
        if self.enabled:
            inst = dyn.inst
            branch = None
            if inst.is_branch:
                branch = ("cond" if inst.is_cond_branch else
                          "indirect" if inst.is_indirect else "direct")
            dest = inst.dest if inst.writes_reg else None
            self.emit(CommitEvent(
                self.cycle, dyn.seq, dyn.pc, inst.op.name, dest,
                dyn.result if dest is not None else None,
                dyn.mem_addr, dyn.mem_size,
                dyn.store_data if inst.is_store else None,
                branch, dyn.mispredicted))

    def cond_branch(self, mispredicted):
        self.stats.cond_branches += 1
        if mispredicted:
            self.stats.cond_mispredicts += 1

    def indirect_branch(self, mispredicted):
        self.stats.indirect_branches += 1
        if mispredicted:
            self.stats.indirect_mispredicts += 1

    def squash(self, kind, trigger, boundary_seq, redirect_pc, squashed,
               dropped_seqs):
        stats = self.stats
        if kind == "branch":
            stats.branch_squashes += 1
        stats.squashed_insts += len(squashed)
        if self.enabled:
            self.emit(SquashEvent(
                self.cycle, kind, trigger.seq, trigger.pc, boundary_seq,
                redirect_pc, tuple(dyn.seq for dyn in squashed),
                tuple(dropped_seqs)))

    def replay_violation(self, victim):
        self.stats.replay_squashes += 1

    def verify_flush(self, dyn):
        self.stats.verify_flushes += 1

    def reuse_test(self, dyn, stream_idx=None, entry_idx=None,
                   entry_rgids=None):
        self.stats.reuse_tests += 1
        if self.enabled:
            self.emit(ReuseAttemptEvent(
                self.cycle, dyn.seq, dyn.pc, "test", stream_idx,
                entry_idx, dyn.src_rgids, entry_rgids, dyn.is_load))

    def reuse_applied(self, dyn):
        self.stats.reuse_successes += 1
        if dyn.inst.is_load:
            self.stats.reused_loads += 1
        if self.enabled:
            tag = dyn.reuse_scheme_tag
            stream_idx, entry_idx = tag if isinstance(tag, tuple) \
                else (None, None)
            self.emit(ReuseAttemptEvent(
                self.cycle, dyn.seq, dyn.pc, "hit", stream_idx,
                entry_idx, dyn.src_rgids, None, dyn.is_load))

    def reconverge(self, stream_idx, reconv_pc, distance, reconv_kind,
                   trigger_seq):
        stats = self.stats
        stats.reconvergences += 1
        if reconv_kind == "simple":
            stats.reconv_simple += 1
        elif reconv_kind == "software":
            stats.reconv_software += 1
        else:
            stats.reconv_hardware += 1
        stats.record_stream_distance(distance)
        if self.enabled:
            self.emit(ReconvergeEvent(self.cycle, stream_idx, reconv_pc,
                                      distance, reconv_kind, trigger_seq))

    def wpb_timeout(self, stream_idx):
        self.stats.wpb_timeouts += 1

    def pressure_free(self):
        self.stats.squash_log_pressure_frees += 1

    def rgid_reset(self):
        self.stats.rgid_resets += 1

    def ri_insertion(self):
        self.stats.ri_insertions += 1

    def ri_replacement(self):
        self.stats.ri_replacements += 1

    def ri_invalidation(self):
        self.stats.ri_invalidations += 1

    def interval_boundary(self, phase, index, start_inst, num_insts,
                          weight):
        """Mark a sampled-simulation interval ``begin`` / ``end`` on the
        bus, so sinks can segment a sampled run's event stream."""
        if self.enabled:
            self.emit(IntervalEvent(self.cycle, phase, index, start_inst,
                                    num_insts, weight))

    # ------------------------------------------------------------------
    # Counter-less stage events (call sites guard on ``enabled``)
    # ------------------------------------------------------------------
    def emit_rename(self, dyn, reused):
        self.emit(RenameEvent(self.cycle, dyn.seq, dyn.pc,
                              dyn.inst.op.name, dyn.dest_preg,
                              dyn.old_preg, dyn.srcs_preg, dyn.src_rgids,
                              dyn.dest_rgid, reused))

    def emit_issue(self, dyn):
        self.emit(IssueEvent(self.cycle, dyn.seq, dyn.pc,
                             dyn.inst.op.name))

    def emit_writeback(self, dyn):
        self.emit(WritebackEvent(self.cycle, dyn.seq, dyn.pc,
                                 dyn.inst.op.name, dyn.dest_preg,
                                 dyn.result, dyn.verify_load))
