"""The Multi-Stream Squash Reuse controller.

Orchestrates the paper's mechanism end-to-end:

* On a branch-misprediction squash, moves the squashed FTQ blocks into a
  Wrong-Path Buffer stream and the squashed (renamed) instructions'
  rename metadata into the matching Squash Log stream, reserving the
  physical registers of executed, reusable instructions (Section 3.3).
* On every fetched prediction block, ages streams (1024-instruction
  reconvergence timeout), searches all WPB streams for a range overlap
  (Section 3.4) and, once reconverged, walks the squashed stream in
  lockstep with fetch, annotating each incoming instruction with its
  Squash Log entry.
* At rename, performs the RGID reuse test (Section 3.5) and hands the
  squashed destination register to the reusing instruction; failed tests
  release the entry's register (retention condition 3) and divergence
  releases the stream (condition 4).
* Tracks RGID overflow and performs the global reset + new-stream
  suspension protocol (Section 3.3.2), and implements the paper's two
  memory-hazard schemes for reused loads (Section 3.8).
"""

from repro.baselines.base import ReuseScheme, ReuseResult
from repro.mssr.bloom import BloomFilter
from repro.mssr.squash_log import SquashLog
from repro.mssr.wpb import WrongPathBuffers


class _Lockstep:
    """State of an in-progress reconvergence (one at a time)."""

    __slots__ = ("stream_idx", "generation", "pcs", "pos", "entry_idx")

    def __init__(self, stream_idx, generation, pcs, pos, entry_idx):
        self.stream_idx = stream_idx
        self.generation = generation
        self.pcs = pcs
        self.pos = pos            # index into pcs (next expected PC)
        self.entry_idx = entry_idx  # matching Squash Log position


class MSSRController(ReuseScheme):
    """ReuseScheme implementation of the paper's mechanism."""

    name = "mssr"
    needs_rgids = True
    on_cycle_overflow_only = True

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.wpb = WrongPathBuffers(config.num_streams, config.wpb_entries,
                                    single_page=config.single_page_wpb)
        self.log = SquashLog(config.num_streams, config.squash_log_entries)
        self.bloom = BloomFilter(config.bloom_bits, config.bloom_hashes) \
            if config.memory_hazard_scheme == "bloom" else None
        #: Capture WPB ranges at the FTQ (squash-time, incl. undelivered
        #: blocks) instead of from the delivered blocks alone. The core
        #: wires the fetch unit's wrong_path_sink to us when set.
        self.ftq_capture = config.ftq_capture
        self._ftq_blocks = []       # pc ranges pushed by the fetch unit

        self._squash_events = 0
        self._lockstep = None
        self._pending = {}          # seq -> (stream_idx, entry_idx) to claim
        self._last_trigger_seq = -1
        self._suspended_until_commits = 0
        self._alloc_order = []      # stream indices, oldest allocation first

    # ------------------------------------------------------------------
    # Squash-time population
    # ------------------------------------------------------------------
    def on_wrong_path_block(self, block):
        # FTQ-sourced capture: the fetch unit pushes every squashed
        # block (delivered suffix first, then flushed pending blocks)
        # during squash_ftq_after, which runs just before
        # on_branch_squash consumes the buffer.
        self._ftq_blocks.append(block.pc_range())

    def on_branch_squash(self, trigger, squashed, squashed_blocks):
        captured_ranges = self._ftq_blocks
        self._ftq_blocks = []
        self._end_lockstep(diverged=False)
        self._squash_events += 1
        self._last_trigger_seq = trigger.seq
        self._pending = {}

        if self._suspended():
            return
        renamed = [dyn for dyn in squashed if dyn.renamed]
        if not renamed:
            return

        # Clean up the round-robin victim before overwriting it.
        victim = self.wpb.next_victim()
        self._invalidate_stream(victim)

        if self.ftq_capture:
            # Delivered blocks lead the list, so the WPB fill (capped at
            # M entries, oldest first) covers at least what decode-time
            # capture would have seen; pending blocks use spare capacity.
            block_ranges = captured_ranges
        else:
            block_ranges = [blk.pc_range() for blk in squashed_blocks
                            if blk.num_insts]
        idx = self.wpb.allocate(block_ranges, self._squash_events,
                                trigger.seq)
        stream = self.log.fill(idx, renamed, self._squash_events)
        self._alloc_order.append(idx)

        # Remember which squashed instructions' registers to claim; the
        # core asks via wants_preg immediately after this call.
        for entry_idx, (entry, dyn) in enumerate(
                zip(stream.entries, renamed)):
            if entry.reusable:
                self._pending[dyn.seq] = (idx, entry_idx)

    def wants_preg(self, dyn):
        location = self._pending.get(dyn.seq)
        if location is None:
            return False
        stream_idx, entry_idx = location
        entry = self.log.streams[stream_idx].entries[entry_idx]
        entry.reserved = True
        return True

    def on_replay_squash(self, trigger):
        # Memory-order replays refetch the same path; the redirect still
        # terminates any in-flight lockstep.
        self._ftq_blocks = []
        self._end_lockstep(diverged=False)

    # ------------------------------------------------------------------
    # Fetch-side reconvergence detection and lockstep monitoring
    # ------------------------------------------------------------------
    def on_fetch_block(self, block):
        num_insts = len(block.insts)
        if not num_insts:
            return
        self._age_streams(num_insts)

        start = 0
        if self._lockstep is not None:
            start = self._follow_lockstep(block)
            if start is None:
                return  # whole block consumed by the active lockstep

        if self._lockstep is None and self.wpb.any_valid():
            self._try_reconverge(block, start)

    def _age_streams(self, num_insts):
        active = self._lockstep.stream_idx if self._lockstep else -1
        for idx, stream in enumerate(self.wpb.streams):
            if not stream.valid or idx == active:
                continue
            stream.age += num_insts
            if stream.age >= self.config.reconvergence_timeout:
                self.obs.wpb_timeout(idx)
                self._invalidate_stream(idx)

    def _try_reconverge(self, block, start):
        insts = block.insts[start:]
        if not insts:
            return
        tried = set()
        while True:
            hit = self.wpb.find_reconvergence(insts[0].pc, insts[-1].pc,
                                              exclude=tried)
            if hit is None:
                return
            stream_idx, offset, reconv_pc = hit
            log_stream = self.log.streams[stream_idx]
            if log_stream.valid and offset < len(log_stream.entries):
                break
            # Overlap lies beyond the logged (renamed) portion — nothing
            # to reuse *here*, but a later corrected path may reconverge
            # earlier into this stream, so keep it and look at others.
            tried.add(stream_idx)
        wpb_stream = self.wpb.streams[stream_idx]

        distance = self._squash_events - wpb_stream.event_id + 1
        self.obs.reconverge(stream_idx, reconv_pc, distance,
                            self._classify(wpb_stream),
                            wpb_stream.trigger_seq)

        self._lockstep = _Lockstep(
            stream_idx, log_stream.generation, wpb_stream.pcs(),
            pos=offset, entry_idx=offset)
        # Annotate the tail of this block starting at the reconvergence PC.
        skip = 0
        for dyn in insts:
            if dyn.pc == reconv_pc:
                break
            skip += 1
        self._annotate(insts[skip:])

    def _classify(self, stream):
        """The paper's reconvergence taxonomy, as a kind string."""
        if stream.trigger_seq == self._last_trigger_seq:
            return "simple"
        if stream.trigger_seq < self._last_trigger_seq:
            return "software"
        return "hardware"

    def _follow_lockstep(self, block):
        """Continue matching a block against the active stream.

        Returns the index into ``block.insts`` where lockstep ended (for a
        fresh reconvergence scan) or None if the block was fully consumed.
        """
        lock = self._lockstep
        log_stream = self.log.streams[lock.stream_idx]
        if log_stream.generation != lock.generation:
            self._lockstep = None
            return 0
        consumed = self._annotate(block.insts)
        if self._lockstep is None:
            return consumed
        return None

    def _annotate(self, dyns):
        """Tag instructions with squash-log entries while PCs match.

        Returns how many instructions were consumed before divergence or
        stream exhaustion (at which point the lockstep is torn down).
        """
        lock = self._lockstep
        log_stream = self.log.streams[lock.stream_idx]
        consumed = 0
        for dyn in dyns:
            if lock.entry_idx >= len(log_stream.entries) \
                    or lock.pos >= len(lock.pcs):
                self._end_lockstep(diverged=True)
                return consumed
            if dyn.pc != lock.pcs[lock.pos]:
                self._end_lockstep(diverged=True)
                return consumed
            dyn.reuse_candidate = (lock.stream_idx, lock.entry_idx,
                                   lock.generation)
            lock.pos += 1
            lock.entry_idx += 1
            consumed += 1
        return consumed

    def _end_lockstep(self, diverged):
        if self._lockstep is None:
            return
        stream_idx = self._lockstep.stream_idx
        self._lockstep = None
        if diverged:
            # Condition (4): the reconvergence stream diverged — release
            # everything the stream still holds.
            self._invalidate_stream(stream_idx)

    # ------------------------------------------------------------------
    # Rename-side reuse test
    # ------------------------------------------------------------------
    def try_reuse(self, dyn):
        candidate = dyn.reuse_candidate
        if candidate is None:
            return None
        stream_idx, entry_idx, generation = candidate
        log_stream = self.log.streams[stream_idx]
        if not log_stream.valid or log_stream.generation != generation:
            return None
        entry = log_stream.entries[entry_idx]
        if entry.pc != dyn.pc or entry.op is not dyn.inst.op:
            raise AssertionError(
                "squash log misalignment at %#x (logged %#x %s)"
                % (dyn.pc, entry.pc, entry.op))
        self.obs.reuse_test(dyn, stream_idx, entry_idx, entry.src_rgids)
        if (not entry.reusable or not entry.reserved or entry.consumed
                or entry.failed):
            return None

        # The RGID reuse test: every source's current RGID must equal the
        # squashed execution's RGID.
        if dyn.src_rgids != entry.src_rgids:
            self._fail_entry(entry)
            return None

        verify_addr = None
        if entry.is_load:
            if self.bloom is not None:
                if self.bloom.maybe_contains(entry.load_addr,
                                             entry.load_size):
                    self._fail_entry(entry)
                    return None
            else:
                verify_addr = entry.load_addr

        entry.consumed = True
        return ReuseResult(entry.dest_preg, entry.dest_rgid,
                           verify_addr=verify_addr,
                           tag=(stream_idx, entry_idx))

    def _fail_entry(self, entry):
        """Condition (3): failed reuse test — release the register now."""
        entry.failed = True
        if entry.reserved:
            self.core.free_reserved_preg(entry.dest_preg)

    # ------------------------------------------------------------------
    # Lifecycle / maintenance
    # ------------------------------------------------------------------
    def _invalidate_stream(self, idx):
        log_stream = self.log.streams[idx]
        for preg in log_stream.reserved_pregs():
            self.core.free_reserved_preg(preg)
        log_stream.invalidate()
        self.wpb.streams[idx].invalidate()
        if idx in self._alloc_order:
            self._alloc_order.remove(idx)
        if self.bloom is not None and not self.log.any_valid():
            self.bloom.clear()

    def invalidate_all(self):
        self._end_lockstep(diverged=False)
        for idx in range(self.config.num_streams):
            self._invalidate_stream(idx)

    def on_verify_fail(self, dyn):
        # Paper: value-verification failure flushes the pipeline and
        # invalidates the squash logs.
        self.invalidate_all()

    def on_store_executed(self, addr, size):
        if self.bloom is not None and addr is not None:
            self.bloom.insert(addr, size)

    def emergency_release(self):
        """Condition (5): free-list pressure — release the least recent
        stream that still holds registers."""
        for idx in list(self._alloc_order):
            if self.log.streams[idx].reserved_pregs():
                self.obs.pressure_free()
                self._invalidate_stream(idx)
                return True
        return False

    def on_cycle(self, cycle):
        # A no-op while the RAT holds no overflow events, so the core
        # skips it then (``on_cycle_overflow_only``).
        rat = self.core.rat
        if rat.overflow_events >= self.config.rgid_overflow_limit:
            self._global_reset(suspend=True)
        elif rat.overflow_events and not self.log.any_valid():
            self._global_reset(suspend=False)
        self.stats.rgid_overflows = max(
            self.stats.rgid_overflows, rat.overflow_events)

    def _global_reset(self, suspend):
        self.obs.rgid_reset()
        self.invalidate_all()
        self.core.rat.reset_rgids()
        if suspend:
            self._suspended_until_commits = (
                self.stats.committed_insts
                + self.core.config.rob_entries)

    def _suspended(self):
        return self.stats.committed_insts < \
            self._suspended_until_commits
