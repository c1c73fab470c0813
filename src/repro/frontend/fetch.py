"""Decoupled frontend: branch-prediction unit, FTQ, and fetch stage.

The frontend predicts the dynamic instruction stream at *prediction
block* granularity (Section 3.3.1 of the paper): a block is a contiguous
run of instructions that ends at a predicted-taken control instruction or
at the fetch-width limit (32B = 8 instructions). Blocks are recorded in
the FTQ; on a branch misprediction the squashed FTQ suffix is what Multi-
Stream Squash Reuse moves into its Wrong-Path Buffers.

Two operating modes share this file:

* **Fused** (``frontend.decoupled = false``, the default): prediction
  and delivery happen in one call — :meth:`FetchUnit.fetch_block`
  predicts a block and hands it straight to decode, exactly the
  original single-stage fetch path.
* **Decoupled** (``frontend.decoupled = true``): the branch-prediction
  unit (BPU) runs ahead of fetch. Each cycle :meth:`FetchUnit.tick`
  predicts up to ``bpu_blocks_per_cycle`` blocks into a bounded FTQ
  (run-ahead capped at ``ftq_depth`` undelivered blocks), and
  :meth:`FetchUnit.fetch_block` *drains* the FTQ: a block becomes
  deliverable ``fetch_latency`` cycles after its enqueue (modelling the
  icache access of the fetch pipeline). Redirect bubbles, FTQ
  starvation and icache latency then show up as explicit fetch stalls.

Because the BPU speculates ahead of delivery, every enqueued block
snapshots the branch-history and RAS state it was predicted from; a
squash flushes the undelivered FTQ suffix and rewinds the predictors to
the oldest flushed block's snapshot before the core applies its own
(architecturally precise) repair. Delivered blocks stay in the FTQ for
squash/reuse bookkeeping until commit retires them
(:meth:`FetchUnit.retire_block`).

After a misprediction the frontend keeps following the *predicted* path
through real program code — wrong-path execution is what creates the
squashed streams that reuse later harvests.
"""

from collections import deque

from repro.isa.instruction import INST_BYTES
from repro.log import get_logger
from repro.pipeline.dyninst import DynInst

_log = get_logger("frontend.fetch")

#: Register holding return addresses (``ra``).
_RA = 1

#: Fetch-stall reasons (FetchStallEvent payloads).
STALL_FTQ_EMPTY = "ftq-empty"
STALL_REDIRECT = "redirect"
STALL_ICACHE = "icache"


class PredictionBlock:
    """One FTQ entry: a contiguous fetch block.

    ``pred_cycle`` is the cycle the BPU predicted (enqueued) the block;
    ``delivered`` flips when the fetch stage hands it to decode.
    ``hist_snap``/``ras_snap`` (decoupled mode only) capture the
    branch history (with its folded registers) and RAS state *before*
    the block's predictions, for frontend repair when an undelivered
    block is flushed.
    """

    __slots__ = ("block_id", "start_pc", "end_pc", "insts", "pred_next_pc",
                 "squashed", "pred_cycle", "ready_cycle", "delivered",
                 "hist_snap", "ras_snap")

    def __init__(self, block_id, start_pc):
        self.block_id = block_id
        self.start_pc = start_pc
        self.end_pc = start_pc
        self.insts = []
        self.pred_next_pc = None
        self.squashed = False
        self.pred_cycle = 0
        self.ready_cycle = 0      # earliest delivery cycle (icache model)
        self.delivered = False
        self.hist_snap = None
        self.ras_snap = None

    @property
    def num_insts(self):
        return len(self.insts)

    def pc_range(self):
        """(start_pc, end_pc) inclusive of the last instruction."""
        return self.start_pc, self.end_pc

    def inst_summaries(self):
        """``(seq, pc, text)`` per instruction — the FetchEvent payload."""
        return tuple((dyn.seq, dyn.pc, repr(dyn.inst))
                     for dyn in self.insts)

    def __repr__(self):
        return "<Block %d [%#x..%#x] %d insts>" % (
            self.block_id, self.start_pc, self.end_pc, self.num_insts)


class FetchUnit:
    """Two-stage frontend: directions from the predictor, targets from
    pre-decode (direct), BTB (indirect) and RAS (returns).

    ``frontend`` is a :class:`~repro.pipeline.config.FrontendConfig`
    (None = fused defaults); ``obs`` an optional
    :class:`~repro.obs.bus.Observability` for FTQ/stall events;
    ``icache`` an optional
    :class:`~repro.frontend.icache.InstructionCache` consulted per block
    in decoupled mode (misses stretch the block's delivery latency).

    ``wrong_path_sink``, when set (FTQ-sourced MSSR capture), receives
    every squashed block — delivered and still-pending — at
    branch-squash time, oldest first.
    """

    def __init__(self, program, predictor, btb, ras, block_insts=8,
                 frontend=None, obs=None, icache=None):
        self.program = program
        self.predictor = predictor
        self.btb = btb
        self.ras = ras
        self.block_insts = block_insts
        self.obs = obs
        self.icache = icache
        self.wrong_path_sink = None
        if frontend is None:
            from repro.pipeline.config import FrontendConfig
            frontend = FrontendConfig()
        self.frontend = frontend
        self.decoupled = frontend.decoupled
        self.ftq_depth = frontend.ftq_depth
        self.fetch_latency = frontend.fetch_latency
        self.bpu_rate = frontend.bpu_blocks_per_cycle
        # Predecoded view: membership in ``by_pc`` is exactly
        # Program.has_pc, and each record carries the flattened fields
        # the fetch loop needs (halt/branch classification).
        self._by_pc = program.predecode().by_pc

        self.pc = program.entry
        self.stalled = False          # BPU waiting for redirect (halt/
                                      # invalid/unpredicted indirect)
        self._next_block_id = 0
        self._next_seq = 0

        self.ftq = []                 # in-flight blocks, oldest first
        self.pending = deque()        # predicted, not yet delivered
        self._redirect_cycle = None   # cycle of the last redirect
        self.stats_blocks = 0
        self.stats_insts = 0

    # ------------------------------------------------------------------
    def redirect(self, pc, cycle=None):
        """Steer the BPU (misprediction recovery or indirect resolution).

        Any undelivered FTQ suffix is flushed first (with predictor /
        RAS rewind); ``cycle`` stamps the redirect so subsequent fetch
        stalls are attributed to the redirect bubble.
        """
        self._flush_pending()
        self.pc = pc
        self.stalled = pc not in self._by_pc
        self._redirect_cycle = cycle
        if self.stalled:
            _log.debug("redirect to %#x leaves the code image; fetch "
                       "stalled until the next redirect", pc)

    def squash_ftq_after(self, block_id, keep_partial_seq=None,
                         capture=False):
        """Drop FTQ blocks younger than ``block_id``.

        Returns the squashed *delivered* blocks (oldest first) — the
        wrong-path instructions that actually entered the pipeline and
        are eligible for squash-reuse capture. Undelivered (pending)
        blocks are younger than any delivered block, so they are simply
        flushed, rewinding speculative predictor state to the oldest
        flushed block's snapshot. ``keep_partial_seq`` trims
        instructions younger than the given seq from the boundary block
        without squashing the whole block.

        With ``capture`` set (branch squashes) and a ``wrong_path_sink``
        attached, every squashed block is pushed to the sink oldest
        first: the delivered suffix (identical to what decode-time
        capture sees), then the flushed still-pending blocks that never
        reached decode — the extra coverage FTQ-sourced capture buys.
        """
        flushed = self._flush_pending()
        ftq = self.ftq
        cut = self._suffix_start(block_id + 1)
        squashed = ftq[cut:]
        del ftq[cut:]
        for block in squashed:
            block.squashed = True
        if keep_partial_seq is not None and ftq:
            boundary = ftq[-1]
            trimmed = [d for d in boundary.insts
                       if d.seq <= keep_partial_seq]
            removed = boundary.insts[len(trimmed):]
            if removed:
                partial = PredictionBlock(boundary.block_id, removed[0].pc)
                partial.insts = removed
                partial.end_pc = removed[-1].pc
                partial.squashed = True
                partial.delivered = boundary.delivered
                boundary.insts = trimmed
                if trimmed:
                    boundary.end_pc = trimmed[-1].pc
                squashed.insert(0, partial)
        sink = self.wrong_path_sink
        if capture and sink is not None:
            obs = self.obs
            for block in squashed:
                if block.num_insts:
                    if obs is not None:
                        obs.wrong_path_capture(block, pending=False)
                    sink(block)
            for block in flushed:
                if block.num_insts:
                    if obs is not None:
                        obs.wrong_path_capture(block, pending=True)
                    sink(block)
        return squashed

    def retire_block(self, block_id):
        """Deallocate FTQ entries at or before ``block_id`` (all retired)."""
        ftq = self.ftq
        count = 0
        for block in ftq:
            if block.block_id > block_id:
                break
            count += 1
        if count:
            del ftq[:count]

    def _suffix_start(self, block_id):
        """Index of the first FTQ block with id ``>= block_id``. The FTQ
        is ordered by ``block_id`` (blocks are appended as predicted and
        leave only as a retired prefix or a squashed/flushed suffix), so
        the suffix is found from the young end."""
        ftq = self.ftq
        cut = len(ftq)
        while cut and ftq[cut - 1].block_id >= block_id:
            cut -= 1
        return cut

    def _flush_pending(self):
        """Flush undelivered FTQ entries, unwinding speculative
        predictor state (loop iteration counts, history, RAS) that
        their predictions advanced. Pending blocks are the youngest
        speculation in the machine, so they unwind first. Returns the
        flushed blocks oldest first (for FTQ-sourced capture)."""
        pending = self.pending
        if not pending:
            return []
        unwind = getattr(self.predictor, "unwind", None)
        if unwind is not None:
            for block in reversed(pending):
                for dyn in reversed(block.insts):
                    if dyn.bp_meta is not None:
                        unwind(dyn.bp_meta)
        oldest = pending[0]
        if oldest.hist_snap is not None:
            self.predictor.restore_history(oldest.hist_snap)
        if oldest.ras_snap is not None:
            self.ras.restore(oldest.ras_snap)
        flushed = list(pending)
        for block in flushed:
            block.squashed = True
        pending.clear()
        # Pending blocks are the youngest FTQ suffix.
        del self.ftq[self._suffix_start(oldest.block_id):]
        return flushed

    # ------------------------------------------------------------------
    def tick(self, cycle):
        """Run the BPU for one cycle (decoupled mode): predict up to
        ``bpu_blocks_per_cycle`` blocks into the FTQ, stopping when the
        run-ahead window (``ftq_depth`` undelivered blocks) is full or
        the BPU stalls."""
        if not self.decoupled:
            return
        pending = self.pending
        for _ in range(self.bpu_rate):
            if len(pending) >= self.ftq_depth:
                break
            block = self._predict_block(cycle)
            if block is None:
                break
            pending.append(block)
            if self.obs is not None:
                self.obs.ftq_enqueue(block, len(pending))

    def fetch_block(self, cycle):
        """Deliver one prediction block to decode; None when stalled.

        Fused mode predicts and delivers in the same call; decoupled
        mode drains the FTQ, honouring the ``fetch_latency`` pipeline
        delay and reporting the stall reason on the obs bus.
        """
        if not self.decoupled:
            block = self._predict_block(cycle)
            if block is not None:
                block.delivered = True
            return block

        pending = self.pending
        in_redirect_bubble = (
            self._redirect_cycle is not None
            and cycle - self._redirect_cycle <= self.fetch_latency)
        if not pending:
            reason = STALL_REDIRECT if in_redirect_bubble \
                else STALL_FTQ_EMPTY
            if self.obs is not None:
                self.obs.fetch_stall(reason)
            return None
        head = pending[0]
        if head.ready_cycle > cycle:
            # Refill latency right after a squash is the redirect
            # bubble, not an ordinary icache-pipeline stall.
            reason = STALL_REDIRECT if in_redirect_bubble \
                else STALL_ICACHE
            if self.obs is not None:
                self.obs.fetch_stall(reason)
            return None
        pending.popleft()
        head.delivered = True
        # Re-stamp delivery: downstream latency accounting (the rename
        # frontier) is measured from when decode received the block.
        for dyn in head.insts:
            dyn.fetch_cycle = cycle
        return head

    # ------------------------------------------------------------------
    def _predict_block(self, cycle):
        """Predict one block and append it to the FTQ; None on stall."""
        by_pc = self._by_pc
        if self.stalled or self.pc not in by_pc:
            self.stalled = True
            return None
        block = PredictionBlock(self._next_block_id, self.pc)
        block.pred_cycle = cycle
        if self.decoupled:
            block.hist_snap = self.predictor.snapshot_history()
            block.ras_snap = self.ras.snapshot()
        self._next_block_id += 1
        pc = self.pc
        seq = self._next_seq
        block_id = block.block_id
        insts = block.insts
        append = insts.append
        next_pc = None     # predicted PC after this block (None => stall)
        ended = False      # loop terminated by a control decision
        while len(insts) < self.block_insts:
            rec = by_pc.get(pc)
            if rec is None:
                # Ran off the code image mid-block (wrong path): stall.
                ended = True
                break
            dyn = DynInst(seq, pc, rec.inst, block_id, cycle, rec)
            seq += 1
            append(dyn)
            block.end_pc = pc

            if rec.is_halt:
                ended = True  # nothing sensible follows a halt
                break
            if rec.is_branch:
                taken, target = self._predict_control(dyn)
                if taken:
                    next_pc = target  # None for unpredictable indirects
                    ended = True
                    break
            pc += INST_BYTES
        self._next_seq = seq
        if not ended:
            # Block filled to the fetch limit: fall through.
            next_pc = pc
        block.pred_next_pc = next_pc
        # The block can leave the fetch pipeline ``fetch_latency``
        # cycles after prediction; an icache miss stretches that.
        block.ready_cycle = cycle + self.fetch_latency
        if self.icache is not None and insts:
            block.ready_cycle += self.icache.access(block.start_pc,
                                                    block.end_pc, cycle)

        if next_pc is None:
            self.stalled = True
        else:
            self.pc = next_pc
            self.stalled = next_pc not in by_pc

        self.ftq.append(block)
        self.stats_blocks += 1
        self.stats_insts += block.num_insts
        return block

    def _predict_control(self, dyn):
        """Predict one control instruction; returns (taken, target).

        Also fills the DynInst's prediction bookkeeping fields.
        """
        pd = dyn.pd
        fallthrough = pd.next_pc
        if pd.is_cond_branch:
            taken, meta = self.predictor.predict(pd.pc)
            dyn.bp_meta = meta
            target = pd.target if taken else fallthrough
            dyn.pred_npc = target
            return taken, target

        # Unconditional: jal / jalr.
        dyn.ras_snap = self.ras.snapshot()
        if not pd.is_indirect:  # jal
            if pd.dest == _RA:
                self.ras.push(fallthrough)
            dyn.pred_npc = pd.target
            return True, pd.target

        # jalr: return or other indirect.
        target = None
        if pd.src0 == _RA and pd.dest != _RA:
            target = self.ras.pop()
        if target is None:
            target = self.btb.lookup(pd.pc)
        if pd.dest == _RA:
            self.ras.push(fallthrough)
        dyn.pred_npc = target
        if target is None:
            # Unpredictable indirect: stall until it resolves.
            return True, None
        return True, target
