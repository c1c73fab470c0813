"""Squash unit: apply the arbitrated squash at cycle end.

All squash *requests* go through the
:class:`~repro.pipeline.latches.SquashArbiter`; this unit applies the
winning one — rolling the ROB, decode queue and RAT back, carving the
squashed FTQ suffix out for the reuse scheme, releasing or reserving
physical registers, repairing speculative predictor/RAS state and
redirecting fetch.
"""

from repro.frontend.tage_scl import TageSCL
from repro.isa.instruction import INST_BYTES
from repro.isa.predecode import KIND_LOAD, KIND_NOP, KIND_STORE


class SquashUnit:
    """Apply one arbitrated squash request across the whole machine."""

    __slots__ = ("state", "rob", "decode_queue", "rat", "obs", "fetch",
                 "scheme", "lsq", "int_iq", "mem_iq", "regfile",
                 "predictor", "ras")

    def __init__(self, state):
        self.state = state
        self.rob = state.rob
        self.decode_queue = state.decode_queue
        self.rat = state.rat
        self.obs = state.obs
        self.fetch = state.fetch
        self.scheme = state.scheme
        self.lsq = state.lsq
        self.int_iq = state.int_iq
        self.mem_iq = state.mem_iq
        self.regfile = state.regfile
        self.predictor = state.predictor
        self.ras = state.ras

    def apply(self, request):
        boundary = request.boundary_seq
        if request.trigger.squashed:
            return  # stale request (should not happen; safety)

        # 1. Pop squashed instructions from the ROB (tail first).
        squashed = []
        rob = self.rob
        while rob and rob[-1].seq > boundary:
            squashed.append(rob.pop())
        # 2. Drop not-yet-renamed instructions from the decode queue
        #    (kept for frontend repair: their speculative predictor
        #    advances still need unwinding).
        dropped_dyns = self.decode_queue.drop_younger_than(boundary)
        dropped_seqs = [dyn.seq for dyn in dropped_dyns] \
            if self.obs.enabled else []
        # 3. Roll the RAT back, youngest first.
        for dyn in squashed:
            dyn.squashed = True
            self.rat.rollback(dyn)
        self.obs.squash(request.kind, request.trigger, boundary,
                        request.redirect_pc, squashed, dropped_seqs)
        if self.state.memsys is not None:
            # Wrong-path memory footprint: squashed instructions whose
            # access already probed (and filled) the ported hierarchy.
            wrong_path_mem = sum(1 for dyn in squashed
                                 if dyn.issued and dyn.mem_addr is not None)
            if wrong_path_mem:
                self.obs.mem_wrong_path(wrong_path_mem)

        # 4. FTQ: carve out the squashed blocks (for the WPBs). The
        #    boundary block is split so instructions at or before the
        #    boundary survive (for replay squashes the trigger itself is
        #    squashed and refetched). With FTQ-sourced capture enabled,
        #    the fetch unit feeds every squashed block — delivered and
        #    still-pending — to the reuse scheme here, branch squashes
        #    only.
        squashed_blocks = self.fetch.squash_ftq_after(
            request.trigger.block_id, keep_partial_seq=boundary,
            capture=request.kind == "branch")

        # 5. Reuse-scheme notification *before* registers are freed, so it
        #    can claim them.
        squashed_oldest_first = list(reversed(squashed))
        if request.kind == "branch":
            self.scheme.on_branch_squash(request.trigger,
                                         squashed_oldest_first,
                                         squashed_blocks)
        else:
            self.scheme.on_replay_squash(request.trigger)

        # 6. Free or reserve destination registers; drain LSQ entries
        #    and return the IQ slots of squashed instructions that were
        #    dispatched into an IQ (rename's ``_dispatch_inst``) and
        #    never issued. The IQs skip the squashed entries themselves
        #    lazily.
        state = self.state
        int_drained = mem_drained = 0
        for dyn in squashed:
            self.lsq.remove(dyn)
            if dyn.dest_preg is not None:
                if (request.kind == "branch" and dyn.executed
                        and not dyn.verify_load
                        and self.scheme.wants_preg(dyn)):
                    self.regfile.mark_reserved(dyn.dest_preg)
                else:
                    state.free_preg(dyn.dest_preg)
            if not dyn.issued:
                kind = dyn.pd.kind
                if kind < KIND_NOP and (dyn.verify_load or not dyn.reused):
                    if kind == KIND_LOAD or kind == KIND_STORE:
                        mem_drained += 1
                    else:
                        int_drained += 1
        self.int_iq.size -= int_drained
        self.mem_iq.size -= mem_drained

        # 7. Repair predictor history and RAS.
        self._repair_frontend(request, squashed_oldest_first, dropped_dyns)

        # 8. Redirect fetch.
        self.fetch.redirect(request.redirect_pc, cycle=state.cycle)

    def _repair_frontend(self, request, squashed_oldest_first,
                         dropped_newest_first=()):
        # Unwind per-prediction speculative state (loop iteration
        # counts) of every squashed prediction, youngest first:
        # decode-queue drops are younger than ROB-squashed instructions
        # (the fetch unit has already unwound flushed FTQ entries,
        # which are younger still).
        unwind = getattr(self.predictor, "unwind", None)
        if unwind is not None:
            for dyn in dropped_newest_first:
                if dyn.bp_meta is not None:
                    unwind(dyn.bp_meta)
            for dyn in reversed(squashed_oldest_first):
                if dyn.bp_meta is not None:
                    unwind(dyn.bp_meta)
        trigger = request.trigger
        if request.kind == "branch" and trigger.inst.is_cond_branch \
                and trigger.bp_meta is not None:
            taken = trigger.actual_npc != trigger.pc + INST_BYTES
            if isinstance(self.predictor, TageSCL):
                self.predictor.recover_branch(trigger.pc, taken,
                                              trigger.bp_meta)
            else:
                self.predictor.recover(taken, trigger.bp_meta)
        else:
            # Replay/verify squash (or jalr): rewind history to the oldest
            # squashed conditional branch's pre-prediction state.
            for dyn in squashed_oldest_first:
                if dyn.bp_meta is not None:
                    self.predictor.restore_history(dyn.bp_meta.history)
                    break
        for dyn in squashed_oldest_first:
            if dyn.ras_snap is not None:
                self.ras.restore(dyn.ras_snap)
                break
