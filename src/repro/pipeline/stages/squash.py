"""Squash unit: apply the arbitrated squash at cycle end.

All squash *requests* go through the
:class:`~repro.pipeline.latches.SquashArbiter`; this unit applies the
winning one — rolling the ROB, decode queue and RAT back, carving the
squashed FTQ suffix out for the reuse scheme, releasing or reserving
physical registers, repairing speculative predictor/RAS state and
redirecting fetch.

The per-instruction work of a squash runs in two passes over the
squashed ROB suffix, each in this frame: the ROB pop with the RAT
rollback, and the register release (with its double-free check)
together with the LSQ removal of loads and stores and the IQ slot
count.
"""

from repro.isa.instruction import INST_BYTES
from repro.isa.predecode import KIND_LOAD, KIND_NOP, KIND_STORE
from repro.pipeline.regfile import FREE, RESERVED


class SquashUnit:
    """Apply one arbitrated squash request across the whole machine."""

    __slots__ = ("state", "rob", "decode_queue", "rat", "obs", "fetch",
                 "scheme", "wants_preg", "on_preg_freed", "lsq", "int_iq",
                 "mem_iq", "regfile", "predictor", "ras")

    def __init__(self, state):
        self.state = state
        self.rob = state.rob
        self.decode_queue = state.decode_queue
        self.rat = state.rat
        self.obs = state.obs
        self.fetch = state.fetch
        self.scheme = state.scheme
        self.wants_preg = state.wants_preg
        self.on_preg_freed = state.on_preg_freed
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

        # 1. Pop squashed instructions from the ROB (tail first) and
        #    roll their RAT mappings back, youngest first.
        squashed = []
        rob = self.rob
        rmap = self.rat.map
        rgids = self.rat.rgid
        while rob and rob[-1].seq > boundary:
            dyn = rob.pop()
            dyn.squashed = True
            areg = dyn.dest_areg
            if areg is not None:
                rmap[areg] = dyn.old_preg
                rgids[areg] = dyn.old_rgid
            squashed.append(dyn)
        # 2. Drop not-yet-renamed instructions from the decode queue
        #    (kept for frontend repair: their speculative predictor
        #    advances still need unwinding).
        dropped_dyns = self.decode_queue.drop_younger_than(boundary)
        dropped_seqs = [dyn.seq for dyn in dropped_dyns] \
            if self.obs.enabled else []
        self.obs.squash(request.kind, request.trigger, boundary,
                        request.redirect_pc, squashed, dropped_seqs)
        if self.state.memsys is not None:
            # Wrong-path memory footprint: squashed instructions whose
            # access already probed (and filled) the ported hierarchy.
            wrong_path_mem = sum(1 for dyn in squashed
                                 if dyn.issued and dyn.mem_addr is not None)
            if wrong_path_mem:
                self.obs.mem_wrong_path(wrong_path_mem)

        # 3. FTQ: carve out the squashed blocks (for the WPBs). The
        #    boundary block is split so instructions at or before the
        #    boundary survive (for replay squashes the trigger itself is
        #    squashed and refetched). With FTQ-sourced capture enabled,
        #    the fetch unit feeds every squashed block — delivered and
        #    still-pending — to the reuse scheme here, branch squashes
        #    only.
        squashed_blocks = self.fetch.squash_ftq_after(
            request.trigger.block_id, keep_partial_seq=boundary,
            capture=request.kind == "branch")

        # 4. Reuse-scheme notification *before* registers are freed, so it
        #    can claim them.
        squashed_oldest_first = list(reversed(squashed))
        if request.kind == "branch":
            self.scheme.on_branch_squash(request.trigger,
                                         squashed_oldest_first,
                                         squashed_blocks)
        else:
            self.scheme.on_replay_squash(request.trigger)

        # 5. Free or reserve destination registers; drain LSQ entries
        #    and return the IQ slots of squashed instructions that were
        #    dispatched into an IQ (at rename) and never issued. The
        #    IQs skip the squashed entries themselves lazily. A scheme
        #    may free registers from wants_preg (RI evicts an entry), so
        #    each release happens in walk order, not batched.
        state = self.state
        wants_preg = self.wants_preg if request.kind == "branch" else None
        on_preg_freed = self.on_preg_freed
        regfile = self.regfile
        reg_states = regfile.states
        ready = regfile.ready
        free = regfile.free_list
        loads = self.lsq.loads
        stores = self.lsq.stores
        int_drained = mem_drained = 0
        for dyn in squashed:
            if dyn.is_load:
                loads.pop(dyn.seq, None)
            elif dyn.is_store:
                stores.pop(dyn.seq, None)
            preg = dyn.dest_preg
            if preg is not None:
                if (wants_preg is not None and dyn.executed
                        and not dyn.verify_load and wants_preg(dyn)):
                    reg_states[preg] = RESERVED
                else:
                    if reg_states[preg] == FREE:
                        raise AssertionError("double free of p%d" % preg)
                    reg_states[preg] = FREE
                    ready[preg] = False
                    free.append(preg)
                    if on_preg_freed is not None:
                        on_preg_freed(preg)
            if not dyn.issued:
                kind = dyn.pd.kind
                if kind < KIND_NOP and (dyn.verify_load or not dyn.reused):
                    if kind == KIND_LOAD or kind == KIND_STORE:
                        mem_drained += 1
                    else:
                        int_drained += 1
        self.int_iq.size -= int_drained
        self.mem_iq.size -= mem_drained

        # 6. Repair predictor history and RAS.
        self._repair_frontend(request, squashed_oldest_first, dropped_dyns)

        # 7. Redirect fetch.
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
            self.predictor.recover_branch(trigger.pc, taken,
                                          trigger.bp_meta)
        else:
            # Replay/verify squash (or jalr): rewind history to the oldest
            # squashed conditional branch's pre-prediction state.
            for dyn in squashed_oldest_first:
                meta = dyn.bp_meta
                if meta is not None:
                    self.predictor.restore_history(
                        (meta.history, meta.folds))
                    break
        for dyn in squashed_oldest_first:
            if dyn.ras_snap is not None:
                self.ras.restore(dyn.ras_snap)
                break
