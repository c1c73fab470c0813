"""Rename/dispatch stage: RAT lookup, reuse test, resource allocation.

Drains the :class:`~repro.pipeline.latches.DecodeQueue` latch in program
order, offering every register-writing instruction to the reuse scheme
before allocating a fresh destination, then inserts it into the ROB and
the appropriate issue queue (or the LSQ for memory operations).

The common path handles an instruction in one frame: the resource
check, the destination mapping (a register off the free list and a
fresh RGID from the RAT's global counter), the LSQ entry and the
issue-queue insertion, with their safety checks (rename without a free
register, IQ overflow). Only a successful reuse leaves the loop
(:meth:`RenameDispatchStage._apply_reuse`).
"""

from repro.isa.predecode import KIND_LOAD, KIND_NOP, KIND_STORE
from repro.pipeline.regfile import IN_FLIGHT
from repro.pipeline.rename import NULL_RGID


class RenameDispatchStage:
    """Rename up to ``width`` instructions per cycle and dispatch them."""

    __slots__ = ("state", "width", "frontend_stages", "rob_entries",
                 "decode_queue", "rob", "rat", "regfile", "lsq",
                 "int_iq", "mem_iq", "scheme", "try_reuse", "obs")

    def __init__(self, state):
        cfg = state.config
        self.state = state
        self.width = cfg.width
        self.frontend_stages = cfg.frontend_stages
        self.rob_entries = cfg.rob_entries
        self.decode_queue = state.decode_queue
        self.rob = state.rob
        self.rat = state.rat
        self.regfile = state.regfile
        self.lsq = state.lsq
        self.int_iq = state.int_iq
        self.mem_iq = state.mem_iq
        self.scheme = state.scheme
        self.try_reuse = state.try_reuse
        self.obs = state.obs

    def tick(self):
        # Wake test: the decode-queue head is still in the frontend
        # pipeline, or the ROB or the head's issue queue has no room for
        # it (a dependent load chain fills the integer IQ for hundreds
        # of cycles).
        dq = self.decode_queue.entries
        if not dq:
            return
        frontier = self.state.cycle - self.frontend_stages
        rob = self.rob
        rob_entries = self.rob_entries
        head = dq[0]
        if head.fetch_cycle > frontier or len(rob) >= rob_entries:
            return
        kind = head.pd.kind
        if kind < KIND_NOP:
            iq = self.mem_iq if kind >= KIND_LOAD else self.int_iq
            if iq.size >= iq.capacity:
                return
        rat = self.rat
        rmap = rat.map
        rgids = rat.rgid
        track_rgids = rat.track_rgids
        regfile = self.regfile
        # The free list is re-read through this reference after
        # try_reuse or emergency_release, both of which can free.
        free = regfile.free_list
        reg_states = regfile.states
        ready = regfile.ready
        lsq = self.lsq
        loads = lsq.loads
        stores = lsq.stores
        int_iq = self.int_iq
        mem_iq = self.mem_iq
        try_reuse = self.try_reuse
        obs = self.obs
        for _ in range(self.width):
            if not dq:
                return
            dyn = dq[0]
            if dyn.fetch_cycle > frontier:
                return
            # -- dispatch resources ------------------------------------
            if len(rob) >= rob_entries:
                return
            pd = dyn.pd
            kind = pd.kind
            if kind == KIND_LOAD:
                iq = mem_iq
                if iq.size >= iq.capacity or len(loads) >= lsq.lq_entries:
                    return
            elif kind == KIND_STORE:
                iq = mem_iq
                if iq.size >= iq.capacity or len(stores) >= lsq.sq_entries:
                    return
            elif kind < KIND_NOP:
                iq = int_iq
                if iq.size >= iq.capacity:
                    return
            else:
                iq = None                  # nop / halt
            writes_reg = pd.writes_reg
            if writes_reg and not free:
                # Condition (5): reclaim squash-log registers under
                # pressure.
                if not self.scheme.emergency_release() or not free:
                    return
            dq.popleft()

            # -- rename ------------------------------------------------
            num_srcs = pd.num_srcs
            if num_srcs == 0:
                sp = ()
            elif num_srcs == 1:
                sp = (rmap[pd.src0],)
            else:
                sp = (rmap[pd.src0], rmap[pd.src1])
            dyn.srcs_preg = sp
            if track_rgids:
                if num_srcs == 0:
                    dyn.src_rgids = ()
                elif num_srcs == 1:
                    dyn.src_rgids = (rgids[pd.src0],)
                else:
                    dyn.src_rgids = (rgids[pd.src0], rgids[pd.src1])
            reused = False
            if writes_reg:
                result = None
                if try_reuse is not None and not pd.is_branch \
                        and not pd.is_store:
                    result = try_reuse(dyn)
                if result is not None and result.preg is not None:
                    # Integration-style: adopt the squashed destination.
                    self._apply_reuse(dyn, result)
                    reused = True
                else:
                    if not free:
                        raise AssertionError("rename without a free preg")
                    preg = free.pop()
                    reg_states[preg] = IN_FLIGHT
                    ready[preg] = False
                    areg = pd.dest
                    dyn.dest_areg = areg
                    dyn.old_preg = rmap[areg]
                    dyn.old_rgid = rgids[areg]
                    dyn.dest_preg = preg
                    rmap[areg] = preg
                    if track_rgids:
                        # Draw a fresh RGID (NULL once the epoch's
                        # values are used up).
                        rgid = rat.global_rgid[areg] + 1
                        if rgid - rat.epoch_base >= rat.rgid_limit:
                            rat.overflow_events += 1
                            rgid = NULL_RGID
                        else:
                            rat.global_rgid[areg] = rgid
                        dyn.dest_rgid = rgid
                        rgids[areg] = rgid
                    if result is not None:
                        # Value-style (DIR): the fresh register gets the
                        # stored value.
                        self._apply_reuse(dyn, result)
                        reused = True
            dyn.renamed = True
            if obs.enabled:
                obs.emit_rename(dyn, reused)

            # -- dispatch ----------------------------------------------
            rob.append(dyn)
            if iq is None:
                dyn.completed = True
                dyn.executed = True
                continue
            if reused and not dyn.verify_load:
                dyn.executed = True
                continue
            if kind == KIND_LOAD:
                loads[dyn.seq] = dyn
            elif kind == KIND_STORE:
                stores[dyn.seq] = dyn
            # Unready sources, deduplicated (at most two).
            if not sp:
                not_ready = ()
            elif num_srcs == 1 or sp[0] == sp[1]:
                p0 = sp[0]
                not_ready = () if ready[p0] else (p0,)
            else:
                p0, p1 = sp
                if ready[p0]:
                    not_ready = () if ready[p1] else (p1,)
                else:
                    not_ready = (p0,) if ready[p1] else (p0, p1)
            if iq.size >= iq.capacity:
                raise AssertionError("%s IQ overflow" % iq.name)
            iq.size += 1
            if not_ready:
                dyn.wait_count = len(not_ready)
                waiting = iq.waiting
                for preg in not_ready:
                    waiting.setdefault(preg, []).append(dyn)
            else:
                iq.ready.append(dyn)

    def _apply_reuse(self, dyn, result):
        """Adopt a reuse decision. A value-style result arrives with the
        destination already renamed to a fresh register."""
        regfile = self.regfile
        if result.preg is not None:
            self.rat.apply_reuse(dyn, result.preg, result.rgid)
            regfile.mark_in_flight(result.preg)
            dyn.result = regfile.values[result.preg]
        else:
            regfile.set_value(dyn.dest_preg, result.value)
            dyn.result = result.value
        dyn.reused = True
        dyn.completed = True
        dyn.reuse_scheme_tag = result.tag
        self.obs.reuse_applied(dyn)
        if dyn.is_load and result.verify_addr is not None:
            dyn.verify_load = True
            dyn.mem_addr = result.verify_addr
            dyn.mem_size = dyn.pd.mem_size
