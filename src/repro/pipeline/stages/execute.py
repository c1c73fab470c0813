"""Execute stage: issue-queue selection and functional execution.

Wraps the scheduler (issue queues + function units) and the LSQ's
speculative datapath. Completions are scheduled into the
:class:`~repro.pipeline.latches.CompletionQueue` latch at
``cycle + latency``; the writeback stage picks them up.

``REPRO_SLOWPATH=1`` swaps in the original interpretive execute path,
kept verbatim as the differential-testing reference for the predecoded
fast path.
"""

from operator import attrgetter

from repro.isa.instruction import INST_BYTES
from repro.isa.opcodes import Op, OpClass
from repro.isa.predecode import (KIND_ALU, KIND_BRANCH, KIND_DIV,
                                 KIND_LOAD, KIND_MUL, KIND_NOP, KIND_STORE,
                                 slowpath_enabled)
from repro.utils.bits import MASK64, sext32, to_unsigned, wrap64

_SEQ_KEY = attrgetter("seq")


def _sext32(value):
    value &= 0xFFFFFFFF
    if value & 0x80000000:
        value |= ~0xFFFFFFFF & MASK64
    return value


class ExecuteStage:
    """Select ready instructions from the issue queues and execute them."""

    __slots__ = ("state", "width", "iqs", "fus", "num_alu", "num_bru",
                 "num_lsu", "div_latency", "regfile", "lsq", "hierarchy",
                 "dport", "fwd_latency", "completions", "obs", "config",
                 "kind_latency", "execute_inst")

    def __init__(self, state):
        cfg = state.config
        self.state = state
        self.width = cfg.width
        self.iqs = state.iqs
        self.fus = state.fus
        self.num_alu = cfg.num_alu
        self.num_bru = cfg.num_bru
        self.num_lsu = cfg.num_lsu
        self.div_latency = cfg.div_latency
        self.regfile = state.regfile
        self.lsq = state.lsq
        self.hierarchy = state.hierarchy
        # Ported mode: loads/stores issue completion-cycle requests on
        # the L1D port (overlapping misses) instead of the synchronous
        # hierarchy probe. Store-to-load forwards cost an L1 hit.
        self.dport = state.memsys.dport if state.memsys is not None \
            else None
        self.fwd_latency = cfg.mem.l1d_latency
        self.completions = state.completions
        self.obs = state.obs
        self.config = cfg
        # Execute latency indexed by PDInst.kind (branch/load handlers
        # compute their own).
        self.kind_latency = (
            cfg.alu_latency, cfg.mul_latency, cfg.div_latency,
            cfg.branch_latency, 0, cfg.store_latency,
            cfg.alu_latency, cfg.alu_latency)
        # Differential-testing escape hatch: dispatch execute through
        # the original interpretive path.
        self.execute_inst = self._execute_inst_slow if slowpath_enabled() \
            else self._execute_inst

    def tick(self):
        """Issue, oldest first per IQ, what this cycle's ports allow.

        :meth:`IssueQueue.take_ready
        <repro.pipeline.scheduler.IssueQueue.take_ready>` and
        :meth:`FunctionUnits.try_take
        <repro.pipeline.scheduler.FunctionUnits.try_take>` run inline,
        the port use counted in locals; the unpipelined divider's busy
        horizon lives on ``fus``. Each issued instruction then executes
        in one call.
        """
        cycle = self.state.cycle
        execute = self.execute_inst
        fus = self.fus
        alu_used = bru_used = lsu_used = 0
        num_alu = self.num_alu
        for iq in self.iqs:
            ready = iq._ready
            if not ready:
                continue
            # Squashed entries only exist in the cycles right after a
            # squash; scan before paying for the filtering list.
            for dyn in ready:
                if dyn.squashed:
                    ready = [d for d in ready if not d.squashed]
                    break
            ready.sort(key=_SEQ_KEY)
            remaining = []
            take = self.width
            for dyn in ready:
                if not take:
                    remaining.append(dyn)
                    continue
                kind = dyn.pd.kind
                if kind == KIND_ALU or kind == KIND_MUL or kind >= KIND_NOP:
                    granted = alu_used < num_alu
                    if granted:
                        alu_used += 1
                elif kind == KIND_LOAD or kind == KIND_STORE:
                    granted = lsu_used < self.num_lsu
                    if granted:
                        lsu_used += 1
                elif kind == KIND_BRANCH:
                    granted = bru_used < self.num_bru
                    if granted:
                        bru_used += 1
                else:
                    # KIND_DIV: unpipelined divider sharing the ALU ports.
                    granted = alu_used < num_alu \
                        and fus.div_busy_until <= cycle
                    if granted:
                        alu_used += 1
                        fus.div_busy_until = cycle + self.div_latency
                if granted:
                    take -= 1
                    iq.size -= 1
                    execute(dyn)
                else:
                    remaining.append(dyn)
            iq._ready = remaining

    def _execute_inst(self, dyn):
        pd = dyn.pd
        dyn.issued = True
        cycle = self.state.cycle
        dyn.issue_cycle = cycle
        obs = self.obs
        if obs.enabled:
            obs.emit_issue(dyn)
        values = self.regfile.values
        sp = dyn.srcs_preg
        kind = pd.kind

        if kind <= KIND_DIV:           # alu / mul / div
            latency = self.kind_latency[kind]
            if pd.has_imm:
                dyn.result = pd.alu_fn(values[sp[0]], pd.imm_u) \
                    if pd.num_srcs else pd.imm_u
            else:
                dyn.result = pd.alu_fn(values[sp[0]], values[sp[1]])
        elif kind == KIND_BRANCH:
            latency = self._execute_branch(dyn, values, sp)
        elif kind == KIND_LOAD:
            latency = self._execute_load(dyn, values, sp)
        elif kind == KIND_STORE:
            addr = (values[sp[1]] + pd.imm) & MASK64
            dyn.mem_addr = addr
            dyn.mem_size = pd.mem_size
            dyn.store_data = values[sp[0]] & pd.store_mask
            if self.dport is not None:
                latency = self.kind_latency[KIND_STORE] \
                    + self.dport.request(cycle, addr, is_write=True,
                                         seq=dyn.seq) - cycle
            else:
                latency = self.kind_latency[KIND_STORE] \
                    + self.hierarchy.access(addr, is_write=True)
        else:                          # nop / halt (never issued; parity)
            latency = self.kind_latency[kind]
        events = self.completions.by_cycle
        when = cycle + latency
        pending = events.get(when)
        if pending is None:
            events[when] = [dyn]
        else:
            pending.append(dyn)

    def _execute_branch(self, dyn, values, sp):
        pd = dyn.pd
        fallthrough = pd.next_pc
        op = pd.op
        if op is Op.JAL:
            dyn.actual_npc = pd.target
            dyn.result = fallthrough
        elif op is Op.JALR:
            dyn.actual_npc = (values[sp[0]] + pd.imm) & MASK64 & ~1
            dyn.result = fallthrough
        else:
            taken = pd.branch_fn(values[sp[0]], values[sp[1]])
            dyn.actual_npc = pd.target if taken else fallthrough
        return self.kind_latency[KIND_BRANCH]

    def _execute_load(self, dyn, values, sp):
        pd = dyn.pd
        if dyn.verify_load:
            addr = dyn.mem_addr  # logged by the reuse scheme
        else:
            addr = (values[sp[0]] + pd.imm) & MASK64
            dyn.mem_addr = addr
            dyn.mem_size = pd.mem_size
        value, forwarded = self.lsq.speculative_read(addr, pd.mem_size,
                                                     dyn.seq)
        if pd.is_lw:
            value = sext32(value)
        if dyn.verify_load:
            # Stash the re-read value for comparison at writeback.
            dyn.store_data = value
        else:
            dyn.result = value
        if forwarded:
            return self.fwd_latency
        if self.dport is not None:
            cycle = dyn.issue_cycle
            return 1 + self.dport.request(cycle, addr,
                                          seq=dyn.seq) - cycle
        return 1 + self.hierarchy.access(addr)

    # ------------------------------------------------------------------
    # Original interpretive execute (REPRO_SLOWPATH=1): kept verbatim as
    # the differential-testing reference for the predecoded fast path.
    # ------------------------------------------------------------------
    def _execute_inst_slow(self, dyn):
        inst = dyn.inst
        info = inst.info
        dyn.issued = True
        cycle = self.state.cycle
        dyn.issue_cycle = cycle
        obs = self.obs
        if obs.enabled:
            obs.emit_issue(dyn)
        values = self.regfile.values
        srcs = [values[p] for p in dyn.srcs_preg]
        latency = self.fus.latency_of(dyn)
        op_class = info.op_class

        if op_class is OpClass.BRANCH:
            latency = self._execute_branch_slow(dyn, srcs)
        elif op_class is OpClass.LOAD:
            latency = self._execute_load_slow(dyn, srcs)
        elif op_class is OpClass.STORE:
            addr = wrap64(srcs[1] + inst.imm)
            dyn.mem_addr = addr
            dyn.mem_size = info.mem_size
            dyn.store_data = srcs[0] & ((1 << (info.mem_size * 8)) - 1)
            if self.dport is not None:
                latency += self.dport.request(cycle, addr, is_write=True,
                                              seq=dyn.seq) - cycle
            else:
                latency += self.hierarchy.access(addr, is_write=True)
        else:
            if info.has_imm:
                a = srcs[0] if info.num_srcs else 0
                dyn.result = info.alu_fn(a, to_unsigned(inst.imm)) \
                    if info.alu_fn else to_unsigned(inst.imm)
            else:
                dyn.result = info.alu_fn(srcs[0], srcs[1])
        self.completions.by_cycle.setdefault(cycle + latency,
                                             []).append(dyn)

    def _execute_branch_slow(self, dyn, srcs):
        inst = dyn.inst
        fallthrough = inst.pc + INST_BYTES
        if inst.op is Op.JAL:
            dyn.actual_npc = inst.imm
            dyn.result = fallthrough
        elif inst.op is Op.JALR:
            dyn.actual_npc = wrap64(srcs[0] + inst.imm) & ~1
            dyn.result = fallthrough
        else:
            taken = inst.info.branch_fn(srcs[0], srcs[1])
            dyn.actual_npc = inst.imm if taken else fallthrough
        return self.config.branch_latency

    def _execute_load_slow(self, dyn, srcs):
        inst = dyn.inst
        info = inst.info
        if dyn.verify_load:
            addr = dyn.mem_addr  # logged by the reuse scheme
        else:
            addr = wrap64(srcs[0] + inst.imm)
            dyn.mem_addr = addr
            dyn.mem_size = info.mem_size
        value, forwarded = self.lsq.speculative_read(addr, info.mem_size,
                                                     dyn.seq)
        if inst.op is Op.LW:
            value = _sext32(value)
        if dyn.verify_load:
            # Stash the re-read value for comparison at writeback.
            dyn.store_data = value
        else:
            dyn.result = value
        if forwarded:
            return self.fwd_latency
        if self.dport is not None:
            cycle = dyn.issue_cycle
            return 1 + self.dport.request(cycle, addr,
                                          seq=dyn.seq) - cycle
        return 1 + self.hierarchy.access(addr)
