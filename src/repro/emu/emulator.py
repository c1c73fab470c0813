"""Functional instruction-set emulator.

This is the golden model: the out-of-order core (with or without squash
reuse) must produce exactly the same final architectural registers and
memory for every program. It can also record the committed dynamic trace,
which the analysis tools use for branch statistics.

It has two executors for the one ISA. :meth:`Emulator.run_until` runs
every whole superblock it enters as one compiled function
(:mod:`repro.isa.superblock`); the interpretive :meth:`Emulator._execute`
runs every other instruction: :meth:`Emulator.step` (the lockstep
checker's per-commit step), a pass's residue, and every instruction
under ``REPRO_SLOWPATH=1``, which makes it the ISA oracle of
differential runs.
"""

import collections

from repro.config import envreg
from repro.isa.instruction import INST_BYTES
from repro.isa.opcodes import Op, OpClass
from repro.isa.program import STACK_TOP
from repro.isa.registers import NUM_ARCH_REGS, reg_num
from repro.isa.superblock import trace_flags
from repro.emu.memory import SparseMemory
from repro.utils.bits import sext32, wrap64, to_unsigned


def slowpath_enabled():
    """True when ``REPRO_SLOWPATH=1`` selects the interpretive ISA
    oracle for every instruction (differential testing). Read at
    emulator construction time, so tests can toggle per instance."""
    return envreg.get("REPRO_SLOWPATH")


class EmulationError(Exception):
    """Raised when execution leaves the program or exceeds its budget."""


class EmulationResult:
    """Final state and summary statistics of a functional run."""

    def __init__(self, regs, memory, inst_count, halted, pc):
        self.regs = regs
        self.memory = memory
        self.inst_count = inst_count
        self.halted = halted
        self.pc = pc

    def reg(self, name_or_num):
        return self.regs[reg_num(name_or_num)]


class BBVAccumulator:
    """Basic-block-vector counts that :meth:`Emulator.run_until` keeps.

    ``counts`` maps a basic block's leader pc to the instructions
    executed under it, and ``leader`` is the block being executed. A new
    basic block starts after every control instruction, taken or not;
    capped superblocks and other instructions keep the leader. The
    owner may swap ``counts`` for a fresh dict between runs (the BBV
    profiler does so at every interval boundary).
    """

    __slots__ = ("counts", "leader")

    def __init__(self, leader):
        self.counts = {}
        self.leader = leader


class Emulator:
    """Sequential interpreter over a :class:`~repro.isa.program.Program`."""

    def __init__(self, program, init_regs=None, sp=STACK_TOP):
        self.program = program
        self.memory = SparseMemory(program.initial_memory())
        self.regs = [0] * NUM_ARCH_REGS
        if init_regs:
            for idx, value in init_regs.items():
                self.regs[idx] = to_unsigned(value)
            self.regs[0] = 0   # x0 is hardwired: compiled blocks read 0
        self.regs[2] = sp  # stack pointer
        self.pc = program.entry
        self.inst_count = 0
        self.halted = False
        # Set by _execute for the most recent branch / memory access, so
        # observers (trace recording, the sampling profiler's warmup
        # capture) see the executed instruction's semantics rather than
        # re-deriving them from pc deltas.
        self.last_branch_taken = None
        self.last_mem_addr = None
        self.last_mem_size = None
        # REPRO_SLOWPATH=1 interprets every instruction of run_until too.
        self._slow = slowpath_enabled()
        # Superblock dispatch table, compiled on the first block pass and
        # never here, so single-stepping users (the lockstep checker) do
        # not pay for it.
        self._sb_by_pc = None
        # Instructions fully retired by the current superblock before it
        # raised (see the fault handler in repro.isa.superblock).
        self._sb_progress = 0

    # ------------------------------------------------------------------
    def step(self):
        """Interpret one instruction; returns the executed Instruction."""
        if self.halted:
            raise EmulationError("program already halted")
        return self._interpret(None, None)

    def _interpret(self, bbv, trace):
        """Execute the instruction at ``pc`` through :meth:`_execute`;
        returns it. Counts it in ``inst_count`` and under ``bbv``'s
        leader, and appends its warmup record to ``trace``: the one
        per-instruction step of :meth:`step`, of a block pass's residue
        and of a slowpath run."""
        pc = self.pc
        try:
            inst = self.program.inst_at(pc)
        except KeyError:
            raise EmulationError("pc %#x leaves the program" % pc) from None
        self._execute(inst)
        self.inst_count += 1
        if trace is not None:
            self._record(trace, pc, inst)
        if bbv is not None:
            counts = bbv.counts
            counts[bbv.leader] = counts.get(bbv.leader, 0) + 1
            if inst.is_branch:
                bbv.leader = self.pc
        return inst

    def _execute(self, inst):
        regs = self.regs
        info = inst.info
        op_class = info.op_class
        next_pc = inst.pc + INST_BYTES
        if op_class is OpClass.BRANCH:
            if inst.op is Op.JAL:
                if inst.writes_reg:
                    regs[inst.dest] = next_pc
                next_pc = inst.imm
                self.last_branch_taken = True
            elif inst.op is Op.JALR:
                target = wrap64(regs[inst.srcs[0]] + inst.imm) & ~1
                if inst.writes_reg:
                    regs[inst.dest] = inst.pc + INST_BYTES
                next_pc = target
                self.last_branch_taken = True
            else:
                taken = info.branch_fn(regs[inst.srcs[0]], regs[inst.srcs[1]])
                if taken:
                    next_pc = inst.imm
                self.last_branch_taken = taken
        elif op_class is OpClass.LOAD:
            addr = wrap64(regs[inst.srcs[0]] + inst.imm)
            value = self.memory.read(addr, info.mem_size)
            if inst.op is Op.LW:
                value = sext32(value)
            if inst.writes_reg:
                regs[inst.dest] = value
            self.last_mem_addr = addr
            self.last_mem_size = info.mem_size
        elif op_class is OpClass.STORE:
            addr = wrap64(regs[inst.srcs[1]] + inst.imm)
            self.memory.write(addr, regs[inst.srcs[0]], info.mem_size)
            self.last_mem_addr = addr
            self.last_mem_size = info.mem_size
        elif op_class is OpClass.HALT:
            self.halted = True
        elif op_class is OpClass.NOP:
            pass
        else:  # ALU / MUL / DIV
            if info.has_imm:
                a = regs[inst.srcs[0]] if info.num_srcs else 0
                result = (info.alu_fn(a, to_unsigned(inst.imm))
                          if info.num_srcs else to_unsigned(inst.imm))
            else:
                result = info.alu_fn(regs[inst.srcs[0]], regs[inst.srcs[1]])
            if inst.writes_reg:
                regs[inst.dest] = result
        regs[0] = 0
        self.pc = next_pc

    # ------------------------------------------------------------------
    def run_until(self, max_insts, bbv=None, trace=None):
        """Run until ``halt`` or the instruction budget is reached.

        The single budgeted runner behind :meth:`run`, :meth:`run_trace`
        and the sampling passes. Returns True when the program halted,
        False when the budget ran out first (callers decide whether that
        is an error).

        ``bbv`` (a :class:`BBVAccumulator`) counts every retired
        instruction under its basic block's leader, whichever executor
        ran it; a block that raises counts the prefix it retired.

        ``trace=(branches, mems)`` appends the checkpoint warmup records
        to two sinks (lists or deques): ``(pc, taken, target, flags)``
        per executed control instruction and ``(addr, is_write)`` per
        memory access, in program order.
        """
        if self._slow:
            while not self.halted and self.inst_count < max_insts:
                self._interpret(bbv, trace)
            return self.halted
        table = self._sb_by_pc
        if table is None:
            table = self._sb_by_pc = self.program.superblocks().by_pc
        sb_get = table.get
        regs = self.regs
        if trace is not None:
            branch_append = trace[0].append
            mem_append = trace[1].append
        if bbv is not None:
            counts = bbv.counts
            leader = bbv.leader
        count = self.inst_count
        # Block-granular dispatch with the per-instruction state in
        # locals; inst_count (and the BBV leader) is committed back even
        # when a block (or the bounds check) raises. The residue (a pc
        # off the leader set, e.g. an indirect jump into a block's
        # middle, or a block that would overrun the budget) is
        # interpreted.
        try:
            while not self.halted and count < max_insts:
                blk = sb_get(self.pc)
                if blk is not None and count + blk.length <= max_insts:
                    try:
                        if trace is None:
                            self.pc = blk.fn(self, regs)
                        else:
                            self.pc = blk.traced_fn()(
                                self, regs, branch_append, mem_append)
                    except BaseException:
                        # The guard already restored self.pc to the
                        # raising instruction; commit only the
                        # instructions that fully retired.
                        done = self._sb_progress
                        self._sb_progress = 0
                        count += done
                        if bbv is not None and done:
                            counts[leader] = counts.get(leader, 0) + done
                        raise
                    count += blk.length
                    if bbv is not None:
                        counts[leader] = counts.get(leader, 0) + blk.length
                        if blk.ends_branch:
                            leader = self.pc
                    continue
                self.inst_count = count
                if bbv is not None:
                    bbv.leader = leader
                self._interpret(bbv, trace)
                count += 1
                if bbv is not None:
                    leader = bbv.leader
        finally:
            self.inst_count = count
            if bbv is not None:
                bbv.leader = leader
        return self.halted

    def _record(self, trace, pc, inst):
        """Append one interpreted instruction's warmup record (the
        per-instruction twin of the traced superblocks)."""
        if inst.is_branch:
            trace[0].append((pc, 1 if self.last_branch_taken else 0,
                             self.pc, trace_flags(inst)))
        elif inst.is_load or inst.is_store:
            trace[1].append((self.last_mem_addr, 1 if inst.is_store else 0))

    def result(self):
        """Snapshot the current state as an :class:`EmulationResult`."""
        return EmulationResult(list(self.regs), self.memory,
                               self.inst_count, self.halted, self.pc)

    def run(self, max_insts=50_000_000):
        """Run to ``halt``; returns an :class:`EmulationResult`."""
        if not self.run_until(max_insts):
            raise EmulationError(
                "instruction budget exhausted (%d)" % max_insts)
        return self.result()

    def run_trace(self, max_insts=50_000_000):
        """Run to ``halt`` recording (pc, taken, target) per control inst.

        Used by branch-predictor characterisation tests; the full dynamic
        trace would be too large to keep for big runs. The triples come
        from the same warmup records checkpoint capture uses, so
        taken-ness is the executed instruction's semantics: a taken
        branch whose target happens to be the fall-through pc is still
        recorded as taken.
        """
        branches = []
        if not self.run_until(max_insts, trace=(branches, _DISCARD)):
            raise EmulationError(
                "instruction budget exhausted (%d)" % max_insts)
        return self.result(), [(pc, bool(taken), target)
                               for pc, taken, target, _flags in branches]


#: A sink that drops every record (run_trace keeps no memory records).
_DISCARD = collections.deque(maxlen=0)


def run_program(program, max_insts=50_000_000, init_regs=None):
    """Convenience wrapper: emulate ``program`` to completion."""
    return Emulator(program, init_regs=init_regs).run(max_insts=max_insts)
