"""Predecode layer: static instructions flattened for the hot paths.

Both the functional emulator and the detailed core spend most of their
time re-deriving the same per-instruction facts (`inst.info` attribute
walks, ``op_class`` if/elif chains, ``to_unsigned(imm)``) on every
dynamic instance of every static instruction. This module computes all
of it exactly once per static instruction at :meth:`Program.predecode`
time:

* :class:`PDInst` — a ``__slots__`` record with the operand shape, the
  register numbers, the pre-converted immediate, the memory size /
  store mask, the functional-unit kind as a small int, and the
  classification flags, so hot stages read plain attributes instead of
  walking ``inst.info``.
* ``exec_fn`` — a per-instruction *semantic closure* for the golden
  model: ``exec_fn(emu, regs) -> next_pc`` performs the instruction's
  architectural effect with every constant (register numbers, converted
  immediate, fall-through pc, ALU function) bound at predecode time.
  The closures are bit-identical to :meth:`Emulator._execute` by
  construction, and the ``REPRO_SLOWPATH=1`` escape hatch keeps the
  original interpretive path alive for differential testing.

The records are pure functions of the static instruction, so a
predecoded program can be cached on the :class:`Program` and shared by
every emulator / core instance built from it.
"""

from repro.isa.opcodes import Op, OpClass
from repro.utils.bits import sext32, to_unsigned, wrap64

#: Bumped whenever predecoded semantics change in a way that could alter
#: results; folded into the harness cache fingerprint so cached results
#: from pre-optimisation code are never silently reused. v2: superblock
#: compilation (repro.isa.superblock) joins the execution fast path.
PREDECODE_VERSION = 2

#: Functional-unit kind as a small int (dispatch without enum identity
#: checks). Order matters: ``kind <= KIND_DIV`` selects the ALU-computed
#: classes and ``kind >= KIND_NOP`` the no-execute ones.
KIND_ALU = 0
KIND_MUL = 1
KIND_DIV = 2
KIND_BRANCH = 3
KIND_LOAD = 4
KIND_STORE = 5
KIND_NOP = 6
KIND_HALT = 7

_CLASS_KIND = {
    OpClass.ALU: KIND_ALU,
    OpClass.MUL: KIND_MUL,
    OpClass.DIV: KIND_DIV,
    OpClass.BRANCH: KIND_BRANCH,
    OpClass.LOAD: KIND_LOAD,
    OpClass.STORE: KIND_STORE,
    OpClass.NOP: KIND_NOP,
    OpClass.HALT: KIND_HALT,
}

#: Human-readable kind names (debugging / tests).
KIND_NAMES = ("alu", "mul", "div", "branch", "load", "store", "nop",
              "halt")


def slowpath_enabled():
    """True when ``REPRO_SLOWPATH=1`` requests the pre-predecode
    interpretive paths (differential-testing escape hatch). Read at
    emulator/core construction time, so tests can toggle per instance."""
    from repro.config import envreg
    return envreg.get("REPRO_SLOWPATH")


class PDInst:
    """One predecoded static instruction (flat, read-only hot-path view)."""

    __slots__ = (
        "inst", "op", "op_class", "kind", "pc", "next_pc",
        "dest", "src0", "src1", "num_srcs",
        "imm", "imm_u", "has_imm", "target",
        "writes_reg", "is_branch", "is_cond_branch", "is_indirect",
        "is_load", "is_store", "is_halt", "is_lw",
        "mem_size", "store_mask", "alu_fn", "branch_fn", "exec_fn",
    )

    def __repr__(self):
        return "<PDInst %s %r>" % (KIND_NAMES[self.kind], self.inst)


def predecode_inst(inst):
    """Flatten one :class:`~repro.isa.instruction.Instruction`.

    Every field is derived from the instruction and its
    :class:`~repro.isa.opcodes.OpInfo`; the property test in
    ``tests/test_predecode.py`` asserts the correspondence for every
    opcode in the ISA. Instructions without a placed ``pc`` (unit-test
    constructions) get ``next_pc``/``exec_fn`` of None.
    """
    info = inst.info
    rec = PDInst()
    rec.inst = inst
    rec.op = inst.op
    rec.op_class = info.op_class
    rec.kind = _CLASS_KIND[info.op_class]
    rec.pc = inst.pc
    rec.next_pc = None if inst.pc is None else inst.next_pc()
    rec.dest = inst.dest
    srcs = inst.srcs
    rec.num_srcs = len(srcs)
    rec.src0 = srcs[0] if srcs else None
    rec.src1 = srcs[1] if len(srcs) > 1 else None
    rec.imm = inst.imm
    rec.imm_u = to_unsigned(inst.imm) if info.has_imm else 0
    rec.has_imm = info.has_imm
    rec.target = inst.taken_target()
    rec.writes_reg = inst.writes_reg
    rec.is_branch = inst.is_branch
    rec.is_cond_branch = inst.is_cond_branch
    rec.is_indirect = inst.is_indirect
    rec.is_load = inst.is_load
    rec.is_store = inst.is_store
    rec.is_halt = inst.is_halt
    rec.is_lw = inst.op is Op.LW
    rec.mem_size = info.mem_size
    rec.store_mask = (1 << (info.mem_size * 8)) - 1 if info.mem_size else 0
    rec.alu_fn = info.alu_fn
    rec.branch_fn = info.branch_fn
    rec.exec_fn = None if rec.next_pc is None else _build_exec(rec)
    return rec


# ---------------------------------------------------------------------------
# Golden-model semantic closures. Constants are bound as default
# arguments (the fastest name lookup CPython offers); each closure
# mirrors one arm of the original ``Emulator._execute`` exactly —
# including evaluation order (jalr computes its target before writing
# the link register, so ``jalr ra, ra`` stays correct) and the
# ``last_branch_taken`` / ``last_mem_*`` observer fields.
# ---------------------------------------------------------------------------
def _build_exec(rec):
    npc = rec.next_pc
    kind = rec.kind

    if kind == KIND_BRANCH:
        if rec.is_cond_branch:
            def run(emu, regs, _fn=rec.branch_fn, _s0=rec.src0,
                    _s1=rec.src1, _t=rec.imm, _npc=npc):
                taken = _fn(regs[_s0], regs[_s1])
                emu.last_branch_taken = taken
                return _t if taken else _npc
            return run
        if rec.op is Op.JAL:
            if rec.writes_reg:
                def run(emu, regs, _d=rec.dest, _t=rec.imm, _link=npc):
                    regs[_d] = _link
                    emu.last_branch_taken = True
                    return _t
            else:
                def run(emu, regs, _t=rec.imm):
                    emu.last_branch_taken = True
                    return _t
            return run
        # jalr
        if rec.writes_reg:
            def run(emu, regs, _s0=rec.src0, _imm=rec.imm, _d=rec.dest,
                    _link=npc):
                target = wrap64(regs[_s0] + _imm) & ~1
                regs[_d] = _link
                emu.last_branch_taken = True
                return target
        else:
            def run(emu, regs, _s0=rec.src0, _imm=rec.imm):
                emu.last_branch_taken = True
                return wrap64(regs[_s0] + _imm) & ~1
        return run

    if kind == KIND_LOAD:
        # The access itself always happens (alignment checks must fire
        # even for an x0-destination load); only the writeback is gated.
        if rec.writes_reg:
            if rec.is_lw:
                def run(emu, regs, _s0=rec.src0, _imm=rec.imm,
                        _d=rec.dest, _npc=npc):
                    addr = wrap64(regs[_s0] + _imm)
                    regs[_d] = sext32(emu.memory.read(addr, 4))
                    emu.last_mem_addr = addr
                    emu.last_mem_size = 4
                    return _npc
            else:
                def run(emu, regs, _s0=rec.src0, _imm=rec.imm,
                        _d=rec.dest, _size=rec.mem_size, _npc=npc):
                    addr = wrap64(regs[_s0] + _imm)
                    regs[_d] = emu.memory.read(addr, _size)
                    emu.last_mem_addr = addr
                    emu.last_mem_size = _size
                    return _npc
        else:
            def run(emu, regs, _s0=rec.src0, _imm=rec.imm,
                    _size=rec.mem_size, _npc=npc):
                addr = wrap64(regs[_s0] + _imm)
                emu.memory.read(addr, _size)
                emu.last_mem_addr = addr
                emu.last_mem_size = _size
                return _npc
        return run

    if kind == KIND_STORE:
        def run(emu, regs, _s0=rec.src0, _s1=rec.src1, _imm=rec.imm,
                _size=rec.mem_size, _npc=npc):
            addr = wrap64(regs[_s1] + _imm)
            emu.memory.write(addr, regs[_s0], _size)
            emu.last_mem_addr = addr
            emu.last_mem_size = _size
            return _npc
        return run

    if kind == KIND_HALT:
        def run(emu, regs, _npc=npc):
            emu.halted = True
            return _npc
        return run

    if kind == KIND_NOP:
        def run(emu, regs, _npc=npc):
            return _npc
        return run

    # ALU / MUL / DIV. The functions are pure, so skipping the compute
    # for an x0 destination is unobservable.
    if rec.has_imm:
        if not rec.writes_reg:
            def run(emu, regs, _npc=npc):
                return _npc
        elif rec.num_srcs:
            def run(emu, regs, _fn=rec.alu_fn, _d=rec.dest, _s0=rec.src0,
                    _b=rec.imm_u, _npc=npc):
                regs[_d] = _fn(regs[_s0], _b)
                return _npc
        else:  # lui
            def run(emu, regs, _d=rec.dest, _b=rec.imm_u, _npc=npc):
                regs[_d] = _b
                return _npc
        return run
    if rec.writes_reg:
        def run(emu, regs, _fn=rec.alu_fn, _d=rec.dest, _s0=rec.src0,
                _s1=rec.src1, _npc=npc):
            regs[_d] = _fn(regs[_s0], regs[_s1])
            return _npc
    else:
        def run(emu, regs, _npc=npc):
            return _npc
    return run


class PredecodedProgram:
    """All of a program's static instructions, predecoded.

    ``by_pc`` maps every valid instruction address to its
    :class:`PDInst` — membership in the dict *is* the program-bounds
    check (``Program.has_pc`` + ``inst_at`` collapsed into one
    ``dict.get``).
    """

    __slots__ = ("records", "by_pc")

    def __init__(self, records):
        self.records = records
        self.by_pc = {rec.pc: rec for rec in records}


def predecode_program(program):
    """Predecode every instruction of a :class:`~repro.isa.program.
    Program` (cached on the program by :meth:`Program.predecode`)."""
    return PredecodedProgram([predecode_inst(inst)
                              for inst in program.instructions])
