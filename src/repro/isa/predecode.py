"""Predecode layer: static instructions flattened for the hot paths.

The detailed core and the superblock compiler would otherwise re-derive
the same per-instruction facts (`inst.info` attribute walks,
``op_class`` if/elif chains, ``to_unsigned(imm)``) on every dynamic
instance or every use of every static instruction. This module computes
all of it exactly once per static instruction at
:meth:`Program.predecode` time: a :class:`PDInst` is a ``__slots__``
record with the operand shape, the register numbers, the pre-converted
immediate, the memory size / store mask, the functional-unit kind as a
small int, and the classification flags, so hot stages read plain
attributes instead of walking ``inst.info``.

The records are pure functions of the static instruction, so a
predecoded program can be cached on the :class:`Program` and shared by
every core instance and the superblock table built from it.
"""

from repro.isa.opcodes import Op, OpClass
from repro.utils.bits import to_unsigned

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
    """True when ``REPRO_SLOWPATH=1`` selects the emulator's
    interpretive ISA oracle (differential testing). Read at emulator
    construction time, so tests can toggle per instance."""
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
        "mem_size", "store_mask", "alu_fn", "branch_fn",
    )

    def __repr__(self):
        return "<PDInst %s %r>" % (KIND_NAMES[self.kind], self.inst)


def predecode_inst(inst):
    """Flatten one :class:`~repro.isa.instruction.Instruction`.

    Every field is derived from the instruction and its
    :class:`~repro.isa.opcodes.OpInfo`; the property test in
    ``tests/test_predecode.py`` asserts the correspondence for every
    opcode in the ISA. Instructions without a placed ``pc`` (unit-test
    constructions) get a ``next_pc`` of None.
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
    return rec


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
