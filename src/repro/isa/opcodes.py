"""Opcode definitions, classes and arithmetic semantics.

``OPCODE_INFO`` is the single source of truth consumed by the assembler,
the functional emulator and the timing model. Each entry records the
operand shape (how many register sources, whether there is a destination,
whether an immediate is used) and, for ALU operations, a pure function
implementing the arithmetic on unsigned 64-bit values.
"""

import enum

from repro.utils.bits import (
    MASK64,
    wrap64,
    to_signed,
    sll64,
    srl64,
    sra64,
    div_trunc,
    rem_trunc,
    mulh64,
)


class OpClass(enum.Enum):
    """Functional-unit class used by the issue/execute model."""

    ALU = "alu"          # single-cycle integer
    MUL = "mul"          # pipelined multiplier
    DIV = "div"          # unpipelined divider
    BRANCH = "branch"    # resolved on a BRU port
    LOAD = "load"
    STORE = "store"
    NOP = "nop"
    HALT = "halt"


#: Functional-unit class as a small int (dispatch without enum identity
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


class Op(enum.Enum):
    """Every opcode in the ISA."""

    # Register-register ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"
    MUL = "mul"
    MULH = "mulh"
    DIV = "div"
    REM = "rem"
    MIN = "min"   # convenience ops (RISC-V Zbb-style)
    MAX = "max"
    # Register-immediate ALU.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    SLTI = "slti"
    SLTIU = "sltiu"
    LUI = "lui"
    # Memory.
    LD = "ld"   # 8-byte load
    LW = "lw"   # 4-byte sign-extending load
    LBU = "lbu"  # 1-byte zero-extending load
    SD = "sd"
    SW = "sw"
    SB = "sb"
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    JAL = "jal"
    JALR = "jalr"
    # Misc.
    NOP = "nop"
    HALT = "halt"


def _slt(a, b):
    return 1 if to_signed(a) < to_signed(b) else 0


def _sltu(a, b):
    return 1 if (a & MASK64) < (b & MASK64) else 0


def _smin(a, b):
    return a if to_signed(a) <= to_signed(b) else b


def _smax(a, b):
    return a if to_signed(a) >= to_signed(b) else b


_ALU_FN = {
    Op.ADD: lambda a, b: wrap64(a + b),
    Op.SUB: lambda a, b: wrap64(a - b),
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SLL: sll64,
    Op.SRL: srl64,
    Op.SRA: sra64,
    Op.SLT: _slt,
    Op.SLTU: _sltu,
    Op.MUL: lambda a, b: wrap64(a * b),
    Op.MULH: mulh64,
    Op.DIV: div_trunc,
    Op.REM: rem_trunc,
    Op.MIN: _smin,
    Op.MAX: _smax,
}

# Immediate forms share the register-register semantics (operand b is the
# immediate); LUI simply materialises its (pre-shifted) immediate.
_ALU_FN.update({
    Op.ADDI: _ALU_FN[Op.ADD],
    Op.ANDI: _ALU_FN[Op.AND],
    Op.ORI: _ALU_FN[Op.OR],
    Op.XORI: _ALU_FN[Op.XOR],
    Op.SLLI: _ALU_FN[Op.SLL],
    Op.SRLI: _ALU_FN[Op.SRL],
    Op.SRAI: _ALU_FN[Op.SRA],
    Op.SLTI: _ALU_FN[Op.SLT],
    Op.SLTIU: _ALU_FN[Op.SLTU],
    Op.LUI: lambda a, b: b,
})

_BRANCH_FN = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Op.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Op.BLTU: lambda a, b: (a & MASK64) < (b & MASK64),
    Op.BGEU: lambda a, b: (a & MASK64) >= (b & MASK64),
}

#: Memory access width in bytes for each memory opcode.
MEM_SIZE = {
    Op.LD: 8, Op.LW: 4, Op.LBU: 1,
    Op.SD: 8, Op.SW: 4, Op.SB: 1,
}

#: Loads that sign-extend their result.
MEM_SIGNED = {Op.LD: True, Op.LW: True, Op.LBU: False}


class OpInfo:
    """Static description of one opcode."""

    __slots__ = ("op", "op_class", "kind", "num_srcs", "has_dest",
                 "has_imm", "alu_fn", "branch_fn", "mem_size", "mem_signed")

    def __init__(self, op, op_class, num_srcs, has_dest, has_imm):
        self.op = op
        self.op_class = op_class
        self.kind = _CLASS_KIND[op_class]
        self.num_srcs = num_srcs
        self.has_dest = has_dest
        self.has_imm = has_imm
        self.alu_fn = _ALU_FN.get(op)
        self.branch_fn = _BRANCH_FN.get(op)
        self.mem_size = MEM_SIZE.get(op, 0)
        self.mem_signed = MEM_SIGNED.get(op, False)

    @property
    def is_branch(self):
        return self.op_class is OpClass.BRANCH

    @property
    def is_load(self):
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self):
        return self.op_class is OpClass.STORE

    @property
    def is_control(self):
        return self.op_class is OpClass.BRANCH or self.op in (Op.JAL, Op.JALR)


def _build_info():
    info = {}
    rr_ops = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL, Op.SRA,
              Op.SLT, Op.SLTU, Op.MIN, Op.MAX]
    for op in rr_ops:
        info[op] = OpInfo(op, OpClass.ALU, 2, True, False)
    info[Op.MUL] = OpInfo(Op.MUL, OpClass.MUL, 2, True, False)
    info[Op.MULH] = OpInfo(Op.MULH, OpClass.MUL, 2, True, False)
    info[Op.DIV] = OpInfo(Op.DIV, OpClass.DIV, 2, True, False)
    info[Op.REM] = OpInfo(Op.REM, OpClass.DIV, 2, True, False)
    ri_ops = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SRAI,
              Op.SLTI, Op.SLTIU]
    for op in ri_ops:
        info[op] = OpInfo(op, OpClass.ALU, 1, True, True)
    info[Op.LUI] = OpInfo(Op.LUI, OpClass.ALU, 0, True, True)
    for op in (Op.LD, Op.LW, Op.LBU):
        info[op] = OpInfo(op, OpClass.LOAD, 1, True, True)
    for op in (Op.SD, Op.SW, Op.SB):
        # src0 = value to store, src1 = address base.
        info[op] = OpInfo(op, OpClass.STORE, 2, False, True)
    for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
        info[op] = OpInfo(op, OpClass.BRANCH, 2, False, True)
    info[Op.JAL] = OpInfo(Op.JAL, OpClass.BRANCH, 0, True, True)
    info[Op.JALR] = OpInfo(Op.JALR, OpClass.BRANCH, 1, True, True)
    info[Op.NOP] = OpInfo(Op.NOP, OpClass.NOP, 0, False, False)
    info[Op.HALT] = OpInfo(Op.HALT, OpClass.HALT, 0, False, False)
    return info


#: Opcode -> :class:`OpInfo`.
OPCODE_INFO = _build_info()

#: The immediate-ALU opcode corresponding to each register-register one
#: (used by the assembler's pseudo-instruction expansion).
IMM_FORM = {
    Op.ADD: Op.ADDI, Op.AND: Op.ANDI, Op.OR: Op.ORI, Op.XOR: Op.XORI,
    Op.SLL: Op.SLLI, Op.SRL: Op.SRLI, Op.SRA: Op.SRAI,
    Op.SLT: Op.SLTI, Op.SLTU: Op.SLTIU,
}
