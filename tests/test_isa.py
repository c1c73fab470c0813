"""ISA definitions: registers, opcode table, instruction validation."""

import pytest

from repro.isa import (
    Op, OpClass, OPCODE_INFO, Instruction, reg_num, reg_name,
    NUM_ARCH_REGS,
)
from repro.isa.registers import REG_NUMBERS
from repro.utils.bits import to_unsigned


def test_register_naming_round_trip():
    for i in range(NUM_ARCH_REGS):
        assert reg_num(reg_name(i)) == i
        assert reg_num("x%d" % i) == i


def test_register_aliases():
    assert reg_num("fp") == reg_num("s0")
    assert reg_num("zero") == 0
    assert reg_num("sp") == 2
    assert reg_num(5) == 5


def test_bad_register_names():
    with pytest.raises(ValueError):
        reg_num("x99")
    with pytest.raises(ValueError):
        reg_num("bogus")
    with pytest.raises(ValueError):
        reg_num(32)


def test_every_opcode_has_info():
    for op in Op:
        info = OPCODE_INFO[op]
        assert info.op is op
        assert info.num_srcs in (0, 1, 2)


def test_alu_semantics_spot_checks():
    def alu(op, a, b):
        return OPCODE_INFO[op].alu_fn(to_unsigned(a), to_unsigned(b))

    assert alu(Op.ADD, 2, 3) == 5
    assert alu(Op.SUB, 2, 3) == to_unsigned(-1)
    assert alu(Op.AND, 0b1100, 0b1010) == 0b1000
    assert alu(Op.OR, 0b1100, 0b1010) == 0b1110
    assert alu(Op.XOR, 0b1100, 0b1010) == 0b0110
    assert alu(Op.SLT, -5, 3) == 1
    assert alu(Op.SLTU, -5, 3) == 0  # -5 is huge unsigned
    assert alu(Op.MIN, -5, 3) == to_unsigned(-5)
    assert alu(Op.MAX, -5, 3) == 3
    assert alu(Op.SLLI, 1, 4) == 16
    assert alu(Op.SRAI, -16, 2) == to_unsigned(-4)
    assert alu(Op.LUI, 0, 0x12345 << 12) == 0x12345 << 12


def test_branch_semantics():
    def br(op, a, b):
        return OPCODE_INFO[op].branch_fn(to_unsigned(a), to_unsigned(b))

    assert br(Op.BEQ, 4, 4) and not br(Op.BEQ, 4, 5)
    assert br(Op.BNE, 4, 5) and not br(Op.BNE, 4, 4)
    assert br(Op.BLT, -1, 0) and not br(Op.BLT, 0, -1)
    assert br(Op.BGE, 0, -1) and br(Op.BGE, 3, 3)
    assert br(Op.BLTU, 0, -1)        # -1 unsigned is max
    assert br(Op.BGEU, -1, 0)


def test_instruction_operand_validation():
    with pytest.raises(ValueError):
        Instruction(Op.ADD, dest=1, srcs=(2,), pc=0)       # needs 2 srcs
    with pytest.raises(ValueError):
        Instruction(Op.ADD, srcs=(1, 2), pc=0)             # needs dest
    with pytest.raises(ValueError):
        Instruction(Op.SD, dest=1, srcs=(2, 3), pc=0)      # no dest allowed
    with pytest.raises(TypeError):
        Instruction("add", dest=1, srcs=(2, 3), pc=0)


def test_instruction_classification():
    beq = Instruction(Op.BEQ, srcs=(1, 2), imm=0x100, pc=0)
    assert beq.is_branch and beq.is_cond_branch and not beq.is_indirect
    jalr = Instruction(Op.JALR, dest=0, srcs=(1,), pc=4)
    assert jalr.is_branch and jalr.is_indirect and not jalr.is_cond_branch
    assert jalr.target is None
    load = Instruction(Op.LD, dest=3, srcs=(4,), imm=8, pc=8)
    assert load.is_load and not load.is_store
    store = Instruction(Op.SD, srcs=(3, 4), imm=8, pc=12)
    assert store.is_store and not store.writes_reg
    x0_write = Instruction(Op.ADDI, dest=0, srcs=(1,), imm=1, pc=16)
    assert not x0_write.writes_reg  # writes to x0 are discarded


def test_mem_sizes():
    assert OPCODE_INFO[Op.LD].mem_size == 8
    assert OPCODE_INFO[Op.LW].mem_size == 4
    assert OPCODE_INFO[Op.LBU].mem_size == 1
    assert OPCODE_INFO[Op.SB].mem_size == 1
