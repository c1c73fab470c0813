"""Superblock trace-JIT correctness: block dispatch vs per-inst paths.

The generated per-block functions must be unobservable next to the
per-instruction closure path (and the pre-predecode slowpath): same
final registers, memory, pc, halted flag and — crucially — the same
``inst_count``, including when a block body raises mid-block or the
instruction budget lands inside a block.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.emu import Emulator
from repro.emu.emulator import EmulationError
from repro.isa import Assembler, Op
from repro.isa.instruction import INST_BYTES
from repro.isa.predecode import KIND_BRANCH, KIND_HALT
from repro.isa.superblock import (MAX_BLOCK_INSTS, build_superblocks,
                                  discover_leaders)
from tests.test_random_programs import _REGS, _assemble, _instruction

BUDGET = 100_000


def _state(result):
    return (result.regs, result.inst_count, result.halted, result.pc)


def _run_pair(prog, max_insts=BUDGET):
    """Run ``prog`` under closure and superblock dispatch; assert every
    piece of architectural state matches and return the closure run."""
    base = Emulator(prog, superblock=False)
    base_halted = base.run_until(max_insts)
    sb = Emulator(prog)
    sb_halted = sb.run_until(max_insts)
    assert sb._sb_by_pc is not None
    assert base_halted == sb_halted
    assert _state(base.result()) == _state(sb.result())
    assert base.memory == sb.memory
    return base.result()


# ---------------------------------------------------------------------------
# Property tests over random programs
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_superblock_matches_closure_random(descriptors, seeds):
    _run_pair(_assemble(descriptors, seeds))


@settings(max_examples=15, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)),
       st.integers(min_value=1, max_value=60))
def test_superblock_budget_boundary_random(descriptors, seeds, budget):
    """A budget landing mid-block must fall back to per-inst stepping
    for the tail: exact inst_count, never overshoot."""
    prog = _assemble(descriptors, seeds)
    base = Emulator(prog, superblock=False)
    base.run_until(budget)
    sb = Emulator(prog)
    sb.run_until(budget)
    assert sb.inst_count <= budget
    assert _state(base.result()) == _state(sb.result())
    assert base.memory == sb.memory


# ---------------------------------------------------------------------------
# Every opcode through a generated block
# ---------------------------------------------------------------------------
def test_superblock_covers_every_alu_op():
    """One straight-line block holding every ALU/shift/compare op, both
    register and immediate forms, with sign-boundary operands."""
    asm = Assembler()
    asm.li("t0", -7)
    asm.li("t1", (1 << 63) - 1)
    asm.li("t2", 1 << 62)
    for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL, Op.MULH,
               Op.DIV, Op.REM, Op.SLT, Op.SLTU, Op.SLL, Op.SRL, Op.SRA,
               Op.MIN, Op.MAX):
        asm.rr(op, "t3", "t0", "t1")
        asm.rr(op, "t4", "t1", "t2")
        asm.add("t0", "t0", "t3")
    for op, imm in ((Op.ADDI, -5), (Op.ANDI, 0x3F), (Op.ORI, 0x11),
                    (Op.XORI, -1), (Op.SLTI, -3), (Op.SLTIU, 9),
                    (Op.SLLI, 3), (Op.SRLI, 7), (Op.SRAI, 63)):
        asm.ri(op, "t5", "t0", imm)
        asm.add("t0", "t0", "t5")
    asm.lui("t6", 0x12345)
    asm.add("t0", "t0", "t6")
    asm.halt()
    result = _run_pair(asm.finish())
    assert result.halted


def test_superblock_memory_and_observers():
    """Loads/stores of every size, x0-destination loads, and the
    last_mem_* / last_branch_taken observer fields."""
    asm = Assembler()
    buf = asm.word_array("buf", [0x1122334455667788, -1, 0, 77])
    asm.li("s0", buf)
    asm.li("t0", -2)
    asm.sd("t0", "s0", 8)
    asm.sw("t0", "s0", 16)
    asm.sb("t0", "s0", 24)
    asm.ld("t1", "s0", 0)
    asm.lw("t2", "s0", 16)    # sext32 path
    asm.lbu("t3", "s0", 24)
    asm.load(Op.LD, "zero", "s0", 0)   # x0 dest: access still happens
    asm.halt()
    prog = asm.finish()

    base = Emulator(prog, superblock=False)
    base.run(max_insts=BUDGET)
    sb = Emulator(prog)
    sb.run(max_insts=BUDGET)
    assert base.memory == sb.memory
    assert (base.last_mem_addr, base.last_mem_size) \
        == (sb.last_mem_addr, sb.last_mem_size)
    assert base.last_branch_taken == sb.last_branch_taken
    assert base.regs == sb.regs


def test_superblock_branch_and_jump_boundaries():
    """Taken/not-taken conditional exits, jal/jalr (incl. the
    jalr-into-link-register ordering) across block boundaries."""
    asm = Assembler()
    asm.li("t0", 5)
    asm.li("t1", 0)
    asm.label("loop")
    asm.addi("t1", "t1", 3)
    asm.addi("t0", "t0", -1)
    asm.bnez("t0", "loop")
    asm.call("leaf")          # jal ra, leaf
    asm.jal("zero", "done")   # jal with x0 link
    asm.label("leaf")
    asm.addi("t1", "t1", 100)
    asm.jalr("ra", "ra")      # jalr ra, ra: target read before link write
    asm.label("done")
    asm.halt()
    result = _run_pair(asm.finish())
    assert result.halted
    assert result.reg("t1") == 5 * 3 + 100


def test_superblock_fallback_jump_into_block_middle():
    """An indirect jump landing off the leader set must fall back to
    per-inst stepping and still match the closure path exactly."""
    asm = Assembler()
    asm.li("t0", 1)
    asm.j("entry")
    asm.label("body")
    asm.addi("t0", "t0", 10)      # leader (jump target)
    asm.addi("t0", "t0", 100)     # NOT a leader: mid-block pc
    asm.addi("t0", "t0", 1000)
    asm.halt()
    asm.label("entry")
    asm.li("t1", 0)               # patched below with the mid-block pc
    asm.jr("t1")
    prog = asm.finish()

    mid_pc = prog.label_pc("body") + INST_BYTES
    assert mid_pc not in prog.superblocks().by_pc

    # Rebuild with the real target now that we know it.
    asm = Assembler()
    asm.li("t0", 1)
    asm.j("entry")
    asm.label("body")
    asm.addi("t0", "t0", 10)
    asm.addi("t0", "t0", 100)
    asm.addi("t0", "t0", 1000)
    asm.halt()
    asm.label("entry")
    asm.li("t1", mid_pc)
    asm.jr("t1")
    prog = asm.finish()
    assert mid_pc not in prog.superblocks().by_pc

    result = _run_pair(prog)
    assert result.halted
    assert result.reg("t0") == 1 + 100 + 1000   # skipped the +10


def test_superblock_unknown_pc_matches_closure():
    """Jumping outside the program raises the same EmulationError with
    the same committed inst_count and pc in both modes."""
    asm = Assembler()
    asm.addi("t0", "zero", 1)
    asm.li("t1", 0x40)        # below code_base: no instruction there
    asm.jr("t1")
    prog = asm.finish()

    states = []
    for kwargs in ({"superblock": False}, {}):
        emu = Emulator(prog, **kwargs)
        with pytest.raises(EmulationError):
            emu.run_until(BUDGET)
        states.append((emu.inst_count, emu.pc, list(emu.regs)))
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# Mid-block raise exactness
# ---------------------------------------------------------------------------
def _misaligned_prog():
    asm = Assembler()
    buf = asm.word_array("buf", [11, 22, 33])
    asm.li("s0", buf)
    asm.li("t0", 3)
    asm.addi("t0", "t0", 4)       # retired before the fault
    asm.sd("t0", "s0", 8)         # good store, retired
    asm.ld("t1", "s0", 4)         # misaligned 8-byte load: raises
    asm.addi("t0", "t0", 1000)    # must NOT retire
    asm.halt()
    return asm.finish()


def test_superblock_midblock_raise_exact_inst_count():
    prog = _misaligned_prog()
    states = []
    for kwargs in ({"superblock": False}, {}):
        emu = Emulator(prog, **kwargs)
        with pytest.raises(ValueError, match="misaligned"):
            emu.run_until(BUDGET)
        states.append(_state(emu.result()))
        assert emu.memory.read(prog.data.addr_of("buf") + 8, 8) == 7
    base, sb = states
    assert base == sb
    # The raising load's own pc, with everything before it committed.
    faulting = _misaligned_prog()
    emu = Emulator(faulting)
    with pytest.raises(ValueError):
        emu.run_until(BUDGET)
    assert emu.program.predecode().by_pc[emu.pc].is_load
    assert emu._sb_progress == 0   # reset after commit


def test_superblock_resume_after_midblock_raise():
    """After a mid-block fault the emulator can keep stepping from the
    faulting pc, exactly like the closure path."""
    results = []
    for kwargs in ({"superblock": False}, {}):
        emu = Emulator(_misaligned_prog(), **kwargs)
        with pytest.raises(ValueError):
            emu.run_until(BUDGET)
        # Skip the faulting load by hand, then resume.
        emu.pc = emu.program.predecode().by_pc[emu.pc].next_pc
        assert emu.run_until(BUDGET)
        results.append(_state(emu.result()))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Table structure
# ---------------------------------------------------------------------------
def test_superblock_table_structure():
    asm = Assembler()
    asm.li("t0", 4)
    asm.label("loop")
    asm.addi("t1", "t1", 2)
    asm.addi("t0", "t0", -1)
    asm.bnez("t0", "loop")
    asm.halt()
    prog = asm.finish()
    table = prog.superblocks()
    assert prog.superblocks() is table    # cached on the program

    by_pc = prog.predecode().by_pc
    leaders = discover_leaders(prog)
    assert prog.entry in leaders
    assert prog.label_pc("loop") in leaders
    for block in table.blocks:
        assert block.pc == block.pcs[0]
        assert block.length == len(block.pcs)
        assert block.length <= MAX_BLOCK_INSTS
        # Straight-line: only the final record may be a branch/halt.
        for pc in block.pcs[:-1]:
            assert by_pc[pc].kind not in (KIND_BRANCH, KIND_HALT)
        assert "def _block" in block.source


def test_superblock_cap_chains_long_regions():
    asm = Assembler()
    for _ in range(MAX_BLOCK_INSTS * 3 + 5):
        asm.addi("t0", "t0", 1)
    asm.halt()
    prog = asm.finish()
    table = build_superblocks(prog)
    assert all(b.length <= MAX_BLOCK_INSTS for b in table.blocks)
    # Chained continuation leaders cover the whole region.
    entry = table.by_pc[prog.entry]
    covered = entry.length
    cursor = entry
    while covered < len(prog):
        cursor = table.by_pc[cursor.pcs[-1] + INST_BYTES]
        covered += cursor.length
    assert covered == len(prog)
    result = _run_pair(prog)
    assert result.reg("t0") == MAX_BLOCK_INSTS * 3 + 5


# ---------------------------------------------------------------------------
# Dispatch selection, lazy compilation, fingerprint, observation
# ---------------------------------------------------------------------------
def _tiny_prog():
    asm = Assembler()
    asm.li("t0", 2)
    asm.label("loop")
    asm.addi("t0", "t0", -1)
    asm.bnez("t0", "loop")
    asm.halt()
    return asm.finish()


def test_superblock_is_default_and_compiled_lazily(monkeypatch):
    """Block dispatch is the default, but the table is compiled by the
    first run_until, never by construction or single-stepping."""
    prog = _tiny_prog()
    emu = Emulator(prog)
    emu.step()
    assert prog._superblocks is None and emu._sb_by_pc is None
    emu.run_until(BUDGET)
    assert emu._sb_by_pc is prog.superblocks().by_pc
    # The closure reference and the slowpath never build it.
    prog = _tiny_prog()
    Emulator(prog, superblock=False).run(BUDGET)
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    Emulator(prog).run(BUDGET)
    assert prog._superblocks is None


def test_fingerprint_marks_only_slowpath(monkeypatch):
    from repro.harness.cache import code_fingerprint
    plain = code_fingerprint()
    assert "-" not in plain
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    assert code_fingerprint() == plain + "-slow"


def test_superblock_matches_slowpath(monkeypatch):
    prog = _tiny_prog()
    sb = Emulator(prog)
    sb.run(max_insts=BUDGET)
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    slow = Emulator(prog)
    assert slow._slow
    slow.run(max_insts=BUDGET)
    assert _state(slow.result()) == _state(sb.result())
    assert slow.memory == sb.memory


def test_run_trace_matches_slowpath_trace(monkeypatch):
    """run_trace stays on block dispatch (traced blocks) and records
    exactly the closure path's and the slowpath's triples."""
    asm = Assembler()
    asm.li("t0", 3)
    asm.label("loop")
    asm.call("leaf")
    asm.addi("t0", "t0", -1)
    asm.bnez("t0", "loop")
    asm.beq("x0", "x0", "next")   # taken, target == fall-through
    asm.label("next")
    asm.halt()
    asm.label("leaf")
    asm.addi("t1", "t1", 1)
    asm.ret()
    prog = asm.finish()
    sb_result, sb_trace = Emulator(prog).run_trace(BUDGET)
    assert prog.superblocks().by_pc[prog.entry].traced is not None
    base_result, base_trace = Emulator(prog, superblock=False) \
        .run_trace(BUDGET)
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    slow_result, slow_trace = Emulator(prog).run_trace(BUDGET)
    assert sb_trace == base_trace == slow_trace
    assert len(sb_trace) == 3 * 3 + 1
    assert all(taken is True or taken is False
               for _pc, taken, _tg in sb_trace)
    assert _state(sb_result) == _state(base_result) == _state(slow_result)
