"""Superblock trace-JIT correctness: block dispatch vs the ISA oracle.

The generated per-block functions must be unobservable next to the
interpretive ``Emulator._execute`` (every instruction of an emulator
built under ``REPRO_SLOWPATH=1``): same final registers, memory, pc,
halted flag and — crucially — the same ``inst_count``, including when a
block body raises mid-block or the instruction budget lands inside a
block.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.emu import Emulator
from repro.emu.emulator import EmulationError
from repro.isa import Assembler, Op
from repro.isa.instruction import INST_BYTES
from repro.isa.opcodes import KIND_BRANCH, KIND_HALT
from repro.isa.superblock import (MAX_BLOCK_INSTS, build_superblocks,
                                  discover_leaders)
from repro.utils.bits import MASK64
from tests.test_random_programs import _REGS, _assemble, _instruction

BUDGET = 100_000


def _state(result):
    return (result.regs, result.inst_count, result.halted, result.pc)


def _oracle(prog, **kwargs):
    """An emulator that interprets every instruction (the ISA oracle):
    ``REPRO_SLOWPATH`` is read at construction."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SLOWPATH", "1")
        return Emulator(prog, **kwargs)


def _run_pair(prog, max_insts=BUDGET):
    """Run ``prog`` on the oracle and under superblock dispatch; assert
    every piece of architectural state matches and return the oracle
    run."""
    base = _oracle(prog)
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
    """A budget landing mid-block must fall back to the interpreter
    for the tail: exact inst_count, never overshoot."""
    prog = _assemble(descriptors, seeds)
    base = _oracle(prog)
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

    base = _oracle(prog)
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


def test_jalr_reads_target_before_link_write():
    """``jalr x5, 8(x5)`` jumps to the *old* x5 + 8 and only then links
    x5, in a compiled block and on the oracle alike."""
    asm = Assembler()
    target = asm.next_pc + 6 * INST_BYTES
    asm.li("t0", target - 8)
    asm.jalr("t0", "t0", 8)
    asm.addi("t1", "zero", 1)     # the fall-through
    asm.halt()
    asm.addi("t1", "zero", 3)     # the link + 8
    asm.halt()
    asm.label("target")
    asm.addi("t1", "zero", 2)
    asm.halt()
    prog = asm.finish()
    assert prog.label_pc("target") == target
    states = []
    for make in (_oracle, Emulator):
        emu = make(prog)
        emu.run(BUDGET)
        states.append(_exact_state(emu))
    assert states[0] == states[1]
    assert prog.superblocks().by_pc[prog.entry].length == 2
    regs = states[0][0]
    assert regs[6] == 2                           # t1: the target ran
    assert regs[5] == prog.entry + 2 * INST_BYTES  # t0: the link
    assert states[0][-1] is True                  # last_branch_taken


def test_superblock_fallback_jump_into_block_middle():
    """An indirect jump landing off the leader set must fall back to
    the interpreter and still match the oracle exactly."""
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
    for make in (_oracle, Emulator):
        emu = make(prog)
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
    for make in (_oracle, Emulator):
        emu = make(prog)
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
    assert emu.program.predecode()[emu.pc].is_load
    assert emu._sb_progress == 0   # reset after commit


def test_superblock_resume_after_midblock_raise():
    """After a mid-block fault the emulator can keep stepping from the
    faulting pc, exactly like the oracle."""
    results = []
    for make in (_oracle, Emulator):
        emu = make(_misaligned_prog())
        with pytest.raises(ValueError):
            emu.run_until(BUDGET)
        # Skip the faulting load by hand, then resume.
        emu.pc = emu.program.predecode()[emu.pc].next_pc
        assert emu.run_until(BUDGET)
        results.append(_state(emu.result()))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Register locals, identity folds and inline 8-byte access
# ---------------------------------------------------------------------------
def _exact_state(emu):
    """Every field a faulting block must leave as the interpreter does."""
    return (list(emu.regs), emu.memory.nonzero_words(), emu.pc,
            emu.inst_count, emu.halted, emu._sb_progress,
            emu.last_mem_addr, emu.last_mem_size, emu.last_branch_taken)


_BLOCK_REGS = ["zero", "t0", "t1", "t2", "a4"]
_block_reg = st.sampled_from(_BLOCK_REGS)
_slot_offset = st.integers(min_value=0, max_value=15).map(lambda s: 8 * s)
_straight_inst = st.one_of(
    st.tuples(st.just("rr"),
              st.sampled_from([Op.ADD, Op.SUB, Op.XOR, Op.AND, Op.OR,
                               Op.MUL, Op.SLT, Op.SLTU, Op.SLL, Op.SRL,
                               Op.SRA, Op.MIN, Op.DIV]),
              _block_reg, _block_reg, _block_reg),
    st.tuples(st.just("ri"),
              st.sampled_from([Op.ADDI, Op.XORI, Op.ORI, Op.ANDI, Op.SLTI,
                               Op.SLTIU, Op.SLLI, Op.SRLI, Op.SRAI]),
              _block_reg, _block_reg,
              st.one_of(st.just(0), st.integers(-512, 511))),
    st.tuples(st.just("ri"), st.just(Op.ADDI), _block_reg, _block_reg,
              st.just(0)),                                  # mv
    st.tuples(st.just("load"), st.just(Op.LD), _block_reg, _slot_offset),
    st.tuples(st.just("store"), st.just(Op.SD), _block_reg, _slot_offset),
)
#: The one access that leaves the inline path: a misaligned 8-byte
#: access (it raises) or a sub-word one (a misaligned ``lw``/``sw``
#: raises too), as ``(kind, size, register, byte offset)``.
_odd_access = st.one_of(
    st.tuples(st.sampled_from(["load", "store"]), st.just(8), _block_reg,
              st.tuples(_slot_offset, st.integers(1, 7)).map(sum)),
    st.tuples(st.sampled_from(["load", "store"]), st.sampled_from([4, 1]),
              _block_reg, st.integers(min_value=0, max_value=127)),
)
_SIZED_OPS = {("load", 8): Op.LD, ("load", 4): Op.LW, ("load", 1): Op.LBU,
              ("store", 8): Op.SD, ("store", 4): Op.SW, ("store", 1): Op.SB}


def _straight_block(body, odd, position, seeds, branch):
    """One straight-line block: seeded registers, ``body`` with ``odd``
    spliced in at ``position``, then a conditional exit (``branch``) or
    ``halt``."""
    asm = Assembler()
    buf = asm.word_array("buf", [(0x0101010101010101 * (i + 1)) & MASK64
                                 for i in range(16)])
    asm.li("s0", buf)
    for reg, seed in zip(_BLOCK_REGS[1:], seeds):
        asm.li(reg, seed)
    kind, size, reg, offset = odd
    odd = (kind, _SIZED_OPS[kind, size], reg, offset)
    insts = list(body)
    insts.insert(position % (len(insts) + 1), odd)
    for inst in insts:
        if inst[0] == "rr":
            asm.rr(*inst[1:])
        elif inst[0] == "ri":
            _k, op, dest, src, imm = inst
            if op in (Op.SLLI, Op.SRLI, Op.SRAI):
                imm = abs(imm) % 64
            asm.ri(op, dest, src, imm)
        elif inst[0] == "load":
            asm.load(inst[1], inst[2], "s0", inst[3])
        else:
            asm.store(inst[1], inst[2], "s0", inst[3])
    if branch:
        asm.branch(Op.BLT, "t0", "t1", "end")
        asm.label("end")
    asm.halt()
    return asm.finish()


@settings(max_examples=60, deadline=None)
@given(st.lists(_straight_inst, max_size=30), _odd_access,
       st.integers(min_value=0, max_value=30),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=4, max_size=4),
       st.booleans())
def test_register_local_blocks_match_closure(body, odd, position, seeds,
                                             branch):
    """Block mode, traced and untraced, leaves exactly the oracle's
    state, whether or not the odd access faults mid-block."""
    prog = _straight_block(body, odd, position, seeds, branch)
    outcomes = []
    for traced in (False, True):
        for make in (_oracle, Emulator):
            emu = make(prog)
            trace = ([], []) if traced else None
            try:
                emu.run_until(BUDGET, trace=trace)
                error = None
            except ValueError as exc:
                error = str(exc)
            outcomes.append((error, _exact_state(emu), trace))
    assert prog.superblocks().by_pc[prog.entry].traced is not None
    assert outcomes[0] == outcomes[1]
    assert outcomes[2] == outcomes[3]
    assert outcomes[0][:2] == outcomes[2][:2]


def test_read_word_after_inline_and_subword_stores():
    """Inline 8-byte stores and sub-word stores through
    ``SparseMemory.write`` interleave on one word; every later read,
    inline or through ``read_word``, sees the latest bytes."""
    asm = Assembler()
    buf = asm.word_array("buf", [0x1111111111111111])
    asm.li("s0", buf)
    asm.li("t0", 0x8877665544332211)
    asm.sd("t0", "s0", 0)              # inline
    asm.li("t1", 0xAB)
    asm.sb("t1", "s0", 3)              # read-modify-write of that word
    asm.ld("t2", "s0", 0)              # inline read of the merged word
    asm.li("t1", 0xCAFEF00D)
    asm.sw("t1", "s0", 4)
    asm.sd("t2", "s0", 8)              # inline, another word
    asm.lw("a4", "s0", 4)
    asm.halt()
    prog = asm.finish()
    emu = Emulator(prog)
    emu.run(BUDGET)
    base = _oracle(prog)
    base.run(BUDGET)
    assert _exact_state(emu) == _exact_state(base)
    assert emu.memory.read_word(buf) == 0xCAFEF00DAB332211
    assert emu.memory.read_word(buf + 8) == 0x88776655AB332211 \
        == emu.regs[7]                 # t2
    assert emu.regs[14] == 0xFFFFFFFFCAFEF00D   # a4: lw sign-extends


def test_x0_stays_zero_with_initial_registers():
    """Blocks compile ``x0`` to the literal 0, so an initial value for it
    is dropped and both executors compute with 0."""
    asm = Assembler()
    asm.addi("t0", "zero", 1)
    asm.add("t1", "zero", "t0")
    asm.halt()
    prog = asm.finish()
    init = {0: 5, 5: 7}
    states = [make(prog, init_regs=init).run(BUDGET).regs
              for make in (Emulator, _oracle)]
    assert states[0] == states[1]
    assert states[0][:1] + states[0][5:7] == [0, 1, 1]


def test_generated_source_folds_identities():
    """Registers are locals and identity operations compile to copies
    and constants: no ``+ 0`` and no ``regs[...]`` inside the body."""
    asm = Assembler()
    asm.li("t0", 33)                   # addi t0, x0, 33
    asm.mv("t1", "t0")                 # addi t1, t0, 0
    asm.rr(Op.ADD, "t2", "zero", "t1")
    asm.rr(Op.OR, "a4", "t2", "zero")
    asm.ri(Op.SLLI, "a5", "a4", 0)
    asm.halt()
    prog = asm.finish()
    source = prog.superblocks().by_pc[prog.entry].source
    body = [line.strip() for line in source.splitlines()[1:]]
    assert body == ["r5 = 33", "r6 = r5", "r7 = r6", "r14 = r7",
                    "r15 = r14", "emu.halted = True", "regs[5] = r5",
                    "regs[6] = r6", "regs[7] = r7", "regs[14] = r14",
                    "regs[15] = r15", "return %d" % (prog.entry + 24)]
    _run_pair(prog)


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

    by_pc = prog.predecode()
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


def test_superblock_is_default_and_compiled_lazily():
    """Block dispatch is the default, but the table is compiled by the
    first run_until, never by construction or single-stepping."""
    prog = _tiny_prog()
    emu = Emulator(prog)
    emu.step()
    assert prog._superblocks is None and emu._sb_by_pc is None
    emu.run_until(BUDGET)
    assert emu._sb_by_pc is prog.superblocks().by_pc
    # The slowpath never builds it.
    prog = _tiny_prog()
    _oracle(prog).run(BUDGET)
    assert prog._superblocks is None


def test_fingerprint_marks_only_slowpath(monkeypatch):
    from repro.harness.cache import code_fingerprint
    plain = code_fingerprint()
    assert "-" not in plain
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    assert code_fingerprint() == plain + "-slow"


def test_superblock_matches_slowpath():
    prog = _tiny_prog()
    sb = Emulator(prog)
    sb.run(max_insts=BUDGET)
    slow = _oracle(prog)
    assert slow._slow
    slow.run(max_insts=BUDGET)
    assert _state(slow.result()) == _state(sb.result())
    assert slow.memory == sb.memory


def test_run_trace_matches_slowpath_trace():
    """run_trace stays on block dispatch (traced blocks) and records
    exactly the slowpath's triples."""
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
    slow_result, slow_trace = _oracle(prog).run_trace(BUDGET)
    assert sb_trace == slow_trace
    assert len(sb_trace) == 3 * 3 + 1
    assert all(taken is True or taken is False
               for _pc, taken, _tg in sb_trace)
    assert _state(sb_result) == _state(slow_result)
