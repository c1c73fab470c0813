"""Static-instruction fields and fast/slow-path identity.

The fields an :class:`~repro.isa.instruction.Instruction` precomputes
for the hot paths must be *unobservable*: every one mirrors its opcode's
``OpInfo`` exactly, an emulation through the superblocks compiled from
the instructions produces byte-identical results to the interpretive
``Emulator._execute`` (every instruction under ``REPRO_SLOWPATH=1``, the
ISA oracle), and the core, which executes from those fields, commits
exactly what that oracle executes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.emu import Emulator
from repro.emu.emulator import slowpath_enabled
from repro.isa import Assembler, Instruction, Op
from repro.isa.instruction import INST_BYTES
from repro.isa.opcodes import (KIND_ALU, KIND_BRANCH, KIND_DIV, KIND_HALT,
                               KIND_LOAD, KIND_MUL, KIND_NOP, KIND_STORE,
                               OPCODE_INFO, OpClass)
from repro.pipeline import baseline_config, mssr_config
from repro.utils.bits import to_unsigned
from repro.workloads import get_workload

from tests.test_random_programs import _REGS, _assemble, _instruction
from tests.test_superblock import _oracle

_CLASS_TO_KIND = {
    OpClass.ALU: KIND_ALU, OpClass.MUL: KIND_MUL, OpClass.DIV: KIND_DIV,
    OpClass.BRANCH: KIND_BRANCH, OpClass.LOAD: KIND_LOAD,
    OpClass.STORE: KIND_STORE, OpClass.NOP: KIND_NOP,
    OpClass.HALT: KIND_HALT,
}


def _synthesize(op, pc=0x1000):
    """A representative placed Instruction for one opcode."""
    info = OPCODE_INFO[op]
    imm = 0
    if info.has_imm:
        imm = 0x2000 if info.is_branch else 24
    return Instruction(
        op,
        dest=5 if info.has_dest else None,
        srcs=(6, 7)[:info.num_srcs],
        imm=imm,
        pc=pc)


def test_instruction_fields_match_info_for_every_opcode():
    """Every precomputed field equals its OpInfo source of truth, and
    the kind order the stages test with ``<=``/``>=`` holds."""
    for op, info in OPCODE_INFO.items():
        inst = _synthesize(op)
        kind = _CLASS_TO_KIND[info.op_class]
        assert inst.kind == info.kind == kind
        assert (kind <= KIND_DIV) == (info.op_class in (
            OpClass.ALU, OpClass.MUL, OpClass.DIV))
        assert (kind >= KIND_NOP) == (info.op_class in (
            OpClass.NOP, OpClass.HALT))
        assert inst.next_pc == inst.pc + INST_BYTES
        assert inst.num_srcs == len(inst.srcs) == info.num_srcs
        assert inst.src0 == (inst.srcs[0] if inst.srcs else None)
        assert inst.src1 == (inst.srcs[1] if len(inst.srcs) > 1 else None)
        assert inst.imm_u == (to_unsigned(inst.imm) if info.has_imm else 0)
        assert inst.has_imm == info.has_imm
        assert inst.target == (None if op is Op.JALR else inst.imm)
        assert inst.is_lw == (op is Op.LW)
        assert inst.mem_size == info.mem_size
        assert inst.store_mask == ((1 << (info.mem_size * 8)) - 1
                                   if info.mem_size else 0)
        assert inst.alu_fn is info.alu_fn
        assert inst.branch_fn is info.branch_fn


def test_x0_dest_load_predecodes_without_writeback():
    """An x0-destination load skips the writeback, but the access itself
    still happens: misaligned, it faults in both executors and leaves
    the same state."""
    inst = Instruction(Op.LD, dest=0, srcs=(6,), imm=0, pc=0x1000)
    assert not inst.writes_reg
    asm = Assembler()
    buf = asm.word_array("buf", [11, 22])
    asm.li("s0", buf)
    asm.addi("t0", "zero", 7)
    asm.load(Op.LD, "zero", "s0", 4)     # misaligned: raises
    asm.addi("t0", "t0", 1)              # never retires
    asm.halt()
    prog = asm.finish()
    states = []
    for make in (_oracle, Emulator):
        emu = make(prog)
        with pytest.raises(ValueError, match="misaligned"):
            emu.run_until(1000)
        states.append((list(emu.regs), emu.pc, emu.inst_count))
    assert states[0] == states[1]
    assert prog.predecode()[states[0][1]].is_load
    assert states[0][0][5] == 7          # t0: the prefix retired


def test_unplaced_instruction_predecodes_without_closure():
    """Instructions built directly in unit tests have pc=None: they
    still carry the hot-path fields, with no fall-through pc."""
    inst = Instruction(Op.ADD, dest=3, srcs=(1, 2))
    assert inst.pc is None
    assert inst.next_pc is None
    assert inst.kind == KIND_ALU


def test_slowpath_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    assert not slowpath_enabled()
    monkeypatch.setenv("REPRO_SLOWPATH", "0")
    assert not slowpath_enabled()
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    assert slowpath_enabled()


def test_program_predecode_is_cached_and_complete():
    _mod, prog = get_workload("nested-mispred").build(scale=0.05)
    by_pc = prog.predecode()
    assert prog.predecode() is by_pc
    assert len(by_pc) == len(prog)
    for inst in prog.instructions:
        assert by_pc[inst.pc] is inst
    # Membership == Program.has_pc for hits and misses alike.
    assert prog.code_base in by_pc
    assert prog.code_end not in by_pc


# ---------------------------------------------------------------------------
# Differential: superblocks vs the REPRO_SLOWPATH=1 interpretive oracle.
# ---------------------------------------------------------------------------
def test_emulator_fast_slow_identity_micro():
    for name in ("nested-mispred", "linear-mispred"):
        _mod, prog = get_workload(name).build(scale=0.1)
        fast = Emulator(prog).run(max_insts=2_000_000)
        slow = _oracle(prog).run(max_insts=2_000_000)
        assert fast.regs == slow.regs
        assert fast.memory == slow.memory
        assert fast.pc == slow.pc
        assert fast.inst_count == slow.inst_count
        assert fast.halted and slow.halted


def test_core_lockstep_against_interpretive_emulator(monkeypatch):
    """The core checked commit by commit against the interpretive
    emulator (``REPRO_SLOWPATH=1``: ``Emulator._execute`` applies each
    opcode's ``alu_fn``/``branch_fn``), for the plain pipeline and with
    MSSR squash reuse active. The core has one execute path, which
    reads the instructions' precomputed fields;
    ``tests/data/stage_parity_pinned.json`` pins both configurations'
    stats."""
    from repro.obs import run_lockstep
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    _mod, prog = get_workload("nested-mispred").build(scale=0.1)
    for config in (baseline_config(), mssr_config()):
        outcome = run_lockstep(prog, config)
        assert outcome.ok, outcome.divergence.format()
        assert outcome.commits == outcome.result.stats.committed_insts
    assert outcome.result.stats.reuse_successes > 0


@settings(max_examples=25, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_random_programs_fast_slow_identity(descriptors, seeds):
    """Hypothesis cosim: generated programs execute identically through
    the superblocks and the interpretive ``_execute``."""
    prog = _assemble(descriptors, seeds)
    fast = Emulator(prog).run(max_insts=100_000)
    slow = _oracle(prog).run(max_insts=100_000)
    assert fast.regs == slow.regs
    assert fast.memory == slow.memory
    assert fast.inst_count == slow.inst_count


def test_lockstep_green_on_fast_path(monkeypatch):
    """Commit-by-commit differential check passes without
    ``REPRO_SLOWPATH``: the core runs its one execute path, and the
    checker steps the interpretive emulator either way."""
    from repro.obs import run_lockstep
    monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    _mod, prog = get_workload("nested-mispred").build(scale=0.05)
    outcome = run_lockstep(prog, mssr_config())
    assert outcome.ok, outcome.divergence and outcome.divergence.format()
    assert outcome.commits > 0
