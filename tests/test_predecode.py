"""Predecode layer: field correspondence and fast/slow-path identity.

The predecoded fast paths (``PDInst`` records + semantic closures) must
be *unobservable*: every field mirrors ``inst``/``inst.info`` exactly,
an emulation through the fast paths produces byte-identical results to
the interpretive path (kept alive under ``REPRO_SLOWPATH=1`` as the ISA
oracle), and the core, which executes only predecoded records, commits
exactly what that oracle executes.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.emu import Emulator
from repro.isa import Instruction, Op
from repro.isa.opcodes import OPCODE_INFO, OpClass
from repro.isa.predecode import (KIND_ALU, KIND_BRANCH, KIND_DIV,
                                 KIND_HALT, KIND_LOAD, KIND_MUL, KIND_NOP,
                                 KIND_STORE, predecode_inst,
                                 slowpath_enabled)
from repro.pipeline import baseline_config, mssr_config
from repro.utils.bits import to_unsigned
from repro.workloads import get_workload

from tests.test_random_programs import _REGS, _assemble, _instruction

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


def test_pdinst_fields_match_info_for_every_opcode():
    """Every flattened field equals its inst / OpInfo source of truth."""
    for op, info in OPCODE_INFO.items():
        inst = _synthesize(op)
        rec = predecode_inst(inst)
        assert rec.inst is inst
        assert rec.op is op
        assert rec.op_class is info.op_class
        assert rec.kind == _CLASS_TO_KIND[info.op_class]
        assert rec.pc == inst.pc
        assert rec.next_pc == inst.next_pc()
        assert rec.dest == inst.dest
        assert rec.num_srcs == len(inst.srcs) == info.num_srcs
        assert rec.src0 == (inst.srcs[0] if inst.srcs else None)
        assert rec.src1 == (inst.srcs[1] if len(inst.srcs) > 1 else None)
        assert rec.imm == inst.imm
        assert rec.imm_u == (to_unsigned(inst.imm) if info.has_imm else 0)
        assert rec.has_imm == info.has_imm
        assert rec.target == inst.taken_target()
        assert rec.writes_reg == inst.writes_reg
        assert rec.is_branch == inst.is_branch
        assert rec.is_cond_branch == inst.is_cond_branch
        assert rec.is_indirect == inst.is_indirect
        assert rec.is_load == inst.is_load
        assert rec.is_store == inst.is_store
        assert rec.is_halt == inst.is_halt
        assert rec.is_lw == (op is Op.LW)
        assert rec.mem_size == info.mem_size
        if info.mem_size:
            assert rec.store_mask == (1 << (info.mem_size * 8)) - 1
        assert rec.alu_fn is info.alu_fn
        assert rec.branch_fn is info.branch_fn
        assert rec.exec_fn is not None  # placed pc -> closure built


def test_x0_dest_load_predecodes_without_writeback():
    """An x0-destination load skips the writeback but still gets a
    closure (the access itself must happen for alignment faults)."""
    inst = Instruction(Op.LD, dest=0, srcs=(6,), imm=0, pc=0x1000)
    rec = predecode_inst(inst)
    assert not rec.writes_reg
    assert rec.exec_fn is not None


def test_unplaced_instruction_predecodes_without_closure():
    """DynInsts built directly in unit tests have pc=None: the record
    still carries the flattened fields, just no semantic closure."""
    rec = predecode_inst(Instruction(Op.ADD, dest=3, srcs=(1, 2)))
    assert rec.pc is None
    assert rec.next_pc is None
    assert rec.exec_fn is None
    assert rec.kind == KIND_ALU


class _ObserverStub:
    """Captures the observer fields a semantic closure writes."""
    last_branch_taken = None
    last_mem_addr = None
    last_mem_size = None


def test_jalr_closure_reads_target_before_link_write():
    """jalr with dest == src must compute the target from the *old*
    register value (the closure bakes in the evaluation order)."""
    inst = Instruction(Op.JALR, dest=5, srcs=(5,), imm=8, pc=0x1000)
    rec = predecode_inst(inst)
    regs = [0] * 32
    regs[5] = 0x4000
    emu = _ObserverStub()
    target = rec.exec_fn(emu, regs)
    assert target == 0x4008     # old x5 + imm, not the link value
    assert regs[5] == 0x1004    # link written after the target read
    assert emu.last_branch_taken is True


def test_slowpath_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    assert not slowpath_enabled()
    monkeypatch.setenv("REPRO_SLOWPATH", "0")
    assert not slowpath_enabled()
    monkeypatch.setenv("REPRO_SLOWPATH", "1")
    assert slowpath_enabled()


def test_program_predecode_is_cached_and_complete():
    _mod, prog = get_workload("nested-mispred").build(scale=0.05)
    pd = prog.predecode()
    assert prog.predecode() is pd
    assert len(pd.records) == len(prog)
    for inst in prog.instructions:
        assert pd.by_pc[inst.pc].inst is inst
    # Membership == Program.has_pc for hits and misses alike.
    assert prog.code_base in pd.by_pc
    assert prog.code_end not in pd.by_pc


# ---------------------------------------------------------------------------
# Differential: fast paths vs the REPRO_SLOWPATH=1 interpretive oracle.
# ---------------------------------------------------------------------------
def _emulate(prog, slow, monkeypatch):
    if slow:
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
    else:
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    return Emulator(prog).run(max_insts=2_000_000)


def test_emulator_fast_slow_identity_micro(monkeypatch):
    for name in ("nested-mispred", "linear-mispred"):
        _mod, prog = get_workload(name).build(scale=0.1)
        fast = _emulate(prog, False, monkeypatch)
        slow = _emulate(prog, True, monkeypatch)
        assert fast.regs == slow.regs
        assert fast.memory == slow.memory
        assert fast.pc == slow.pc
        assert fast.inst_count == slow.inst_count
        assert fast.halted and slow.halted


def test_core_lockstep_against_interpretive_emulator(monkeypatch):
    """The core checked commit by commit against the interpretive
    emulator (``REPRO_SLOWPATH=1``: ``Emulator._execute`` applies each
    opcode's ``alu_fn``/``branch_fn``), for the plain pipeline and with
    MSSR squash reuse active. The core has one execute path, the
    predecoded one; ``tests/data/stage_parity_pinned.json`` pins both
    configurations' stats."""
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
    the predecoded closures and the interpretive ``_execute``."""
    prog = _assemble(descriptors, seeds)
    old = os.environ.pop("REPRO_SLOWPATH", None)
    try:
        fast = Emulator(prog).run(max_insts=100_000)
        os.environ["REPRO_SLOWPATH"] = "1"
        slow = Emulator(prog).run(max_insts=100_000)
    finally:
        if old is None:
            os.environ.pop("REPRO_SLOWPATH", None)
        else:
            os.environ["REPRO_SLOWPATH"] = old
    assert fast.regs == slow.regs
    assert fast.memory == slow.memory
    assert fast.inst_count == slow.inst_count


def test_lockstep_green_on_fast_path(monkeypatch):
    """Commit-by-commit differential check passes with the fast paths
    active in both the core and the golden-model emulator."""
    from repro.obs import run_lockstep
    monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
    _mod, prog = get_workload("nested-mispred").build(scale=0.05)
    outcome = run_lockstep(prog, mssr_config())
    assert outcome.ok, outcome.divergence and outcome.divergence.format()
    assert outcome.commits > 0
