"""Lockstep differential checker: divergence localisation.

The headline requirement: a seeded fault in the core must be reported
at the *exact first divergent commit* (pc, field, expected vs actual
value) together with the ring-buffer event history — not as an opaque
final-state mismatch.
"""

import pytest

from repro.emu import Emulator
from repro.harness.jobs import build_config, build_scheme
from repro.isa import Assembler, Op
from repro.isa.instruction import INST_BYTES
from repro.obs import CallbackSink, Observability, RingBufferSink, \
    run_lockstep
from repro.obs.events import CommitEvent
from repro.pipeline import O3Core, baseline_config, mssr_config
from repro.pipeline.core import SimulationError
from repro.pipeline.stages import WritebackStage
from repro.utils.bits import wrap64
from repro.workloads import get_workload

_SCALE = 0.08


def _straightline_program():
    """Branch-free program whose every register value is predictable."""
    asm = Assembler()
    asm.li("t0", 7)
    asm.li("t1", 5)
    asm.rr(Op.ADD, "t2", "t0", "t1")
    asm.rr(Op.XOR, "t3", "t2", "t1")
    asm.rr(Op.SUB, "t4", "t3", "t0")
    asm.halt()
    return asm.finish()


def _find_pc(prog, op):
    pc = prog.entry
    while prog.has_pc(pc):
        if prog.inst_at(pc).op is op:
            return pc
        pc += INST_BYTES
    raise AssertionError("op %s not found" % op)


class _FaultyWriteback(WritebackStage):
    """Writeback stage that corrupts the result at one static PC."""

    fault_pc = None

    def _writeback_inst(self, dyn):
        if dyn.pc == self.fault_pc and not dyn.verify_load:
            dyn.result = wrap64(dyn.result + 1)
        super()._writeback_inst(dyn)


class _FaultyCore(O3Core):
    """O3 core with the fault-injecting writeback stage swapped in."""

    fault_pc = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        faulty = _FaultyWriteback(self.state)
        type(faulty).fault_pc = self.fault_pc
        self.writeback_stage = faulty
        self._stages = tuple(
            faulty if isinstance(s, WritebackStage) else s
            for s in self._stages)


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------
def test_lockstep_clean_microbench_baseline():
    _mod, prog = get_workload("nested-mispred").build(_SCALE)
    outcome = run_lockstep(prog, baseline_config())
    assert outcome.ok and outcome.divergence is None
    assert outcome.commits == outcome.result.stats.committed_insts
    assert outcome.commits > 0


def test_lockstep_clean_microbench_mssr():
    _mod, prog = get_workload("nested-mispred").build(_SCALE)
    outcome = run_lockstep(prog, mssr_config(num_streams=4))
    assert outcome.ok
    # Reuse actually happened, and every reused commit still matched.
    assert outcome.result.stats.reuse_successes > 0


# ---------------------------------------------------------------------------
# Fault localisation
# ---------------------------------------------------------------------------
def test_lockstep_localises_seeded_writeback_fault():
    prog = _straightline_program()
    fault_pc = _find_pc(prog, Op.ADD)

    # Golden model: commit index of the faulted instruction and the
    # value it should have produced.
    emu = Emulator(prog)
    expected_index = 0
    while emu.pc != fault_pc:
        emu.step()
        expected_index += 1
    inst = prog.inst_at(fault_pc)
    emu.step()
    expected_value = emu.regs[inst.dest]

    class _Core(_FaultyCore):
        pass
    _Core.fault_pc = fault_pc

    outcome = run_lockstep(prog, baseline_config(), core_factory=_Core,
                           ring_capacity=64)
    assert not outcome.ok and outcome.result is None
    report = outcome.divergence
    assert report.field == "reg-value"
    assert report.commit_index == expected_index
    assert report.pc == fault_pc
    assert report.expected == expected_value
    assert report.actual == wrap64(expected_value + 1)
    # The ring-buffer history around the divergence is part of the
    # report, and it shows the faulty instruction's own pipeline events.
    assert report.events
    text = "\n".join(report.events)
    assert "writeback" in text and "commit" in text
    assert "%#x" % fault_pc in text
    assert "reg-value" in report.format()


def test_lockstep_divergence_on_wrong_store_data():
    asm = Assembler()
    buf = asm.reserve("buf", 8)
    asm.li("s0", buf)
    asm.li("t0", 11)
    asm.rr(Op.ADD, "t1", "t0", "t0")
    asm.sd("t1", "s0", 0)
    asm.halt()
    prog = asm.finish()
    fault_pc = _find_pc(prog, Op.ADD)

    class _Core(_FaultyCore):
        pass
    _Core.fault_pc = fault_pc

    outcome = run_lockstep(prog, baseline_config(), core_factory=_Core)
    assert not outcome.ok
    # The corrupted ADD is caught at its own commit, before the store
    # ever retires with wrong data.
    assert outcome.divergence.field == "reg-value"
    assert outcome.divergence.pc == fault_pc


# ---------------------------------------------------------------------------
# Post-mortem dumps
# ---------------------------------------------------------------------------
def test_simulation_error_carries_ring_buffer_dump():
    _mod, prog = get_workload("nested-mispred").build(_SCALE)
    obs = Observability(sinks=[RingBufferSink(32)])
    core = O3Core(prog, baseline_config(), obs=obs)
    with pytest.raises(SimulationError) as excinfo:
        core.run(max_cycles=40)
    dump = excinfo.value.event_dump
    assert dump and len(dump) <= 32
    assert any("fetch" in line for line in dump)


def test_simulation_error_dump_empty_without_ring():
    _mod, prog = get_workload("nested-mispred").build(_SCALE)
    core = O3Core(prog, baseline_config())
    with pytest.raises(SimulationError) as excinfo:
        core.run(max_cycles=40)
    assert excinfo.value.event_dump == ()


def test_astar_ri_commits_golden_path_through_replay_branch_tie():
    """Regression: astar under Register Integration resolves a
    mispredicted branch in the same writeback as a replay of the
    instruction after it. The replay used to win the boundary tie, and
    commit #13483 (pc 0x1330) came from the wrong path. Checks the
    committed pc stream of the first 15000 commits against the
    emulator."""
    _mod, prog = get_workload("astar").build(0.03)
    emu = Emulator(prog)
    mismatches = []

    def check(event):
        if type(event) is CommitEvent:
            if event.pc != emu.pc:
                mismatches.append((emu.inst_count, event.pc, emu.pc))
            emu.step()

    core = O3Core(prog, build_config("ri"), reuse_scheme=build_scheme("ri"))
    core.obs.attach(CallbackSink(check))
    core.run(max_insts=15000)
    assert emu.inst_count == 15000
    assert mismatches == []
