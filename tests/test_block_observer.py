"""Block-granular observation: BBV counts and warmup records.

Every emulator pass dispatches through superblocks. BBV profiling
counts instructions per basic-block leader inside the dispatch loop
(``run_until(bbv=...)``), and checkpoint capture appends warmup records
inline (``run_until(trace=...)``). These tests pin that the counts, the
records and everything the sampling passes derive from them (BBV
profiles, SimPoint selections, checkpoints) are byte-identical to the
``REPRO_SLOWPATH=1`` per-instruction reference.
"""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.emu import Emulator
from repro.emu.emulator import BBVAccumulator
from repro.isa import Assembler
from repro.isa.instruction import INST_BYTES
from repro.isa.superblock import MAX_BLOCK_INSTS
from repro.sampling import capture_checkpoints, pick_simpoints, \
    profile_program
from repro.workloads.registry import get_workload
from tests.test_random_programs import _REGS, _assemble, _instruction
from tests.test_superblock import _exact_state


def _slowpath(fn, *args):
    """``fn(*args)`` on the per-instruction ISA oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SLOWPATH", "1")
        return fn(*args)


def _observe(prog, interval=1_000_000):
    """Run with a BBV accumulator and warmup sinks until halt or a fault,
    closing a BBV interval every ``interval`` instructions.

    Returns the per-interval leader counts, the final leader, the warmup
    records and the emulator's state (see ``_exact_state``).
    """
    acc = BBVAccumulator(prog.entry)
    trace = ([], [])
    emu = Emulator(prog)
    intervals = []
    try:
        while not emu.run_until(emu.inst_count + interval, bbv=acc,
                                trace=trace) \
                and emu.inst_count < 1_000_000:
            intervals.append(acc.counts)
            acc.counts = {}
    except ValueError:
        pass
    intervals.append(acc.counts)
    return intervals, acc.leader, trace, _exact_state(emu)


def _profile(prog, interval):
    return profile_program(prog, interval).as_dict()


def _checkpoints(prog, boundaries, depth=64):
    return {b: ckpt.as_dict() for b, ckpt in capture_checkpoints(
        prog, boundaries, warmup_branches=depth, warmup_mem=depth).items()}


def _sampling_dicts(prog, interval, extra_boundaries):
    """BBV profile, SimPoint selection and checkpoints as JSON dicts."""
    profile = profile_program(prog, interval)
    selection = pick_simpoints(profile, max_k=4)
    boundaries = {max(0, p.start_inst - 1000) for p in selection.points}
    boundaries = sorted((boundaries | set(extra_boundaries)) - {0})
    return (profile.as_dict(), selection.as_dict(),
            _checkpoints(prog, boundaries, depth=2048))


# ---------------------------------------------------------------------------
# Real workloads against the per-instruction reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,scale", [("leela", 1.0), ("xz", 1.0),
                                        ("bfs", 0.3)])
def test_sampling_passes_match_slowpath(name, scale):
    prog = get_workload(name).build(scale)[1]
    extra = (1237, 4001)            # odd boundaries land inside blocks
    fast = _sampling_dicts(prog, 2000, extra)
    assert prog._superblocks is not None
    assert fast == _slowpath(_sampling_dicts, prog, 2000, extra)


# ---------------------------------------------------------------------------
# Synthetic cases
# ---------------------------------------------------------------------------
def _loop_prog(body, trips):
    """``li``; ``trips`` x (``body`` addis, a decrement, ``bnez``);
    ``halt``: 2 + trips * (body + 2) instructions."""
    asm = Assembler()
    asm.li("t0", trips)
    asm.label("loop")
    for _ in range(body):
        asm.addi("t1", "t1", 1)
    asm.addi("t0", "t0", -1)
    asm.bnez("t0", "loop")
    asm.halt()
    return asm.finish()


def test_interval_boundary_inside_block():
    prog = _loop_prog(body=10, trips=50)      # 12-instruction blocks
    fast = _profile(prog, 30)
    assert fast == _slowpath(_profile, prog, 30)
    lengths = [iv["num_insts"] for iv in fast["intervals"]]
    assert lengths == [30] * 19 + [32]        # 602 = 20 x 30 + tail 2


def test_capped_block_chain_keeps_leader():
    trip = MAX_BLOCK_INSTS * 2 + 7            # one trip: three blocks
    prog = _loop_prog(body=trip - 2, trips=3)
    fast = _profile(prog, 10_000)
    assert fast == _slowpath(_profile, prog, 10_000)
    # The chain's continuation leaders are not BBV leaders: the first
    # trip falls in from the entry, the others follow the back edge.
    loop = prog.label_pc("loop")
    assert fast["intervals"][0]["bbv"] == {
        "%d" % prog.entry: 1 + trip,
        "%d" % loop: 2 * trip,
        "%d" % (loop + trip * INST_BYTES): 1}


def _mid_block_jump_prog(target=0):
    asm = Assembler()
    asm.li("t2", 3)
    asm.label("top")
    asm.li("t1", target)
    asm.jr("t1")
    asm.label("body")
    asm.addi("t0", "t0", 10)
    asm.addi("t0", "t0", 100)        # jump target: not a leader
    asm.addi("t0", "t0", 1000)
    asm.addi("t2", "t2", -1)
    asm.bnez("t2", "top")
    asm.halt()
    return asm.finish()


def test_indirect_jump_into_block_middle():
    mid = _mid_block_jump_prog().label_pc("body") + INST_BYTES
    prog = _mid_block_jump_prog(mid)
    assert mid not in prog.superblocks().by_pc
    fast = _profile(prog, 4)
    assert fast == _slowpath(_profile, prog, 4)
    assert any("%d" % mid in iv["bbv"] for iv in fast["intervals"])
    observed = _observe(prog, 4)
    assert observed == _slowpath(_observe, prog, 4)
    assert any(mid in counts for counts in observed[0])
    assert observed[3][0][5] == 3 * 1100          # t0


def test_checkpoint_boundary_inside_block():
    prog = get_workload("nested-mispred").build(0.2)[1]
    boundaries = [5, 333, 2001, 2002, 7777]
    fast = _checkpoints(prog, boundaries)
    assert fast == _slowpath(_checkpoints, prog, boundaries)
    assert [fast[b]["inst_count"] for b in boundaries] == boundaries
    assert all(fast[b]["branch_trace"] and fast[b]["mem_trace"]
               for b in boundaries[1:])


def test_short_tail_merges_into_last_interval():
    prog = _loop_prog(body=3, trips=26)       # 2 + 26 x 5 = 132
    fast = _profile(prog, 40)
    assert fast == _slowpath(_profile, prog, 40)
    assert fast["total_insts"] == 132
    assert [iv["num_insts"] for iv in fast["intervals"]] == [40, 40, 52]


def _faulting_prog():
    asm = Assembler()
    buf = asm.word_array("buf", [11, 22, 33])
    asm.li("s0", buf)
    asm.label("loop")
    asm.addi("t0", "t0", 1)
    asm.sd("t0", "s0", 8)
    asm.ld("t1", "s0", 0)
    asm.li("t2", 3)
    asm.blt("t0", "t2", "loop")
    asm.addi("t0", "t0", 4)          # retired before the fault
    asm.ld("t1", "s0", 4)            # misaligned: raises mid-block
    asm.addi("t0", "t0", 1000)       # never retires
    asm.halt()
    return asm.finish()


def test_block_fault_reports_exact_prefix():
    prog = _faulting_prog()
    fast = _observe(prog, 5)
    assert fast == _slowpath(_observe, prog, 5)
    intervals, _leader, _trace, state = fast
    regs, _mem, pc, inst_count, _halted, progress = state[:6]
    assert inst_count == sum(sum(c.values()) for c in intervals) == 17
    assert prog.predecode()[pc].is_load
    assert progress == 0
    assert regs[5] == 3 + 4                        # t0: the prefix retired
    assert state[6:] == (prog.data.addr_of("buf"), 8, False)
    with pytest.raises(ValueError, match="misaligned"):
        profile_program(prog, 8)


def test_run_until_budget_reports_partial_blocks():
    prog = _loop_prog(body=10, trips=5)
    loop = prog.label_pc("loop")
    blocks = prog.superblocks().by_pc

    def run(prog):
        acc = BBVAccumulator(prog.entry)
        emu = Emulator(prog)
        trace = ([], [])
        for budget in (3, 4, 17, 60):
            emu.run_until(budget, bbv=acc, trace=trace)
            assert emu.inst_count == budget
            assert sum(acc.counts.values()) == budget
            if budget == 4:
                # The 13-instruction entry block never fit the budget,
                # so the first four instructions ran as residue steps.
                assert blocks[prog.entry].traced is None
        return acc.counts, acc.leader, trace, _exact_state(emu)

    fast = run(prog)
    # A whole 12-instruction loop block ran in one call.
    assert blocks[loop].traced is not None
    assert fast == _slowpath(run, prog)
    assert fast[:2] == ({prog.entry: 13, loop: 47}, loop)


def test_warmup_deques_keep_newest_records():
    prog = _loop_prog(body=2, trips=40)
    trace = (collections.deque(maxlen=5), collections.deque(maxlen=5))
    Emulator(prog).run_until(10_000, trace=trace)
    loop = prog.label_pc("loop")
    branch_pc = loop + 3 * INST_BYTES
    assert list(trace[0]) == [(branch_pc, 1, loop, 1)] * 4 \
        + [(branch_pc, 0, branch_pc + INST_BYTES, 1)]
    assert not trace[1]


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------
def _observed(prog, interval):
    return _observe(prog, interval), _profile(prog, interval)


@settings(max_examples=25, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)),
       st.integers(min_value=1, max_value=12))
def test_random_observed_streams_match_slowpath(descriptors, seeds,
                                                interval):
    prog = _assemble(descriptors, seeds)
    assert _observed(prog, interval) \
        == _slowpath(_observed, prog, interval)
