"""Physical register ownership and the RGID rename table, on a real core.

The stages make every register-state transition and every RAT update:
rename takes a free register and draws a fresh RGID, commit promotes
and frees, the squash unit frees or reserves and rolls the RAT back,
and a reusing rename adopts a reserved register and forwards its RGID.
These tests run programs on a :class:`~tests.invariants.CheckedCore`,
which checks register conservation, the RAT against the ROB and the
RGID epochs at the start of every cycle, and read the rename events.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Assembler
from repro.isa.registers import NUM_ARCH_REGS
from repro.obs import CallbackSink, Observability
from repro.obs.events import RenameEvent
from repro.pipeline import CoreConfig, MSSRConfig, mssr_config
from repro.pipeline.regfile import RESERVED
from repro.pipeline.rename import NULL_RGID
from repro.workloads import get_workload

from tests.conftest import run_both
from tests.invariants import CheckedCore, InvariantViolation, check_machine
from tests.test_random_programs import _REGS, _assemble, _instruction


def _renames(prog, config, on_rename=None):
    """Run ``prog`` checked; returns the core and its
    register-writing renames as (areg, rgid, reused, reset epoch)
    tuples in rename order. ``on_rename(core, event)`` sees each rename
    event as it happens."""
    renames = []
    resets = [0]

    def record(event):
        if type(event) is RenameEvent and event.dest_preg is not None:
            renames.append((prog.inst_at(event.pc).dest, event.dest_rgid,
                            event.reused, resets[0]))
            if on_rename is not None:
                on_rename(core, event)

    core = CheckedCore(prog, config,
                       obs=Observability(sinks=[CallbackSink(record)]))
    reset_rgids = core.rat.reset_rgids

    def counted_reset():
        resets[0] += 1
        reset_rgids()

    core.rat.reset_rgids = counted_reset
    core.run()
    return core, renames


@functools.lru_cache(maxsize=None)
def _mssr_run(rgid_bits):
    """nested-mispred under 4-stream MSSR: squashes and reuse."""
    _mod, prog = get_workload("nested-mispred").build(0.03)
    config = CoreConfig(mssr=MSSRConfig(num_streams=4,
                                        rgid_bits=rgid_bits))
    core, renames = _renames(prog, config)
    return core.stats, renames


def _fresh_rgids_increase(renames):
    """Per architectural register, each fresh (not reused), non-NULL
    RGID is the one after the register's previous fresh RGID of the
    same epoch, and larger than every earlier one, so none repeats;
    every reused rename forwards an RGID that an earlier fresh rename of
    the same register drew."""
    drawn = {}
    last_epoch = {}
    for areg, rgid, reused, epoch in renames:
        seen = drawn.setdefault(areg, [0])
        if reused:
            assert rgid in seen, (areg, rgid)
        elif rgid != NULL_RGID:
            if last_epoch.get(areg, 0) == epoch:
                assert rgid == seen[-1] + 1, (areg, rgid, seen[-1])
            assert rgid > seen[-1], (areg, rgid, seen[-1])
            seen.append(rgid)
            last_epoch[areg] = epoch


def test_initial_conservation():
    asm = Assembler()
    asm.halt()
    core = CheckedCore(asm.finish(), CoreConfig(num_phys_regs=64))
    check_machine(core.state)
    assert len(core.regfile.free_list) == 64 - NUM_ARCH_REGS
    assert core.regfile.count_states() == {
        "free": 64 - NUM_ARCH_REGS, "in-flight": 0,
        "arch": NUM_ARCH_REGS, "reserved": 0}


def test_allocate_exhaustion():
    """With the fewest physical registers the config allows, rename
    empties the free list and stalls until commit frees one; the run
    stays correct and conserves every register."""
    _mod, prog = get_workload("nested-mispred").build(0.03)
    free_after_rename = []

    def factory(program, config):
        def record(event):
            if type(event) is RenameEvent:
                free_after_rename.append(len(core.regfile.free_list))
        core = CheckedCore(program, config,
                           obs=Observability(sinks=[CallbackSink(record)]))
        return core

    run_both(prog, CoreConfig(num_phys_regs=NUM_ARCH_REGS + 8),
             core_factory=factory)
    assert min(free_after_rename) == 0


def test_double_free_asserts():
    """Releasing a free register raises; a register listed twice on
    the free list fails the checker."""
    _mod, prog = get_workload("nested-mispred").build(0.03)
    core = CheckedCore(prog, mssr_config())
    core.run(max_insts=200)
    preg = core.regfile.free_list[-1]
    with pytest.raises(AssertionError, match="double free of p%d" % preg):
        core.free_reserved_preg(preg)
    core.regfile.free_list.append(preg)
    with pytest.raises(InvariantViolation, match="free list"):
        core.run()


def test_state_transitions():
    """Under MSSR a squashed writer's register is reserved, and a
    reusing rename adopts it as in-flight; the checker sees every other
    transition (free -> in-flight -> arch -> free) on every cycle."""
    _mod, prog = get_workload("nested-mispred").build(0.03)
    adopted = []
    reserved = []

    def on_rename(core, event):
        reserved.append(core.regfile.states.count(RESERVED))
        if event.reused:
            adopted.append(core.regfile.state_of(event.dest_preg))

    core, _renames_ = _renames(prog, mssr_config(num_streams=4), on_rename)
    assert max(reserved) > 0
    assert adopted and set(adopted) == {"in-flight"}
    assert core.regfile.check_conservation()


@settings(max_examples=10, deadline=None)
@given(st.lists(_instruction, min_size=5, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)),
       st.integers(NUM_ARCH_REGS + 8, NUM_ARCH_REGS + 40))
def test_conservation_under_random_ops(descriptors, seeds, num_regs):
    """Generated programs under MSSR with a small register file: free
    list exhaustion, reserved registers and their release keep every
    register in exactly one state, on every cycle."""
    run_both(_assemble(descriptors, seeds),
             mssr_config(num_streams=2, num_phys_regs=num_regs),
             core_factory=CheckedCore)


def test_rename_allocates_fresh_rgid():
    """Each rename of a register draws the next RGID of its global
    counter, starting from 1."""
    asm = Assembler()
    for value in range(3):
        asm.li("a5", value)
    asm.halt()
    _core, renames = _renames(asm.finish(), mssr_config())
    a5 = renames[0][0]
    assert [(areg, rgid) for areg, rgid, _r, _e in renames] == \
        [(a5, 1), (a5, 2), (a5, 3)]


def test_rollback_restores_mapping_but_not_counter():
    """Squashes roll the RAT back (the checker matches it against the
    ROB after every squash), but not the global counters: a refetched
    writer draws a newer RGID than the squashed one."""
    stats, renames = _mssr_run(6)
    assert stats.branch_squashes > 0 and stats.squashed_insts > 0
    _fresh_rgids_increase(renames)


def test_apply_reuse_forwards_rgid():
    """A reusing rename forwards the squashed writer's RGID instead of
    drawing one, so the next fresh rename continues the counter."""
    stats, renames = _mssr_run(6)
    assert stats.reuse_successes > 0
    assert any(reused for _a, _r, reused, _e in renames)
    _fresh_rgids_increase(renames)


def test_rgid_overflow_returns_null():
    """A 2-bit RGID space (usable values 1-3) overflows: renames past
    the epoch's last value get NULL, and MSSR resets the counters."""
    stats, renames = _mssr_run(2)
    assert stats.rgid_resets > 0
    assert any(rgid == NULL_RGID for _a, rgid, reused, _e in renames
               if not reused)
    for _areg, rgid, reused, _epoch in renames:
        if not reused and rgid != NULL_RGID:
            assert rgid % 4 in (1, 2, 3)


def test_rgid_reset_starts_new_epoch():
    """After a reset, each register's first fresh RGID is a new value
    that no earlier RGID can alias, and its hardware value restarts
    at 1."""
    stats, renames = _mssr_run(2)
    assert stats.rgid_resets > 0
    first_after = {}
    for areg, rgid, reused, epoch in renames:
        if epoch and not reused and rgid != NULL_RGID:
            first_after.setdefault((areg, epoch), rgid)
    assert first_after
    assert all(rgid % 4 == 1 for rgid in first_after.values())
    _fresh_rgids_increase(renames)


@settings(max_examples=15, deadline=None)
@given(st.lists(_instruction, min_size=5, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)),
       st.integers(2, 8))
def test_rgid_uniqueness_per_areg(descriptors, seeds, rgid_bits):
    """No two fresh renames of the same architectural register ever
    receive the same (non-null) RGID, whatever the squashes, reuses and
    resets of a generated program."""
    config = CoreConfig(mssr=MSSRConfig(num_streams=4,
                                        rgid_bits=rgid_bits))
    _core, renames = _renames(_assemble(descriptors, seeds), config)
    _fresh_rgids_increase(renames)
