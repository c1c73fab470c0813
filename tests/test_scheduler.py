"""Issue queues and function-unit ports, on a real core.

An issue queue is plain state: rename/dispatch inserts, writeback wakes
the waiters, execute selects oldest first and claims the ports, and the
squash unit returns the slots of squashed entries. These tests run
programs on a :class:`~tests.invariants.CheckedCore`, which recounts
every queue against the ROB at the start of every cycle, and read the
timing from the rename, issue and writeback events.
"""

import collections

import pytest

from repro.harness.jobs import build_config, build_scheme
from repro.isa import Assembler, Instruction, Op
from repro.isa.opcodes import OPCODE_INFO, OpClass
from repro.obs import CallbackSink, Observability
from repro.obs.events import (IssueEvent, RenameEvent, SquashEvent,
                              WritebackEvent)
from repro.pipeline import CoreConfig, O3Core, mssr_config
from repro.workloads import get_workload

from tests.invariants import CheckedCore, InvariantViolation, checked


def _timeline(prog, config):
    """Run ``prog`` checked; returns, per pc, the cycle of its last
    rename, issue and writeback."""
    times = collections.defaultdict(dict)

    def record(event):
        kind = type(event)
        if kind is RenameEvent or kind is IssueEvent \
                or kind is WritebackEvent:
            times[event.pc][kind.etype] = event.cycle

    core = CheckedCore(prog, config,
                       obs=Observability(sinks=[CallbackSink(record)]))
    result = core.run()
    assert result.stats.committed_insts == len(prog)
    return times


def _issues_per_cycle(prog, config, op_classes):
    """Issue events per cycle of a checked run whose ops are in
    ``op_classes``."""
    per_cycle = collections.Counter()

    def record(event):
        if type(event) is IssueEvent \
                and OPCODE_INFO[Op[event.op]].op_class in op_classes:
            per_cycle[event.cycle] += 1

    core = CheckedCore(prog, config,
                       obs=Observability(sinks=[CallbackSink(record)]))
    core.run()
    return per_cycle


def _independent_addis(asm, count):
    """``count`` ALU ops whose only source is x0 (ready at rename);
    returns their pcs."""
    pcs = []
    for i in range(count):
        pcs.append(asm.next_pc)
        asm.li("t%d" % (i % 7), i + 1)
    return pcs


def test_ready_immediately_when_no_waits():
    """An instruction whose sources are ready at rename goes straight
    to the ready list and issues in the next cycle (execute ticks
    before rename)."""
    asm = Assembler()
    pcs = _independent_addis(asm, 8)
    asm.halt()
    times = _timeline(asm.finish(), CoreConfig(num_alu=8))
    for pc in pcs:
        assert times[pc]["issue"] == times[pc]["rename"] + 1


def test_wakeup_decrements_and_readies():
    """A consumer of two producers stays waiting after the first
    writeback and issues in the cycle of the second (writeback ticks
    before execute, so the wakeup is back to back)."""
    asm = Assembler()
    asm.mul("t0", "s1", "s1")          # 3-cycle producer
    asm.addi("t1", "s2", 1)            # 1-cycle producer
    consumer = asm.next_pc
    asm.add("t2", "t0", "t1")
    asm.halt()
    prog = asm.finish()
    mul, addi = prog.code_base, prog.code_base + 4
    times = _timeline(prog, CoreConfig())
    assert times[addi]["writeback"] < times[mul]["writeback"]
    assert times[consumer]["rename"] < times[addi]["writeback"]
    assert times[consumer]["issue"] == times[mul]["writeback"]


def test_oldest_first_issue():
    """With one ALU port, independent ready ALU ops issue one per
    cycle in program order."""
    asm = Assembler()
    pcs = _independent_addis(asm, 12)
    asm.halt()
    times = _timeline(asm.finish(), CoreConfig(num_alu=1))
    issues = [times[pc]["issue"] for pc in pcs]
    assert issues == list(range(issues[0], issues[0] + len(pcs)))


def test_capacity_overflow_asserts():
    """A two-entry integer queue fills on a dependent chain and stalls
    dispatch without ever overflowing (the checker asserts on every
    cycle that ``size <= capacity``, and does assert when a queue
    overflows)."""
    asm = Assembler()
    asm.li("t0", 1)
    for _ in range(24):
        asm.mul("t0", "t0", "t0")
        asm.addi("t1", "t0", 1)
    asm.halt()
    prog = asm.finish()
    config = CoreConfig(int_iq_entries=2)
    sizes = []
    core = CheckedCore(prog, config, obs=Observability(sinks=[
        CallbackSink(lambda event: sizes.append(core.int_iq.size))]))
    core.run()
    assert max(sizes) == 2

    core = CheckedCore(prog, config)
    core.run(max_insts=10)
    core.int_iq.size += core.int_iq.capacity
    with pytest.raises(InvariantViolation, match="issue queues"):
        core.run()


def test_squashed_entries_reclaimed():
    """Squashes pop never-issued entries from the ROB: the squash unit
    returns their slots, and the queues skip the squashed entries
    lazily without counting them again (the checker recounts every
    queue after each squash)."""
    _mod, prog = get_workload("nested-mispred").build(0.03)
    issued, squashed = set(), set()

    def record(event):
        kind = type(event)
        if kind is IssueEvent:
            issued.add(event.seq)
        elif kind is SquashEvent:
            squashed.update(event.squashed_seqs)

    core = CheckedCore(prog, mssr_config(num_streams=4),
                       obs=Observability(sinks=[CallbackSink(record)]))
    core.run()
    assert squashed - issued
    assert core.checker.checks == core.stats.cycles


@pytest.mark.parametrize("kind", ["baseline", "mssr", "ri"])
def test_iq_occupancy_matches_live_entries_after_every_squash(kind):
    """Replay-heavy bfs (about 1,000 memory-order replays and 200
    branch squashes): after every squash each IQ's ``size`` equals a
    recount of its live entries, and of the ROB instructions still
    waiting to issue from it."""
    _mod, prog = get_workload("bfs").build(scale=0.1)
    core = checked(every=None, after_squash=True)(
        prog, build_config(kind), reuse_scheme=build_scheme(kind))
    core.run()
    assert core.checker.squashes["branch"] > 100
    assert core.checker.squashes["replay"] > 500
    assert core.checker.checks == sum(core.checker.squashes.values())


def test_alu_port_limit():
    """At most ``num_alu`` ALU-port instructions issue per cycle, and
    a third ready one waits for the next cycle."""
    asm = Assembler()
    _independent_addis(asm, 16)
    asm.halt()
    per_cycle = _issues_per_cycle(asm.finish(), CoreConfig(num_alu=2),
                                  (OpClass.ALU,))
    assert sum(per_cycle.values()) == 16
    assert max(per_cycle.values()) == 2


def test_divider_unpipelined():
    """Two independent divides, ready in the same cycle: the second
    issues ``div_latency`` cycles after the first."""
    asm = Assembler()
    asm.li("t0", 1000)
    asm.li("t1", 7)
    first = asm.next_pc
    asm.div("t2", "t0", "t1")
    second = asm.next_pc
    asm.div("t3", "t0", "t1")
    asm.halt()
    config = CoreConfig()
    times = _timeline(asm.finish(), config)
    assert times[second]["issue"] - times[first]["issue"] \
        == config.div_latency


def test_branch_uses_bru_ports():
    """Branches and ALU ops that wake together on a divide: with one
    BRU port one branch issues per cycle (two with two ports), while
    the ALU ports serve the ALU ops in the same cycles."""
    asm = Assembler()
    asm.li("t6", 1)
    asm.div("t6", "t6", "t6")
    for i in range(12):
        asm.addi("t%d" % (i % 6), "t6", i)
        asm.beq("zero", "t6", "next%d" % i)     # never taken
        asm.label("next%d" % i)
    asm.halt()
    prog = asm.finish()
    branches = _issues_per_cycle(prog, CoreConfig(num_bru=1),
                                 (OpClass.BRANCH,))
    alu = _issues_per_cycle(prog, CoreConfig(num_bru=1), (OpClass.ALU,))
    assert max(branches.values()) == 1
    assert any(alu[cycle] >= 2 for cycle in branches)
    branches = _issues_per_cycle(prog, CoreConfig(num_bru=2),
                                 (OpClass.BRANCH,))
    assert max(branches.values()) == 2


#: A latency per function-unit class, each distinct.
_LATENCIES = dict(alu_latency=2, mul_latency=3, div_latency=5,
                  branch_latency=4, store_latency=6)


def _latency(config, op_class):
    return {OpClass.MUL: config.mul_latency,
            OpClass.DIV: config.div_latency,
            OpClass.BRANCH: config.branch_latency,
            OpClass.STORE: config.store_latency,
            }.get(op_class, config.alu_latency)


def test_latencies():
    """Per opcode, execute's latency for the instruction's kind is the
    config latency of the opcode's class (loads time their own access);
    on a run, every register op writes back that many cycles after it
    issues."""
    config = CoreConfig(**_LATENCIES)
    asm = Assembler()
    asm.halt()
    stage = O3Core(asm.finish(), config).execute_stage
    for op, info in OPCODE_INFO.items():
        if info.op_class is OpClass.LOAD:
            continue
        inst = Instruction(op, dest=5 if info.has_dest else None,
                           srcs=(6, 7)[:info.num_srcs],
                           imm=0x1000 if info.has_imm else 0, pc=0x1000)
        assert stage.kind_latency[inst.kind] == \
            _latency(config, info.op_class), op

    asm = Assembler()
    ops = {}
    for op, info in OPCODE_INFO.items():
        if info.op_class not in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            continue
        ops[asm.next_pc] = info.op_class
        srcs = ("s1", "s2")[:info.num_srcs]
        asm.emit(op, "t0", srcs, 3 if info.has_imm else 0)
    ops[asm.next_pc] = OpClass.BRANCH
    asm.beq("zero", "s1", "end")
    asm.label("end")
    asm.halt()
    times = _timeline(asm.finish(), config)
    for pc, op_class in ops.items():
        assert times[pc]["writeback"] - times[pc]["issue"] == \
            _latency(config, op_class), hex(pc)
