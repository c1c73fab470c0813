"""Issue queues and functional-unit port accounting."""

import pytest

from repro.isa import Op, Instruction
from repro.pipeline.config import CoreConfig
from repro.pipeline.dyninst import DynInst
from repro.pipeline.scheduler import IssueQueue, FunctionUnits


def _dyn(seq, op=Op.ADD):
    num = Instruction(op, dest=3 if op is Op.ADD or op is Op.DIV else None,
                      srcs=(1, 2) if op in (Op.ADD, Op.DIV, Op.BEQ)
                      else (1,),
                      imm=0x100 if op is Op.BEQ else 0,
                      pc=0x100 + 4 * seq)
    return DynInst(seq, num.pc, num, 0, 0)


def test_ready_immediately_when_no_waits():
    iq = IssueQueue("t", 8)
    dyn = _dyn(0)
    iq.insert(dyn, [])
    fus = FunctionUnits(CoreConfig())
    fus.new_cycle(1)
    assert iq.take_ready(4, fus.try_take) == [dyn]
    assert iq.size == 0


def test_wakeup_decrements_and_readies():
    iq = IssueQueue("t", 8)
    dyn = _dyn(0)
    iq.insert(dyn, [10, 11])
    fus = FunctionUnits(CoreConfig())
    fus.new_cycle(1)
    assert iq.take_ready(4, fus.try_take) == []
    iq.wakeup(10)
    assert iq.take_ready(4, fus.try_take) == []
    iq.wakeup(11)
    assert iq.take_ready(4, fus.try_take) == [dyn]


def test_oldest_first_issue():
    iq = IssueQueue("t", 8)
    young = _dyn(5)
    old = _dyn(1)
    iq.insert(young, [])
    iq.insert(old, [])
    fus = FunctionUnits(CoreConfig(num_alu=1))
    fus.new_cycle(1)
    assert iq.take_ready(1, fus.try_take) == [old]


def test_capacity_overflow_asserts():
    iq = IssueQueue("t", 1)
    iq.insert(_dyn(0), [])
    with pytest.raises(AssertionError):
        iq.insert(_dyn(1), [])


def test_squashed_entries_reclaimed():
    """The squash unit returns the slots of squashed, never-issued
    entries (``SquashUnit.apply`` subtracts them from ``size``); the IQ
    then skips the squashed entries lazily without counting them
    again."""
    iq = IssueQueue("t", 4)
    dyns = [_dyn(i) for i in range(3)]
    for dyn in dyns:
        iq.insert(dyn, [99])
    dyns[0].squashed = True
    dyns[2].squashed = True
    iq.size -= 2
    assert iq.size == 1
    iq.wakeup(99)
    fus = FunctionUnits(CoreConfig())
    fus.new_cycle(1)
    assert iq.take_ready(4, fus.try_take) == [dyns[1]]
    assert iq.size == 0


def _live_entries(iq):
    """Distinct unsquashed instructions in an IQ's ready and waiting
    lists (a waiter on two pregs sits in two lists)."""
    live = {dyn.seq for dyn in iq._ready if not dyn.squashed}
    for waiters in iq._waiting.values():
        live.update(dyn.seq for dyn in waiters if not dyn.squashed)
    return live


@pytest.mark.parametrize("kind", ["baseline", "mssr", "ri"])
def test_iq_occupancy_matches_live_entries_after_every_squash(
        kind, monkeypatch):
    """Replay-heavy bfs (about 1,000 memory-order replays and 200
    branch squashes): after every squash each IQ's ``size`` equals a
    recount of its live entries, and of the ROB instructions still
    waiting to issue from it."""
    from repro.harness.jobs import build_config, build_scheme
    from repro.isa.predecode import KIND_LOAD, KIND_NOP, KIND_STORE
    from repro.pipeline.core import O3Core
    from repro.pipeline.stages.squash import SquashUnit
    from repro.workloads import get_workload

    original = SquashUnit.apply
    applied = []

    def checked_apply(unit, request):
        original(unit, request)
        in_iq = {"int": set(), "mem": set()}
        for dyn in unit.rob:
            kind_ = dyn.pd.kind
            if (kind_ < KIND_NOP and not dyn.issued
                    and (dyn.verify_load or not dyn.reused)):
                name = "mem" if kind_ in (KIND_LOAD, KIND_STORE) \
                    else "int"
                in_iq[name].add(dyn.seq)
        for iq in (unit.int_iq, unit.mem_iq):
            live = _live_entries(iq)
            assert iq.size == len(live), (iq.name, iq.size, len(live))
            assert live == in_iq[iq.name], iq.name
        applied.append(request.kind)

    monkeypatch.setattr(SquashUnit, "apply", checked_apply)
    _mod, prog = get_workload("bfs").build(scale=0.1)
    core = O3Core(prog, build_config(kind),
                  reuse_scheme=build_scheme(kind))
    core.run()
    assert applied.count("branch") > 100
    assert applied.count("replay") > 500


def test_alu_port_limit():
    fus = FunctionUnits(CoreConfig(num_alu=2))
    fus.new_cycle(1)
    assert fus.try_take(_dyn(0))
    assert fus.try_take(_dyn(1))
    assert not fus.try_take(_dyn(2))
    fus.new_cycle(2)
    assert fus.try_take(_dyn(3))


def test_divider_unpipelined():
    fus = FunctionUnits(CoreConfig())
    fus.new_cycle(1)
    assert fus.try_take(_dyn(0, Op.DIV))
    fus.new_cycle(2)
    assert not fus.try_take(_dyn(1, Op.DIV))   # divider busy
    fus.new_cycle(1 + CoreConfig().div_latency)
    assert fus.try_take(_dyn(2, Op.DIV))


def test_branch_uses_bru_ports():
    fus = FunctionUnits(CoreConfig(num_bru=1))
    fus.new_cycle(1)
    assert fus.try_take(_dyn(0, Op.BEQ))
    assert not fus.try_take(_dyn(1, Op.BEQ))
    # ALU ports unaffected
    assert fus.try_take(_dyn(2, Op.ADD))


def test_latencies():
    cfg = CoreConfig()
    fus = FunctionUnits(cfg)
    assert fus.latency_of(_dyn(0, Op.ADD)) == cfg.alu_latency
    assert fus.latency_of(_dyn(0, Op.DIV)) == cfg.div_latency
    assert fus.latency_of(_dyn(0, Op.BEQ)) == cfg.branch_latency
