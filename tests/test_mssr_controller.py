"""MSSR controller internals, unit-tested against a stub core.

The integration tests exercise the controller through the full pipeline;
these tests pin down the finer policies in isolation: stream
classification, lockstep annotation/divergence, reuse-test outcomes,
pressure release ordering and the reset suspension window.
"""

from repro.isa import Op, Instruction
from repro.isa.instruction import INST_BYTES
from repro.frontend.fetch import PredictionBlock
from repro.mssr.controller import MSSRController
from repro.obs import Observability
from repro.pipeline.config import MSSRConfig
from repro.pipeline.dyninst import DynInst


class _StubRat:
    def __init__(self):
        self.overflow_events = 0
        self.resets = 0

    def reset_rgids(self):
        self.resets += 1


class _StubConfig:
    rob_entries = 256


class _StubCore:
    """Just enough of O3Core for the controller."""

    def __init__(self):
        self.obs = Observability()
        self.stats = self.obs.stats
        self.rat = _StubRat()
        self.config = _StubConfig()
        self.freed = []

    def free_reserved_preg(self, preg):
        self.freed.append(preg)


def _controller(**kwargs):
    controller = MSSRController(MSSRConfig(**kwargs))
    core = _StubCore()
    controller.attach(core)
    return controller, core


_SEQ = [0]


def _renamed(pc, dest_rgid=None, src_rgids=(), executed=True, preg=None):
    inst = Instruction(Op.ADDI, dest=5, srcs=(6,), imm=0, pc=pc)
    dyn = DynInst(_SEQ[0], pc, inst, block_id=0, fetch_cycle=0)
    _SEQ[0] += 1
    dyn.renamed = True
    dyn.executed = executed
    dyn.src_rgids = src_rgids or (11,)
    dyn.dest_rgid = dest_rgid if dest_rgid is not None else _SEQ[0] + 100
    dyn.dest_preg = preg if preg is not None else 60 + _SEQ[0]
    return dyn


def _trigger(seq):
    inst = Instruction(Op.BEQ, srcs=(1, 2), imm=0x400, pc=0x50)
    dyn = DynInst(seq, 0x50, inst, block_id=0, fetch_cycle=0)
    return dyn


def _block(block_id, start_pc, num_insts, op=Op.ADDI):
    block = PredictionBlock(block_id, start_pc)
    for i in range(num_insts):
        pc = start_pc + i * INST_BYTES
        inst = Instruction(op, dest=5, srcs=(6,), imm=0, pc=pc)
        dyn = DynInst(_SEQ[0], pc, inst, block_id, fetch_cycle=0)
        _SEQ[0] += 1
        block.insts.append(dyn)
        block.end_pc = pc
    block.pred_next_pc = block.end_pc + INST_BYTES
    return block


def _squash(controller, pcs, trigger_seq=0):
    """Create one squashed stream from the given pcs."""
    renamed = [_renamed(pc) for pc in pcs]
    blocks = [_block(99, pcs[0], len(pcs))]
    trigger = _trigger(trigger_seq)
    controller.on_branch_squash(trigger, renamed, blocks)
    for dyn in renamed:
        controller.wants_preg(dyn)
    return renamed


def test_squash_populates_wpb_and_log():
    controller, _core = _controller()
    pcs = [0x100 + 4 * i for i in range(6)]
    _squash(controller, pcs)
    assert controller.wpb.num_valid == 1
    assert controller.log.streams[0].valid
    assert len(controller.log.streams[0].entries) == 6
    assert all(e.reserved for e in controller.log.streams[0].entries)


def test_fetch_block_triggers_lockstep_annotation():
    controller, core = _controller()
    pcs = [0x100 + 4 * i for i in range(8)]
    _squash(controller, pcs)
    block = _block(200, 0x110, 4)      # overlaps at pcs[4]
    controller.on_fetch_block(block)
    assert core.stats.reconvergences == 1
    assert block.insts[0].reuse_candidate is not None
    stream_idx, entry_idx, _gen = block.insts[0].reuse_candidate
    assert entry_idx == 4              # offset from the stream start


def test_divergence_ends_lockstep_and_releases_stream():
    controller, core = _controller()
    pcs = [0x100 + 4 * i for i in range(8)]
    _squash(controller, pcs)
    controller.on_fetch_block(_block(200, 0x100, 4))  # reconverge at 0
    assert controller._lockstep is not None
    # Next block diverges (wrong PC).
    controller.on_fetch_block(_block(201, 0x900, 2))
    assert controller._lockstep is None
    # Condition 4: the stream's registers were all released.
    assert len(core.freed) == 8
    assert not controller.wpb.streams[0].valid


def test_classification_simple_software_hardware():
    controller, core = _controller()
    # Stream created by trigger seq 50; current trigger also 50 = simple.
    _squash(controller, [0x100, 0x104], trigger_seq=50)
    controller._last_trigger_seq = 50
    controller.on_fetch_block(_block(300, 0x100, 2))
    assert core.stats.reconv_simple == 1

    controller2, core2 = _controller()
    _squash(controller2, [0x100, 0x104], trigger_seq=10)  # elder branch
    controller2._last_trigger_seq = 99
    controller2.on_fetch_block(_block(300, 0x100, 2))
    assert core2.stats.reconv_software == 1

    controller3, core3 = _controller()
    _squash(controller3, [0x100, 0x104], trigger_seq=99)  # younger branch
    controller3._last_trigger_seq = 10
    controller3.on_fetch_block(_block(300, 0x100, 2))
    assert core3.stats.reconv_hardware == 1


def test_reuse_test_rgid_match_and_mismatch():
    controller, core = _controller()
    renamed = _squash(controller, [0x100, 0x104])
    controller.on_fetch_block(_block(400, 0x100, 2))

    # Matching RGIDs -> reuse; entry consumed.
    candidate = _renamed(0x100, src_rgids=renamed[0].src_rgids)
    candidate.reuse_candidate = (0, 0, controller.log.streams[0].generation)
    result = controller.try_reuse(candidate)
    assert result is not None
    assert result.preg == renamed[0].dest_preg
    assert result.rgid == renamed[0].dest_rgid
    assert controller.log.streams[0].entries[0].consumed

    # Mismatching RGIDs -> fail; register released (condition 3).
    candidate2 = _renamed(0x104, src_rgids=(12345,))
    candidate2.reuse_candidate = (0, 1,
                                  controller.log.streams[0].generation)
    assert controller.try_reuse(candidate2) is None
    assert renamed[1].dest_preg in core.freed


def test_stale_generation_rejected():
    controller, _core = _controller()
    renamed = _squash(controller, [0x100])
    gen = controller.log.streams[0].generation
    controller.invalidate_all()
    candidate = _renamed(0x100, src_rgids=renamed[0].src_rgids)
    candidate.reuse_candidate = (0, 0, gen)
    assert controller.try_reuse(candidate) is None


def test_emergency_release_frees_oldest_stream():
    controller, core = _controller(num_streams=2)
    first = _squash(controller, [0x100, 0x104], trigger_seq=1)
    second = _squash(controller, [0x300, 0x304], trigger_seq=2)
    assert controller.emergency_release()
    # The least recent allocation (first) was sacrificed.
    assert {d.dest_preg for d in first} <= set(core.freed)
    assert all(d.dest_preg not in core.freed for d in second)
    assert core.stats.squash_log_pressure_frees == 1


def test_emergency_release_with_nothing_held():
    controller, _core = _controller()
    assert not controller.emergency_release()


def test_overflow_triggers_reset_and_suspension():
    controller, core = _controller()
    core.rat.overflow_events = 99
    controller.on_cycle(1)
    assert core.rat.resets == 1
    assert core.stats.rgid_resets == 1
    # New streams refused until a ROB's worth of commits.
    _squash(controller, [0x100, 0x104])
    assert not controller.wpb.num_valid
    core.stats.committed_insts += core.config.rob_entries
    _squash(controller, [0x100, 0x104])
    assert controller.wpb.num_valid


def test_replay_squash_only_ends_lockstep():
    controller, _core = _controller()
    _squash(controller, [0x100 + 4 * i for i in range(4)])
    controller.on_fetch_block(_block(500, 0x100, 2))
    assert controller._lockstep is not None
    controller.on_replay_squash(_trigger(123))
    assert controller._lockstep is None
    # Stream itself survives a replay (it wasn't the diverging path).
    assert controller.wpb.num_valid
