"""BTB, RAS and the block-based fetch unit."""

from repro.frontend import BranchTargetBuffer, ReturnAddressStack, FetchUnit
from repro.frontend.predictors import build_predictor
from repro.isa import assemble_text


def test_btb_install_and_lookup():
    btb = BranchTargetBuffer(num_sets=8, assoc=2)
    assert btb.lookup(0x100) is None
    btb.install(0x100, 0x500)
    assert btb.lookup(0x100) == 0x500
    btb.install(0x100, 0x600)   # update in place
    assert btb.lookup(0x100) == 0x600


def test_btb_lru_eviction():
    btb = BranchTargetBuffer(num_sets=1, assoc=2)
    btb.install(0x0, 1)
    btb.install(0x4, 2)
    btb.lookup(0x0)             # refresh
    btb.install(0x8, 3)         # evicts 0x4
    assert btb.lookup(0x0) == 1
    assert btb.lookup(0x4) is None
    assert btb.lookup(0x8) == 3


def test_ras_push_pop():
    ras = ReturnAddressStack(depth=4)
    ras.push(0x10)
    ras.push(0x20)
    assert ras.pop() == 0x20
    assert ras.pop() == 0x10
    assert ras.pop() is None


def test_ras_snapshot_restore():
    ras = ReturnAddressStack(depth=4)
    ras.push(0x10)
    snap = ras.snapshot()
    ras.push(0x20)
    ras.pop()
    ras.pop()
    ras.restore(snap)
    assert ras.peek() == 0x10


def test_ras_wraps_without_error():
    ras = ReturnAddressStack(depth=2)
    for i in range(5):
        ras.push(i)
    assert ras.pop() == 4


def _fetch_unit(source):
    prog = assemble_text(source)
    predictor = build_predictor("always-taken")
    return prog, FetchUnit(prog, predictor, BranchTargetBuffer(),
                           ReturnAddressStack())


def test_block_ends_at_taken_branch():
    prog, fetch = _fetch_unit("""
        addi t0, t0, 1
        beq t0, t0, target
        addi t1, t1, 1
    target:
        halt
    """)
    block = fetch.fetch_block(cycle=1)
    assert block.num_insts == 2          # addi + predicted-taken beq
    assert block.pred_next_pc == prog.label_pc("target")


def test_block_limited_to_fetch_width():
    source = "\n".join(["addi t0, t0, 1"] * 20) + "\nhalt"
    prog, fetch = _fetch_unit(source)
    block = fetch.fetch_block(cycle=1)
    assert block.num_insts == 8
    assert block.pred_next_pc == prog.code_base + 8 * 4


def test_halt_ends_block_and_stalls():
    _prog, fetch = _fetch_unit("""
        addi t0, t0, 1
        halt
    """)
    block = fetch.fetch_block(cycle=1)
    assert block.insts[-1].inst.is_halt
    assert fetch.stalled
    assert fetch.fetch_block(cycle=2) is None


def test_redirect_unstalls():
    prog, fetch = _fetch_unit("""
        halt
        addi t0, t0, 1
        halt
    """)
    fetch.fetch_block(cycle=1)
    assert fetch.stalled
    fetch.redirect(prog.code_base + 4)
    block = fetch.fetch_block(cycle=2)
    assert block.start_pc == prog.code_base + 4


def test_ftq_squash_partial_block():
    source = "\n".join(["addi t0, t0, 1"] * 8) + "\nhalt"
    prog, fetch = _fetch_unit(source)
    block = fetch.fetch_block(cycle=1)
    boundary_seq = block.insts[2].seq
    squashed = fetch.squash_ftq_after(block.block_id,
                                      keep_partial_seq=boundary_seq)
    assert len(squashed) == 1
    partial = squashed[0]
    assert partial.insts[0].seq == boundary_seq + 1
    assert partial.num_insts == 5
    # The surviving FTQ entry keeps only the older instructions.
    assert fetch.ftq[0].num_insts == 3


def test_ras_drives_return_prediction():
    prog, fetch = _fetch_unit("""
        jal ra, func
        halt
    func:
        ret
    """)
    call_block = fetch.fetch_block(cycle=1)
    assert call_block.pred_next_pc == prog.label_pc("func")
    ret_block = fetch.fetch_block(cycle=2)
    # The return is predicted through the RAS back to pc+4 of the call.
    assert ret_block.pred_next_pc == prog.code_base + 4


# ---------------------------------------------------------------------------
# RAS overflow/underflow semantics
# ---------------------------------------------------------------------------
def test_ras_wrap_keeps_newest_entries():
    ras = ReturnAddressStack(depth=4)
    for i in range(10):
        ras.push(0x1000 + 4 * i)
    assert ras.count == 4
    for i in reversed(range(6, 10)):
        assert ras.pop() == 0x1000 + 4 * i
    # Entries overwritten by the wrap are not stale "predictions".
    assert ras.pop() is None


def test_ras_snapshot_restores_occupancy():
    ras = ReturnAddressStack(depth=4)
    ras.push(0x10)
    ras.push(0x20)
    snap = ras.snapshot()
    ras.push(0x30)
    while ras.pop() is not None:
        pass
    ras.restore(snap)
    assert ras.count == 2
    assert ras.pop() == 0x20
    assert ras.pop() == 0x10
    assert ras.pop() is None


def test_ras_deep_call_chain_with_mispredicts():
    """Call chain deeper than the RAS, with a mispredicting branch in
    every frame: wrap + checkpoint/restore must keep the machine
    architecturally correct and still predict the in-reach returns."""
    from repro.pipeline import baseline_config
    from tests.conftest import run_both

    depth = 12
    lines = [
        "    li sp, 0x80000",
        "    li t0, 1",
        "    jal ra, f0",
        "    halt",
    ]
    for i in range(depth):
        lines += [
            "f%d:" % i,
            "    addi sp, sp, -8",
            "    sd ra, 0(sp)",
            # Not taken, but always-taken predicts taken: one
            # misprediction (and RAS repair) per frame.
            "    beq t0, zero, skip%d" % i,
            "    addi t1, t1, 1",
            "skip%d:" % i,
        ]
        if i + 1 < depth:
            lines.append("    jal ra, f%d" % (i + 1))
        lines += [
            "    ld ra, 0(sp)",
            "    addi sp, sp, 8",
            "    ret",
        ]
    prog = assemble_text("\n".join(lines))
    cfg = baseline_config(predictor="always-taken", ras_depth=4)
    _emu, result = run_both(prog, cfg)
    assert result.reg("t1") == depth
    assert result.stats.cond_mispredicts >= depth


# ---------------------------------------------------------------------------
# FTQ squash/retire bookkeeping
# ---------------------------------------------------------------------------
def test_ftq_partial_repair_with_younger_blocks():
    source = "\n".join(["addi t0, t0, 1"] * 24) + "\nhalt"
    prog, fetch = _fetch_unit(source)
    b0 = fetch.fetch_block(cycle=1)
    b1 = fetch.fetch_block(cycle=2)
    b2 = fetch.fetch_block(cycle=3)
    boundary_seq = b0.insts[4].seq
    squashed = fetch.squash_ftq_after(b0.block_id,
                                      keep_partial_seq=boundary_seq)
    # Oldest first: the partial tail of b0, then b1, then b2 whole.
    assert [b.block_id for b in squashed] == [b0.block_id, b1.block_id,
                                             b2.block_id]
    assert squashed[0].insts[0].seq == boundary_seq + 1
    assert squashed[0].num_insts == 3
    assert all(b.squashed for b in squashed)
    # The surviving boundary entry keeps only the older instructions.
    assert fetch.ftq == [b0]
    assert b0.num_insts == 5
    assert b0.end_pc == b0.insts[-1].pc


def test_ftq_retire_under_nested_squashes():
    source = "\n".join(["addi t0, t0, 1"] * 40) + "\nhalt"
    prog, fetch = _fetch_unit(source)
    blocks = [fetch.fetch_block(cycle=c) for c in range(1, 5)]
    # Outer squash drops blocks 2..3; a nested (older-boundary) squash
    # then drops block 1 as well.
    outer = fetch.squash_ftq_after(blocks[1].block_id)
    assert [b.block_id for b in outer] == [blocks[2].block_id,
                                           blocks[3].block_id]
    inner = fetch.squash_ftq_after(blocks[0].block_id)
    assert [b.block_id for b in inner] == [blocks[1].block_id]
    # Commit-time cleanup: retiring block 0 leaves an empty FTQ, and
    # retirement is idempotent for already-dropped younger ids.
    fetch.retire_block(blocks[0].block_id)
    assert fetch.ftq == []
    fetch.retire_block(blocks[3].block_id)
    assert fetch.ftq == []


def test_retire_block_ordering_under_nested_mispredicts_core():
    """Commit-time FTQ cleanup across two nested mispredictions."""
    from repro.pipeline import O3Core, baseline_config

    prog = assemble_text("""
        li t0, 1
        beq t0, zero, wrong_a
        addi t1, t1, 1
        beq t0, zero, wrong_b
        addi t2, t2, 1
        halt
    wrong_a:
        addi t3, t3, 1
    wrong_b:
        addi t4, t4, 1
        halt
    """)
    core = O3Core(prog, baseline_config(predictor="always-taken"))
    result = core.run()
    assert result.reg("t1") == 1 and result.reg("t2") == 1
    assert result.reg("t3") == 0 and result.reg("t4") == 0
    assert result.stats.cond_mispredicts == 2
    # Everything older than the final block was retired at commit.
    assert all(not b.squashed for b in core.fetch.ftq)
    assert len(core.fetch.ftq) <= 2


# ---------------------------------------------------------------------------
# Decoupled BPU/FTQ mode
# ---------------------------------------------------------------------------
def _decoupled_fetch_unit(source, **kwargs):
    from repro.pipeline.config import FrontendConfig

    prog = assemble_text(source)
    predictor = build_predictor("always-taken")
    fe = FrontendConfig(decoupled=True, **kwargs)
    return prog, FetchUnit(prog, predictor, BranchTargetBuffer(),
                           ReturnAddressStack(), frontend=fe)


def test_decoupled_bpu_runs_ahead_and_honours_depth():
    source = "\n".join(["addi t0, t0, 1"] * 64) + "\nhalt"
    _prog, fetch = _decoupled_fetch_unit(source, ftq_depth=3,
                                         bpu_blocks_per_cycle=2)
    fetch.tick(cycle=1)
    assert len(fetch.pending) == 2
    fetch.tick(cycle=2)
    assert len(fetch.pending) == 3   # capped at ftq_depth
    fetch.tick(cycle=3)
    assert len(fetch.pending) == 3


def test_decoupled_fetch_latency_gates_delivery():
    source = "\n".join(["addi t0, t0, 1"] * 16) + "\nhalt"
    _prog, fetch = _decoupled_fetch_unit(source, fetch_latency=2)
    assert fetch.fetch_block(cycle=1) is None     # FTQ empty
    fetch.tick(cycle=1)
    assert fetch.fetch_block(cycle=2) is None     # icache latency
    block = fetch.fetch_block(cycle=3)
    assert block is not None and block.delivered
    # Delivery re-stamps the instructions' fetch cycle.
    assert all(dyn.fetch_cycle == 3 for dyn in block.insts)


def test_ftq_trims_in_place_in_block_order():
    """Retirement trims the FTQ's oldest prefix, a redirect its pending
    suffix and a squash its younger suffix, all on the same list."""
    source = "\n".join(["addi t0, t0, 1"] * 80) + "\nhalt"
    _prog, fetch = _decoupled_fetch_unit(source, ftq_depth=6,
                                         fetch_latency=0,
                                         bpu_blocks_per_cycle=6)
    ftq = fetch.ftq
    fetch.tick(cycle=1)
    delivered = [fetch.fetch_block(cycle=1) for _ in range(4)]
    ids = [b.block_id for b in ftq]
    assert ids == sorted(ids) and len(ids) == 6
    fetch.retire_block(delivered[0].block_id)
    fetch.redirect(fetch.pc, cycle=2)          # flushes the 2 pending
    assert fetch.ftq is ftq
    assert ftq == delivered[1:]
    squashed = fetch.squash_ftq_after(delivered[1].block_id)
    assert squashed == delivered[2:]
    assert fetch.ftq is ftq and ftq == [delivered[1]]


def test_decoupled_squash_flushes_pending_and_rewinds():
    prog = assemble_text("""
    loop:
        addi t0, t0, -1
        bnez t0, loop
        halt
    """)
    from repro.pipeline.config import FrontendConfig

    predictor = build_predictor("gshare")
    ras = ReturnAddressStack()
    fetch = FetchUnit(prog, predictor, BranchTargetBuffer(), ras,
                      frontend=FrontendConfig(decoupled=True, ftq_depth=8,
                                              bpu_blocks_per_cycle=8))
    hist0 = predictor.snapshot_history()
    delivered = fetch.fetch_block(cycle=1)
    assert delivered is None          # nothing predicted yet
    fetch.tick(cycle=1)               # BPU runs ahead: speculates loop
    assert len(fetch.pending) > 1
    assert predictor.snapshot_history() != hist0
    # Squash everything: pending blocks flush and history rewinds to
    # the oldest flushed block's pre-prediction state.
    squashed = fetch.squash_ftq_after(-1)
    assert squashed == []             # nothing was delivered
    assert not fetch.pending and not fetch.ftq
    assert predictor.snapshot_history() == hist0


def test_decoupled_matches_fused_architecturally():
    from repro.emu import Emulator
    from repro.pipeline import O3Core, baseline_config
    from repro.pipeline.config import FrontendConfig

    prog = assemble_text("""
        li s0, 50
        li s1, 0
    loop:
        andi t0, s0, 3
        beqz t0, skip
        addi s1, s1, 2
    skip:
        addi s0, s0, -1
        bnez s0, loop
        halt
    """)
    emu = Emulator(prog).run()
    fused = O3Core(prog, baseline_config()).run()
    dec = O3Core(prog, baseline_config(
        frontend=FrontendConfig(decoupled=True))).run()
    assert fused.regs == emu.regs and dec.regs == emu.regs
    assert dec.stats.committed_insts == fused.stats.committed_insts
    # Decoupling costs cycles (redirect bubbles + fetch latency) and
    # surfaces the new frontend counters; fused mode keeps them zero.
    assert dec.stats.cycles >= fused.stats.cycles
    assert dec.stats.ftq_enqueues > 0 and dec.stats.fetch_stalls > 0
    assert fused.stats.ftq_enqueues == 0 and fused.stats.fetch_stalls == 0
