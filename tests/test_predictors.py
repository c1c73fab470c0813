"""Branch predictors: learning behaviour and history recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import (
    BimodalPredictor, GSharePredictor, TagePredictor, TageSCL,
    LoopPredictor, StatisticalCorrector, build_predictor,
)
from repro.frontend import tage as tage_module


def _train(pred, pc, outcomes, repeats=1):
    """Feed a repeating outcome pattern; returns accuracy of last pass."""
    correct = 0
    total = 0
    for r in range(repeats):
        for outcome in outcomes:
            taken, meta = pred.predict(pc)
            if r == repeats - 1:
                total += 1
                correct += (taken == outcome)
            if taken != outcome:
                pred.recover(outcome, meta)
            pred.update(pc, outcome, meta)
    return correct / total if total else 0.0


def test_bimodal_learns_bias():
    pred = BimodalPredictor(num_entries=64)
    acc = _train(pred, 0x1000, [True] * 50, repeats=2)
    assert acc == 1.0
    acc = _train(pred, 0x2000, [False] * 50, repeats=2)
    assert acc == 1.0


def test_bimodal_cannot_learn_alternation():
    pred = BimodalPredictor(num_entries=64)
    acc = _train(pred, 0x1000, [True, False] * 40, repeats=3)
    assert acc < 0.8


def test_gshare_learns_alternation():
    pred = GSharePredictor(num_entries=1024, history_bits=8)
    acc = _train(pred, 0x1000, [True, False] * 40, repeats=6)
    assert acc > 0.9


def test_tage_learns_long_pattern():
    pred = TagePredictor(num_tables=5, base_entries=512, table_entries=256,
                         min_history=2, max_history=32)
    pattern = [True, True, False, True, False, False, True, False]
    acc = _train(pred, 0x1000, pattern * 10, repeats=8)
    assert acc > 0.9


def test_tage_scl_learns_pattern():
    pred = TageSCL()
    pattern = [True, False, False, True]
    acc = _train(pred, 0x4000, pattern * 10, repeats=8)
    assert acc > 0.9


def test_history_recovery_restores_state():
    pred = GSharePredictor()
    pred.predict(0x10)
    snap = pred.snapshot_history()
    _taken, meta = pred.predict(0x20)
    assert pred.history != snap
    pred.recover(True, meta)
    # History = pre-prediction history of 0x20 plus the actual outcome.
    assert pred.history == ((meta.history << 1) | 1)


def test_loop_predictor_predicts_exit():
    loop = LoopPredictor(num_entries=16)
    pc = 0x100
    # Train: loop runs exactly 5 iterations (4 taken + 1 not-taken).
    for _ in range(6):
        for taken in [True] * 4 + [False]:
            loop.update(pc, taken)
    hits = []
    for taken in [True] * 4 + [False]:
        valid, pred_taken = loop.predict(pc)
        hits.append(valid and pred_taken == taken)
        loop.update(pc, taken)
    assert all(hits), hits


def test_loop_predictor_loses_confidence_on_trip_change():
    loop = LoopPredictor(num_entries=16)
    pc = 0x100
    for _ in range(6):
        for taken in [True] * 3 + [False]:
            loop.update(pc, taken)
    for taken in [True] * 9 + [False]:   # trip changes
        loop.update(pc, taken)
    valid, _taken = loop.predict(pc)
    assert not valid


def test_statistical_corrector_trains():
    sc = StatisticalCorrector()
    pc, history = 0x300, 0b1011
    # TAGE keeps saying taken but the outcome is not-taken: SC learns to
    # flip it.
    for _ in range(40):
        _use, _taken, total = sc.predict(pc, history, True)
        sc.update(pc, history, True, False, total)
    use, taken, _total = sc.predict(pc, history, True)
    assert use and taken is False


def test_build_predictor_factory():
    assert build_predictor("bimodal").name == "bimodal"
    assert build_predictor("gshare").name == "gshare"
    assert build_predictor("tage").name == "tage"
    assert build_predictor("tage-scl").name == "tage-scl"
    try:
        build_predictor("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_loop_predictor_unwind_restores_spec_count():
    loop = LoopPredictor(num_entries=16)
    pc = 0x100
    for _ in range(6):
        for taken in [True] * 4 + [False]:
            loop.update(pc, taken)
    entry = loop._entry(pc)
    base = entry.spec_count
    _valid, _taken, ckpt1 = loop.predict_spec(pc)
    _valid, _taken, ckpt2 = loop.predict_spec(pc)
    assert entry.spec_count == base + 2
    # Unwind youngest first: back to the pre-speculation count.
    loop.unwind(ckpt2)
    loop.unwind(ckpt1)
    assert entry.spec_count == base
    # A reallocated entry (tag mismatch) is left alone.
    entry.tag = 0xDEAD
    loop.unwind(ckpt1)
    assert entry.spec_count == base


def test_tage_scl_unwind_repairs_loop_speculation():
    pred = TageSCL()
    pc = 0x200
    for _ in range(8):
        for taken in [True] * 4 + [False]:
            _t, meta = pred.predict(pc)
            pred.recover(taken, meta) if _t != taken else None
            pred.update(pc, taken, meta)
    entry = pred.loop._entry(pc)
    assert entry is not None and entry.confidence >= pred.loop.CONFIDENT
    base = entry.spec_count
    metas = []
    for _ in range(3):
        _taken, meta = pred.predict(pc)
        metas.append(meta)
    # Squash all three speculative iterations, youngest first.
    for meta in reversed(metas):
        pred.unwind(meta)
    assert entry.spec_count == base


def test_tage_scl_withloop_benches_losing_loop_predictor():
    pred = TageSCL()
    pred.withloop = 0
    pc = 0x300
    # Fabricate a confident loop entry that is *wrong* (trip=3 while the
    # real behaviour is always-taken): withloop must go negative and the
    # loop override stop applying.
    idx = (pc >> 2) % pred.loop.num_entries
    entry = pred.loop.entries[idx]
    entry.tag = pc
    entry.trip = 3
    entry.confidence = 7
    saw_override = False
    for i in range(200):
        taken, meta = pred.predict(pc)
        loop_valid = meta.extra[4]
        if loop_valid and pred.withloop >= 0 and not taken:
            saw_override = True
        if taken is not True:
            pred.recover(True, meta)
        pred.update(pc, True, meta)
        entry.confidence = 7          # keep the bad entry "confident"
        entry.trip = 3
    assert saw_override               # it did try the loop override...
    assert pred.withloop < 0          # ...and got benched for losing


def test_statistical_corrector_vetoes_weak_tage_sooner():
    sc = StatisticalCorrector(threshold=6)
    pc, history = 0x400, 0b0110
    # Build a moderate anti-TAGE sum: strong enough to override a weak
    # provider, not a confident one.
    for _ in range(4):
        _u, _t, total = sc.predict(pc, history, True)
        sc.update(pc, history, True, False, total)
    use_strong, _t, total = sc.predict(pc, history, True, tage_weak=False)
    use_weak, taken, _tot = sc.predict(pc, history, True, tage_weak=True)
    assert abs(total) < sc.threshold          # below the confident bar
    assert not use_strong
    assert use_weak and taken is False


def test_tage_meta_carries_provider_confidence():
    pred = TagePredictor(num_tables=4, base_entries=256, table_entries=128)
    _taken, extra = pred._lookup(0x500)
    assert len(extra) == 5
    provider_ctr = extra[4]
    assert 0 <= provider_ctr <= 7


# ---------------------------------------------------------------------------
# Folded-history registers equal the block-XOR fold
# ---------------------------------------------------------------------------
#: Default geometry (history lengths 4..128, 10-bit tags) and a short
#: one whose lengths fall below, on and between the fold widths, with
#: 2-bit tags (1-bit second tag fold).
_FOLD_GEOMETRIES = ({}, {"num_tables": 5, "min_history": 1,
                         "max_history": 37, "tag_bits": 2})


def _fold_predictors(geometry):
    """Standalone TAGE and TAGE-SC-L (whose registers also hold the
    SC's windows) on one geometry."""
    return [TagePredictor(**geometry), TageSCL(tage_kwargs=geometry)]


def _windows(pred):
    if isinstance(pred, TageSCL):
        return pred.tage.fold_windows() + pred.sc.fold_windows()
    return pred.fold_windows()


def _assert_registers_exact(pred, history, folds):
    """Every window's fold, read from ``folds`` by the source the
    compiled lookups use, equals ``_fold``, and the words hold nothing
    else."""
    regs = {"r%d" % i: reg for i, reg in enumerate((history,) + folds)}
    for length, bits in _windows(pred):
        assert eval(pred._bank.expr(length, bits), regs) == \
            tage_module._fold(history, length, bits), (length, bits)
    assert folds == pred._bank.fold(history)


_fold_ops = st.lists(st.one_of(
    st.tuples(st.just("predict"), st.integers(0, 1 << 12)),
    st.tuples(st.just("push"), st.booleans()),
    st.tuples(st.just("restore"), st.integers(0, 63)),
    st.tuples(st.just("rewind"), st.integers(0, 63)),
    st.tuples(st.just("recover"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("random"), st.integers(0, (1 << 1024) - 1)),
), min_size=1, max_size=120)


@pytest.mark.parametrize("geometry", _FOLD_GEOMETRIES,
                         ids=["default", "short"])
@settings(max_examples=40, deadline=None)
@given(ops=_fold_ops)
def test_tage_folds_match_block_fold(geometry, ops):
    """Every folded-history register equals ``_fold`` of the history
    after random predictions, pushes, ``restore_history`` of a bare
    history and of a snapshot, rewinds to a meta's registers,
    ``recover_branch`` repairs and arbitrary 1024-bit histories; each
    meta's registers are those of its own history."""
    for pred in _fold_predictors(geometry):
        metas = []
        for op in ops:
            if op[0] == "predict":
                pc = op[1] << 2
                metas.append(pred.predict(pc)[1])
                _assert_registers_exact(pred, metas[-1].history,
                                        metas[-1].folds)
            elif op[0] == "push":
                pred._push_history(op[1])
            elif op[0] == "restore" and metas:
                pred.restore_history(metas[op[1] % len(metas)].history)
            elif op[0] == "rewind" and metas:
                meta = metas[op[1] % len(metas)]
                pred.restore_history((meta.history, meta.folds))
            elif op[0] == "recover" and metas:
                pred.recover_branch(0, op[2], metas[op[1] % len(metas)])
            elif op[0] == "random":
                pred.restore_history(op[1])
            _assert_registers_exact(pred, pred.history, pred.folds)


def _count_folds(monkeypatch):
    calls = []
    real_fold = tage_module._fold

    def counting_fold(value, length, bits):
        calls.append(length)
        return real_fold(value, length, bits)

    monkeypatch.setattr(tage_module, "_fold", counting_fold)
    return calls


def test_tage_fold_registers_never_refold(monkeypatch):
    """Once the predictor is built, prediction, push, repair, training
    and snapshot rewinds run on the registers alone: ``_fold`` is never
    called. A bare history int still folds from scratch."""
    preds = [build_predictor("tage"), build_predictor("tage-scl")]
    calls = _count_folds(monkeypatch)
    outcomes = 0x2545F4914F6CDD1D
    for pred in preds:
        metas = []
        for i in range(300):
            pc = 0x400 + 4 * (i % 7)
            snap = pred.snapshot_history()
            taken, meta = pred.predict(pc)
            metas.append(meta)
            outcome = bool((outcomes >> (i % 64)) & 1)
            if i % 5 == 0:
                pred.restore_history(snap)
                continue
            if taken != outcome:
                pred.recover_branch(pc, outcome, meta)
            pred.update(pc, outcome, meta)
            if i % 11 == 0:
                meta = metas[i // 2]
                pred.restore_history((meta.history, meta.folds))
            pred._push_history(outcome)
    assert calls == []
    for pred in preds:
        pred.restore_history(outcomes)
        assert calls
        del calls[:]


def test_core_squash_and_ftq_flush_never_refold(monkeypatch):
    """The squash unit's history rewind and repair and the decoupled
    FTQ flush restore registers from the meta and the block snapshot:
    a replay-heavy run folds nothing after the core is built."""
    from repro.pipeline import O3Core
    from repro.pipeline.config import CoreConfig, FrontendConfig
    from repro.workloads import get_workload

    _mod, prog = get_workload("omnetpp17").build(scale=0.03)
    core = O3Core(prog, CoreConfig(frontend=FrontendConfig(decoupled=True)))
    restores = []
    restore = core.predictor.restore_history
    core.predictor.restore_history = \
        lambda snap: restores.append(snap) or restore(snap)
    calls = _count_folds(monkeypatch)
    core.run()
    stats = core.stats
    assert stats.replay_squashes > 0 and stats.cond_mispredicts > 0
    assert restores and all(type(snap) is tuple for snap in restores)
    assert calls == []


@pytest.mark.parametrize("kind", ["tage", "tage-scl"])
def test_dropped_predictor_is_freed_without_cyclic_gc(kind):
    """The compiled lookups hold the tables but form no reference cycle
    with them, so a core's predictor (thousands of objects) is
    freed when the core is dropped, not at the next full collection."""
    import gc
    import weakref

    pred = build_predictor(kind)
    tage = pred.tage if kind == "tage-scl" else pred
    compiled = [weakref.ref(fn) for fn in
                (tage._walk, tage._slots[0], pred._bank.push)]
    gc.disable()
    try:
        del pred, tage
        assert [ref() for ref in compiled] == [None] * len(compiled)
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["tage", "tage-scl"])
def test_snapshot_round_trip_restores_registers_and_predictions(kind):
    """``snapshot_history`` → several predictions (unwound youngest
    first, as an FTQ flush does) → ``restore_history`` gives back the
    history and registers, and the next predictions match those of an
    identically trained twin that made none of them."""
    pred, twin = build_predictor(kind), build_predictor(kind)
    for p in (pred, twin):
        _train(p, 0x4000, [True, False, False, True, True] * 8, repeats=4)
    snap = pred.snapshot_history()
    metas = [pred.predict(0x5000 + 4 * i)[1] for i in range(9)]
    assert pred.snapshot_history() != snap
    unwind = getattr(pred, "unwind", None)
    for meta in reversed(metas):
        if unwind is not None:
            unwind(meta)
    pred.restore_history(snap)
    assert (pred.history, pred.folds) == (twin.history, twin.folds)
    for i in range(12):
        pc = 0x4000 + 8 * (i % 3)
        got, want = pred.predict(pc), twin.predict(pc)
        assert got[0] == want[0]
        assert (got[1].history, got[1].folds, got[1].extra) == \
            (want[1].history, want[1].folds, want[1].extra)
