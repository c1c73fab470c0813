"""Randomised cosimulation: generated programs, emulator vs O3 core.

Hypothesis generates small programs with random ALU operations, memory
accesses to a scratch buffer and forward branches; the out-of-order core
(baseline and MSSR) must match the functional emulator's final
architectural state exactly. This fuzzes the pipeline against
combinations no hand-written test covers.

The ``*_lockstep`` variants run the same generated programs under the
commit-by-commit differential checker, so a divergence found by fuzzing
is localised to the exact first wrong commit rather than a final-state
diff.

Every run is on a :class:`~tests.invariants.CheckedCore`: the machine's
structures are checked at the start of every cycle, and a
:class:`~repro.obs.sinks.MetricsSink` recounts the event-derived
counters, which must equal the live ones (``verify(stats) == []``).
"""

from hypothesis import given, settings, strategies as st

from repro.isa import Assembler, Op
from repro.emu import Emulator
from repro.obs import run_lockstep
from repro.pipeline import baseline_config, mssr_config, ri_config

from tests.invariants import checked

#: Checked on every cycle, with the counters recounted from events.
_CheckedCore = checked(metrics=True)

_REGS = ["t0", "t1", "t2", "s1", "s3", "a4", "a5"]

_rr_op = st.sampled_from([Op.ADD, Op.SUB, Op.XOR, Op.AND, Op.OR,
                          Op.MUL, Op.SLT, Op.SLTU, Op.MIN, Op.MAX])
_ri_op = st.sampled_from([Op.ADDI, Op.XORI, Op.ANDI, Op.ORI,
                          Op.SLLI, Op.SRLI, Op.SRAI])
_reg = st.sampled_from(_REGS)
_imm = st.integers(min_value=-512, max_value=511)
_slot = st.integers(min_value=0, max_value=15)

_instruction = st.one_of(
    st.tuples(st.just("rr"), _rr_op, _reg, _reg, _reg),
    st.tuples(st.just("ri"), _ri_op, _reg, _reg, _imm),
    st.tuples(st.just("load"), _reg, _slot),
    st.tuples(st.just("store"), _reg, _slot),
    st.tuples(st.just("branch"),
              st.sampled_from([Op.BEQ, Op.BNE, Op.BLT, Op.BGE]),
              _reg, _reg, st.integers(min_value=1, max_value=4)),
)


def _assemble(descriptors, seeds):
    asm = Assembler()
    buf = asm.reserve("buf", 16 * 8)
    asm.li("s0", buf)
    for reg, seed in zip(_REGS, seeds):
        asm.li(reg, seed)
    pending_labels = {}   # emit-index -> [label names]
    for index, desc in enumerate(descriptors):
        for label in pending_labels.pop(index, []):
            asm.label(label)
        kind = desc[0]
        if kind == "rr":
            _k, op, dest, src1, src2 = desc
            asm.rr(op, dest, src1, src2)
        elif kind == "ri":
            _k, op, dest, src, imm = desc
            if op in (Op.SLLI, Op.SRLI, Op.SRAI):
                imm = abs(imm) % 64
            asm.ri(op, dest, src, imm)
        elif kind == "load":
            _k, dest, slot = desc
            asm.ld(dest, "s0", slot * 8)
        elif kind == "store":
            _k, src, slot = desc
            asm.sd(src, "s0", slot * 8)
        elif kind == "branch":
            _k, op, src1, src2, skip = desc
            label = "skip%d" % index
            target = min(index + 1 + skip, len(descriptors))
            pending_labels.setdefault(target, []).append(label)
            asm.branch(op, src1, src2, label)
    for labels in pending_labels.values():
        for label in labels:
            asm.label(label)
    asm.halt()
    return asm.finish()


@settings(max_examples=30, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_random_program_cosim_baseline(descriptors, seeds):
    prog = _assemble(descriptors, seeds)
    emu = Emulator(prog).run(max_insts=100_000)
    result = _CheckedCore(prog, baseline_config()).run(max_cycles=200_000)
    assert result.regs == emu.regs
    assert result.memory == emu.memory


@settings(max_examples=20, deadline=None)
@given(st.lists(_instruction, min_size=5, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_random_program_cosim_mssr(descriptors, seeds):
    prog = _assemble(descriptors, seeds)
    emu = Emulator(prog).run(max_insts=100_000)
    result = _CheckedCore(prog, mssr_config(num_streams=4)).run(
        max_cycles=200_000)
    assert result.regs == emu.regs
    assert result.memory == emu.memory


def _lockstep(prog, config):
    outcome = run_lockstep(prog, config, max_cycles=200_000,
                           core_factory=_CheckedCore)
    assert outcome.ok, outcome.divergence.format()
    assert outcome.commits == outcome.result.stats.committed_insts


@settings(max_examples=15, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_random_program_lockstep_baseline(descriptors, seeds):
    _lockstep(_assemble(descriptors, seeds), baseline_config())


@settings(max_examples=15, deadline=None)
@given(st.lists(_instruction, min_size=5, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_random_program_lockstep_mssr(descriptors, seeds):
    _lockstep(_assemble(descriptors, seeds), mssr_config(num_streams=4))


@settings(max_examples=15, deadline=None)
@given(st.lists(_instruction, min_size=5, max_size=40),
       st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                min_size=len(_REGS), max_size=len(_REGS)))
def test_random_program_lockstep_ri(descriptors, seeds):
    _lockstep(_assemble(descriptors, seeds),
              ri_config(num_sets=16, assoc=2))
