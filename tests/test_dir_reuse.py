"""Dynamic Instruction Reuse (value-based) baseline."""

from repro.baselines import DynamicInstructionReuse, DIRConfig
from repro.compiler import Module, array_ref, hash64
from repro.pipeline import O3Core, baseline_config
from repro.emu import Emulator

from tests.conftest import run_both
from tests.invariants import CheckedCore


def branchy_kernel(arr, n):
    acc = 0
    for i in range(n):
        v = hash64(i + (acc & 1))
        if v & 1:
            acc -= v & 7
        t = (i * 7 + (v & 31)) & 1023
        t = (t >> 2) * 13 + 5
        arr[i & 31] = t
        acc += t
    return acc & 0xFFFFF


def load_kernel(arr, n):
    total = 0
    for i in range(n):
        v = hash64(i)
        if v & 1:
            arr[v & 31] = arr[v & 31] + 1
        total += arr[(v >> 6) & 31]
    return total


def _build(kernel, n=150):
    mod = Module()
    mod.add_function(kernel)
    mod.array("arr", 32)
    return mod.build(kernel.__name__, [array_ref("arr"), n])


def _core_with_dir(prog, core_factory=O3Core, **geometry):
    return core_factory(prog, baseline_config(),
                        reuse_scheme=DynamicInstructionReuse(
                            DIRConfig(**geometry)))


def test_dir_is_architecturally_correct():
    prog = _build(branchy_kernel)
    emu = Emulator(prog).run()
    core = _core_with_dir(prog)
    result = core.run()
    assert result.regs == emu.regs
    assert result.memory == emu.memory


def test_dir_reuses_values():
    prog = _build(branchy_kernel)
    core = _core_with_dir(prog)
    result = core.run()
    assert core.scheme.insertions > 20
    assert result.stats.reuse_successes > 10


def test_dir_load_reuse_verified():
    # Reused loads re-execute to verify their values; every cycle is
    # checked, verification flushes included.
    prog = _build(load_kernel)
    emu = Emulator(prog).run()
    core = _core_with_dir(prog, core_factory=CheckedCore)
    result = core.run()
    assert result.regs == emu.regs
    assert result.memory == emu.memory


def test_dir_holds_no_registers():
    # DIR stores values, not register names: the regfile must never see
    # reserved registers.
    prog = _build(branchy_kernel)
    core = _core_with_dir(prog)
    core.run()
    assert core.regfile.count_states()["reserved"] == 0
    assert core.regfile.check_conservation()


def test_dir_tiny_table_conflicts():
    prog = _build(branchy_kernel)
    small = _core_with_dir(prog, num_sets=4, assoc=1)
    small.run()
    large = _core_with_dir(prog, num_sets=128, assoc=4)
    large.run()
    assert small.scheme.replacements > large.scheme.replacements


def test_dir_temporal_reference_overwrites_in_place():
    scheme = DynamicInstructionReuse(DIRConfig(num_sets=8, assoc=2))

    class _FakeDyn:
        pass

    class _FakeInst:
        is_load = False
        writes_reg = True

    dyn = _FakeDyn()
    dyn.pc = 0x40
    dyn.inst = _FakeInst()
    dyn.result = 1
    dyn.mem_addr = None
    dyn.mem_size = 0
    scheme._insert(dyn, (10, 20))
    dyn.result = 2
    scheme._insert(dyn, (30, 40))
    # Same PC: one entry, holding only the latest execution context —
    # the temporal-reference limitation of Section 3.7.1.
    entries = [e for ways in scheme.sets for e in ways if e.valid]
    assert len(entries) == 1
    assert entries[0].src_values == (30, 40)
    assert entries[0].result == 2
