"""MSSR end-to-end: correctness under stress and policy behaviour."""

import pytest

from repro.compiler import Module, array_ref, hash64
from repro.pipeline import O3Core, mssr_config, MSSRConfig, CoreConfig
from repro.pipeline.core import SimResult
from repro.emu import Emulator
from repro.utils.bits import to_signed

from tests.conftest import run_both
from tests.invariants import CheckedCore


def branchy_kernel(arr, n):
    acc = 0
    for i in range(n):
        v = hash64(i + (acc & 1))
        if v & 1:
            if v & 4:
                acc += v & 15
            acc -= v & 7
        t = (i * 7 + (v & 31)) & 1023
        t = (t >> 2) * 13 + 5
        arr[i & 31] = t
        acc += t
    return acc & 0xFFFFF


def memory_kernel(arr, n):
    total = 0
    for i in range(n):
        v = hash64(i)
        idx = v & 31
        if v & 1:
            arr[idx] = arr[idx] + 1
        total += arr[(v >> 8) & 31]
    return total


def _build(kernel, n=160):
    mod = Module()
    mod.add_function(kernel)
    mod.array("arr", 32)
    prog = mod.build(kernel.__name__, [array_ref("arr"), n])
    return mod, prog


@pytest.mark.parametrize("streams", [1, 2, 4, 8])
def test_correct_for_any_stream_count(streams):
    _mod, prog = _build(branchy_kernel)
    run_both(prog, mssr_config(num_streams=streams))


@pytest.mark.parametrize("wpb,log", [(4, 16), (16, 64), (64, 256)])
def test_correct_for_any_capacity(wpb, log):
    _mod, prog = _build(branchy_kernel)
    run_both(prog, mssr_config(num_streams=2, wpb_entries=wpb,
                               squash_log_entries=log))


def test_reuse_actually_happens():
    _mod, prog = _build(branchy_kernel)
    core = O3Core(prog, mssr_config(num_streams=4))
    result = core.run()
    assert result.stats.reconvergences > 10
    assert result.stats.reuse_successes > 50
    assert result.stats.reuse_tests >= result.stats.reuse_successes


def test_load_reuse_with_verification():
    # bfs is load-dominated with hard frontier branches: reused loads
    # (with NoSQ-style verification) are guaranteed to appear.
    from repro.workloads import get_workload
    _mod, prog = get_workload("bfs").build(0.15)
    core = O3Core(prog, mssr_config(num_streams=4))
    result = core.run()
    emu = Emulator(prog).run()
    assert result.regs == emu.regs
    assert result.memory == emu.memory
    assert result.stats.reused_loads > 0


def test_bloom_memory_scheme_is_correct():
    _mod, prog = _build(memory_kernel)
    cfg = CoreConfig(mssr=MSSRConfig(num_streams=4,
                                     memory_hazard_scheme="bloom"))
    run_both(prog, cfg)


def test_bloom_scheme_never_issues_verify_loads():
    _mod, prog = _build(memory_kernel)
    cfg = CoreConfig(mssr=MSSRConfig(num_streams=4,
                                     memory_hazard_scheme="bloom"))
    core = O3Core(prog, cfg)
    result = core.run()
    assert result.stats.verify_flushes == 0


def test_rgid_overflow_reset_is_correct():
    # Tiny RGID space: overflow + global reset paths are exercised hard,
    # with the RGID epochs checked on every cycle.
    _mod, prog = _build(branchy_kernel)
    cfg = CoreConfig(mssr=MSSRConfig(num_streams=4, rgid_bits=3))
    emu, result = run_both(prog, cfg, core_factory=CheckedCore)
    assert result.stats.rgid_resets > 0


def test_register_pressure_release():
    # Few physical registers: the squash log must yield them back
    # (condition 5) without deadlock or corruption.
    _mod, prog = _build(branchy_kernel)
    cfg = CoreConfig(num_phys_regs=300,
                     mssr=MSSRConfig(num_streams=8,
                                     squash_log_entries=256,
                                     wpb_entries=64))
    # shrink the PRF close to the ROB size so pressure appears
    cfg.num_phys_regs = 280
    run_both(prog, cfg)


def test_single_page_wpb_restriction_is_correct():
    _mod, prog = _build(branchy_kernel)
    cfg = CoreConfig(mssr=MSSRConfig(num_streams=4, single_page_wpb=True))
    run_both(prog, cfg)


def test_timeout_invalidates_streams():
    # A very short reconvergence timeout forces streams whose
    # reconvergence point is not reached quickly to be invalidated; the
    # run must remain architecturally correct and hold no registers.
    _mod, prog = _build(branchy_kernel)
    cfg = CoreConfig(mssr=MSSRConfig(num_streams=4,
                                     reconvergence_timeout=24))
    core = O3Core(prog, cfg)
    emu = Emulator(prog).run()
    result = core.run()
    assert result.regs == emu.regs
    assert result.stats.wpb_timeouts > 0
    # Streams still valid at halt may legitimately hold registers;
    # releasing them must return every last one.
    core.scheme.invalidate_all()
    assert core.regfile.count_states()["reserved"] == 0
    assert core.regfile.check_conservation()


def test_no_reserved_registers_leak_at_halt():
    _mod, prog = _build(branchy_kernel)
    core = O3Core(prog, mssr_config(num_streams=4))
    core.run()
    assert core.regfile.check_conservation()


def test_dci_is_single_stream():
    from repro.pipeline import dci_config
    cfg = dci_config()
    assert cfg.mssr.num_streams == 1
