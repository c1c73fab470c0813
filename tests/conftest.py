"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.isa import Assembler
from repro.emu import Emulator
from repro.pipeline import O3Core, baseline_config
from repro.utils.bits import to_signed


def run_both(program, config=None, max_cycles=2_000_000,
             core_factory=O3Core):
    """Run ``program`` on the emulator and the O3 core (built by
    ``core_factory``, e.g. a checked core); assert the final
    architectural state matches; returns (emu_result, core_result)."""
    emu = Emulator(program).run()
    core = core_factory(program, config or baseline_config())
    result = core.run(max_cycles=max_cycles)
    assert result.regs == emu.regs, "architectural registers diverged"
    assert result.memory == emu.memory, "memory diverged"
    return emu, result


def signed_reg(result, name):
    return to_signed(result.reg(name))


@pytest.fixture
def asm():
    return Assembler()
