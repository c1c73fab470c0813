"""The per-cycle invariant checker on real cores, across the config space.

:mod:`tests.invariants` checks the detailed core's structures (free
list, register states, RAT, RGIDs, issue queues and their waiters, LSQ)
against each other and the ROB at the start of a cycle. This module
runs one workload per configuration checked on every cycle and, at the
same time, commit by commit against the emulator; shows that the
checker catches a seeded fault at the next cycle, naming the broken
invariant; and shows that checking leaves the run unchanged.

Other every-cycle runs: the generated programs of
``tests/test_random_programs.py`` (baseline, MSSR and RI), the 3-bit
RGID space of ``tests/test_mssr_integration.py``, DIR's verified load
reuse in ``tests/test_dir_reuse.py``, and the issue-queue and register
tests of ``tests/test_scheduler.py`` and ``tests/test_regfile_rename.py``.
"""

import pytest

from repro.harness.jobs import build_config, build_scheme
from repro.obs import run_lockstep
from repro.pipeline import O3Core
from repro.pipeline.regfile import RESERVED
from repro.workloads import get_workload

from tests.invariants import CheckedCore, InvariantViolation

#: One workload per configuration: (workload, scale, kind, overrides).
_CONFIGS = {
    "baseline": ("nested-mispred", 0.03, "baseline", {}),
    "mssr-4-streams": ("nested-mispred", 0.03, "mssr", {}),
    "mssr-2-streams": ("nested-mispred", 0.03, "mssr",
                       {"mssr.num_streams": 2}),
    "ri": ("nested-mispred", 0.03, "ri", {}),
    "dir": ("nested-mispred", 0.03, "dir", {}),
    "mssr-bloom": ("gobmk", 0.02, "mssr",
                   {"mssr.memory_hazard_scheme": "bloom"}),
    "mssr-ftq-capture-icache": ("nested-mispred", 0.03, "mssr",
                                {"frontend.decoupled": True,
                                 "frontend.icache_lines": 64,
                                 "mssr.ftq_capture": True}),
    "ported-mssr": ("nested-mispred", 0.03, "mssr", {"mem.model": "ported"}),
    "ported-ptr-chase-dep": ("ptr-chase-dep", 0.02, "baseline",
                             {"mem.model": "ported"}),
}


def _build(name):
    workload, scale, kind, overrides = _CONFIGS[name]
    _mod, prog = get_workload(workload).build(scale)
    return (prog, build_config(kind, overrides),
            build_scheme(kind, overrides))


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_invariants_hold_on_every_cycle(name):
    prog, config, scheme = _build(name)
    outcome = run_lockstep(prog, config, reuse_scheme=scheme,
                           core_factory=CheckedCore)
    assert outcome.ok, outcome.divergence.format()
    stats = outcome.result.stats
    kind = _CONFIGS[name][2]
    if kind != "baseline":
        assert stats.reuse_successes > 0
    if name == "mssr-bloom":
        assert stats.reused_loads > 0 and stats.replay_squashes > 0
    if name == "mssr-ftq-capture-icache":
        assert stats.wpb_captures_ftq > 0 and stats.icache_misses > 0


def test_checking_leaves_the_run_unchanged():
    prog, config, scheme = _build("mssr-4-streams")
    plain = O3Core(prog, config, reuse_scheme=scheme).run()
    prog, config, scheme = _build("mssr-4-streams")
    checked = CheckedCore(prog, config, reuse_scheme=scheme).run()
    assert checked.stats.as_dict() == plain.stats.as_dict()
    assert checked.regs == plain.regs


def _live_waiter(core):
    """An IQ and a not-ready register with a live waiter, or None."""
    ready = core.regfile.ready
    for iq in (core.int_iq, core.mem_iq):
        for preg, waiters in iq.waiting.items():
            if not ready[preg] and any(not w.squashed for w in waiters):
                return iq, preg
    return None


def _reserved(core):
    states = core.regfile.states
    return states.index(RESERVED) if RESERVED in states else None


def _skip_wakeup(core):
    # The register is written, but its waiters are not woken.
    _iq, preg = _live_waiter(core)
    core.regfile.ready[preg] = True


def _free_reserved(core):
    # A register kept for reuse is also pushed onto the free list.
    core.regfile.free_list.append(_reserved(core))


def _miss_iq_decrement(core):
    # A squashed, never-issued entry's slot is not returned.
    core.int_iq.size += 1


def _stale_rat(core):
    # A rollback restores a stale mapping.
    core.rat.map[core.rob[-1].dest_areg] = core.regfile.free_list[-1]


def _rewind_rgid(core):
    areg = core.rob[-1].dest_areg
    core.rat.global_rgid[areg] = core.rat.epoch_base


def _drop_load(core):
    core.lsq.loads.popitem()


#: Seeded fault -> (precondition, fault, invariant the checker names).
_FAULTS = {
    "skipped-wakeup": (_live_waiter, _skip_wakeup, "waiters"),
    "reserved-register-freed": (_reserved, _free_reserved, "free list"),
    "missed-iq-decrement": (lambda core: True, _miss_iq_decrement,
                            "issue queues"),
    "stale-rat-mapping": (
        lambda core: core.rob and core.rob[-1].dest_areg is not None,
        _stale_rat, "RAT"),
    "rewound-rgid-counter": (
        lambda core: core.rob and core.rob[-1].dest_areg is not None
        and core.rat.global_rgid[core.rob[-1].dest_areg]
        > core.rat.epoch_base,
        _rewind_rgid, "RGIDs"),
    "dropped-load": (lambda core: core.lsq.loads, _drop_load, "LSQ"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_checker_catches_seeded_fault(fault):
    """Run MSSR on gobmk until the fault can be seeded, seed it between
    two cycles, and expect the check at the start of the next cycle to
    name the broken invariant."""
    ready, seed, invariant = _FAULTS[fault]
    prog, config, scheme = _build("mssr-bloom")
    core = CheckedCore(prog, config, reuse_scheme=scheme)
    while not ready(core):
        core.run(max_insts=20)
        assert core.state.budget_stop, "the program ended first"
    seed(core)
    with pytest.raises(InvariantViolation,
                       match="cycle %d: %s" % (core.stats.cycles + 1,
                                               invariant)):
        core.run()
