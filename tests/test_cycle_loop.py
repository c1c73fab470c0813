"""The cycle loop: one tick per stage per cycle, and cores that die young.

``O3Core.run`` is the cycle loop. The repository benchmark's tracer
wraps each stage's ``tick`` on its class and counts one call per
simulated cycle (``pipeline.zero_commit_frac`` is idle commit ticks
over cycles), so the loop must call every tick exactly once per cycle,
in order. A finished core must also be freed by reference counting the
moment it is dropped: a reference cycle would keep its predictor
tables, caches and in-flight instructions alive until the next full
collection.
"""

import collections
import gc
import weakref

import pytest

from repro.frontend.fetch import FetchUnit
from repro.harness.jobs import build_config, build_scheme
from repro.pipeline import O3Core, mssr_config
from repro.pipeline.config import CoreConfig, FrontendConfig
from repro.pipeline.stages import (CommitStage, ExecuteStage, FetchStage,
                                   RenameDispatchStage, WritebackStage)
from repro.workloads import get_workload

_STAGES = (CommitStage, WritebackStage, ExecuteStage, RenameDispatchStage,
           FetchStage)


@pytest.fixture
def tick_counts(monkeypatch):
    """Count calls of every stage ``tick`` and of ``FetchUnit.tick``,
    wrapped on their classes as the benchmark's tracer wraps them."""
    counts = collections.Counter()
    for cls in _STAGES + (FetchUnit,):
        def counted(self, *args, _tick=cls.tick, _name=cls.__name__):
            counts[_name] += 1
            return _tick(self, *args)
        monkeypatch.setattr(cls, "tick", counted)
    return counts


def _expected(cycles, halted, decoupled):
    """Calls per tick: one per cycle, except that a ``halt`` retiring
    at commit ends the last cycle before the other stages run."""
    rest = cycles - 1 if halted else cycles
    want = {"CommitStage": cycles}
    for cls in _STAGES[1:]:
        want[cls.__name__] = rest
    if decoupled:
        want["FetchUnit"] = rest
    return want


def test_fused_run_ticks_each_stage_once_per_cycle(tick_counts):
    _mod, prog = get_workload("nested-mispred").build(0.1)
    core = O3Core(prog, mssr_config(num_streams=4))
    stats = core.run().stats
    assert stats.reuse_successes > 0
    # The fused frontend predicts inside fetch_block: its BPU tick is
    # never called.
    assert dict(tick_counts) == _expected(stats.cycles, True, False)


def test_decoupled_run_ticks_each_stage_once_per_cycle(tick_counts):
    _mod, prog = get_workload("omnetpp17").build(0.03)
    core = O3Core(prog, CoreConfig(frontend=FrontendConfig(decoupled=True)))
    # A budget stop halts at cycle end, after every stage has ticked.
    stats = core.run(max_insts=5000).stats
    assert stats.committed_insts == 5000
    assert dict(tick_counts) == _expected(stats.cycles, False, True)
    # Resumed to the halt; the tick bindings are made again per call.
    tick_counts.clear()
    first = stats.cycles
    stats = core.run().stats
    assert core.halted and not core.state.budget_stop
    assert dict(tick_counts) == _expected(stats.cycles - first, True, True)


_FRONTENDS = {
    "fused": {},
    "decoupled": {"frontend.decoupled": True},
    "ported": {"mem.model": "ported"},
}


@pytest.mark.parametrize("frontend", sorted(_FRONTENDS))
@pytest.mark.parametrize("kind", ["baseline", "mssr", "ri", "dir"])
def test_dropped_core_is_freed_without_cyclic_gc(kind, frontend):
    """With the cyclic collector off, a dropped core leaves no garbage,
    after a full run and after a budget stop."""
    overrides = dict(_FRONTENDS[frontend])
    if frontend == "decoupled" and kind == "mssr":
        overrides["mssr.ftq_capture"] = True
    _mod, prog = get_workload("nested-mispred").build(0.05)
    for max_insts in (None, 500):
        config = build_config(kind, overrides)
        scheme = build_scheme(kind, overrides)
        gc.collect()
        gc.disable()
        try:
            core = O3Core(prog, config, reuse_scheme=scheme)
            del scheme
            stats = core.run(max_insts=max_insts).stats
            ref = weakref.ref(core)
            del core
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        if max_insts is not None:
            assert stats.committed_insts == max_insts
