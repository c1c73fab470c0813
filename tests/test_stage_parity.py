"""Stage-object pipeline: parity, icache seam, FTQ-sourced capture.

The refactor contract: splitting ``O3Core`` into stage objects changes
*nothing* observable. ``tests/data/stage_parity_pinned.json`` pins
``SimStats.as_dict()`` snapshots captured from the pre-refactor
monolith for a micro/GAP matrix in fused and decoupled modes; every
pinned key must match byte-for-byte, and the counters added by this
refactor (icache, FTQ capture) must stay zero under default configs.
"""

import json
import pathlib

import pytest

from repro.emu import Emulator
from repro.obs import run_lockstep
from repro.pipeline import O3Core, baseline_config, mssr_config
from repro.pipeline.config import CoreConfig, FrontendConfig, MSSRConfig
from repro.pipeline.latches import SquashArbiter
from repro.workloads import get_workload

_PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "stage_parity_pinned.json").read_text())

#: Counters introduced after the snapshots were pinned: must be zero
#: whenever their feature (icache model, FTQ capture, ported memory) is
#: off, which includes every pinned pre-refactor configuration.
_NEW_COUNTERS = ("icache_accesses", "icache_misses", "wpb_captures_ftq",
                 "mem_accesses", "mem_l1d_hits", "mem_l1d_misses",
                 "mem_l2_hits", "mem_l2_misses", "mem_dram_accesses",
                 "mem_mshr_merges", "mem_mshr_stalls", "mem_mshr_peak",
                 "mem_wrong_path_insts")


def _run_pinned(entry):
    _mod, prog = get_workload(entry["workload"]).build(
        scale=entry["scale"])
    cfg = mssr_config() if entry["kind"] == "mssr" else baseline_config()
    if entry["decoupled"]:
        cfg.frontend.decoupled = True
    core = O3Core(prog, cfg)
    core.run()
    return core


@pytest.mark.parametrize(
    "entry", _PINNED,
    ids=["%s-%s-%s" % (e["workload"], e["kind"],
                       "dec" if e["decoupled"] else "fused")
         for e in _PINNED])
def test_stats_byte_identical_to_pre_refactor(entry):
    core = _run_pinned(entry)
    # JSON round-trip normalises int histogram keys the same way the
    # pinned snapshot was normalised when it was written.
    got = json.loads(json.dumps(core.stats.as_dict()))
    want = entry["stats"]
    for key, value in want.items():
        assert got[key] == value, \
            "stat %r diverged from the pre-refactor pipeline" % key
    for key in _NEW_COUNTERS:
        assert got[key] == 0


#: Full ``SimStats.as_dict()`` snapshots on the ported memory model
#: (``mem.model=ported``: lazily-filled L1I/L1D/L2 caches, MSHRs),
#: captured before the caches created their ways lazily. The pointer
#: chases evict L1D lines (8 and 17 victims), so victim choice is
#: covered too. Kept apart from ``_PINNED``: their ``mem_*`` counters
#: are non-zero.
_PORTED_PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "ported_parity_pinned.json").read_text())


def _assert_full_stats_pinned(entry):
    from repro.harness.jobs import build_config, build_scheme

    _mod, prog = get_workload(entry["workload"]).build(
        scale=entry["scale"])
    core = O3Core(prog, build_config(entry["kind"], entry["config"]),
                  reuse_scheme=build_scheme(entry["kind"],
                                            entry["config"]))
    core.run()
    # Round-trip first: histogram keys become strings, as pinned.
    got = json.loads(json.dumps(core.stats.as_dict()))
    assert json.dumps(got, sort_keys=True) == \
        json.dumps(entry["stats"], sort_keys=True)


@pytest.mark.parametrize(
    "entry", _PORTED_PINNED,
    ids=["%s-%s" % (e["workload"], e["kind"]) for e in _PORTED_PINNED])
def test_ported_memory_stats_byte_identical(entry):
    _assert_full_stats_pinned(entry)
    assert entry["stats"]["mem_accesses"] > 0


#: Full ``SimStats.as_dict()`` snapshots of the schemes and scheme paths
#: ``_PINNED`` does not reach, captured before the stages were flattened:
#: Register Integration (``wants_preg`` / ``on_preg_freed`` transitive
#: invalidation), DIR (value-style ``try_reuse``), MSSR with the Bloom
#: hazard scheme, and MSSR with FTQ-sourced capture on a decoupled
#: frontend with a finite icache, each on nested-mispred and bfs at 0.1.
#: Then the predictor paths, captured before TAGE kept its folds in
#: registers: baseline on the SPEC-like leela and omnetpp17 at 0.03,
#: whose history windows rarely repeat, under the default TAGE-SC-L and
#: standalone TAGE (``core.predictor=tage``), and leela on a decoupled
#: frontend, whose squashes restore history from flushed FTQ blocks.
#: Last, RI with a table small enough to evict (bfs at 0.1 with 2 sets
#: of 1 way, leela at 0.03 with 1 of 1): there an entry evicted by
#: ``wants_preg`` during a squash's ROB walk frees its register in the
#: middle of the walk, so these two pin the squash unit's walk-order
#: release; batching the frees after the walk changes
#: ``ri_replacements`` in both.
_SCHEME_PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "scheme_parity_pinned.json").read_text())


@pytest.mark.parametrize(
    "entry", _SCHEME_PINNED,
    ids=["%s-%s-%s" % (e["workload"], e["kind"],
                       "-".join("%s=%s" % item
                                for item in sorted(e["config"].items()))
                       or "default")
         for e in _SCHEME_PINNED])
def test_scheme_stats_byte_identical(entry):
    _assert_full_stats_pinned(entry)


def test_scheme_pins_cover_their_paths():
    # Guards against regenerating the pins from runs that never reach
    # the paths they are meant to hold still.
    by = {(e["workload"], e["kind"], tuple(sorted(e["config"]))): e["stats"]
          for e in _SCHEME_PINNED}
    assert by[("bfs", "ri", ())]["ri_invalidations"] > 0
    assert by[("bfs", "dir", ())]["verify_flushes"] > 0
    bloom = by[("bfs", "mssr", ("mssr.memory_hazard_scheme",))]
    assert bloom["reused_loads"] > 0 and bloom["rgid_resets"] > 0
    ftq = by[("bfs", "mssr", ("frontend.decoupled", "frontend.icache_lines",
                              "mssr.ftq_capture"))]
    assert ftq["wpb_captures_ftq"] > 0 and ftq["icache_misses"] > 0
    assert ftq["verify_flushes"] > 0
    for workload in ("leela", "omnetpp17"):
        scl = by[(workload, "baseline", ())]
        tage = by[(workload, "baseline", ("core.predictor",))]
        for stats in (scl, tage):
            assert stats["cond_mispredicts"] > 0
            assert stats["branch_squashes"] > 0
            assert stats["replay_squashes"] > 0
        assert scl != tage
    decoupled = by[("leela", "baseline", ("frontend.decoupled",))]
    assert decoupled["cond_mispredicts"] > 0
    assert decoupled["ftq_enqueues"] > 0
    assert decoupled != by[("leela", "baseline", ())]
    for workload in ("bfs", "leela"):
        small = by[(workload, "ri", ("ri.assoc", "ri.num_sets"))]
        assert small["ri_replacements"] > 0


# ---------------------------------------------------------------------------
# Optional reuse-scheme hooks
# ---------------------------------------------------------------------------
#: Per-hook call counts a scheme overriding every hook saw before the
#: core resolved hooks per class (``_cycles`` is the run's length).
_HOOK_COUNTS = {
    ("nested-mispred", "fused"): {
        "_cycles": 3484, "attach": 1, "emergency_release": 268,
        "finalize": 1, "on_branch_squash": 50, "on_cycle": 3483,
        "on_fetch_block": 1499, "on_preg_freed": 9874,
        "on_replay_squash": 0, "on_store_executed": 46,
        "on_verify_fail": 0, "on_wrong_path_block": 0, "try_reuse": 9873,
        "wants_preg": 1693},
    ("nested-mispred", "decoupled-ftq"): {
        "_cycles": 3561, "attach": 1, "emergency_release": 255,
        "finalize": 1, "on_branch_squash": 50, "on_cycle": 3560,
        "on_fetch_block": 1487, "on_preg_freed": 9777,
        "on_replay_squash": 0, "on_store_executed": 46,
        "on_verify_fail": 0, "on_wrong_path_block": 1294,
        "try_reuse": 9776, "wants_preg": 1659},
    ("bfs", "fused"): {
        "_cycles": 14728, "attach": 1, "emergency_release": 0,
        "finalize": 1, "on_branch_squash": 200, "on_cycle": 14727,
        "on_fetch_block": 12756, "on_preg_freed": 35304,
        "on_replay_squash": 943, "on_store_executed": 1282,
        "on_verify_fail": 0, "on_wrong_path_block": 0, "try_reuse": 35303,
        "wants_preg": 1638},
}


def _scheme_hooks():
    from repro.baselines.base import ReuseScheme
    return sorted(name for name, value in vars(ReuseScheme).items()
                  if callable(value) and not name.startswith("_"))


def _recording_scheme():
    """A scheme overriding every hook of ``ReuseScheme``: each override
    counts its calls and answers like the base class."""
    from repro.baselines.base import ReuseScheme

    def recorder(name):
        base = getattr(ReuseScheme, name)

        def hook(self, *args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return base(self, *args)
        hook.__name__ = name
        return hook

    namespace = {name: recorder(name) for name in _scheme_hooks()}
    Recording = type("Recording", (ReuseScheme,), namespace)
    scheme = Recording()
    scheme.calls = {}
    return scheme


def test_hook_counts_cover_every_hook():
    for counts in _HOOK_COUNTS.values():
        assert sorted(k for k in counts if k != "_cycles") == \
            _scheme_hooks()


@pytest.mark.parametrize("workload,mode", sorted(_HOOK_COUNTS),
                         ids=["-".join(key) for key in sorted(_HOOK_COUNTS)])
def test_every_overridden_hook_is_called_as_before(workload, mode):
    """A scheme that overrides a hook gets every call it got before the
    core resolved hooks per class: a hook resolved away by mistake, or
    a call dropped from a stage's fast path, changes a count."""
    _mod, prog = get_workload(workload).build(scale=0.1)
    scheme = _recording_scheme()
    if mode == "decoupled-ftq":
        scheme.ftq_capture = True
        cfg = CoreConfig(frontend=FrontendConfig(decoupled=True))
    else:
        cfg = CoreConfig()
    core = O3Core(prog, cfg, reuse_scheme=scheme)
    core.run()
    want = dict(_HOOK_COUNTS[workload, mode])
    assert core.stats.cycles == want.pop("_cycles")
    got = {name: scheme.calls.get(name, 0) for name in want}
    assert got == want


def test_new_counters_absent_from_pinned_snapshot():
    # The fixtures really are pre-refactor: they cannot know the new
    # counters (guards against accidentally regenerating them).
    for entry in _PINNED:
        for key in _NEW_COUNTERS:
            assert key not in entry["stats"]


# ---------------------------------------------------------------------------
# Squash arbiter
# ---------------------------------------------------------------------------
def test_squash_arbiter_keeps_oldest_boundary():
    class _Dyn:
        def __init__(self, seq):
            self.seq = seq

    arb = SquashArbiter()
    assert arb.take() is None
    arb.request(50, _Dyn(51), "branch", 0x100)
    arb.request(80, _Dyn(81), "replay", 0x200)   # younger: ignored
    arb.request(20, _Dyn(21), "verify", 0x300)   # older: wins
    winner = arb.take()
    assert winner.boundary_seq == 20
    assert winner.kind == "verify"
    assert winner.redirect_pc == 0x300
    assert arb.take() is None                    # drained


def test_squash_arbiter_branch_wins_boundary_tie():
    """A replay/verify of the instruction after a mispredicted branch
    has the branch's own boundary; the branch must win either way
    round, or fetch resumes on the victim's wrong-path pc."""
    class _Dyn:
        def __init__(self, seq):
            self.seq = seq

    for other in ("replay", "verify"):
        arb = SquashArbiter()
        arb.request(40, _Dyn(41), other, 0x200)      # arrives first
        arb.request(40, _Dyn(40), "branch", 0x100)
        arb.request(40, _Dyn(41), other, 0x200)      # and after
        winner = arb.take()
        assert (winner.kind, winner.redirect_pc) == ("branch", 0x100)
        # Ties between non-branch requests keep the first.
        arb.request(40, _Dyn(41), other, 0x200)
        arb.request(40, _Dyn(41), "replay", 0x300)
        assert arb.take().redirect_pc == 0x200


# ---------------------------------------------------------------------------
# Icache seam
# ---------------------------------------------------------------------------
def _icache_config(kind="baseline", lines=4, latency=12):
    frontend = FrontendConfig(decoupled=True, icache_lines=lines,
                              icache_latency=latency)
    mssr = MSSRConfig() if kind == "mssr" else None
    return CoreConfig(frontend=frontend, mssr=mssr)


def test_icache_requires_decoupled_frontend():
    with pytest.raises(ValueError, match="decoupled"):
        FrontendConfig(decoupled=False, icache_lines=64)


def test_icache_lines_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        FrontendConfig(decoupled=True, icache_lines=48)


def test_icache_misses_then_hits():
    from repro.frontend.icache import InstructionCache
    ic = InstructionCache(8, miss_latency=10)
    assert ic.access(0x1000, 0x103C) == 10      # cold: two lines miss
    assert ic.access(0x1000, 0x103C) == 0       # resident now
    ic.flush()
    assert ic.access(0x1000, 0x101C) == 10


def test_squash_during_icache_stall_is_architecturally_clean():
    """A tiny icache makes nearly every block stall in the fetch
    pipeline, so branch squashes constantly land while the FTQ head is
    still waiting on a (possibly missed) icache fill — the flushed
    pending blocks must unwind cleanly."""
    _mod, prog = get_workload("nested-mispred").build(scale=0.1)
    emu = Emulator(prog).run()
    core = O3Core(prog, _icache_config(lines=2, latency=16))
    result = core.run()
    assert result.regs == emu.regs
    assert result.memory == emu.memory
    stats = result.stats
    assert stats.icache_accesses > 0
    assert stats.icache_misses > 0
    assert stats.fetch_stall_reasons.get("icache", 0) > 0


def test_icache_off_leaves_decoupled_stats_unchanged():
    _mod, prog = get_workload("nested-mispred").build(scale=0.1)

    def _stats(frontend):
        core = O3Core(prog, CoreConfig(frontend=frontend))
        core.run()
        return core.stats.as_dict()

    plain = _stats(FrontendConfig(decoupled=True))
    nocache = _stats(FrontendConfig(decoupled=True, icache_lines=0))
    assert plain == nocache
    assert plain["icache_accesses"] == 0


def test_icache_pressure_costs_cycles():
    _mod, prog = get_workload("nested-mispred").build(scale=0.1)
    free = O3Core(prog, CoreConfig(frontend=FrontendConfig(
        decoupled=True)))
    free.run()
    tiny = O3Core(prog, _icache_config(lines=2, latency=16))
    tiny.run()
    assert tiny.stats.cycles > free.stats.cycles


# ---------------------------------------------------------------------------
# FTQ-sourced MSSR capture vs decode-time capture
# ---------------------------------------------------------------------------
def _capture_config(ftq_capture):
    frontend = FrontendConfig(decoupled=True)
    return CoreConfig(frontend=frontend,
                      mssr=MSSRConfig(ftq_capture=ftq_capture))


def test_ftq_capture_requires_decoupled_frontend():
    with pytest.raises(ValueError, match="decoupled"):
        CoreConfig(mssr=MSSRConfig(ftq_capture=True))


def test_ftq_capture_coverage_superset_of_decode_capture():
    """Acceptance: on nested-mispred, FTQ-sourced capture reuses at
    least as much as decode-time capture (the delivered squashed blocks
    fill the WPB first, so its streams are a superset), and the run
    stays lockstep-green against the golden emulator."""
    _mod, prog = get_workload("nested-mispred").build(scale=0.1)
    emu = Emulator(prog).run()

    decode_core = O3Core(prog, _capture_config(ftq_capture=False))
    decode = decode_core.run()
    ftq_core = O3Core(prog, _capture_config(ftq_capture=True))
    ftq = ftq_core.run()

    assert decode.regs == emu.regs and ftq.regs == emu.regs
    assert decode.memory == emu.memory and ftq.memory == emu.memory

    assert decode.stats.wpb_captures_ftq == 0
    assert ftq.stats.wpb_captures_ftq > 0
    assert decode.stats.reuse_successes > 0
    assert ftq.stats.reuse_successes >= decode.stats.reuse_successes

    outcome = run_lockstep(prog, _capture_config(ftq_capture=True))
    assert outcome.ok and outcome.divergence is None


def test_ftq_capture_counter_is_view_over_events():
    from repro.obs import Observability
    from repro.obs.sinks import MetricsSink

    _mod, prog = get_workload("nested-mispred").build(scale=0.1)
    obs = Observability()
    sink = obs.attach(MetricsSink())
    core = O3Core(prog, _capture_config(ftq_capture=True), obs=obs)
    core.run()
    assert core.stats.wpb_captures_ftq > 0
    assert sink.verify(core.stats) == []


def test_icache_counters_are_views_over_events():
    from repro.obs import Observability
    from repro.obs.sinks import MetricsSink

    _mod, prog = get_workload("nested-mispred").build(scale=0.1)
    obs = Observability()
    sink = obs.attach(MetricsSink())
    core = O3Core(prog, _icache_config(lines=2, latency=16), obs=obs)
    core.run()
    assert core.stats.icache_misses > 0
    assert sink.verify(core.stats) == []
