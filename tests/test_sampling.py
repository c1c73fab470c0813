"""SimPoint-style sampled simulation (repro.sampling)."""

import io
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.emu import Emulator
from repro.emu.emulator import BBVAccumulator
from repro.harness import SimJob, clear_memo, execute, run_batch
from repro.harness.cli import main as cli_main
from repro.harness.jobs import JobTimeout, _WallClock, build_config
from repro.obs import CallbackSink, Observability
from repro.pipeline.core import InitialState, O3Core
from repro.pipeline.stats import SimStats
from repro.sampling import (
    BBVProfile,
    Checkpoint,
    CheckpointStore,
    IntervalRun,
    SamplingSpec,
    SimPoint,
    aggregate_stats,
    capture_checkpoints,
    pick_simpoints,
    profile_program,
    project_bbv,
    run_sampled,
)
from repro.sampling.sampler import (
    KEYED_STATS,
    PASSED_STATS,
    PEAK_STATS,
    _stats_delta,
    interval_workers,
    usable_cpus,
)
from repro.workloads.registry import get_workload, suite_names


@pytest.fixture
def micro_programs():
    return {name: get_workload(name).build(0.2)[1]
            for name in suite_names("micro")}


@pytest.fixture
def sandbox_stores(tmp_path, monkeypatch):
    """Keep the on-disk store inside the test tmpdir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


# ---------------------------------------------------------------------------
# BBV profiling
# ---------------------------------------------------------------------------
def test_profile_partitions_instructions(micro_programs):
    for prog in micro_programs.values():
        profile = profile_program(prog, 1000)
        assert profile.halted
        assert sum(iv.num_insts for iv in profile.intervals) \
            == profile.total_insts
        starts = [iv.start_inst for iv in profile.intervals]
        assert starts == sorted(starts)
        for iv in profile.intervals:
            assert sum(iv.bbv.values()) == iv.num_insts


def test_profile_merges_short_tail(micro_programs):
    prog = next(iter(micro_programs.values()))
    emu = Emulator(prog).run()
    total = emu.inst_count
    interval = 2000
    profile = profile_program(prog, interval)
    tail = total % interval
    if tail and tail < interval // 2:
        # Short tail folds into the last full interval.
        assert profile.intervals[-1].num_insts == interval + tail
    assert profile.total_insts == total


def test_profile_roundtrips_through_json(micro_programs):
    prog = next(iter(micro_programs.values()))
    profile = profile_program(prog, 1000)
    blob = json.dumps(profile.as_dict(), sort_keys=True)
    again = BBVProfile.from_dict(json.loads(blob))
    assert again.as_dict() == profile.as_dict()


def test_profile_rejects_bad_interval(micro_programs):
    prog = next(iter(micro_programs.values()))
    with pytest.raises(ValueError):
        profile_program(prog, 0)


# ---------------------------------------------------------------------------
# SimPoint selection
# ---------------------------------------------------------------------------
def test_projection_is_deterministic():
    bbv = {0x100: 600, 0x200: 400}
    assert project_bbv(bbv, 1000) == project_bbv(dict(bbv), 1000)
    assert project_bbv(bbv, 1000) != project_bbv(bbv, 1000, seed=1)


@pytest.mark.parametrize("name", ["leela", "xz"])
def test_projection_row_memo_changes_nothing(name, monkeypatch):
    """``pick_simpoints`` draws each leader's projection row once per
    call. The vectors and the selection equal those of a fresh row
    memo per interval, which draws a leader's row for every interval
    that holds it."""
    from repro.sampling import simpoint

    _mod, prog = get_workload(name).build(1.0)
    profile = profile_program(prog, 2000)
    intervals = profile.intervals
    rows = {}
    shared = [project_bbv(iv.bbv, iv.num_insts, rows=rows)
              for iv in intervals]
    fresh = [project_bbv(iv.bbv, iv.num_insts) for iv in intervals]
    assert shared == fresh
    leaders = set().union(*(iv.bbv for iv in intervals))
    assert sorted(rows) == sorted(leaders)
    assert sum(len(iv.bbv) for iv in intervals) > 10 * len(leaders)

    selection = pick_simpoints(profile).as_dict()
    project = simpoint.project_bbv
    monkeypatch.setattr(
        simpoint, "project_bbv",
        lambda bbv, num_insts, dims, seed, _rows: project(
            bbv, num_insts, dims, seed))
    assert pick_simpoints(profile).as_dict() == selection


def test_pick_simpoints_deterministic(micro_programs):
    prog = next(iter(micro_programs.values()))
    profile = profile_program(prog, 1000)
    a = pick_simpoints(profile)
    b = pick_simpoints(profile)
    assert a.as_dict() == b.as_dict()


def test_simpoint_weights_are_instruction_shares(micro_programs):
    for prog in micro_programs.values():
        profile = profile_program(prog, 1000)
        selection = pick_simpoints(profile)
        assert abs(sum(p.weight for p in selection.points) - 1.0) < 1e-9
        assert sum(p.cluster_size for p in selection.points) \
            == selection.num_intervals
        starts = [p.start_inst for p in selection.points]
        assert starts == sorted(starts)


def test_single_phase_program_clusters_tightly(asm):
    # A tight homogeneous loop: apart from the setup and loop-exit
    # boundary intervals every interval has the identical BBV, so the
    # clustering needs at most a handful of clusters, one of which
    # holds nearly all the instructions, and the in-cluster error is 0.
    asm.li("a0", 3000)
    asm.label("loop")
    asm.addi("t0", "t0", 1)
    asm.addi("t1", "t1", 1)
    asm.blt("t0", "a0", "loop")
    asm.halt()
    prog = asm.finish()
    profile = profile_program(prog, 500)
    selection = pick_simpoints(profile)
    assert selection.k <= 3
    assert max(p.weight for p in selection.points) > 0.8
    assert selection.error_bound < 0.01


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
def test_checkpoint_matches_emulator_state(micro_programs):
    prog = next(iter(micro_programs.values()))
    ckpts = capture_checkpoints(prog, [3000])
    ckpt = ckpts[3000]
    emu = Emulator(prog)
    emu.run_until(3000)
    assert ckpt.pc == emu.pc
    assert ckpt.regs == list(emu.regs)
    image = prog.initial_memory()
    for addr, value in ckpt.mem_words.items():
        assert emu.memory.read_word(addr) == value
        assert image.get(addr, 0) != value


def test_checkpoint_rejects_unreachable_boundary(asm):
    asm.addi("t0", "t0", 1)
    asm.halt()
    prog = asm.finish()
    with pytest.raises(ValueError):
        capture_checkpoints(prog, [1000])


def test_checkpoint_roundtrips_through_json(micro_programs):
    prog = next(iter(micro_programs.values()))
    ckpt = capture_checkpoints(prog, [2000])[2000]
    again = Checkpoint.from_dict(json.loads(
        json.dumps(ckpt.as_dict(), sort_keys=True)))
    assert again.as_dict() == ckpt.as_dict()
    state = again.initial_state()
    assert isinstance(state, InitialState)
    assert state.pc == ckpt.pc


def test_injected_core_finishes_program(micro_programs):
    """The detailed core, started from a checkpoint, must commit exactly
    the remaining instructions and reach the same architectural state as
    an uninterrupted emulator run."""
    prog = next(iter(micro_programs.values()))
    full = Emulator(prog).run()
    boundary = 3000
    ckpt = capture_checkpoints(prog, [boundary])[boundary]
    core = O3Core(prog, init_state=ckpt.initial_state())
    result = core.run()
    assert result.stats.committed_insts == full.inst_count - boundary
    assert result.regs == full.regs
    assert result.memory == full.memory


def test_core_resumed_mid_branch_commits_every_instruction():
    """Regression: leela resumed at instruction 50000 hits a replay of
    ``ld t0, 8(sp)`` in the same writeback that resolves the mispredicted
    ``bne`` before it. The replay used to win the squash tie, so the
    sampled final interval committed 5040 of its 5043 instructions."""
    prog = get_workload("leela").build(1.0)[1]
    full = Emulator(prog).run()
    ckpt = capture_checkpoints(prog, [50000])[50000]
    result = O3Core(prog, init_state=ckpt.initial_state()).run()
    assert result.stats.committed_insts == full.inst_count - 50000 == 5043
    assert result.regs == full.regs
    assert result.memory == full.memory


def test_checkpoint_store_roundtrip(sandbox_stores):
    store = CheckpointStore.from_env()
    assert store is not None
    assert store.get("deadbeef") is None
    store.put("deadbeef", {"hello": [1, 2, 3]})
    assert store.get("deadbeef") == {"hello": [1, 2, 3]}
    assert os.path.isfile(os.path.join(
        str(sandbox_stores / "cache"), store.fingerprint, "de",
        "deadbeef.json"))
    assert store.entries() == 1
    ((entries, size),) = store.census().values()
    assert entries == 1 and size > 0
    assert store.prune(max_age_days=0) == 1
    assert store.entries() == 0


def test_checkpoint_store_disabled_by_env(tmp_path, monkeypatch):
    """``REPRO_CACHE_DIR=off`` disables checkpoints and results alike:
    a sampled batch then writes nothing, not even under the default
    cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    assert CheckpointStore.from_env() is None
    job = SimJob("linear-mispred", "baseline", 0.2,
                 sampling={"interval_insts": 2000})
    clear_memo()
    assert run_batch([job]).executed == 1
    assert os.listdir(tmp_path) == []


def test_checkpoint_keys_are_pinned():
    """Checkpoint keys are the canonical hash of ``{"sampling": spec,
    "target": key_spec}``; these are the keys of SimPoint-sampled leela
    and xz at scale 16 with ``interval_insts=10000, max_k=2``, so a
    change to the key recipe strands every stored checkpoint and shows
    here first."""

    class KeyProbe:
        def get(self, key):
            raise LookupError(key)

    prog = get_workload("linear-mispred").build(0.05)[1]
    spec = SamplingSpec(interval_insts=10000, max_k=2)
    for workload, key in (("leela", "8b5f588fba1f2618786c5c20"),
                          ("xz", "f588c553f25d5b2e5c8172a2")):
        with pytest.raises(LookupError) as exc:
            run_sampled(prog, spec=spec, store=KeyProbe(),
                        key_spec={"workload": workload, "scale": 16.0})
        assert exc.value.args == (key,)


# ---------------------------------------------------------------------------
# The sampled run
# ---------------------------------------------------------------------------
def test_sampled_ipc_within_5pct_of_full_run(micro_programs):
    """Acceptance criterion: for every micro-suite workload the sampled
    IPC is within 5% of the full detailed run.

    Interval 2000 is the supported operating point at micro scale (the
    ~12k-instruction programs only yield 6 intervals; shrinking the
    interval further raises the clustering error past the bound)."""
    for name, prog in micro_programs.items():
        full = O3Core(prog).run().stats.ipc
        res = run_sampled(prog, spec=SamplingSpec(interval_insts=2000))
        err = abs(res.ipc - full) / full
        assert err < 0.05, \
            "%s: sampled %.3f vs full %.3f (%.1f%%)" % (
                name, res.ipc, full, 100 * err)
        assert res.stats.committed_insts == res.total_insts
        assert res.detailed_insts > 0


def test_sampled_run_is_deterministic(micro_programs):
    prog = next(iter(micro_programs.values()))
    spec = SamplingSpec(interval_insts=2000)
    a = run_sampled(prog, spec=spec)
    b = run_sampled(prog, spec=spec)
    assert a.stats.as_dict() == b.stats.as_dict()


def test_sampled_run_uses_store(micro_programs, sandbox_stores):
    prog = next(iter(micro_programs.values()))
    spec = SamplingSpec(interval_insts=2000)
    store = CheckpointStore.from_env()
    key_spec = {"workload": "x", "scale": 0.2}
    a = run_sampled(prog, spec=spec, store=store, key_spec=key_spec)
    assert store.stores == 1 and store.hits == 0
    b = run_sampled(prog, spec=spec, store=store, key_spec=key_spec)
    assert store.hits == 1
    assert a.stats.as_dict() == b.stats.as_dict()


def test_sampled_run_emits_interval_events(micro_programs):
    from repro.obs import CallbackSink, Observability
    prog = next(iter(micro_programs.values()))
    seen = []
    obs = Observability(sinks=[CallbackSink(
        lambda ev: ev.etype == "interval"
        and seen.append((ev.phase, ev.index)))])
    res = run_sampled(prog, spec=SamplingSpec(interval_insts=2000),
                      obs=obs)
    begins = [index for phase, index in seen if phase == "begin"]
    ends = [index for phase, index in seen if phase == "end"]
    assert begins == ends == [p.index for p in res.selection.points]


# ---------------------------------------------------------------------------
# Stats that are not counters
# ---------------------------------------------------------------------------
#: A sampled ptr-chase run on the ported memory model and the decoupled
#: frontend: three selected intervals, MSHR overlap and every fetch-stall
#: reason.
PORTED_DECOUPLED = {"mem.model": "ported", "frontend.decoupled": True}
THREE_POINTS = SamplingSpec(interval_insts=2000, max_k=3)


@pytest.fixture(scope="module")
def ptr_chase():
    return get_workload("ptr-chase").build(1.0)[1]


def test_sampled_run_keeps_peaks_and_stall_reasons(ptr_chase):
    config = build_config("baseline", PORTED_DECOUPLED)
    full = O3Core(ptr_chase, config).run().stats
    res = run_sampled(ptr_chase, config, spec=THREE_POINTS)
    assert len(res.runs) == 3
    for run in res.runs:
        # The detailed run's peak, detailed warmup included: never the
        # difference of two running maxima.
        assert run.stats.mem_mshr_peak > 0
        assert sum(run.stats.fetch_stall_reasons.values()) \
            == run.stats.fetch_stalls
    assert res.stats.mem_mshr_peak == full.mem_mshr_peak \
        == max(run.stats.mem_mshr_peak for run in res.runs)
    reasons = res.stats.fetch_stall_reasons
    assert set(reasons) == set(full.fetch_stall_reasons)
    assert abs(sum(reasons.values()) - res.stats.fetch_stalls) \
        <= len(reasons)


def test_interval_delta_and_aggregate_handle_every_field():
    """A field SimStats grows must be a counter or be listed with the
    non-counters, and both functions must fill every field they do not
    pass through."""
    fields = list(vars(SimStats()))
    listed = set(KEYED_STATS) | set(PEAK_STATS) | set(PASSED_STATS)
    assert listed <= set(fields)
    for name, default in vars(SimStats()).items():
        assert name in listed or type(default) is int, name
    before, after = SimStats(), SimStats()
    for number, name in enumerate(fields, start=1):
        if name in KEYED_STATS:
            setattr(before, name, {7: number})
            setattr(after, name, {7: 3 * number, 9: number})
        elif name in PASSED_STATS:
            setattr(after, name, [number])
        else:
            setattr(before, name, number)
            setattr(after, name, 3 * number)
    delta = _stats_delta(after, before)
    for number, name in enumerate(fields, start=1):
        if name in KEYED_STATS:
            expected = {7: 2 * number, 9: number}
        elif name in PEAK_STATS or name in PASSED_STATS:
            expected = getattr(after, name)
        else:
            expected = 2 * number
        assert getattr(delta, name) == expected, name

    point = SimPoint(0, 1.0, 0, delta.committed_insts, 1)
    est = aggregate_stats([IntervalRun(point, delta)],
                          10 * delta.committed_insts)
    for name in fields:
        value = getattr(delta, name)
        if name in PASSED_STATS:
            expected = getattr(SimStats(), name)
        elif name in PEAK_STATS:
            expected = value
        elif name in KEYED_STATS:
            expected = {key: 10 * count for key, count in value.items()}
        else:
            expected = 10 * value
        assert getattr(est, name) == expected, name


# ---------------------------------------------------------------------------
# Concurrent intervals
# ---------------------------------------------------------------------------
@pytest.fixture
def bounded():
    """Fail a test that forks interval workers instead of hanging it."""
    with _WallClock(120.0):
        yield


def _quiet_obs():
    """A bus with a no-op sink: it keeps every interval in-process."""
    return Observability(sinks=[CallbackSink(lambda _event: None)])


def _all_stats(result):
    return [result.stats.as_dict()] + \
        [run.stats.as_dict() for run in result.runs]


def _needs_two_cpus():
    if usable_cpus() < 2:
        pytest.skip("needs two usable CPUs to fork an interval worker")


def test_interval_workers_gates():
    assert interval_workers(1) == 0
    assert interval_workers(3, _quiet_obs()) == 0
    assert interval_workers(3, Observability()) \
        == min(3, usable_cpus()) - 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        assert interval_workers(3) == 0
    finally:
        release.set()
        thread.join(30.0)


def test_concurrent_intervals_match_in_process(ptr_chase, tmp_path,
                                               bounded):
    config = build_config("mssr", PORTED_DECOUPLED)
    key_spec = {"workload": "ptr-chase", "scale": 1.0}
    results = {}
    for mode in ("default", "in-process"):
        store = CheckpointStore(directory=str(tmp_path / mode))
        for store_state in ("cold", "warm"):
            obs = _quiet_obs() if mode == "in-process" else None
            res = run_sampled(ptr_chase, config, spec=THREE_POINTS,
                              obs=obs, store=store, key_spec=key_spec)
            results[(mode, store_state)] = _all_stats(res)
        assert (store.stores, store.hits) == (1, 1)
    reference = results[("in-process", "cold")]
    assert len(reference) == 4
    for key, stats in results.items():
        assert stats == reference, key


def _pid_logger(path):
    def factory():
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("%d\n" % os.getpid())
    return factory


def test_scheme_factory_runs_in_forked_workers(ptr_chase, tmp_path,
                                               bounded):
    _needs_two_cpus()
    log = tmp_path / "pids"
    run_sampled(ptr_chase, spec=THREE_POINTS,
                scheme_factory=_pid_logger(log))
    pids = set(log.read_text().split())
    assert str(os.getpid()) in pids and len(pids) >= 2
    log.unlink()
    run_sampled(ptr_chase, spec=THREE_POINTS, obs=_quiet_obs(),
                scheme_factory=_pid_logger(log))
    assert set(log.read_text().split()) == {str(os.getpid())}


def test_worker_failures_reach_the_caller(ptr_chase, bounded):
    _needs_two_cpus()
    caller = os.getpid()

    def raises():
        if os.getpid() != caller:
            raise ValueError("scheme factory failed in a worker")

    def exits():
        if os.getpid() != caller:
            os._exit(3)

    with pytest.raises(ValueError, match="failed in a worker"):
        run_sampled(ptr_chase, spec=THREE_POINTS, scheme_factory=raises)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_sampled(ptr_chase, spec=THREE_POINTS, scheme_factory=exits)
    assert multiprocessing.active_children() == []


def test_wall_clock_guard_stops_interval_workers(ptr_chase):
    _needs_two_cpus()
    caller = os.getpid()

    def stalls():
        if os.getpid() != caller:
            time.sleep(60.0)

    start = time.monotonic()
    with pytest.raises(JobTimeout):
        with _WallClock(1.0):
            run_sampled(ptr_chase, spec=THREE_POINTS,
                        scheme_factory=stalls)
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def test_sampled_jobs_in_pool_workers_match_serial(sandbox_stores,
                                                    bounded):
    """Harness pool workers are daemonic and may not fork: their
    sampled jobs must keep every interval in-process."""
    jobs = [SimJob("ptr-chase", kind, 1.0, config=PORTED_DECOUPLED,
                   sampling=THREE_POINTS)
            for kind in ("baseline", "mssr")]
    serial = run_batch(jobs, n_jobs=1, cache=False, memo=None)
    pooled = run_batch(jobs, n_jobs=2, cache=False, memo=None)
    assert pooled.groups == 2
    for job in jobs:
        assert pooled.results[job].as_dict() \
            == serial.results[job].as_dict()


def test_sampling_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec(interval_insts=0)
    with pytest.raises(ValueError):
        SamplingSpec(max_k=0)
    spec = SamplingSpec.from_any({"interval_insts": 500})
    assert spec.interval_insts == 500
    assert SamplingSpec.from_any(None) is None
    assert SamplingSpec.from_any(spec) is spec


@pytest.mark.parametrize("name, value", [("dims", 0), ("dims", -1),
                                         ("warmup_branches", -5),
                                         ("warmup_mem", -1)])
def test_sampling_spec_rejects_out_of_range_knobs(name, value, capsys):
    """Zero projection dimensions (a ZeroDivisionError after a whole
    profile), negative dimensions (a silently different selection) and
    negative warmups (which ran like no warmup) are refused at
    construction, and by the CLI with exit status 2. A warmup of 0 still
    means none."""
    with pytest.raises(ValueError, match="%s must be >= " % name):
        SamplingSpec(**{name: value})
    assert SamplingSpec(warmup_branches=0, warmup_mem=0,
                        detail_warmup_insts=0).warmup_mem == 0
    flag = {"warmup_branches": "--warmup-branches",
            "warmup_mem": "--warmup-mem"}.get(name)
    if flag is not None:
        assert cli_main(["run", "--workload", "linear-mispred",
                         "--scale", "0.05", "--no-cache", "--sampled",
                         flag, str(value)], out=io.StringIO()) == 2
        assert "%s must be >= 0" % name in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------
def test_simjob_hash_unchanged_without_sampling():
    plain = SimJob("linear-mispred", "baseline", 0.05)
    assert "sampling" not in plain.spec()
    sampled = SimJob("linear-mispred", "baseline", 0.05, sampling=True)
    assert sampled.spec()["sampling"]
    assert plain.job_hash() != sampled.job_hash()
    # The canonical tuple round-trips into an equal job.
    again = SimJob("linear-mispred", "baseline", 0.05,
                   sampling=sampled.sampling)
    assert again == sampled


def test_execute_routes_sampled_jobs(sandbox_stores):
    job = SimJob("linear-mispred", "baseline", 0.2,
                 sampling={"interval_insts": 2000})
    stats = execute(job)
    full = execute(SimJob("linear-mispred", "baseline", 0.2))
    assert stats.committed_insts == full.committed_insts
    assert abs(stats.ipc - full.ipc) / full.ipc < 0.05
    # Checkpoints persisted under the sandboxed store.
    store = CheckpointStore.from_env()
    assert store.entries() == 1


def test_cli_profile_and_simpoints(sandbox_stores):
    out = io.StringIO()
    assert cli_main(["profile", "--workload", "linear-mispred",
                     "--scale", "0.2", "--interval", "2000"],
                    out=out) == 0
    assert "interval 0" in out.getvalue()
    out = io.StringIO()
    assert cli_main(["simpoints", "--workload", "linear-mispred",
                     "--scale", "0.2", "--interval", "2000", "--json"],
                    out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["points"]
    assert abs(sum(p["weight"] for p in payload["points"]) - 1.0) < 1e-9


def test_cli_simpoints_rejects_warmup_flags(capsys):
    """``simpoints`` takes only the sampling flags it reads; the warmup
    flags belong to ``run --sampled``."""
    from repro.harness.cli import _build_parser
    for flag, attr in (("--warmup-mem", "warmup_mem"),
                       ("--warmup-branches", "warmup_branches"),
                       ("--detail-warmup", "detail_warmup")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["simpoints", "--workload", "linear-mispred", flag,
                      "1"], out=io.StringIO())
        assert exc.value.code == 2
        assert "unrecognized arguments: %s 1" % flag \
            in capsys.readouterr().err
        args = _build_parser().parse_args(
            ["run", "--workload", "linear-mispred", "--sampled", flag,
             "1"])
        assert getattr(args, attr) == 1


def test_cli_run_sampled(sandbox_stores):
    out = io.StringIO()
    assert cli_main(["run", "--workload", "linear-mispred",
                     "--scale", "0.2", "--sampled",
                     "--interval", "2000"], out=out) == 0
    assert "[sampled]" in out.getvalue()


def test_cli_cache_prune(sandbox_stores):
    store = CheckpointStore.from_env()
    store.put("feedc0de", {"x": 1})
    out = io.StringIO()
    assert cli_main(["cache", "prune", "--max-age-days", "0"],
                    out=out) == 0
    assert store.entries() == 0
    out = io.StringIO()
    assert cli_main(["cache", "prune"], out=out) == 2


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------
def test_run_trace_taken_flag_matches_semantics(asm):
    """A conditional branch whose taken target IS the fall-through used
    to be misclassified as not-taken by the pc-delta heuristic."""
    asm.beq("x0", "x0", "next")     # taken, target == pc + 4
    asm.label("next")
    asm.addi("t0", "t0", 1)
    asm.bne("t0", "x0", "skip")     # taken
    asm.addi("t1", "t1", 1)         # skipped
    asm.label("skip")
    asm.beq("t0", "x0", "end")      # not taken (t0 == 1)
    asm.addi("t2", "t2", 1)
    asm.label("end")
    asm.halt()
    prog = asm.finish()
    result, trace = Emulator(prog).run_trace()
    assert result.reg("t1") == 0    # the taken bne really skipped
    assert [t for _pc, t, _target in trace] == [True, True, False]


def test_chunked_core_run_is_cycle_exact(micro_programs):
    """A budget-stopped core resumes without distortion: running in
    chunks reaches the identical final cycle count and architectural
    state as one uninterrupted run (the property detailed warmup
    leans on)."""
    prog = next(iter(micro_programs.values()))
    full = O3Core(prog).run()
    core = O3Core(prog)
    core.run(max_insts=100)
    assert core.stats.committed_insts == 100
    core.run(max_insts=57)
    assert core.stats.committed_insts == 157
    core.run()
    assert core.stats.committed_insts == full.stats.committed_insts
    assert core.stats.cycles == full.stats.cycles
    assert core.arch_regs() == full.regs


def test_run_until_stops_at_budget(micro_programs):
    prog = next(iter(micro_programs.values()))
    emu = Emulator(prog)
    halted = emu.run_until(123)
    assert not halted and emu.inst_count == 123
    acc = BBVAccumulator(emu.pc)
    emu.run_until(125, bbv=acc)
    assert emu.inst_count == 125
    assert sum(acc.counts.values()) == 2


def test_workload_scale_validation():
    workload = get_workload("linear-mispred")
    for bad in (0, -1, -0.5, float("nan"), "abc", None):
        with pytest.raises(ValueError):
            workload.build(bad)
    # Scales rounding to the same key build the identical program.
    _mod_a, prog_a = workload.build(0.2)
    _mod_b, prog_b = workload.build(0.2000000004)
    assert prog_a is prog_b
