"""The parallel, disk-persistent simulation harness."""

import io
import json
import os
import time

import pytest

from repro.harness import (
    JobFailure,
    ResultCache,
    SimJob,
    clear_memo,
    code_fingerprint,
    execute,
    last_report,
    run_batch,
    submit,
)
from repro.harness.cli import main as cli_main
from repro.harness.runner import ProcessPool, default_jobs
from repro.pipeline.stats import SimStats

_SCALE = 0.05


def _stats_blob(stats):
    return json.dumps(stats.as_dict(), sort_keys=True)


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    """Isolated disk cache + env for one test."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return ResultCache(directory=str(cache_dir))


# ---------------------------------------------------------------------------
# Layered caching
# ---------------------------------------------------------------------------
def test_memo_returns_identical_object(tmp_cache):
    job = SimJob("linear-mispred", "baseline", _SCALE)
    a = submit([job])[job]
    b = submit([job])[job]
    assert a is b
    assert last_report().memo_hits == 1
    assert last_report().executed == 0


def test_batch_dedupes_identical_jobs(tmp_cache):
    jobs = [SimJob("linear-mispred", "baseline", _SCALE)
            for _ in range(5)]
    clear_memo()
    report = run_batch(jobs, cache=tmp_cache)
    assert report.total == 5
    assert report.executed == 1
    stats = {id(report.results[job]) for job in jobs}
    assert len(stats) == 1


def test_disk_cache_survives_memo_clear(tmp_cache):
    job = SimJob("linear-mispred", "mssr", _SCALE,
                 {"streams": 2, "wpb": 16, "log": 64})
    clear_memo()
    first = run_batch([job], cache=tmp_cache)
    assert first.executed == 1
    assert tmp_cache.stores == 1

    clear_memo()   # simulate a fresh process
    second = run_batch([job], cache=tmp_cache)
    assert second.executed == 0
    assert second.disk_hits == 1
    assert tmp_cache.hits == 1
    assert _stats_blob(first.results[job]) == \
        _stats_blob(second.results[job])


def test_warm_cache_reruns_fig10_with_zero_simulations(tmp_cache):
    """Acceptance: a warm disk cache turns the Figure 10 sweep into
    pure cache hits — zero new simulations on a rerun."""
    from repro.analysis import fig10_ipc_sweep

    kwargs = dict(scale=_SCALE, suites=("micro",),
                  configs=((1, 16), (2, 16)))
    clear_memo()
    cold = fig10_ipc_sweep(**kwargs)
    cold_report = last_report()
    assert cold_report.executed == cold_report.total > 0

    clear_memo()   # fresh process: only the disk cache remains warm
    warm = fig10_ipc_sweep(**kwargs)
    warm_report = last_report()
    assert warm_report.executed == 0
    assert warm_report.disk_hits == warm_report.total
    assert cold == warm


def test_code_fingerprint_partitions_cache(tmp_path):
    job = SimJob("linear-mispred", "baseline", _SCALE)
    stats = execute(job).as_dict()
    old = ResultCache(directory=str(tmp_path), fingerprint="old-code")
    old.put(job, stats)
    assert old.get(job) == stats
    new = ResultCache(directory=str(tmp_path), fingerprint="new-code")
    assert new.get(job) is None   # changed code never reads stale results
    assert new.misses == 1
    assert len(code_fingerprint()) == 16


def test_cache_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    assert ResultCache.from_env() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    cache = ResultCache.from_env()
    assert cache is not None and cache.directory == "/tmp/somewhere"


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------
def test_parallel_matches_serial_byte_for_byte():
    jobs = [SimJob("linear-mispred", "mssr", _SCALE,
                   {"streams": s, "wpb": 16, "log": 64})
            for s in (1, 2, 4)]
    serial = run_batch(jobs, n_jobs=1, cache=False, memo=None)
    parallel = run_batch(jobs, n_jobs=4, cache=False, memo=None)
    assert parallel.executed == len(jobs)
    for job in jobs:
        assert _stats_blob(serial.results[job]) == \
            _stats_blob(parallel.results[job])


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    assert default_jobs() == 1


# ---------------------------------------------------------------------------
# Error capture and guards
# ---------------------------------------------------------------------------
def test_job_errors_are_captured_per_job():
    good = SimJob("linear-mispred", "baseline", _SCALE)
    bad = SimJob("no-such-workload", "baseline", _SCALE)
    report = run_batch([good, bad], cache=False, memo=None, strict=False)
    assert isinstance(report.results[good], SimStats)
    assert report.results[bad] is None
    assert "no-such-workload" in report.errors[bad]

    with pytest.raises(JobFailure) as err:
        run_batch([good, bad], cache=False, memo=None)
    assert bad in err.value.errors


def test_max_cycles_guard():
    job = SimJob("linear-mispred", "baseline", _SCALE, max_cycles=10)
    report = run_batch([job], cache=False, memo=None, strict=False)
    assert report.results[job] is None
    assert "cycle budget exhausted" in report.errors[job]


def test_progress_callback(tmp_cache):
    jobs = [SimJob("linear-mispred", "baseline", _SCALE),
            SimJob("nested-mispred", "baseline", _SCALE)]
    seen = []
    clear_memo()
    run_batch(jobs, cache=tmp_cache,
              progress=lambda done, total, job, source:
              seen.append((done, total, source)))
    assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
    assert all(s[2] in ("memo", "disk", "run") for s in seen)


# ---------------------------------------------------------------------------
# Supervised process pool: fault injection
#
# The pool forks its workers, so a monkeypatch applied to
# ``repro.harness.runner.execute`` in the parent is inherited by every
# child. A patched function that calls ``os._exit`` simulates a worker
# killed mid-job: no traceback, no result on the queue, just a corpse
# with an exit code.
# ---------------------------------------------------------------------------
def _pool_job(**kwargs):
    kwargs.setdefault("workload", "linear-mispred")
    kwargs.setdefault("kind", "baseline")
    kwargs.setdefault("scale", 0.02)
    return SimJob(**kwargs)


def test_pool_captures_exit_code_of_killed_worker(monkeypatch):
    def dies(_job, store=None):
        os._exit(7)

    monkeypatch.setattr("repro.harness.runner.execute", dies)
    pool = ProcessPool(1)
    try:
        pool.submit_group([_pool_job()])
        done = pool.poll(block=30.0)
    finally:
        pool.close()
    assert len(done) == 1
    _job_obj, ok, payload = done[0]
    assert not ok
    assert "worker died mid-job (exit code 7)" in payload


def test_pool_terminates_job_past_wall_timeout(monkeypatch):
    def hangs(_job, store=None):
        while True:      # ignores nothing, but never finishes
            time.sleep(0.1)

    monkeypatch.setattr("repro.harness.runner.execute", hangs)
    pool = ProcessPool(1, job_timeout=0.5)
    try:
        pool.submit_group([_pool_job()])
        done = pool.poll(block=30.0)
    finally:
        pool.close()
    assert len(done) == 1
    _job_obj, ok, payload = done[0]
    assert not ok
    # Either guard is fine: the in-worker SIGALRM normally fires first
    # ("wall clock guard expired"); the parent-side kill is the
    # backstop for wedged workers ("exceeded wall-clock timeout").
    assert "wall clock guard" in payload \
        or "exceeded wall-clock timeout" in payload


def test_run_batch_surfaces_killed_worker_error(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def dies(_job, store=None):
        os._exit(11)

    monkeypatch.setattr("repro.harness.runner.execute", dies)
    jobs = [_pool_job(), _pool_job(kind="mssr", params={"streams": 2})]
    report = run_batch(jobs, n_jobs=2, cache=False, strict=False)
    assert len(report.errors) == 2
    for message in report.errors.values():
        assert "worker died mid-job (exit code 11)" in message


def test_group_worker_death_fails_whole_group(monkeypatch):
    """A worker dying mid-group resolves every unfinished member with
    the captured exit code instead of hanging the pool."""
    def dies(_job, store=None):
        os._exit(5)

    monkeypatch.setattr("repro.harness.runner.execute", dies)
    jobs = [_pool_job(kind="mssr", params={"streams": s})
            for s in (1, 2, 4)]
    pool = ProcessPool(1)
    try:
        pool.submit_group(jobs)
        assert pool.free_slots() == 0
        assert sorted(pool.running) == sorted(j.job_hash()
                                              for j in jobs)
        done = []
        end = time.monotonic() + 30.0
        while len(done) < 3 and time.monotonic() < end:
            done.extend(pool.poll(block=1.0))
    finally:
        pool.close()
    assert len(done) == 3
    for _job_obj, ok, payload in done:
        assert not ok
        assert "worker died mid-job (exit code 5)" in payload


# ---------------------------------------------------------------------------
# Shared-image grouping
# ---------------------------------------------------------------------------
def _mssr_grid(workload, streams):
    return [SimJob(workload, "mssr", _SCALE,
                   {"streams": s, "wpb": 16, "log": 64})
            for s in streams]


def _clear_workload_caches(*names):
    """Forked workers inherit the parent's build cache; drop it so a
    fresh pool pays (and therefore counts) its builds."""
    from repro.workloads.registry import get_workload
    for name in names:
        get_workload(name).clear_cache()


def test_group_jobs_shapes():
    from repro.harness.runner import group_jobs

    one_image = _mssr_grid("linear-mispred", (1, 2, 4))
    # One image over many slots fans out into per-slot chunks...
    groups = group_jobs(one_image, 4)
    assert [len(g) for g in groups] == [1, 1, 1]
    # ...and serialises into one group when slots are scarce.
    assert [len(g) for g in group_jobs(one_image, 1)] == [3]
    # Two images split the slots between them.
    two_images = one_image + _mssr_grid("nested-mispred", (1, 2, 4))
    groups = group_jobs(two_images, 2)
    assert len(groups) == 2
    assert all(len(g) == 3 for g in groups)
    for group in groups:
        assert len({(j.workload, j.scale) for j in group}) == 1
    # Every job appears exactly once.
    flat = [j for g in groups for j in g]
    assert sorted(j.job_hash() for j in flat) \
        == sorted(j.job_hash() for j in two_images)


def test_shared_images_batched_equivalence_and_fewer_loads():
    """Acceptance: a grouped parallel batch produces byte-identical
    stats to running each job on its own, and pays strictly fewer
    program builds."""
    from repro.workloads.registry import build_count

    jobs = _mssr_grid("linear-mispred", (1, 2, 3, 4))

    _clear_workload_caches("linear-mispred")
    batched = run_batch(jobs, n_jobs=2, cache=False, memo=None)
    # Per-job reference: every job builds its own program image.
    reference = {}
    before = build_count()
    for job in jobs:
        _clear_workload_caches("linear-mispred")
        reference[job] = execute(job)
    per_job_loads = build_count() - before

    assert batched.executed == len(jobs)
    for job in jobs:
        assert _stats_blob(batched.results[job]) == \
            _stats_blob(reference[job])
    # 4 jobs / 2 slots: 2 shared groups pay 2 builds; per job, 4.
    assert batched.groups == 2
    assert batched.program_loads == 2
    assert per_job_loads == 4


def test_serial_path_counts_program_loads():
    jobs = _mssr_grid("linear-mispred", (1, 2))
    _clear_workload_caches("linear-mispred")
    report = run_batch(jobs, n_jobs=1, cache=False, memo=None)
    assert report.groups == 1
    assert report.program_loads == 1    # one image, built once


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_run_summary(tmp_cache):
    out = io.StringIO()
    rc = cli_main(["run", "--workload", "linear-mispred", "--kind",
                   "mssr", "--streams", "2", "--scale", str(_SCALE)],
                  out=out)
    assert rc == 0
    text = out.getvalue()
    assert "linear-mispred/mssr streams=2" in text
    assert "IPC=" in text
    assert "# jobs=1" in text


def test_cli_run_json(tmp_cache):
    out = io.StringIO()
    rc = cli_main(["run", "--workload", "linear-mispred", "--scale",
                   str(_SCALE), "--json"], out=out)
    assert rc == 0
    payload = json.loads(out.getvalue().rsplit("#", 1)[0])
    assert payload[0]["job"]["workload"] == "linear-mispred"
    assert payload[0]["stats"]["committed_insts"] > 0


def test_cli_rejects_unknown_workload(tmp_cache, capsys):
    rc = cli_main(["run", "--workload", "no-such-thing"], out=io.StringIO())
    assert rc == 2
    assert "unknown workload" in capsys.readouterr().err


def test_cli_list_and_cache(tmp_cache, capsys):
    out = io.StringIO()
    assert cli_main(["list", "--suite", "micro"], out=out) == 0
    assert "linear-mispred" in out.getvalue()

    out = io.StringIO()
    assert cli_main(["cache"], out=out) == 0
    assert "fingerprint" in out.getvalue()


# ---------------------------------------------------------------------------
# Sharded cache layout and orphan accounting
# ---------------------------------------------------------------------------
def test_put_writes_sharded_layout(tmp_cache):
    job = SimJob("linear-mispred", "baseline", _SCALE)
    tmp_cache.put(job, {"ipc": 1.0})
    job_hash = job.job_hash()
    expected = (f"{tmp_cache.directory}/{tmp_cache.fingerprint}/"
                f"{job_hash[:2]}/{job_hash}.json")
    assert os.path.exists(expected)
    assert tmp_cache.entries() == 1
    assert tmp_cache.get(job) == {"ipc": 1.0}


def _result_store(directory):
    store = ResultCache(directory=directory, fingerprint="f" * 16)
    job = SimJob("linear-mispred", "baseline", _SCALE)
    stats = {"ipc": 1.5, "hist": {"3": 2}, "name": "caf\u00e9"}
    payload = {"job": job.spec(), "job_hash": job.job_hash(),
               "config_hash": job.config_hash(), "stats": stats}
    return (store, lambda: store.put(job, stats), lambda: store.get(job),
            stats, store.path(job.job_hash()), payload)


def _checkpoint_store(directory):
    from repro.sampling import CheckpointStore

    store = CheckpointStore(directory=directory, fingerprint="f" * 16)
    payload = {"regs": [0, 2 ** 63, -1], "pc": 4096, "w": 0.25,
               "name": "caf\u00e9", "mem": {"8": 1}}
    return (store, lambda: store.put("feedc0de", payload),
            lambda: store.get("feedc0de"), payload,
            store.path("feedc0de"), payload)


@pytest.mark.parametrize("make", [_result_store, _checkpoint_store],
                         ids=["results", "checkpoints"])
def test_store_put_writes_json_dumps_atomically(tmp_path, make,
                                                  monkeypatch):
    """Both entry formats publish through one atomic writer: the file
    holds exactly ``json.dumps(payload, sort_keys=True)`` and reads
    back, and a failed write leaves neither an entry nor a temporary
    file."""
    store, put, get, value, path, payload = make(str(tmp_path / "ok"))
    put()
    assert store.stores == 1
    assert get() == value
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == json.dumps(payload, sort_keys=True)

    store, put, get, _value, path, _payload = make(str(tmp_path / "bad"))

    def fail(*_args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    put()
    monkeypatch.undo()
    assert store.stores == 0 and get() is None
    leftovers = [name for _dir, _dirs, names in os.walk(tmp_path / "bad")
                 for name in names]
    assert leftovers == []


def _write_entry(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def test_prune_and_orphans_walk_shards(tmp_cache):
    job = SimJob("linear-mispred", "baseline", _SCALE)
    tmp_cache.put(job, {"ipc": 1.0})
    # A stale fingerprint with one sharded and one flat entry, and a
    # checkpoint tree of the former ``<cache>/checkpoints`` layout.
    stale = os.path.join(tmp_cache.directory, "deadbeefdeadbeef")
    for path in (os.path.join(stale, "ab", "abcd.json"),
                 os.path.join(stale, "1234.json"),
                 os.path.join(tmp_cache.directory, "checkpoints",
                              tmp_cache.fingerprint, "5678.json")):
        _write_entry(path, {"stats": {}})

    orphans, stale_count = tmp_cache.orphaned()
    assert orphans == 3 and stale_count == 2
    # Age-based pruning reaches entries at every depth.
    removed = tmp_cache.prune(max_age_days=0.0)
    assert removed == 4
    assert tmp_cache.entries() == 0
    assert tmp_cache.orphaned() == (0, 0)


def test_default_checkpoint_store_is_not_an_orphan(tmp_path, monkeypatch):
    """With default directories a sampled batch leaves its result entry
    and its checkpoint entry side by side under the current
    fingerprint, so neither is a stale fingerprint."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    job = SimJob("linear-mispred", "baseline", 0.2,
                 sampling={"interval_insts": 2000})
    clear_memo()
    assert run_batch([job]).executed == 1

    cache = ResultCache()
    assert cache.directory == str(tmp_path / "repro-sim")
    assert os.listdir(cache.directory) == [cache.fingerprint]
    assert cache.entries() == 2
    assert cache.orphaned() == (0, 0)
    sub = os.path.join(cache.directory, cache.fingerprint)
    fields = []
    for dirpath, _dirs, names in os.walk(sub):
        for name in names:
            with open(os.path.join(dirpath, name)) as fh:
                fields.append(sorted(json.load(fh)))
    assert sorted(fields) == [["checkpoints", "selection", "total_insts"],
                              ["config_hash", "job", "job_hash", "stats"]]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_sampled_batch_keeps_checkpoints_in_its_store(tmp_path,
                                                      monkeypatch, n_jobs):
    """A batch given a store keeps its sampled jobs' checkpoint entry
    there, on the serial and on the forked path, and ``cache=False``
    (``--no-cache``) writes nowhere: never into the default cache."""
    xdg = tmp_path / "xdg"
    xdg.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    jobs = [SimJob("linear-mispred", kind, 0.2,
                   sampling={"interval_insts": 2000})
            for kind in ("baseline", "mssr")]
    cache = ResultCache(directory=str(tmp_path / "store"))
    clear_memo()
    assert run_batch(jobs, n_jobs=n_jobs, cache=cache).executed == 2
    kinds = []
    for dirpath, _dirs, names in os.walk(cache.directory):
        for name in names:
            with open(os.path.join(dirpath, name)) as fh:
                kinds.append("result" if "stats" in json.load(fh)
                             else "checkpoint")
    # The two kinds share one checkpoint entry (keyed by the program).
    assert sorted(kinds) == ["checkpoint", "result", "result"]
    assert cache.entries() == 3
    assert os.listdir(xdg) == []

    clear_memo()
    assert run_batch(jobs, n_jobs=n_jobs, cache=False).executed == 2
    assert cache.entries() == 3
    assert os.listdir(xdg) == []


def test_cli_cache_reports_current_and_orphaned_bytes(tmp_cache):
    """``harness cache`` prints the current fingerprint's entries with
    their own bytes and the orphaned entries with theirs."""
    job = SimJob("linear-mispred", "baseline", _SCALE)
    tmp_cache.put(job, {"ipc": 1.0})
    current = os.path.getsize(tmp_cache.path(job.job_hash()))
    stale = os.path.join(tmp_cache.directory, "deadbeefdeadbeef", "ab",
                         "abcd.json")
    _write_entry(stale, {"stats": {"pad": "x" * 5000}})
    orphan = os.path.getsize(stale)
    assert orphan != current

    out = io.StringIO()
    assert cli_main(["cache"], out=out) == 0
    lines = out.getvalue().splitlines()
    assert "entries     : 1 (%d bytes)" % current in lines
    assert ("orphaned    : 1 entr(y/ies) (%d bytes) under 1 stale "
            "fingerprint(s)" % orphan) in lines
