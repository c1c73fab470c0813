"""Batch execution of simulation jobs with layered caching.

Resolution order for each job in a batch:

1. **in-process memo** — SimStats objects already produced this process
   (shared across every experiment, so e.g. the baseline runs Figures
   10 and 12 both need are simulated once);
2. **disk cache** — results persisted by previous processes
   (:mod:`repro.harness.cache`), keyed by job hash + code fingerprint;
3. **simulation** — remaining jobs are deduplicated, grouped by
   program image (same ``(workload, scale)``) and fanned out over a
   supervised :class:`ProcessPool` (``REPRO_JOBS`` workers by
   default). Each worker process runs its whole group sequentially, so
   the program image and its predecode/superblock tables are built
   **once per group** instead of once per job. Workers rebuild
   programs from the job spec and ship stats back as plain dicts; the
   serial path round-trips through the same dict representation so
   parallel and serial batches are byte-identical.

Per-job failures are captured, not propagated mid-batch: every job
either yields stats or an error entry, and ``strict`` batches raise a
single :class:`JobFailure` naming all failed jobs at the end. Unlike
``multiprocessing.Pool`` — which silently respawns a worker killed
mid-task and leaves the consumer waiting forever for the lost result —
the pool supervises one dedicated process per in-flight job, so a
killed worker resolves its job to an error carrying the captured exit
code, and a job past its wall-clock deadline (``wall_seconds`` or the
``REPRO_JOB_TIMEOUT`` default) is terminated instead of hanging the
batch.
"""

import os
import queue as queue_mod
import time
import traceback

from repro.harness.cache import ResultCache
from repro.harness.jobs import SimJob  # noqa: F401  (re-export)
from repro.harness.jobs import execute
from repro.log import get_logger
from repro.pipeline.stats import SimStats

_log = get_logger("harness.runner")

#: job hash -> SimStats; process-lifetime memo (layer 1).
_MEMO = {}

_LAST_REPORT = None


class JobFailure(Exception):
    """One or more jobs in a strict batch failed."""

    def __init__(self, errors):
        self.errors = dict(errors)
        lines = ["%d job(s) failed:" % len(self.errors)]
        for job, message in self.errors.items():
            first = message.strip().splitlines()[-1] if message else "?"
            lines.append("  %s: %s" % (job.label(), first))
        super().__init__("\n".join(lines))


class BatchReport:
    """Outcome of one :func:`run_batch` call."""

    def __init__(self, jobs):
        self.jobs = list(jobs)
        self.results = {}        # SimJob -> SimStats (or None on error)
        self.errors = {}         # SimJob -> traceback string
        self.executed = 0        # simulations actually run
        self.memo_hits = 0
        self.disk_hits = 0
        self.groups = 0          # worker groups the executed jobs used
        self.program_loads = 0   # real program builds those groups paid

    @property
    def total(self):
        return len(self.jobs)

    def summary(self):
        return ("jobs=%d executed=%d memo_hits=%d disk_hits=%d "
                "errors=%d groups=%d program_loads=%d"
                % (self.total, self.executed, self.memo_hits,
                   self.disk_hits, len(self.errors), self.groups,
                   self.program_loads))


def default_jobs():
    """Worker count from ``REPRO_JOBS`` (0 means all CPUs; default 1)."""
    from repro.config import envreg
    value = envreg.get("REPRO_JOBS")
    if value <= 0:
        return os.cpu_count() or 1
    return value


def default_job_timeout():
    """Wall-clock timeout from ``REPRO_JOB_TIMEOUT`` (None when off)."""
    from repro.config import envreg
    value = envreg.get("REPRO_JOB_TIMEOUT")
    return float(value) if value and value > 0 else None


def group_jobs(jobs, n_slots):
    """Partition ``jobs`` into worker groups sharing a program image.

    Jobs with the same ``(workload, scale)`` build byte-identical
    programs (scales are rounded exactly like ``Workload.build``), so
    running them in one process amortises compilation, predecode and
    superblock construction across the group. Each image's jobs are
    split into at most ``n_slots // n_images`` contiguous chunks so a
    single-image batch still fans out across the pool rather than
    serialising on one worker.
    """
    images = {}
    order = []
    for job in jobs:
        key = (job.workload, round(float(job.scale), 6))
        if key not in images:
            images[key] = []
            order.append(key)
        images[key].append(job)
    n_slots = max(1, int(n_slots))
    per_image = max(1, n_slots // len(order)) if order else 1
    groups = []
    for key in order:
        image_jobs = images[key]
        n_chunks = min(len(image_jobs), per_image)
        size = -(-len(image_jobs) // n_chunks)
        for start in range(0, len(image_jobs), size):
            groups.append(image_jobs[start:start + size])
    return groups


def _run_one(job, timeout=None, store=None):
    """Execute one job; returns ``(job_hash, ok, payload)`` where the
    payload is a stats dict on success or a traceback string on error.
    Runs in pool workers and in the serial fallback alike. ``timeout``
    arms a wall-clock guard for jobs without their own
    ``wall_seconds`` (which :func:`execute` already enforces);
    ``store`` is the batch's store, for sampled jobs' checkpoints."""
    from repro.harness.jobs import _WallClock
    try:
        with _WallClock(None if job.wall_seconds else timeout):
            stats = execute(job, store=store)
        return job.job_hash(), True, stats.as_dict()
    except Exception:
        return job.job_hash(), False, traceback.format_exc()


def _group_worker(jobs, timeout, store, results, group_id):
    """Entry point of one worker process: run a whole job group.

    The group shares this process's workload build cache, so the
    program image (and its predecode/superblock tables) is built once
    however many same-image jobs follow. After the last job a *meta*
    record — keyed by the ``("meta", group_id)`` tuple, which can never
    collide with a job-hash string — ships the number of real program
    builds back to the parent, where it feeds
    ``BatchReport.program_loads``.
    """
    from repro.workloads.registry import build_count
    before = build_count()
    for job in jobs:
        results.put(_run_one(job, timeout, store))
    results.put((("meta", group_id), True,
                 {"program_builds": build_count() - before}))


def _pool_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


class _Slot:
    """One in-flight job group: its process and parent-side deadline.

    ``jobs`` maps job hash -> SimJob for every member; ``pending``
    holds the hashes still unresolved; ``meta_seen`` flips when the
    worker's trailing build-count record arrives (the slot is released
    only once both are done, so ``program_loads`` never loses a
    delta)."""

    __slots__ = ("proc", "jobs", "pending", "deadline", "timeout",
                 "group_id", "meta_seen")

    def __init__(self, proc, jobs, deadline, timeout, group_id):
        self.proc = proc
        self.jobs = jobs
        self.pending = set(jobs)
        self.deadline = deadline
        self.timeout = timeout
        self.group_id = group_id
        self.meta_seen = False


class ProcessPool:
    """Bounded fan-out of job groups over dedicated, supervised
    processes.

    Each submitted group runs sequentially in its own process (crash
    isolation: a worker that dies takes exactly one group with it, and
    its exit code is captured). :meth:`poll` resolves jobs three ways:

    * a result on the queue — success or a captured traceback;
    * a dead process without results for its unfinished jobs —
      ``worker died mid-job (exit code N)``, instead of the silent
      hang a ``multiprocessing.Pool`` exhibits when a worker is
      SIGKILLed;
    * a group past its deadline (the *sum* of its members' wall-clock
      budgets) — the process is terminated and the unfinished jobs
      resolve to timeout errors. The in-worker ``SIGALRM`` guard
      normally fires first (clean traceback); the parent-side kill is
      the backstop for workers too wedged to handle the signal.

    ``running`` maps job hash -> slot for every in-flight job.
    ``program_loads`` accumulates the real program-build counts the
    workers report. ``store`` is handed to every job the workers run
    (see :func:`~repro.harness.jobs.execute`).
    """

    #: Parent-side slack on top of the in-worker SIGALRM guard.
    GRACE = 2.0

    def __init__(self, n_jobs, job_timeout=None, ctx=None, store=None):
        self.n_jobs = max(1, int(n_jobs))
        self.job_timeout = job_timeout
        self.store = store
        self.ctx = ctx or _pool_context()
        self.results = self.ctx.Queue()
        self.running = {}             # job_hash -> _Slot
        self._slots = {}              # group_id -> _Slot
        self._next_group = 0
        self.program_loads = 0

    def free_slots(self):
        return self.n_jobs - len(self._slots)

    def active(self):
        """True while any group is still in flight."""
        return bool(self._slots)

    def submit_group(self, jobs):
        """Start a job group on one dedicated process (caller checks
        slots)."""
        jobs = list(jobs)
        group_id = self._next_group
        self._next_group += 1
        budget = 0.0
        unbounded = False
        for job in jobs:
            timeout = job.wall_seconds or self.job_timeout
            if timeout:
                budget += timeout
            else:
                unbounded = True
        proc = self.ctx.Process(
            target=_group_worker,
            args=(jobs, self.job_timeout, self.store, self.results,
                  group_id),
            daemon=True)
        proc.start()
        deadline = None if unbounded \
            else time.monotonic() + budget + self.GRACE
        slot = _Slot(proc, {job.job_hash(): job for job in jobs},
                     deadline, budget if not unbounded else None,
                     group_id)
        self._slots[group_id] = slot
        for job_hash in slot.jobs:
            self.running[job_hash] = slot

    def _release(self, slot):
        """Join and forget a group once its jobs *and* meta arrived."""
        if not slot.pending and slot.meta_seen \
                and slot.group_id in self._slots:
            del self._slots[slot.group_id]
            slot.proc.join()

    def _drop(self, slot, out, reason):
        """Resolve a dead/expired group's unfinished jobs to errors."""
        self._slots.pop(slot.group_id, None)
        for job_hash in sorted(slot.pending):
            self.running.pop(job_hash, None)
            job = slot.jobs[job_hash]
            out.append((job, False, reason % job.label()))
        slot.pending.clear()

    def _drain(self, out):
        while True:
            try:
                key, ok, payload = self.results.get_nowait()
            except queue_mod.Empty:
                return
            if isinstance(key, tuple):        # ("meta", group_id)
                slot = self._slots.get(key[1])
                self.program_loads += payload.get("program_builds", 0)
                if slot is not None:
                    slot.meta_seen = True
                    self._release(slot)
                continue
            slot = self.running.pop(key, None)
            if slot is None:          # already resolved (late result)
                continue
            slot.pending.discard(key)
            out.append((slot.jobs[key], ok, payload))
            self._release(slot)

    def _reap(self, out):
        now = time.monotonic()
        for group_id, slot in list(self._slots.items()):
            if not slot.proc.is_alive():
                # The process may have posted results between our last
                # drain and its exit; give the queue a moment to
                # deliver before declaring the worker dead.
                end = time.monotonic() + 0.25
                while time.monotonic() < end:
                    self._drain(out)
                    if group_id not in self._slots:
                        break
                    time.sleep(0.01)
                if group_id not in self._slots:
                    continue
                proc = slot.proc
                proc.join()
                self._drop(slot, out,
                           "worker died mid-job (exit code %s): %%s"
                           % proc.exitcode)
            elif slot.deadline is not None and now > slot.deadline:
                slot.proc.terminate()
                slot.proc.join(1.0)
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join()
                self._drop(slot, out,
                           "job exceeded wall-clock timeout (%.1fs); "
                           "worker terminated: %%s" % slot.timeout)

    def poll(self, block=0.0):
        """Collect finished jobs; returns ``[(job, ok, payload)]``.

        ``block``: seconds to wait for at least one completion (0 =
        return immediately with whatever is ready)."""
        out = []
        deadline = time.monotonic() + block
        while True:
            self._drain(out)
            self._reap(out)
            if out or time.monotonic() >= deadline:
                return out
            time.sleep(0.01)

    def close(self):
        """Terminate anything still running and release the queue."""
        for slot in self._slots.values():
            slot.proc.terminate()
        for slot in self._slots.values():
            slot.proc.join(1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join()
        self._slots.clear()
        self.running.clear()
        self.results.close()


def run_batch(jobs, n_jobs=None, cache=None, progress=None, strict=True,
              memo=_MEMO):
    """Resolve a batch of :class:`SimJob`; returns a :class:`BatchReport`.

    ``n_jobs``: worker processes (defaults to ``REPRO_JOBS``, serial if
    unset). ``cache``: a :class:`ResultCache`, ``None`` for the
    environment default, or ``False`` to disable disk caching; sampled
    jobs keep their checkpoints in the same store.
    ``progress``: optional callable ``(done, total, job, source)`` with
    source one of ``memo``/``disk``/``run``/``error``. ``strict``:
    raise :class:`JobFailure` if any job failed (otherwise failed jobs
    resolve to ``None`` stats). Pending jobs run in groups that share
    a program image (:func:`group_jobs`).
    """
    global _LAST_REPORT
    jobs = list(jobs)
    if cache is None:
        cache = ResultCache.from_env() or False
    n_jobs = n_jobs if n_jobs is not None else default_jobs()
    n_jobs = max(1, int(n_jobs))

    report = BatchReport(jobs)
    _LAST_REPORT = report
    if memo is None:
        memo = {}

    unique = {}                   # job_hash -> first SimJob instance
    for job in jobs:
        unique.setdefault(job.job_hash(), job)
    resolved = {}                 # job_hash -> SimStats
    failed = {}                   # job_hash -> traceback string
    done = [0]

    def _note(job, source):
        done[0] += 1
        if source == "error":
            _log.warning("[%d/%d] %s failed", done[0], len(unique),
                         job.label())
        else:
            _log.debug("[%d/%d] %s (%s)", done[0], len(unique),
                       job.label(), source)
        if progress is not None:
            progress(done[0], len(unique), job, source)

    pending = []
    for job_hash, job in unique.items():
        if job_hash in memo:
            resolved[job_hash] = memo[job_hash]
            report.memo_hits += 1
            _note(job, "memo")
            continue
        if cache:
            stats_dict = cache.get(job)
            if stats_dict is not None:
                stats = SimStats.from_dict(stats_dict)
                memo[job_hash] = stats
                resolved[job_hash] = stats
                report.disk_hits += 1
                _note(job, "disk")
                continue
        pending.append(job)

    def _absorb(job, job_hash, ok, payload):
        if ok:
            stats = SimStats.from_dict(payload)
            memo[job_hash] = stats
            resolved[job_hash] = stats
            report.executed += 1
            if cache:
                cache.put(job, payload)
            _note(job, "run")
        else:
            failed[job_hash] = payload
            _note(job, "error")

    if pending:
        groups = group_jobs(pending, n_jobs)
        report.groups = len(groups)
        _log.info("batch: %d job(s), %d cached (%d memo, %d disk), "
                  "simulating %d in %d group(s) on %d worker(s)",
                  len(unique), report.memo_hits + report.disk_hits,
                  report.memo_hits, report.disk_hits, len(pending),
                  len(groups), min(n_jobs, len(groups)))
        timeout = default_job_timeout()
        if n_jobs > 1 and len(pending) > 1:
            pool = ProcessPool(min(n_jobs, len(groups)),
                               job_timeout=timeout, store=cache)
            try:
                backlog = iter(groups)
                next_group = next(backlog, None)
                while next_group is not None or pool.active():
                    while next_group is not None and pool.free_slots():
                        pool.submit_group(next_group)
                        next_group = next(backlog, None)
                    for job, ok, payload in pool.poll(block=0.1):
                        _absorb(job, job.job_hash(), ok, payload)
            finally:
                pool.close()
            report.program_loads = pool.program_loads
        else:
            from repro.workloads.registry import build_count
            before = build_count()
            for group in groups:
                for job in group:
                    job_hash, ok, payload = _run_one(job, timeout, cache)
                    _absorb(job, job_hash, ok, payload)
            report.program_loads = build_count() - before

    for job in jobs:
        job_hash = job.job_hash()
        report.results[job] = resolved.get(job_hash)
        if job_hash in failed:
            report.errors[job] = failed[job_hash]
    if report.errors and strict:
        raise JobFailure(report.errors)
    return report


def submit(jobs, n_jobs=None, cache=None, progress=None, strict=True):
    """Run a batch and return ``{SimJob: SimStats}``.

    The convenience front door used by the experiment stack: layered
    caching included, duplicate jobs deduplicated, results keyed by the
    job objects so call sites index with the jobs they built.
    """
    return run_batch(jobs, n_jobs=n_jobs, cache=cache, progress=progress,
                     strict=strict).results


def last_report():
    """The :class:`BatchReport` of the most recent batch (or None)."""
    return _LAST_REPORT


def clear_memo():
    """Drop the in-process result memo (mainly for tests)."""
    _MEMO.clear()
