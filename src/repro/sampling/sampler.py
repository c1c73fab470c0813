"""Sampled detailed simulation: warm-started interval runs.

``run_sampled`` glues the subsystem together: profile the program into
BBV intervals (:mod:`~repro.sampling.bbv`), pick representative
intervals (:mod:`~repro.sampling.simpoint`), capture architectural
checkpoints at their boundaries (:mod:`~repro.sampling.checkpoint`),
then run each chosen interval on the *detailed* out-of-order core —
injected with the checkpoint's architectural state and functionally
warmed (recent branches replayed through predictor/BTB/RAS, recent
memory accesses through the cache hierarchy) — and aggregate the
per-interval statistics into a whole-program estimate weighted by the
SimPoint cluster weights.

The aggregate is an ordinary :class:`~repro.pipeline.stats.SimStats`
(committed instructions = the full run's dynamic count, cycles derived
from the weighted CPI, event counters extrapolated from per-interval
rates), so sampled results flow through the harness result cache and
the analysis stack unchanged.

Each interval starts from its own checkpoint and builds its own core,
so the intervals are independent: ``run_sampled`` forks one worker per
usable CPU but one, gives each a round-robin share of the selected
intervals, runs the first share itself, and reads the workers' interval
stats back as ``SimStats.as_dict()`` records over pipes. The result is
the same as simulating every interval in this process, which it does
whenever forking is unsafe or cannot help (:func:`interval_workers`).
"""

import dataclasses
import os
import threading
import traceback

from repro.isa.instruction import INST_BYTES
from repro.isa.superblock import (
    FLAG_CALL,
    FLAG_COND,
    FLAG_INDIRECT,
    FLAG_RET,
)
from repro.obs.bus import Observability
from repro.pipeline.config import _check_positive
from repro.pipeline.core import O3Core
from repro.pipeline.stats import SimStats
from repro.sampling.bbv import DEFAULT_INTERVAL, profile_program
from repro.sampling.checkpoint import (
    DEFAULT_WARMUP_BRANCHES,
    DEFAULT_WARMUP_MEM,
    Checkpoint,
    capture_checkpoints,
)
from repro.sampling.simpoint import (
    DEFAULT_DIMS,
    DEFAULT_SEED,
    SimPointSelection,
    pick_simpoints,
)
from repro.utils.hashing import canonical_hash


@dataclasses.dataclass(frozen=True)
class SamplingSpec:
    """Knobs of one sampled simulation (hash-canonical, JSON-able).

    ``detail_warmup_insts`` instructions are simulated in *detail*
    before each measured interval and their stats discarded: the
    functional trace replay warms predictors and caches, but only real
    detailed execution restores the in-flight overlap (a full window,
    outstanding misses) the interval would have had mid-run, which
    matters most on memory-bound phases.
    """

    interval_insts: int = DEFAULT_INTERVAL
    max_k: int = 8
    dims: int = DEFAULT_DIMS
    warmup_branches: int = DEFAULT_WARMUP_BRANCHES
    warmup_mem: int = DEFAULT_WARMUP_MEM
    detail_warmup_insts: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_positive(self, "interval_insts", "max_k", "dims")
        # 0 disables a warmup.
        for name in ("warmup_branches", "warmup_mem",
                     "detail_warmup_insts"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0, got %r"
                                 % (name, getattr(self, name)))

    @classmethod
    def from_any(cls, value):
        """Coerce None / dict / pair-tuple / SamplingSpec to a spec."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        return cls(**dict(value))

    def spec(self):
        """Canonical JSON-able description (checkpoint-store key input)."""
        return dataclasses.asdict(self)


class IntervalRun:
    """Detailed stats of one simulated interval."""

    __slots__ = ("point", "stats")

    def __init__(self, point, stats):
        self.point = point
        self.stats = stats

    def __repr__(self):
        return "<IntervalRun interval=%d weight=%.3f ipc=%.3f>" % (
            self.point.index, self.point.weight, self.stats.ipc)


class SampledResult:
    """Weighted whole-program estimate from a few detailed intervals.

    ``stats`` is the extrapolated :class:`SimStats`; ``runs`` keeps the
    raw per-interval stats, ``selection`` the clustering (including the
    heuristic ``error_bound``), and ``detailed_insts`` the number of
    instructions actually simulated in detail (the cost).
    """

    def __init__(self, spec, selection, runs, stats, total_insts):
        self.spec = spec
        self.selection = selection
        self.runs = list(runs)
        self.stats = stats
        self.total_insts = total_insts

    @property
    def ipc(self):
        return self.stats.ipc

    @property
    def error_bound(self):
        return self.selection.error_bound

    @property
    def detailed_insts(self):
        return sum(run.stats.committed_insts
                   + min(self.spec.detail_warmup_insts,
                         run.point.start_inst)
                   for run in self.runs)

    def summary(self):
        return ("sampled IPC=%.3f (%d/%d interval(s), %d/%d insts "
                "detailed, err<=%.3f)"
                % (self.ipc, len(self.runs),
                   self.selection.num_intervals, self.detailed_insts,
                   self.total_insts, self.error_bound))

    def __repr__(self):
        return "<SampledResult %s>" % self.summary()


# ---------------------------------------------------------------------------
# Functional frontend warmup
# ---------------------------------------------------------------------------
def warm_frontend(core, checkpoint, warmup_branches=None, warmup_mem=None):
    """Replay the checkpoint's warmup traces into the core's frontend.

    Branches train the direction predictor exactly as the pipeline
    would at commit (predict, repair history on a mispredict, update);
    indirect targets install into the BTB, calls/returns replay through
    the RAS, and memory accesses prime the cache hierarchy. Purely
    functional: cycle 0 has not happened yet.
    """
    predictor = core.predictor
    branch_trace = checkpoint.branch_trace
    if warmup_branches is not None:
        branch_trace = branch_trace[-warmup_branches:] \
            if warmup_branches else []
    # Ported hierarchy: the branch trace's PCs double as an L1I/L2
    # instruction-side warmup (the flat model has no shared icache).
    warm_inst = getattr(core.hierarchy, "warm_inst", None)
    for pc, taken, target, flags in branch_trace:
        if warm_inst is not None:
            warm_inst(pc)
        taken = bool(taken)
        if flags & FLAG_COND:
            pred_taken, meta = predictor.predict(pc)
            if pred_taken != taken:
                predictor.recover_branch(pc, taken, meta)
            predictor.update(pc, taken, meta)
            continue
        if flags & FLAG_RET:
            core.ras.pop()
        if flags & FLAG_CALL:
            core.ras.push(pc + INST_BYTES)
        if flags & FLAG_INDIRECT:
            core.btb.install(pc, target)
    mem_trace = checkpoint.mem_trace
    if warmup_mem is not None:
        mem_trace = mem_trace[-warmup_mem:] if warmup_mem else []
    for addr, is_write in mem_trace:
        core.hierarchy.warm(addr, is_write=bool(is_write))


#: :class:`SimStats` fields that are not plain counters. Every other
#: field is an integer counter: an interval keeps what its measured
#: window added, and the estimate extrapolates it from the weighted
#: per-instruction rate.
#:
#: * ``KEYED_STATS`` hold one counter per key (a histogram bucket, a
#:   stall reason) and are treated like counters key by key.
#: * ``PEAK_STATS`` are running maxima. An interval reports its
#:   detailed run's peak, which includes the detailed warmup; the
#:   estimate takes the maximum over intervals.
#: * ``PASSED_STATS`` pass through each interval as its run reported
#:   them and stay unset in the estimate (the RI set-replacement table).
KEYED_STATS = ("stream_distance_hist", "fetch_stall_reasons")
PEAK_STATS = ("mem_mshr_peak",)
PASSED_STATS = ("ri_set_replacements",)


def _stats_delta(after, before):
    """The stats of what ran between ``before`` and ``after`` (see
    ``KEYED_STATS``); used to discard the detailed-warmup slice."""
    delta = SimStats()
    for name, value in vars(after).items():
        if name in KEYED_STATS:
            earlier = getattr(before, name)
            value = {key: count - earlier.get(key, 0)
                     for key, count in value.items()
                     if count - earlier.get(key, 0)}
        elif name not in PEAK_STATS and name not in PASSED_STATS:
            value -= getattr(before, name)
        setattr(delta, name, value)
    return delta


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def _weighted_cpi(runs):
    """SimPoint estimate: cluster-weighted mean of interval CPIs."""
    total_weight = sum(run.point.weight for run in runs)
    if not total_weight:
        return 0.0
    return sum(run.point.weight * run.stats.cycles
               / run.stats.committed_insts
               for run in runs if run.stats.committed_insts) / total_weight


def aggregate_stats(runs, total_insts):
    """Extrapolate per-interval stats to a whole-program estimate.

    Cycles follow the SimPoint estimate (instruction-weighted mean of
    interval CPIs, scaled to the full dynamic instruction count);
    every other counter, and every key of a ``KEYED_STATS`` field, is
    extrapolated from the weighted per-instruction rate, so e.g.
    ``branch_mpki`` of the estimate is the weighted mix of the sampled
    intervals' rates. Peaks are the maximum over intervals.
    """
    est = SimStats()
    est.committed_insts = total_insts
    est.cycles = int(round(total_insts * _weighted_cpi(runs)))
    total_weight = sum(run.point.weight for run in runs) or 1.0
    measured = [run for run in runs if run.stats.committed_insts]

    def extrapolate(counts):
        """Whole-program count from one count per measured run."""
        rate = sum(run.point.weight * count / run.stats.committed_insts
                   for run, count in zip(measured, counts))
        return int(round(rate / total_weight * total_insts))

    skip = {"cycles", "committed_insts", *KEYED_STATS, *PEAK_STATS,
            *PASSED_STATS}
    for name in vars(est):
        if name not in skip:
            setattr(est, name, extrapolate(
                [getattr(run.stats, name) for run in measured]))
    for name in KEYED_STATS:
        per_run = [getattr(run.stats, name) for run in measured]
        keys = dict.fromkeys(key for counts in per_run for key in counts)
        setattr(est, name, {
            key: extrapolate([counts.get(key, 0) for counts in per_run])
            for key in keys})
    for name in PEAK_STATS:
        setattr(est, name, max((getattr(run.stats, name) for run in runs),
                               default=0))
    return est


# ---------------------------------------------------------------------------
# Selection, checkpoints and one interval
# ---------------------------------------------------------------------------
def _prepare(program, spec, store, key_spec):
    """Selection + checkpoints, through the store when one is given."""
    key = None
    if store is not None and key_spec is not None:
        key = canonical_hash({"sampling": spec.spec(), "target": key_spec})
        payload = store.get(key)
        if payload is not None:
            selection = SimPointSelection.from_dict(payload["selection"])
            checkpoints = {
                int(boundary): Checkpoint.from_dict(data)
                for boundary, data in payload["checkpoints"].items()}
            return selection, checkpoints, payload["total_insts"]

    profile = profile_program(program, spec.interval_insts)
    selection = pick_simpoints(profile, max_k=spec.max_k, dims=spec.dims,
                               seed=spec.seed)
    boundaries = {max(0, p.start_inst - spec.detail_warmup_insts)
                  for p in selection.points}
    checkpoints = capture_checkpoints(
        program, [b for b in boundaries if b > 0],
        warmup_branches=spec.warmup_branches,
        warmup_mem=spec.warmup_mem)
    if key is not None:
        store.put(key, {
            "selection": selection.as_dict(),
            "total_insts": profile.total_insts,
            "checkpoints": {"%d" % boundary: ckpt.as_dict()
                            for boundary, ckpt in checkpoints.items()},
        })
    return selection, checkpoints, profile.total_insts


def _run_interval(program, config, scheme_factory, spec, checkpoints,
                  point, obs, max_cycles):
    """Detailed stats of one selected interval: restore its checkpoint,
    warm the frontend, simulate the detailed warmup, then measure
    ``point.num_insts`` instructions. Serves this process's share of
    the intervals and every forked worker's alike."""
    interval_obs = Observability()
    if obs is not None:
        for sink in obs.sinks:
            interval_obs.attach(sink)
    scheme = scheme_factory() if scheme_factory is not None else None
    boundary = max(0, point.start_inst - spec.detail_warmup_insts)
    init_state = None
    checkpoint = None
    if boundary > 0:
        checkpoint = checkpoints[boundary]
        init_state = checkpoint.initial_state()
    core = O3Core(program, config, reuse_scheme=scheme,
                  obs=interval_obs, init_state=init_state)
    if checkpoint is not None:
        warm_frontend(core, checkpoint,
                      warmup_branches=spec.warmup_branches,
                      warmup_mem=spec.warmup_mem)
    if point.start_inst > boundary:
        # Detailed warmup: simulate up to the interval start and
        # discard the slice's stats — this restores the in-flight
        # pipeline/miss overlap a mid-run window would have.
        core.run(max_cycles=max_cycles,
                 max_insts=point.start_inst - boundary)
    warm_stats = SimStats.from_dict(core.stats.as_dict())
    interval_obs.interval_boundary("begin", point.index, point.start_inst,
                                   point.num_insts, point.weight)
    result = core.run(max_cycles=max_cycles, max_insts=point.num_insts)
    interval_obs.interval_boundary("end", point.index, point.start_inst,
                                   point.num_insts, point.weight)
    return _stats_delta(result.stats, warm_stats)


# ---------------------------------------------------------------------------
# Concurrent intervals
# ---------------------------------------------------------------------------
def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def interval_workers(n_points, obs=None):
    """How many workers to fork for ``n_points`` selected intervals:
    one fewer than the intervals that can run at once, or 0 to keep
    every interval in this process. They stay here when ``obs`` has
    sinks (events must reach them in order), when this process is a
    multiprocessing child (the harness pool's daemonic workers may not
    fork, and already fill the CPUs), when other threads run or
    ``fork`` does not exist, and when one CPU is usable."""
    if n_points < 2 or (obs is not None and obs.sinks):
        return 0
    # Imported here, not at the top: a process that never fans out
    # (most load the sampler) then does not pay ~1 MB of RSS for it.
    import multiprocessing
    if multiprocessing.parent_process() is not None \
            or threading.active_count() > 1 \
            or "fork" not in multiprocessing.get_all_start_methods():
        return 0
    return min(n_points, usable_cpus()) - 1


class _WorkerTraceback(Exception):
    """A forked interval worker's traceback: the cause of the worker's
    exception when the caller re-raises it."""


def _interval_worker(conn, run_share, share):
    """Body of a forked worker: send its share's interval stats as
    ``as_dict()`` records, or the exception that stopped it."""
    import pickle
    try:
        message = ("ok", [stats.as_dict() for stats in run_share(share)])
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError("%s: %s" % (type(exc).__name__, exc))
        message = ("error", exc, traceback.format_exc())
    conn.send(message)
    conn.close()


def _run_shares(run_share, n_shares):
    """Run share 0 in this process and shares 1.. on forked workers;
    returns every share's interval stats, in share order.

    A worker's exception is re-raised here, and a worker that dies
    without a result raises an error naming its exit code. Pipes are
    read before workers are joined (a worker blocks until its result
    is read), and live workers are terminated on the way out, so a
    ``SIGALRM`` wall-clock guard in this process still stops the run.
    """
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for share in range(1, n_shares):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_interval_worker,
                               args=(writer, run_share, share), daemon=True)
            proc.start()
            writer.close()
            workers.append((proc, reader))
        results = [run_share(0)]
        for proc, reader in workers:
            try:
                message = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    "sampled-interval worker %d exited with code %s "
                    "before sending its stats"
                    % (proc.pid, proc.exitcode)) from None
            if message[0] == "error":
                raise message[1] from _WorkerTraceback(message[2])
            results.append([SimStats.from_dict(data)
                            for data in message[1]])
        return results
    finally:
        for proc, reader in workers:
            reader.close()
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():
                proc.kill()
            proc.join()


# ---------------------------------------------------------------------------
# The sampled run
# ---------------------------------------------------------------------------
def run_sampled(program, config=None, scheme_factory=None, spec=None,
                obs=None, max_cycles=None, store=None, key_spec=None):
    """Run a SimPoint-sampled detailed simulation of ``program``.

    ``scheme_factory`` builds a fresh reuse scheme per interval (scheme
    objects are stateful and bind to one core); it may run in a forked
    worker. ``obs`` is an optional outer :class:`Observability` bus:
    its sinks observe every interval, bracketed by ``interval``
    begin/end events, so traces and lockstep checkers segment a sampled
    run cleanly; each interval still gets its own stats, and with sinks
    attached every interval runs in this process, in selection order.
    ``store`` + ``key_spec`` enable the on-disk checkpoint store
    (selection + checkpoints persist across runs).

    Intervals run concurrently on forked workers when
    :func:`interval_workers` allows it; the result does not depend on
    where they ran. Returns a :class:`SampledResult`.
    """
    spec = SamplingSpec.from_any(spec) or SamplingSpec()
    selection, checkpoints, total_insts = _prepare(
        program, spec, store, key_spec)
    points = selection.points
    n_shares = interval_workers(len(points), obs) + 1

    def run_share(share):
        return [_run_interval(program, config, scheme_factory, spec,
                              checkpoints, point, obs, max_cycles)
                for point in points[share::n_shares]]

    interval_stats = [None] * len(points)
    shares = _run_shares(run_share, n_shares) if n_shares > 1 \
        else [run_share(0)]
    for share, share_stats in enumerate(shares):
        interval_stats[share::n_shares] = share_stats
    runs = [IntervalRun(point, stats)
            for point, stats in zip(points, interval_stats)]
    stats = aggregate_stats(runs, total_insts)
    return SampledResult(spec, selection, runs, stats, total_insts)
