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
"""

import dataclasses

from repro.isa.instruction import INST_BYTES
from repro.isa.superblock import (
    FLAG_CALL,
    FLAG_COND,
    FLAG_INDIRECT,
    FLAG_RET,
)
from repro.obs.bus import Observability
from repro.pipeline.core import O3Core
from repro.pipeline.stats import SimStats
from repro.sampling.bbv import DEFAULT_INTERVAL, profile_program
from repro.sampling.checkpoint import (
    DEFAULT_WARMUP_BRANCHES,
    DEFAULT_WARMUP_MEM,
    Checkpoint,
    capture_checkpoints,
    spec_key,
)
from repro.sampling.simpoint import (
    DEFAULT_DIMS,
    DEFAULT_SEED,
    SimPointSelection,
    pick_simpoints,
)


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
        if self.interval_insts <= 0:
            raise ValueError("interval_insts must be positive")
        if self.max_k <= 0:
            raise ValueError("max_k must be positive")
        if self.detail_warmup_insts < 0:
            raise ValueError("detail_warmup_insts must be >= 0")

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
    def weighted_ipc(self):
        return _weighted_ipc(self.runs)

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


def _stats_delta(after, before):
    """``after - before`` for every integer counter (and the stream-
    distance histogram); used to discard the detailed-warmup slice."""
    delta = SimStats()
    for name, value in vars(after).items():
        if isinstance(value, int):
            setattr(delta, name, value - getattr(before, name))
    delta.stream_distance_hist = {
        distance: count - before.stream_distance_hist.get(distance, 0)
        for distance, count in after.stream_distance_hist.items()
        if count - before.stream_distance_hist.get(distance, 0)}
    delta.ri_set_replacements = after.ri_set_replacements
    return delta


def _stats_copy(stats):
    copy = SimStats()
    for name, value in vars(stats).items():
        if isinstance(value, int):
            setattr(copy, name, value)
    copy.stream_distance_hist = dict(stats.stream_distance_hist)
    return copy


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


def _weighted_ipc(runs):
    cpi = _weighted_cpi(runs)
    return 1.0 / cpi if cpi else 0.0


def aggregate_stats(runs, total_insts):
    """Extrapolate per-interval stats to a whole-program estimate.

    Cycles follow the SimPoint estimate (instruction-weighted mean of
    interval CPIs, scaled to the full dynamic instruction count);
    every other counter is extrapolated from the weighted
    per-instruction rate, so e.g. ``branch_mpki`` of the estimate is
    the weighted mix of the sampled intervals' rates.
    """
    est = SimStats()
    est.committed_insts = total_insts
    est.cycles = int(round(total_insts * _weighted_cpi(runs)))
    total_weight = sum(run.point.weight for run in runs) or 1.0

    skip = {"cycles", "committed_insts", "ri_set_replacements",
            "stream_distance_hist"}
    for name, value in vars(est).items():
        if name in skip or not isinstance(value, int):
            continue
        rate = sum(run.point.weight
                   * getattr(run.stats, name) / run.stats.committed_insts
                   for run in runs if run.stats.committed_insts)
        setattr(est, name, int(round(rate / total_weight * total_insts)))
    hist = {}
    for run in runs:
        insts = run.stats.committed_insts
        if not insts:
            continue
        for distance, count in run.stats.stream_distance_hist.items():
            hist[distance] = hist.get(distance, 0) \
                + run.point.weight * count / insts
    est.stream_distance_hist = {
        distance: int(round(value / total_weight * total_insts))
        for distance, value in hist.items()}
    return est


# ---------------------------------------------------------------------------
# The sampled run
# ---------------------------------------------------------------------------
def _prepare(program, spec, store, key_spec, max_insts):
    """Selection + checkpoints, through the store when one is given."""
    key = None
    if store is not None and key_spec is not None:
        key = spec_key({"sampling": spec.spec(), "target": key_spec})
        payload = store.get(key)
        if payload is not None:
            selection = SimPointSelection.from_dict(payload["selection"])
            checkpoints = {
                int(boundary): Checkpoint.from_dict(data)
                for boundary, data in payload["checkpoints"].items()}
            return selection, checkpoints, payload["total_insts"]

    profile = profile_program(program, spec.interval_insts,
                              max_insts=max_insts)
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


def run_sampled(program, config=None, scheme_factory=None, spec=None,
                obs=None, max_cycles=None, store=None, key_spec=None,
                max_insts=50_000_000):
    """Run a SimPoint-sampled detailed simulation of ``program``.

    ``scheme_factory`` builds a fresh reuse scheme per interval (scheme
    objects are stateful and bind to one core). ``obs`` is an optional
    outer :class:`Observability` bus: its sinks observe every interval,
    bracketed by ``interval`` begin/end events, so traces and lockstep
    checkers segment a sampled run cleanly; each interval still gets
    its own stats. ``store`` + ``key_spec`` enable the on-disk
    checkpoint store (selection + checkpoints persist across runs).

    Returns a :class:`SampledResult`.
    """
    spec = SamplingSpec.from_any(spec) or SamplingSpec()
    selection, checkpoints, total_insts = _prepare(
        program, spec, store, key_spec, max_insts)

    runs = []
    for point in selection.points:
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
        warm_stats = _stats_copy(core.stats)
        interval_obs.interval_boundary("begin", point.index,
                                       point.start_inst, point.num_insts,
                                       point.weight)
        result = core.run(max_cycles=max_cycles,
                          max_insts=point.num_insts)
        interval_obs.interval_boundary("end", point.index,
                                       point.start_inst, point.num_insts,
                                       point.weight)
        runs.append(IntervalRun(point,
                                _stats_delta(result.stats, warm_stats)))

    stats = aggregate_stats(runs, total_insts)
    return SampledResult(spec, selection, runs, stats, total_insts)
