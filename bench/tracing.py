"""Outside-in per-layer tracing for the benchmark.

The tracer times the simulator's layers without touching ``src/``: it
wraps public functions and methods in place and restores every one of
them on :meth:`Tracer.uninstall`.

* Class methods are wrapped on the class (stage ``tick``s, the squash
  unit, the frontend, the reuse schemes, the memory models, the
  emulator, the stores).
* Module functions are rebound where their caller looks them up (for
  example ``repro.harness.runner.execute`` and the sampler's phase
  functions), so a name imported into two modules is rebound in both.

Two kinds of wrapper bound the cost and the memory of a trace:

* *Coarse* calls (a cell, ``O3Core.run``, an emulator pass, a build, a
  store or cache access, a harness job) each become one span with an
  id, a parent, a name, a start and an end.
* *Fine* calls (everything that runs per simulated cycle) are not kept
  one by one: they are aggregated under their innermost coarse span as
  ``[count, total_s, self_s]``. A ``gap-mem`` cell makes about a
  million of them.

Self time is a call's duration minus the time of the wrapped calls it
made. Batch workers are forked, so they inherit the wrappers; each
worker appends its job's span tree to ``<dir>/worker-<pid>.jsonl`` as
each ``execute`` returns, and :func:`collect_worker_spans` merges them.
"""

import collections
import contextlib
import functools
import importlib
import json
import os
import statistics
import time

COARSE = "coarse"
FINE = "fine"

#: What the tracer wraps: (module, attribute path, call name, kind).
#: Several attributes may share a call name; their times add up.
TARGETS = (
    ("repro.pipeline.core", "O3Core.run", "pipeline.run", COARSE),
    ("repro.pipeline.stages.commit", "CommitStage.tick", "pipeline.commit",
     FINE),
    ("repro.pipeline.stages.writeback", "WritebackStage.tick",
     "pipeline.writeback", FINE),
    ("repro.pipeline.stages.execute", "ExecuteStage.tick",
     "pipeline.execute", FINE),
    ("repro.pipeline.stages.rename", "RenameDispatchStage.tick",
     "pipeline.rename", FINE),
    ("repro.pipeline.stages.fetch", "FetchStage.tick", "pipeline.fetch",
     FINE),
    ("repro.pipeline.stages.squash", "SquashUnit.apply", "pipeline.squash",
     FINE),
    ("repro.frontend.fetch", "FetchUnit.fetch_block", "frontend.fetch_block",
     FINE),
    ("repro.frontend.fetch", "FetchUnit.tick", "frontend.tick", FINE),
    ("repro.frontend.fetch", "FetchUnit.squash_ftq_after", "frontend.squash",
     FINE),
    ("repro.frontend.fetch", "FetchUnit.redirect", "frontend.squash", FINE),
    ("repro.mem.hierarchy", "MemoryHierarchy.access", "mem.access", FINE),
    ("repro.mem.ports", "MemPort.request", "mem.access", FINE),
    ("repro.mem.ports", "PortedICache.access", "mem.icache", FINE),
    ("repro.frontend.icache", "InstructionCache.access", "mem.access", FINE),
    ("repro.mssr.controller", "MSSRController.on_fetch_block",
     "mssr.fetch_block", FINE),
    ("repro.mssr.controller", "MSSRController.on_wrong_path_block",
     "mssr.fetch_block", FINE),
    ("repro.mssr.controller", "MSSRController.on_branch_squash",
     "mssr.branch_squash", FINE),
    ("repro.mssr.controller", "MSSRController.wants_preg",
     "mssr.branch_squash", FINE),
    ("repro.mssr.controller", "MSSRController.on_replay_squash",
     "mssr.branch_squash", FINE),
    ("repro.mssr.controller", "MSSRController.try_reuse", "mssr.try_reuse",
     FINE),
    ("repro.mssr.controller", "MSSRController.on_cycle", "mssr.cycle", FINE),
    ("repro.mssr.controller", "MSSRController.on_store_executed",
     "mssr.hazard", FINE),
    ("repro.mssr.controller", "MSSRController.on_verify_fail", "mssr.hazard",
     FINE),
) + tuple(
    ("repro.baselines.register_integration", "RegisterIntegration." + hook,
     "baselines.ri", FINE)
    for hook in ("attach", "on_branch_squash", "wants_preg", "try_reuse",
                 "on_preg_freed", "emergency_release", "on_verify_fail",
                 "finalize")
) + (
    ("repro.emu.emulator", "Emulator.run_until", "emu.run", COARSE),
    ("repro.sampling.sampler", "run_sampled", "sampling.run_sampled",
     COARSE),
    ("repro.sampling.sampler", "profile_program", "sampling.profile",
     COARSE),
    ("repro.sampling.sampler", "pick_simpoints", "sampling.simpoints",
     COARSE),
    ("repro.sampling.sampler", "capture_checkpoints", "sampling.checkpoints",
     COARSE),
    ("repro.sampling.sampler", "warm_frontend", "sampling.warm", COARSE),
    ("repro.sampling.checkpoint", "CheckpointStore.get",
     "sampling.store_get", COARSE),
    ("repro.sampling.checkpoint", "CheckpointStore.put",
     "sampling.store_put", COARSE),
    ("repro.workloads.registry", "Workload.build", "workloads.build",
     COARSE),
    ("repro.compiler.module", "Module.build", "workloads.build", COARSE),
    ("repro.workloads.gap.common", "graph_for_scale", "workloads.build",
     COARSE),
    ("repro.isa.program", "Program.predecode", "isa.predecode", COARSE),
    ("repro.isa.program", "Program.superblocks", "isa.predecode", COARSE),
    ("repro.harness.runner", "run_batch", "harness.run_batch", COARSE),
    ("repro.harness.runner", "execute", "harness.execute", COARSE),
    ("repro.harness.cache", "ResultCache.get", "harness.cache_get", COARSE),
    ("repro.harness.cache", "ResultCache.put", "harness.cache_put", COARSE),
    ("repro.harness.jobs", "SimJob.job_hash", "harness.job_hash", FINE),
    ("repro.harness.cache", "code_fingerprint", "harness.fingerprint",
     COARSE),
    ("repro.sampling.checkpoint", "code_fingerprint", "harness.fingerprint",
     COARSE),
)


# ---------------------------------------------------------------------------
# Counters read at coarse-span boundaries
# ---------------------------------------------------------------------------
_RUN_COUNTERS = ("cycles", "committed_insts", "fetched_insts",
                 "squashed_insts", "cond_branches", "cond_mispredicts",
                 "reuse_tests", "reuse_successes")


def _l1d(core):
    stats = core.hierarchy.stats()
    if "l1d_hits" in stats:
        return stats["l1d_hits"], stats["l1d_misses"]
    return stats["l1_hits"], stats["l1_misses"]


def _run_before(core, *_args, **_kwargs):
    stats = core.stats
    return [getattr(stats, name) for name in _RUN_COUNTERS] + \
        list(_l1d(core))


def _run_after(before, _result, core, *_args, **_kwargs):
    stats = core.stats
    now = [getattr(stats, name) for name in _RUN_COUNTERS] + \
        list(_l1d(core))
    counts = dict(zip(_RUN_COUNTERS + ("l1d_hits", "l1d_misses"),
                      (b - a for a, b in zip(before, now))))
    counts["mshr_peak"] = stats.mem_mshr_peak
    counts["scheme"] = core.scheme.name
    return counts


def _emu_before(emu, *_args, **_kwargs):
    return emu.inst_count


def _emu_after(before, _result, emu, *_args, **_kwargs):
    return {"insts": emu.inst_count - before}


def _batch_after(_before, report, *_args, **_kwargs):
    return {"program_loads": report.program_loads}


#: Counters recorded on the spans of some coarse calls.
COUNTERS = {
    "pipeline.run": (_run_before, _run_after),
    "emu.run": (_emu_before, _emu_after),
    "harness.run_batch": (lambda *a, **k: None, _batch_after),
}


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------
def _resolve(module_name, path):
    """``(owner, attribute name)`` of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``worker_dir`` is where forked batch workers write their span
    trees. Use as ``tracer.install()`` ... ``tracer.uninstall()``
    (or a ``with`` block), and :meth:`span` for the benchmark's own
    spans around cells and set-up.
    """

    def __init__(self, worker_dir=None):
        self.worker_dir = worker_dir
        self.clock = time.perf_counter
        self._saved = []
        self._reset(os.getpid(), None)

    def _reset(self, pid, fork_parent):
        self.pid = pid
        self.fork_parent = fork_parent
        self.spans = []
        self._next_id = 0
        self.root = self._new_span("root", None)
        if fork_parent is not None:
            # A worker's root stands for the parent's span that was
            # open at fork time, so the worker's spans hang under it.
            self.root["id"] = fork_parent
        self.root["start"] = self.clock()
        # Open frames: [child seconds, span] for coarse calls and
        # [child seconds] for fine ones. The root frame absorbs fine
        # calls made outside any coarse span.
        self.stack = [[0.0, self.root]]
        self.current = self.root

    def _new_span(self, name, parent):
        self._next_id += 1
        return {"id": "%d-%d" % (self.pid, self._next_id),
                "parent": parent["id"] if parent is not None
                else self.fork_parent,
                "name": name, "start": 0.0, "end": 0.0, "self_s": 0.0,
                "calls": {}, "counts": {}}

    # -- spans ----------------------------------------------------------
    def _enter(self, name):
        if os.getpid() != self.pid:
            # First traced call in a forked worker: drop the parent's
            # state and hang this process's spans under the span that
            # was open when the worker forked.
            self._reset(os.getpid(), self.current["id"])
        span = self._new_span(name, self.current)
        frame = [0.0, span]
        self.stack.append(frame)
        self.current = span
        span["start"] = self.clock()
        return frame

    def _exit(self, frame):
        end = self.clock()
        span = frame[1]
        span["end"] = end
        duration = end - span["start"]
        span["self_s"] = duration - frame[0]
        self.stack.pop()
        parent = self.stack[-1]
        parent[0] += duration
        self.current = parent[1]
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        """Context manager recording one coarse span."""
        frame = self._enter(name)
        try:
            yield frame[1]
        finally:
            self._exit(frame)

    def finish(self):
        """Close the root span; returns every span recorded here."""
        root = self.root
        root["end"] = self.clock()
        root["self_s"] = root["end"] - root["start"] - self.stack[0][0]
        return self.spans + [root]

    # -- wrappers -------------------------------------------------------
    def _coarse(self, name, fn):
        before, after = COUNTERS.get(name, (None, None))
        worker_jobs = name == "harness.execute"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            state = before(*args, **kwargs) if before else None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    frame[1]["counts"] = after(state, result, *args,
                                               **kwargs)
                return result
            finally:
                tracer._exit(frame)
                if worker_jobs:
                    tracer._flush_worker_job()
        return wrapper

    def _fine(self, name, fn, count_idle=False):
        """Aggregating wrapper. With ``count_idle`` (``CommitStage.tick``)
        the record's 4th slot counts the calls that committed nothing."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Read per call: a forked worker replaces the stack.
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            if count_idle:
                stats = args[0].state.stats
                committed = stats.committed_insts
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                calls = tracer.current["calls"]
                rec = calls.get(name)
                if rec is None:
                    rec = calls[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[0]
                if count_idle and stats.committed_insts == committed:
                    rec[3] += 1
        return wrapper

    def _flush_worker_job(self):
        """In a forked worker, append the finished job's spans to this
        worker's JSONL file and forget them."""
        if self.fork_parent is None or self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, "worker-%d.jsonl" % self.pid)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def install(self):
        """Wrap every target; raises if already installed."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, kind in TARGETS:
            owner, attr = _resolve(module_name, path)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            if kind == FINE:
                wrapped = self._fine(name, original,
                                     count_idle=name == "pipeline.commit")
            else:
                wrapped = self._coarse(name, original)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self):
        """Restore every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self.install()

    def __exit__(self, *_exc):
        self.uninstall()
        return False


def collect_worker_spans(directory):
    """Read and delete every ``worker-*.jsonl`` file in ``directory``;
    returns their spans."""
    spans = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("worker-") and name.endswith(".jsonl")):
            continue
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                spans.extend(json.loads(line))
        os.unlink(path)
    return spans


def export_spans(spans):
    """JSON form of the spans: aggregated calls as dicts."""
    out = []
    for span in spans:
        span = dict(span)
        span["calls"] = {
            name: {"count": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for name, rec in span["calls"].items()}
        out.append(span)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: Per-layer metrics: name -> (unit, better). The layer is the name's
#: first component, named after the module it times.
LAYER_METRICS = {
    "pipeline.rename_s": ("s", "lower"),
    "pipeline.execute_s": ("s", "lower"),
    "pipeline.commit_s": ("s", "lower"),
    "pipeline.writeback_s": ("s", "lower"),
    "pipeline.fetch_s": ("s", "lower"),
    "pipeline.squash_s": ("s", "lower"),
    "pipeline.loop_s": ("s", "lower"),
    "pipeline.us_per_cycle": ("us", "lower"),
    "pipeline.kcycles_per_s": ("kcycles/s", "higher"),
    "pipeline.zero_commit_frac": ("ratio", "lower"),
    "pipeline.squashed_frac": ("ratio", "lower"),
    "frontend.fetch_block_s": ("s", "lower"),
    "frontend.tick_s": ("s", "lower"),
    "frontend.squash_s": ("s", "lower"),
    "frontend.cond_mispredict_rate": ("ratio", "lower"),
    "mem.access_s": ("s", "lower"),
    "mem.accesses": ("count", "lower"),
    "mem.l1d_miss_rate": ("ratio", "lower"),
    "mem.mshr_peak": ("count", "higher"),
    "mssr.fetch_block_s": ("s", "lower"),
    "mssr.branch_squash_s": ("s", "lower"),
    "mssr.try_reuse_s": ("s", "lower"),
    "mssr.cycle_s": ("s", "lower"),
    "mssr.hazard_s": ("s", "lower"),
    "mssr.reuse_rate": ("ratio", "higher"),
    "mssr.reuses_per_kinst": ("count", "higher"),
    "baselines.ri_s": ("s", "lower"),
    "emu.run_s": ("s", "lower"),
    "emu.kips": ("kinst/s", "higher"),
    "sampling.profile_s": ("s", "lower"),
    "sampling.simpoints_s": ("s", "lower"),
    "sampling.checkpoints_s": ("s", "lower"),
    "sampling.warm_s": ("s", "lower"),
    "sampling.detailed_s": ("s", "lower"),
    "sampling.store_get_s": ("s", "lower"),
    "sampling.store_put_s": ("s", "lower"),
    "sampling.detailed_frac": ("ratio", "higher"),
    "workloads.build_s": ("s", "lower"),
    "isa.predecode_s": ("s", "lower"),
    "harness.execute_s": ("s", "lower"),
    "harness.cache_put_s": ("s", "lower"),
    "harness.cache_get_s": ("s", "lower"),
    "harness.job_hash_s": ("s", "lower"),
    "harness.fingerprint_s": ("s", "lower"),
    "harness.pool_busy_frac": ("ratio", "higher"),
    "harness.program_loads": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: The end-to-end metric each layer's metrics should move, and on which
#: workloads; written down before measuring (see README.md).
LAYER_MOVES = {
    "pipeline": (("sim_kips", ("listing1", "gap-mem")),),
    "frontend": (("sim_kips", ("gap-mem", "listing1")),),
    "mem": (("sim_kips", ("gap-mem",)),),
    "mssr": (("sim_kips", ("listing1",)),
             ("mssr_speedup", ("listing1", "gap-mem", "sampled",
                            "fig10-batch"))),
    "baselines": (("sim_kips", ("fig10-batch",)),),
    "emu": (("sim_kips", ("sampled",)),),
    "sampling": (("sim_kips", ("sampled",)), ("peak_rss_mb", ("sampled",))),
    "workloads": (("setup_s", ("listing1", "gap-mem", "sampled",
                               "fig10-batch")),
                  ("sim_kips", ("fig10-batch",))),
    "isa": (("setup_s", ("listing1", "gap-mem", "sampled", "fig10-batch")),
            ("sim_kips", ("fig10-batch",))),
    "harness": (("sim_kips", ("fig10-batch",)),),
    "trace": (),
}

#: Call names whose self time makes up each ``*_s`` metric.
_SELF_TIME = {
    "pipeline.rename_s": ("pipeline.rename",),
    "pipeline.execute_s": ("pipeline.execute",),
    "pipeline.commit_s": ("pipeline.commit",),
    "pipeline.writeback_s": ("pipeline.writeback",),
    "pipeline.fetch_s": ("pipeline.fetch",),
    "pipeline.squash_s": ("pipeline.squash",),
    "pipeline.loop_s": ("pipeline.run",),
    "frontend.fetch_block_s": ("frontend.fetch_block",),
    "frontend.tick_s": ("frontend.tick",),
    "frontend.squash_s": ("frontend.squash",),
    "mem.access_s": ("mem.access", "mem.icache"),
    "mssr.fetch_block_s": ("mssr.fetch_block",),
    "mssr.branch_squash_s": ("mssr.branch_squash",),
    "mssr.try_reuse_s": ("mssr.try_reuse",),
    "mssr.cycle_s": ("mssr.cycle",),
    "mssr.hazard_s": ("mssr.hazard",),
    "baselines.ri_s": ("baselines.ri",),
    "emu.run_s": ("emu.run",),
    "sampling.profile_s": ("sampling.profile",),
    "sampling.simpoints_s": ("sampling.simpoints",),
    "sampling.checkpoints_s": ("sampling.checkpoints",),
    "sampling.warm_s": ("sampling.warm",),
    "workloads.build_s": ("workloads.build",),
    "isa.predecode_s": ("isa.predecode",),
    "harness.job_hash_s": ("harness.job_hash",),
}

#: Layers whose self time makes up a detailed simulation (O3Core.run).
CORE_LAYERS = ("pipeline", "frontend", "mem", "mssr", "baselines")


def _ratio(num, den):
    return num / den if den else 0.0


class SpanIndex:
    """Totals over a list of spans, by call name."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = collections.Counter()
        self.total_s = collections.Counter()
        self.count = collections.Counter()
        self.extra = collections.Counter()
        by_id = {span["id"]: span for span in spans}
        self.by_id = by_id
        for span in spans:
            name = span["name"]
            self.self_s[name] += span["self_s"]
            self.total_s[name] += span["end"] - span["start"]
            self.count[name] += 1
            for call, rec in span["calls"].items():
                self.count[call] += rec[0]
                self.total_s[call] += rec[1]
                self.self_s[call] += rec[2]
                self.extra[call] += rec[3]

    def named(self, name):
        return [span for span in self.spans if span["name"] == name]

    def has_ancestor(self, span, name):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self.by_id.get(parent["parent"])
        return False


def layer_metrics(spans, untraced_kips, traced_kips, n_jobs):
    """Every per-layer metric from one traced pass's spans."""
    index = SpanIndex(spans)
    out = {name: sum(index.self_s[call] for call in calls)
           for name, calls in _SELF_TIME.items()}

    runs = index.named("pipeline.run")
    totals = collections.Counter()
    mssr = collections.Counter()
    mshr_peak = 0
    for span in runs:
        counts = span["counts"]
        for key in ("cycles", "committed_insts", "fetched_insts",
                    "squashed_insts", "cond_branches", "cond_mispredicts",
                    "l1d_hits", "l1d_misses"):
            totals[key] += counts.get(key, 0)
        if counts.get("scheme") == "mssr":
            for key in ("reuse_tests", "reuse_successes", "committed_insts"):
                mssr[key] += counts[key]
        mshr_peak = max(mshr_peak, counts.get("mshr_peak", 0))
    run_s = index.total_s["pipeline.run"]
    out["pipeline.us_per_cycle"] = _ratio(run_s * 1e6, totals["cycles"])
    out["pipeline.kcycles_per_s"] = _ratio(totals["cycles"] / 1e3, run_s)
    out["pipeline.zero_commit_frac"] = _ratio(
        index.extra["pipeline.commit"], index.count["pipeline.commit"])
    out["pipeline.squashed_frac"] = _ratio(totals["squashed_insts"],
                                           totals["fetched_insts"])
    out["frontend.cond_mispredict_rate"] = _ratio(
        totals["cond_mispredicts"], totals["cond_branches"])
    out["mem.accesses"] = index.count["mem.access"]
    out["mem.l1d_miss_rate"] = _ratio(
        totals["l1d_misses"], totals["l1d_hits"] + totals["l1d_misses"])
    out["mem.mshr_peak"] = mshr_peak
    out["mssr.reuse_rate"] = _ratio(mssr["reuse_successes"],
                                    mssr["reuse_tests"])
    out["mssr.reuses_per_kinst"] = _ratio(mssr["reuse_successes"] * 1e3,
                                          mssr["committed_insts"])
    emu_insts = sum(span["counts"].get("insts", 0)
                    for span in index.named("emu.run"))
    out["emu.kips"] = _ratio(emu_insts / 1e3, index.total_s["emu.run"])
    detailed = sum(span["end"] - span["start"] for span in runs
                   if index.has_ancestor(span, "sampling.run_sampled"))
    out["sampling.detailed_s"] = detailed
    out["sampling.detailed_frac"] = _ratio(
        detailed, index.total_s["sampling.run_sampled"])
    out["sampling.store_get_s"] = index.total_s["sampling.store_get"]
    out["sampling.store_put_s"] = index.total_s["sampling.store_put"]
    jobs = [span["end"] - span["start"]
            for span in index.named("harness.execute")]
    out["harness.execute_s"] = statistics.median(jobs) if jobs else 0.0
    out["harness.cache_put_s"] = index.total_s["harness.cache_put"]
    out["harness.cache_get_s"] = index.total_s["harness.cache_get"]
    out["harness.fingerprint_s"] = index.total_s["harness.fingerprint"]
    out["harness.pool_busy_frac"] = _ratio(
        sum(jobs), index.total_s["harness.run_batch"] * n_jobs)
    out["harness.program_loads"] = sum(
        span["counts"].get("program_loads", 0)
        for span in index.named("harness.run_batch"))
    out["trace.overhead_frac"] = 1.0 - _ratio(traced_kips, untraced_kips)
    return {name: float(out[name]) for name in LAYER_METRICS}


def core_coverage(spans):
    """Share of traced ``O3Core.run`` time spent inside the wrapped
    calls of the core layers. The rest is ``pipeline.loop_s``: the run
    loop's own work, which no wrapper attributes to a layer."""
    covered = run_s = 0.0
    for span in spans:
        if span["name"] != "pipeline.run":
            continue
        run_s += span["end"] - span["start"]
        covered += sum(rec[2] for call, rec in span["calls"].items()
                       if call.split(".")[0] in CORE_LAYERS)
    return _ratio(covered, run_s)
