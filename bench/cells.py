"""The benchmark's four workloads, each cut into cells.

A cell is one timed unit of work: one detailed simulation, one sampled
simulation, or one whole harness batch. Every cell knows the output it
must produce, taken from an oracle that runs outside the timed region
(the compiled kernel run natively, and the functional emulator), so a
cell that runs fast but wrong counts as failed.

``WORKLOADS[name](seed, scratch)`` is the set-up: it builds every
program (compilation, graph generation, predecode) and resolves every
configuration, and returns the cells. Set-up is timed on its own, so
work moved into it shows.

Only ``gap-mem`` and ``sampled`` use the seed. ``listing1`` and
``fig10-batch`` run fixed programs: their seed is recorded but unused.
"""

import hashlib
import json
import math
import tempfile

import hostspeed
from repro.compiler import Module, array_ref
from repro.emu.emulator import Emulator
from repro.harness import cache as harness_cache
from repro.harness import runner
from repro.harness.cache import ResultCache
from repro.harness.jobs import SimJob, build_config, build_scheme
from repro.pipeline.core import O3Core
from repro.sampling import sampler
from repro.sampling.checkpoint import CheckpointStore
from repro.sampling.simpoint import DEFAULT_SEED
from repro.workloads import get_workload
from repro.workloads.gap import bfs, cc, common, sssp
from repro.workloads.registry import suite_names

MASK64 = (1 << 64) - 1

#: Worker processes of the ``fig10-batch`` harness batch.
BATCH_JOBS = 2

#: Scales, sized so one pass over a workload's cells takes a few
#: seconds on a 2-core host; tests shrink them with :func:`tiny`. Most
#: gap-mem graphs and fig10-batch kernels sit at their builders' minimum
#: size, so smaller scales would not make those passes shorter.
SCALES = {
    "listing1": 1.0,
    "bfs": 0.25,
    "cc": 0.2,
    "sssp": 0.17,
    "ptr-chase": 1.5,
    "leela": 16.0,
    "xz": 16.0,
    "fig10-batch": 0.03,
}
#: At most two simpoints: every seed then picks exactly two for both
#: programs, where ``max_k=4`` picks three or four for leela depending on
#: the seed and moves the workload's cost by about 10 %.
SAMPLING = {"interval_insts": 10000, "max_k": 2}


class Outcome:
    """What one run of a cell produced.

    ``insts``: target instructions whose result was produced;
    ``stats``: ``SimStats.as_dict()`` of every simulation, in order
    (the digest input); ``ipcs``: ``{(program, kind): ipc}``;
    ``attempted``/``failed``: operations tried and failed; ``errors``:
    what each failed check saw; ``speed``: the host-speed scale factor
    measured where the work ran (see :func:`hostspeed.worker_speed`), or
    None when it ran in this process and the caller's timer scales it.
    """

    __slots__ = ("insts", "stats", "ipcs", "attempted", "failed", "errors",
                 "speed")

    def __init__(self, insts, stats, ipcs, errors=(), attempted=1,
                 failed=None, speed=None):
        self.insts = insts
        self.stats = stats
        self.ipcs = ipcs
        self.errors = list(errors)
        self.attempted = attempted
        self.failed = (1 if self.errors else 0) if failed is None else failed
        self.speed = speed

    def digest(self):
        return stats_digest(self.stats)

    @classmethod
    def raised(cls, cell, exc):
        """The outcome of a cell whose run raised ``exc``: every
        operation it attempted failed."""
        return cls(0, [], {}, ["%s: raised %s: %s"
                               % (cell.label, type(exc).__name__, exc)],
                   attempted=cell.ops, failed=cell.ops)


def stats_digest(stats_dicts):
    """sha256 over sorted ``SimStats.as_dict()`` snapshots."""
    blob = json.dumps(stats_dicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def geomean_speedup(ipcs):
    """Geomean over programs of IPC(mssr) / IPC(baseline).

    A program whose baseline or mssr run failed has no IPC and is left
    out; its failure is already counted. 0.0 when no program has both.
    """
    logs = [math.log(ipc / ipcs[(program, "baseline")])
            for (program, kind), ipc in sorted(ipcs.items())
            if kind == "mssr" and (program, "baseline") in ipcs]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------
class DetailedCell:
    """A full detailed run of one program under one configuration."""

    #: Operations one run attempts (see :meth:`Outcome.raised`).
    ops = 1

    def __init__(self, program, kind, mod, prog, overrides=None):
        self.program = program
        self.kind = kind
        self.label = "%s/%s" % (program, kind)
        self.mod = mod
        self.prog = prog
        self.overrides = overrides
        self.config = build_config(kind, overrides)
        self.expected = None

    def prepare(self):
        """Expected (result, instruction count), computed untimed."""
        self.expected = (self.mod.run_native()[0] & MASK64,
                         Emulator(self.prog).run().inst_count)

    def run(self):
        core = O3Core(self.prog, self.config,
                      reuse_scheme=build_scheme(self.kind, self.overrides))
        result = core.run()
        stats = result.stats
        got = (Module.read_result(self.prog, result.memory),
               stats.committed_insts)
        errors = []
        if got != self.expected:
            errors.append("%s: (result, insts) %r, expected %r"
                          % (self.label, got, self.expected))
        return Outcome(stats.committed_insts, [stats.as_dict()],
                       {(self.program, self.kind): stats.ipc},
                       errors=errors)


class SampledCell:
    """A SimPoint-sampled run. The cold cell of a program profiles,
    picks simpoints and captures checkpoints into a fresh store; the
    warm cell that follows it in the same pass reads them back."""

    ops = 1

    def __init__(self, program, kind, prog, spec, scale, store, cold):
        self.program = program
        self.kind = kind
        self.label = "%s/%s/%s" % (program, kind, "cold" if cold else "warm")
        self.prog = prog
        self.spec = spec
        self.key_spec = {"workload": program, "scale": scale}
        self.store = store          # shared {"dir": ..., "store": ...}
        self.cold = cold
        self.config = build_config(kind)
        self.expected = None

    def prepare(self):
        self.expected = Emulator(self.prog).run().inst_count

    def run(self):
        if self.cold:
            self.store["store"] = CheckpointStore(
                directory=tempfile.mkdtemp(dir=self.store["dir"]))
        store = self.store["store"]
        hits = store.hits
        result = sampler.run_sampled(
            self.prog, self.config,
            scheme_factory=lambda: build_scheme(self.kind), spec=self.spec,
            store=store, key_spec=self.key_spec)
        errors = []
        if result.total_insts != self.expected:
            errors.append("%s: total_insts %d, emulator ran %d"
                          % (self.label, result.total_insts, self.expected))
        for run in result.runs:
            if run.stats.committed_insts != run.point.num_insts:
                errors.append("%s: interval %d committed %d of %d"
                              % (self.label, run.point.index,
                                 run.stats.committed_insts,
                                 run.point.num_insts))
        if not self.cold and store.hits == hits:
            errors.append("%s: missed the checkpoint store" % self.label)
        stats = [result.stats.as_dict()] + \
            [run.stats.as_dict() for run in result.runs]
        return Outcome(result.total_insts, stats,
                       {(self.program, self.kind): result.ipc},
                       errors=errors)


class BatchCell:
    """One harness batch through ``run_batch`` with a fresh result
    cache and cold workload build caches, so the workers compile.

    The jobs run in worker processes, on CPUs the caller's timer does
    not see, so each worker probes its own CPU after every job
    (:func:`hostspeed.probed` around ``runner.execute``) and the outcome
    carries the resulting scale factor."""

    label = "batch"

    def __init__(self, jobs, programs, scratch):
        self.jobs = jobs
        self.ops = len(jobs)
        self.programs = programs      # workload name -> (mod, prog)
        self.scratch = scratch
        self.expected = None

    def prepare(self):
        self.expected = {name: Emulator(prog).run().inst_count
                         for name, (_mod, prog) in self.programs.items()}

    def run(self):
        for name in self.programs:
            get_workload(name).clear_cache()
        cache = ResultCache(directory=tempfile.mkdtemp(dir=self.scratch))
        probes = tempfile.mkdtemp(dir=self.scratch)
        execute = runner.execute
        runner.execute = hostspeed.probed(execute, probes)
        try:
            report = runner.run_batch(self.jobs, n_jobs=BATCH_JOBS,
                                      cache=cache, memo=None, strict=False)
        finally:
            runner.execute = execute
        speed = hostspeed.worker_speed(probes)
        errors = ["%s: %s" % (job.label(), message.strip().splitlines()[-1])
                  for job, message in report.errors.items()]
        failed = len(errors)
        insts = 0
        stats = []
        ipcs = {}
        for job in self.jobs:
            result = report.results.get(job)
            if result is None:
                continue
            insts += result.committed_insts
            stats.append(result.as_dict())
            ipcs[(job.workload, job.kind)] = result.ipc
            if result.committed_insts != self.expected[job.workload]:
                failed += 1
                errors.append("%s: committed %d, emulator ran %d"
                              % (job.label(), result.committed_insts,
                                 self.expected[job.workload]))
        return Outcome(insts, stats, ipcs, errors, attempted=self.ops,
                       failed=failed, speed=speed)


# ---------------------------------------------------------------------------
# Set-ups
# ---------------------------------------------------------------------------
def _registry_build(name, scale):
    workload = get_workload(name)
    workload.clear_cache()
    mod, prog = workload.build(scale)
    prog.predecode()
    return mod, prog


def setup_listing1(_seed, _scratch, scales=SCALES):
    cells = []
    for program in ("nested-mispred", "linear-mispred"):
        mod, prog = _registry_build(program, scales["listing1"])
        for kind in ("baseline", "mssr"):
            cells.append(DetailedCell(program, kind, mod, prog))
    return cells


def _graph_seed(registry_seed, seed):
    # --seed 1 rebuilds the registered graphs exactly.
    return registry_seed + 1000 * (seed - 1)


def build_bfs(scale, seed):
    graph = common.graph_for_scale(scale, seed=_graph_seed(11, seed))
    mod = common.module_with_graph(graph, bfs.bfs_kernel)
    mod.array("parent", graph.num_nodes)
    mod.array("queue", graph.num_nodes + 1)
    prog = mod.build("bfs_kernel", common.graph_args() + [
        graph.num_nodes, array_ref("parent"), array_ref("queue"), 0])
    return mod, prog


def build_cc(scale, seed):
    graph = common.graph_for_scale(scale * 0.8, seed=_graph_seed(17, seed))
    mod = common.module_with_graph(graph, cc.cc_kernel)
    mod.array("comp", graph.num_nodes)
    prog = mod.build("cc_kernel", common.graph_args() + [
        graph.num_nodes, array_ref("comp"), 3])
    return mod, prog


def build_sssp(scale, seed):
    graph = common.graph_for_scale(scale, seed=_graph_seed(19, seed))
    mod = common.module_with_graph(graph, sssp.sssp_kernel)
    mod.array("dist", graph.num_nodes)
    mod.array("queue", 4096)
    mod.array("inq", graph.num_nodes)
    prog = mod.build("sssp_kernel", [
        array_ref("offsets"), array_ref("neighbors"), array_ref("weights"),
        graph.num_nodes, array_ref("dist"), array_ref("queue"),
        array_ref("inq"), 0])
    return mod, prog


GAP_PROGRAMS = {"bfs": build_bfs, "cc": build_cc, "sssp": build_sssp}


def setup_gap_mem(seed, _scratch, scales=SCALES):
    cells = []
    for program, build in GAP_PROGRAMS.items():
        mod, prog = build(scales[program], seed)
        prog.predecode()
        for kind in ("baseline", "mssr"):
            cells.append(DetailedCell(program, kind, mod, prog))
    ported = {"mem.model": "ported"}
    for program in ("ptr-chase", "ptr-chase-dep"):
        mod, prog = _registry_build(program, scales["ptr-chase"])
        cells.append(DetailedCell(program, "baseline", mod, prog, ported))
    return cells


def setup_sampled(seed, scratch, scales=SCALES):
    spec = sampler.SamplingSpec(seed=DEFAULT_SEED + seed - 1, **SAMPLING)
    cells = []
    for program in ("leela", "xz"):
        _mod, prog = _registry_build(program, scales[program])
        store = {"dir": scratch, "store": None}
        cells.append(SampledCell(program, "baseline", prog, spec,
                                 scales[program], store, cold=True))
        cells.append(SampledCell(program, "mssr", prog, spec,
                                 scales[program], store, cold=False))
    return cells


#: The fig10-batch programs. ``astar`` is left out: under ``ri`` it
#: commits a different instruction stream than the emulator (README.md).
FIG10_EXCLUDED = ("astar",)


def setup_fig10_batch(_seed, scratch, scales=SCALES):
    harness_cache._FINGERPRINT = None     # measure the source hash too
    harness_cache.code_fingerprint()
    scale = scales["fig10-batch"]
    programs = {}
    jobs = []
    for name in suite_names("spec2006") + suite_names("spec2017"):
        if name in FIG10_EXCLUDED:
            continue
        programs[name] = _registry_build(name, scale)
        for job in (SimJob(name, "baseline", scale),
                    SimJob(name, "mssr", scale, {"streams": 4}),
                    SimJob(name, "ri", scale)):
            job.job_hash()
            job.build_config()
            jobs.append(job)
    return [BatchCell(jobs, programs, scratch)]


WORKLOADS = {
    "listing1": setup_listing1,
    "gap-mem": setup_gap_mem,
    "sampled": setup_sampled,
    "fig10-batch": setup_fig10_batch,
}


def tiny():
    """Scales small enough for the self-tests (a few seconds in all)."""
    out = dict.fromkeys(SCALES, 0.05)
    out.update({"leela": 1.5, "xz": 1.0, "fig10-batch": 0.03})
    return out
