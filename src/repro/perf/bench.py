"""Simulator throughput benchmarks and the perf regression gate.

The benchmark layer measures how fast the *simulator itself* runs — not
the simulated machine — on a pinned matrix of (engine, workload,
configuration) points:

* ``emu`` points run the functional :class:`~repro.emu.emulator.Emulator`
  to completion and report kilo-instructions per wall second. The
  ``superblock`` variant dispatches one compiled function per
  straight-line region (:mod:`repro.isa.superblock`) instead of one
  closure per instruction.
* ``core`` points run the detailed :class:`~repro.pipeline.core.O3Core`
  and report kilo-instructions (committed) per wall second.
* ``batch`` points run a small same-image job batch (baseline + two
  MSSR cells) through the shared-image serial path with cold workload
  caches, so the one-build-many-runs amortisation is part of the
  measured time. Metric: total committed kilo-instructions per wall
  second.

Every point is gated on kinsts/s. Core and batch points also report
kilo-cycles per wall second, as information only: cycles per second
rewards runs that mostly stall.

Reports are JSON (``BENCH_PIPELINE.json`` at the repo root is the
checked-in baseline). Raw wall-clock throughput is not comparable across
machines, so every report also records ``calibration_kops`` — the speed
of a fixed pure-Python spin loop on the measuring machine — and the gate
(:func:`compare_reports`) compares *calibration-normalised* ratios:
``metric / calibration`` must not drop more than ``threshold`` versus
the baseline. That makes the checked-in numbers portable: a slower
machine scores proportionally lower on both the matrix and the
calibration loop.

Each point is measured best-of-``repeats`` (the minimum wall time), the
standard defence against scheduler noise for single-process CPU-bound
loops.
"""

import json
import os
import subprocess
import sys
import time

REPORT_VERSION = 1

#: Spin-loop iterations for one calibration sample.
_CALIBRATION_ITERS = 2_000_000


class BenchPoint:
    """One pinned benchmark point.

    ``mode`` is ``"emu"`` (functional emulator), ``"core"`` (detailed
    pipeline) or ``"batch"`` (shared-image job batch); every mode's
    metric is kinsts/s. ``kind`` is a harness configuration kind
    (``baseline``/``mssr``/...), only meaningful for core points.
    ``variant`` selects an alternate dispatch strategy of the same
    engine — currently ``"superblock"`` for emulator points.
    ``config`` holds extra dotted configuration-tree overrides for core
    points (``{"mem.model": "ported"}``). Both are omitted from the
    spec when unset so reports from before the fields existed
    round-trip unchanged.
    """

    __slots__ = ("name", "mode", "workload", "kind", "scale", "variant",
                 "config")

    def __init__(self, name, mode, workload, kind="baseline", scale=0.2,
                 variant=None, config=None):
        if mode not in ("emu", "core", "batch"):
            raise ValueError("mode must be 'emu', 'core' or 'batch', "
                             "got %r" % mode)
        self.name = name
        self.mode = mode
        self.workload = workload
        self.kind = kind
        self.scale = scale
        self.variant = variant
        self.config = dict(config) if config else None

    def spec(self):
        out = {"name": self.name, "mode": self.mode,
               "workload": self.workload, "kind": self.kind,
               "scale": self.scale}
        if self.variant is not None:
            out["variant"] = self.variant
        if self.config is not None:
            out["config"] = dict(self.config)
        return out

    @classmethod
    def from_spec(cls, spec):
        return cls(spec["name"], spec["mode"], spec["workload"],
                   kind=spec.get("kind", "baseline"),
                   scale=spec.get("scale", 0.2),
                   variant=spec.get("variant"),
                   config=spec.get("config"))

    def __repr__(self):
        return "<BenchPoint %s>" % self.name


#: The pinned measurement matrix. Scales are chosen so the full matrix
#: runs in tens of seconds; both branchy microbenchmarks are covered on
#: the emulator, and the detailed core is measured for both the baseline
#: pipeline and the MSSR reuse configuration.
DEFAULT_MATRIX = (
    BenchPoint("emu-nested-mispred", "emu", "nested-mispred", scale=0.4),
    BenchPoint("emu-linear-mispred", "emu", "linear-mispred", scale=0.4),
    BenchPoint("emu-sb-nested-mispred", "emu", "nested-mispred",
               scale=0.4, variant="superblock"),
    BenchPoint("emu-sb-linear-mispred", "emu", "linear-mispred",
               scale=0.4, variant="superblock"),
    BenchPoint("core-baseline-nested-mispred", "core", "nested-mispred",
               kind="baseline", scale=0.2),
    BenchPoint("core-mssr-nested-mispred", "core", "nested-mispred",
               kind="mssr", scale=0.2),
    BenchPoint("core-baseline-linear-mispred", "core", "linear-mispred",
               kind="baseline", scale=0.2),
    BenchPoint("core-batched-nested-mispred", "batch", "nested-mispred",
               scale=0.1),
    BenchPoint("core-ported-ptr-chase", "core", "ptr-chase", scale=0.2,
               config={"mem.model": "ported"}),
)

#: Subset used by the CI smoke run. These are the *same* point
#: definitions (same scales) as the full matrix — normalised comparisons
#: against a full-matrix baseline stay unbiased — just fewer of them.
QUICK_NAMES = ("emu-nested-mispred", "emu-sb-nested-mispred",
               "core-baseline-nested-mispred")


def select_points(names, matrix=DEFAULT_MATRIX):
    """Matrix points with the given names (order of ``names``)."""
    by_name = {p.name: p for p in matrix}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise KeyError("unknown bench point(s): %s" % ", ".join(missing))
    return tuple(by_name[n] for n in names)


def matrix_from_report(report):
    """Rebuild the point definitions a report was measured with."""
    return tuple(BenchPoint.from_spec(p["point"])
                 for p in report["points"])


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def _spin(iters):
    acc = 0
    for i in range(iters):
        acc = (acc + i) & 0xFFFF
    return acc


def calibration_kops(repeats=3):
    """Kilo-iterations/s of a fixed pure-Python spin loop (best-of)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _spin(_CALIBRATION_ITERS)
        best = min(best, time.perf_counter() - start)
    return _CALIBRATION_ITERS / best / 1e3


def _batch_jobs(point):
    """The pinned same-image job batch of a ``batch`` point: one
    baseline cell plus two MSSR cells over one program image."""
    from repro.harness.jobs import SimJob
    return [SimJob(point.workload, "baseline", point.scale),
            SimJob(point.workload, "mssr", point.scale, {"streams": 2}),
            SimJob(point.workload, "mssr", point.scale, {"streams": 4})]


def run_point(point, repeats=3):
    """Measure one point; returns its result dict (see module docs)."""
    from repro.workloads import get_workload

    best = float("inf")
    cycles = insts = 0
    if point.mode == "batch":
        # Shared-image batch: the workload build happens *inside* the
        # timed region (caches cleared per repeat) but only once for
        # all jobs in the batch — that amortisation is the point.
        from repro.harness.jobs import execute
        jobs = _batch_jobs(point)
        for _ in range(repeats):
            get_workload(point.workload).clear_cache()
            start = time.perf_counter()
            total_cycles = total_insts = 0
            for job in jobs:
                stats = execute(job)
                total_cycles += stats.cycles
                total_insts += stats.committed_insts
            best = min(best, time.perf_counter() - start)
            cycles, insts = total_cycles, total_insts
    elif point.mode == "emu":
        from repro.emu.emulator import Emulator
        _mod, prog = get_workload(point.workload).build(point.scale)
        prog.predecode()  # exclude one-time predecode from the timing
        superblock = point.variant == "superblock"
        if superblock:
            prog.superblocks()  # exclude one-time codegen too
        for _ in range(repeats):
            emu = Emulator(prog, superblock=superblock)
            start = time.perf_counter()
            result = emu.run()
            best = min(best, time.perf_counter() - start)
            insts = result.inst_count
    else:
        from repro.harness.jobs import build_config, build_scheme
        from repro.pipeline.core import O3Core
        _mod, prog = get_workload(point.workload).build(point.scale)
        prog.predecode()
        for _ in range(repeats):
            core = O3Core(prog, build_config(point.kind, point.config),
                          reuse_scheme=build_scheme(point.kind,
                                                    point.config))
            start = time.perf_counter()
            result = core.run()
            best = min(best, time.perf_counter() - start)
            cycles = core.cycle
            insts = result.stats.committed_insts
    out = {
        "point": point.spec(),
        "seconds": best,
        "cycles": cycles,
        "insts": insts,
        "kinsts_per_s": insts / best / 1e3,
    }
    if point.mode in ("core", "batch"):
        out["kcycles_per_s"] = cycles / best / 1e3
    return out


def run_bench(points=DEFAULT_MATRIX, repeats=3, log=None):
    """Measure every point; returns the list of result dicts."""
    results = []
    for point in points:
        result = run_point(point, repeats=repeats)
        if log is not None:
            line = "%-32s %10.1f kinsts/s" % (point.name,
                                               result["kinsts_per_s"])
            if "kcycles_per_s" in result:
                line += "  (%.1f kcycles/s)" % result["kcycles_per_s"]
            log(line)
        results.append(result)
    return results


def profile_point(point, out_path, repeats=1):
    """cProfile one point's measured run into ``out_path`` (pstats
    binary format, loadable with ``pstats.Stats``)."""
    import cProfile

    from repro.workloads import get_workload

    profiler = cProfile.Profile()
    if point.mode == "batch":
        from repro.harness.jobs import execute
        jobs = _batch_jobs(point)
        for _ in range(repeats):
            get_workload(point.workload).clear_cache()
            profiler.enable()
            for job in jobs:
                execute(job)
            profiler.disable()
        profiler.dump_stats(out_path)
        return
    _mod, prog = get_workload(point.workload).build(point.scale)
    prog.predecode()
    if point.mode == "emu":
        from repro.emu.emulator import Emulator
        superblock = point.variant == "superblock"
        if superblock:
            prog.superblocks()
        for _ in range(repeats):
            emu = Emulator(prog, superblock=superblock)
            profiler.enable()
            emu.run()
            profiler.disable()
    else:
        from repro.harness.jobs import build_config, build_scheme
        from repro.pipeline.core import O3Core
        for _ in range(repeats):
            core = O3Core(prog, build_config(point.kind, point.config),
                          reuse_scheme=build_scheme(point.kind,
                                                    point.config))
            profiler.enable()
            core.run()
            profiler.disable()
    profiler.dump_stats(out_path)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
def _git_commit(cwd=None):
    """Short HEAD commit of the checkout holding ``cwd`` (default: this
    module), with ``-dirty`` appended when tracked files differ from it,
    as ``git describe --dirty`` marks it; ``"unknown"`` outside git."""
    cwd = cwd or os.path.dirname(os.path.abspath(__file__))

    def git(*args):
        return subprocess.run(("git",) + args, capture_output=True,
                              text=True, timeout=10, cwd=cwd,
                              check=True).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            commit += "-dirty"
        return commit
    except Exception:
        return "unknown"


def build_report(results, calibration=None):
    """Assemble the JSON-able report from :func:`run_bench` results."""
    return {
        "version": REPORT_VERSION,
        "commit": _git_commit(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "calibration_kops": (calibration if calibration is not None
                             else calibration_kops()),
        "points": results,
    }


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def append_history(report, path):
    """Append one line for ``report`` to the JSONL perf history.

    The history file is append-only: every measured run adds one
    compact record — wall time, commit, calibration and the gated
    metric of every point — so throughput trends survive the
    re-pinning of ``BENCH_PIPELINE.json`` (which only ever holds the
    latest baseline). Returns the record written.
    """
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": report["commit"],
        "python": report["python"],
        "calibration_kops": report["calibration_kops"],
        "points": {r["point"]["name"]: round(point_metric(r), 3)
                   for r in report["points"]},
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    for key in ("version", "calibration_kops", "points"):
        if key not in report:
            raise ValueError("malformed bench report %s: missing %r"
                             % (path, key))
    return report


def point_metric(result):
    """The gated metric of one result: kinsts/s for every point
    (``kcycles_per_s`` is reported, not gated)."""
    return result["kinsts_per_s"]


def compare_reports(current, baseline, threshold=0.15):
    """Regression check of ``current`` against ``baseline``.

    Compares calibration-normalised metrics over the points present in
    *both* reports; returns a list of human-readable failure strings
    (empty = gate passes). A point regresses when its normalised metric
    is below ``(1 - threshold)`` times the baseline's.
    """
    failures = []
    cur_cal = current["calibration_kops"]
    base_cal = baseline["calibration_kops"]
    if cur_cal <= 0 or base_cal <= 0:
        return ["non-positive calibration_kops (current=%r baseline=%r)"
                % (cur_cal, base_cal)]
    cur_by_name = {r["point"]["name"]: r for r in current["points"]}
    floor = 1.0 - threshold
    for base_result in baseline["points"]:
        name = base_result["point"]["name"]
        cur_result = cur_by_name.get(name)
        if cur_result is None:
            continue
        base_norm = point_metric(base_result) / base_cal
        cur_norm = point_metric(cur_result) / cur_cal
        if base_norm <= 0:
            continue
        ratio = cur_norm / base_norm
        if ratio < floor:
            failures.append(
                "%s: normalised throughput %.3f of baseline "
                "(%.1f vs %.1f raw; threshold %.0f%%)"
                % (name, ratio, point_metric(cur_result),
                   point_metric(base_result), threshold * 100.0))
    return failures
