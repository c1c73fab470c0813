#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-dir DIR] [--json OUT]

The parent process runs each workload in a fresh child process, one
after another, so peak RSS and import state belong to one workload. The
child's environment has every ``REPRO_*`` variable removed, and its
result cache, checkpoint store and temporary files live in a fresh
directory under ``.bench_out/`` that is deleted afterwards.

A child sets the workload up, computes the expected outputs, then runs
passes over the workload's cells until ``--seconds`` of measurement
have accumulated (at least two passes). Set-up is timed three times
before the passes and twice after each, at least seven fresh set-ups in
all. Times are scaled to the reference host speed (``hostspeed.py``):
work done in the child's own process by probes the child runs, the
harness batch by probes its worker processes run. With
``--trace 1`` the child then installs the tracing wrappers, sets up once
more and runs one traced pass; span files go to ``--trace-dir``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
the per-layer ones with ``--trace 1``). For more than one workload the
metric names are prefixed with the workload. A cell that raises, or a
child that crashes or times out, counts as failed. The exit code is
non-zero when anything failed.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback

from compare import quartiles
from hostspeed import ScaledTimer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("listing1", "gap-mem", "sampled", "fig10-batch")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "sim_kips": ("kinst/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mssr_speedup": ("ratio", "higher"),
}

#: A pass of gap-mem or fig10-batch takes 8-11 s on a slow host, and
#: most of their programs are already at their builders' minimum size,
#: so a third pass would run past ``--seconds``.
MIN_PASSES = 2
SETUPS_BEFORE = 3
SETUPS_PER_PASS = 2


def _log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Child: one workload
# ---------------------------------------------------------------------------
def run_cell(cell):
    """Run one cell; a cell that raises counts as failed, so one broken
    program does not take the rest of the workload down with it."""
    import cells as cells_mod
    try:
        return cell.run()
    except Exception as exc:
        _log(traceback.format_exc())
        return cells_mod.Outcome.raised(cell, exc)


def measure(cells, seconds, timer, min_passes=MIN_PASSES, log=None,
            between=None):
    """Run passes over ``cells`` (pass loop outermost) until ``seconds``
    of cell time have accumulated and at least ``min_passes`` passes
    ran. A transient host slowdown then hits one sample of several
    cells instead of every sample of one cell. ``between`` is called
    after each pass.

    Returns ``(wall, scaled, first, tally)``: per-cell wall and scaled
    times (see :class:`hostspeed.ScaledTimer`), each cell's first
    :class:`~cells.Outcome`, and a :class:`Tally` of the operations
    attempted and failed.
    """
    wall = {cell.label: [] for cell in cells}
    scaled = {cell.label: [] for cell in cells}
    first = {}
    tally = Tally()
    elapsed = 0.0
    passes = 0
    while passes < min_passes or elapsed < seconds:
        for cell in cells:
            outcome, took, took_scaled = timer.time(
                lambda cell=cell: run_cell(cell))
            elapsed += took
            wall[cell.label].append(took)
            scaled[cell.label].append(scaled_time(outcome, took,
                                                  took_scaled))
            reference = first.setdefault(cell.label, outcome)
            tally.add(cell.label, outcome, reference,
                      "stats differ between passes")
        passes += 1
        if log:
            log("  pass %d done, %.1fs measured" % (passes, elapsed))
        if between is not None:
            between()
    return wall, scaled, first, tally


def scaled_time(outcome, wall, scaled):
    """A cell's time in reference-host seconds: its wall time times the
    factor measured where its work ran, or else the timer's ``scaled``."""
    return scaled if outcome.speed is None else wall * outcome.speed


class Tally:
    """Operations attempted and failed, with every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, label, outcome, reference, mismatch):
        """Count ``outcome``; its stats must equal ``reference``'s."""
        self.attempted += outcome.attempted
        self.errors.extend(outcome.errors)
        failed = outcome.failed
        if outcome is not reference and \
                outcome.digest() != reference.digest():
            self.errors.append("%s: %s" % (label, mismatch))
            failed = max(failed, 1)
        self.failed += failed


def _peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def run_workload(name, seed, seconds, scratch, trace_dir=None, scales=None,
                 min_passes=MIN_PASSES, log=None):
    """Measure one workload in this process; returns its result dict."""
    # Imported here: cells imports the simulator, which needs src/ on
    # the path and must not load in the parent process.
    import cells as cells_mod

    setup = cells_mod.WORKLOADS[name]
    kwargs = {"scales": scales} if scales else {}
    timer = ScaledTimer()
    setup_times = []

    def timed_setups(count):
        for _ in range(count):
            built, _wall, took = timer.time(
                lambda: setup(seed, scratch, **kwargs))
            setup_times.append(took)
        return built

    # Set-up is timed before the passes and again after every pass, so
    # its samples spread over the run like the cells' do.
    cells = timed_setups(SETUPS_BEFORE)
    for cell in cells:
        cell.prepare()
    wall, scaled, first, tally = measure(
        cells, seconds, timer, min_passes, log,
        between=lambda: timed_setups(SETUPS_PER_PASS))

    insts = sum(first[cell.label].insts for cell in cells)
    medians = {label: statistics.median(times)
               for label, times in scaled.items()}
    sim_kips = insts / sum(medians.values()) / 1e3
    wall_kips = insts / sum(statistics.median(times)
                            for times in wall.values()) / 1e3
    ipcs = {}
    for outcome in first.values():
        ipcs.update(outcome.ipcs)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "metrics": {
            "sim_kips": sim_kips,
            "setup_s": statistics.median(setup_times),
            "mssr_speedup": cells_mod.geomean_speedup(ipcs),
        },
        "wall_kips": wall_kips,
        "sim_digest": cells_mod.stats_digest(
            [d for cell in cells for d in first[cell.label].stats]),
        "cells": [],
    }
    for cell in cells:
        times = scaled[cell.label]
        q1, q3 = quartiles(times)
        result["cells"].append({
            "label": cell.label, "insts": first[cell.label].insts,
            "median_s": medians[cell.label], "q1_s": q1, "q3_s": q3,
            "wall_median_s": statistics.median(wall[cell.label]),
            "n": len(times)})

    if trace_dir is not None:
        per_layer, coverage = traced_pass(name, seed, scratch, kwargs,
                                          trace_dir, cells, first, sim_kips,
                                          tally, timer)
        result["per_layer"] = per_layer
        result["core_coverage"] = coverage
        if log:
            log("  traced pass done, overhead %.1f%%"
                % (100 * per_layer["trace.overhead_frac"]))

    result["metrics"]["peak_rss_mb"] = _peak_rss_mb()
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["errors"] = tally.errors
    return result


def traced_pass(name, seed, scratch, kwargs, trace_dir, untraced_cells,
                untraced, untraced_kips, tally, timer):
    """Set up once and run one pass with the tracing wrappers on;
    returns ``(per-layer metrics, core coverage)``.

    Expected outputs are reused from the untraced cells, and every
    cell's stats must equal its untraced stats: tracing may only cost
    time."""
    import cells as cells_mod
    import tracing

    os.makedirs(trace_dir, exist_ok=True)
    tracing.collect_worker_spans(trace_dir)       # drop stale files
    expected = {cell.label: cell.expected for cell in untraced_cells}
    tracer = tracing.Tracer(worker_dir=trace_dir)
    insts = 0
    cell_s = 0.0

    def traced_cell(cell):
        with tracer.span("cell:" + cell.label):
            return run_cell(cell)

    with tracer:
        with tracer.span("bench.setup"):
            cells = cells_mod.WORKLOADS[name](seed, scratch, **kwargs)
        for cell in cells:
            cell.expected = expected[cell.label]
            outcome, wall, scaled = timer.time(
                lambda cell=cell: traced_cell(cell))
            cell_s += scaled_time(outcome, wall, scaled)
            insts += outcome.insts
            tally.add(cell.label, outcome, untraced[cell.label],
                      "traced stats differ from untraced")
    spans = tracer.finish() + tracing.collect_worker_spans(trace_dir)
    per_layer = tracing.layer_metrics(spans, untraced_kips,
                                      insts / cell_s / 1e3,
                                      cells_mod.BATCH_JOBS)
    with open(os.path.join(trace_dir, name + ".spans.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed,
                   "spans": tracing.export_spans(spans)}, handle)
    return per_layer, tracing.core_coverage(spans)


def child_main(args):
    sys.path.insert(0, SRC)
    scratch = os.environ["TMPDIR"]
    trace_dir = os.path.abspath(args.trace_dir) if args.trace else None
    _log("%s: seed %d, %gs" % (args.child, args.seed, args.seconds))
    result = run_workload(args.child, args.seed, args.seconds, scratch,
                          trace_dir=trace_dir, log=_log)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------
def child_env(scratch):
    """The parent's environment without ``REPRO_*``, with every store
    and temporary directory pointed into ``scratch``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    env["REPRO_CKPT_DIR"] = os.path.join(scratch, "checkpoints")
    env["XDG_CACHE_HOME"] = scratch
    env["TMPDIR"] = scratch
    return env


def child_timeout(seconds, trace):
    """Seconds a child may take: its measurement, one pass more for the
    set-ups, the oracle runs and the traced pass, plus start-up. At the
    benchmark's 20 s that is 120 s, or 140 s traced; a run takes at most
    about 45 s, or 70 s traced."""
    return 60 + (4 if trace else 3) * seconds


def failed_record(name, seed, error):
    """The result of a child that crashed or timed out: one attempted
    operation, failed, and no metrics."""
    return {"workload": name, "seed": seed, "metrics": {}, "attempted": 1,
            "failed": 1, "errors": ["%s: %s" % (name, error)]}


def run_child(name, args):
    """Run one workload in a child process; returns its result dict
    (a :func:`failed_record` when the child failed)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=name + "-", dir=OUT_DIR)
    result_path = os.path.join(scratch, "result.json")
    command = [sys.executable, os.path.abspath(__file__), "--child", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", args.trace_dir,
               "--result", result_path]
    timeout = child_timeout(args.seconds, args.trace)
    error = None
    # Its own process group, so the child and any batch workers it forked
    # can be stopped together.
    proc = subprocess.Popen(command, env=child_env(scratch),
                            start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        error = "child exceeded %gs and was killed" % timeout
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if error is None and proc.returncode != 0:
            error = "child exited with code %d" % proc.returncode
        if error is not None:
            _log("%s: %s" % (name, error))
            return failed_record(name, args.seed, error)
        with open(result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(result, trace):
    """Human-readable lines for one workload's result."""
    lines = ["== %s (seed %d)" % (result["workload"], result["seed"])]
    if not result["metrics"]:
        return lines + ["  FAILED: %s" % error for error in result["errors"]]
    for name, (unit, _better) in END_TO_END.items():
        lines.append("  %-14s %14.6g %s" % (name, result["metrics"][name],
                                            unit))
    lines.append("  %-14s %14.6g ratio (%d of %d failed)" % (
        "failed_frac", result["failed"] / result["attempted"],
        result["failed"], result["attempted"]))
    lines.append("  %-14s %14.6g kinst/s (unscaled wall clock)"
                 % ("wall_kips", result["wall_kips"]))
    lines.append("  sim_digest     %s" % result["sim_digest"])
    for cell in result["cells"]:
        lines.append("    %-28s %8d insts  median %.3fs  IQR %.3f-%.3fs "
                     "(wall %.3fs) n=%d"
                     % (cell["label"], cell["insts"], cell["median_s"],
                        cell["q1_s"], cell["q3_s"], cell["wall_median_s"],
                        cell["n"]))
    if trace:
        import tracing
        lines.append("  per-layer (traced pass; core layers cover %.1f%% "
                     "of O3Core.run)" % (100 * result["core_coverage"]))
        for name, (unit, _better) in tracing.LAYER_METRICS.items():
            lines.append("    %-32s %14.6g %s"
                         % (name, result["per_layer"][name], unit))
    for error in result["errors"]:
        lines.append("  FAILED: %s" % error)
    return lines


def summary_line(results, trace):
    """The final JSON line (see the module docstring)."""
    import tracing
    correct = all(not r["errors"] and not r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    table = tracing.LAYER_METRICS if trace else END_TO_END
    for result in results:
        if not result["metrics"]:
            continue
        values = result["per_layer"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, (unit, _better) in table.items():
            metrics[prefix + metric] = {"value": values[metric],
                                        "unit": unit}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def parent_main(args):
    names = args.workload or list(WORKLOAD_NAMES)
    results = []
    for name in names:
        result = run_child(name, args)
        results.append(result)
        print("\n".join(report(result, args.trace)), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results},
                      handle, indent=1)
    summary = summary_line(results, args.trace)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report the "
                             "per-layer metrics")
    parser.add_argument("--trace-dir",
                        default=os.path.join(OUT_DIR, "trace"),
                        help="where span files go (default "
                             ".bench_out/trace)")
    parser.add_argument("--json", help="write every result to this file")
    parser.add_argument("--child", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log("no simulator sources at %s: run from a checkout of the "
             "repository" % SRC)
        return 2
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
