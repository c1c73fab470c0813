"""Programmatic reproduction of every table and figure in the paper.

Each ``table*``/``fig*`` function declares the full set of (workload x
configuration) points it needs as :class:`~repro.harness.SimJob`
batches and submits them to the simulation harness in one call, then
assembles plain data structures from the results. The harness layers an
in-process memo (shared baseline runs simulate once per process, even
across figures), an on-disk JSON cache (``REPRO_CACHE_DIR``) and a
``multiprocessing`` pool (the ``jobs=`` knob, default ``REPRO_JOBS``)
under every batch — see :mod:`repro.harness`.

The benchmark files under ``benchmarks/`` print and sanity-check the
returned structures, and EXPERIMENTS.md records paper-vs-measured
values.

Simulated runs are scaled down from the paper's SimPoint/full-input
sizes via the ``scale`` parameter — shapes (who wins, where) are the
reproduction target, not absolute cycle counts.
"""

import math

from repro.harness import SimJob, submit
from repro.workloads.registry import suite_names
from repro.hwmodels.storage import StorageModel
from repro.hwmodels.synthesis import (
    reconvergence_detection_report,
    reuse_test_report,
)


def _mssr_job(name, scale, streams, wpb, log):
    return SimJob(name, "mssr", scale,
                  {"streams": streams, "wpb": wpb, "log": log})


def run_workload(name, kind="baseline", scale=0.15, jobs=None,
                 sampling=None, **params):
    """Simulate one workload under one configuration; returns SimStats.

    ``kind``: ``baseline``, ``mssr``, ``ri`` or ``dir``. A thin wrapper
    over the batch harness: results are memoised per job hash for the
    process lifetime and persisted to the on-disk cache. ``sampling``
    (``True`` or a :class:`~repro.sampling.SamplingSpec`-shaped dict)
    switches to SimPoint-sampled execution — the returned SimStats is
    the weighted whole-program estimate.
    """
    job = SimJob(name, kind, scale, params, sampling=sampling)
    return submit([job], n_jobs=jobs)[job]


def run_sweep(source, jobs=None):
    """Expand and run a declared scenario sweep.

    ``source`` is a sweep file path (TOML/JSON), a parsed sweep dict or
    a :class:`~repro.config.sweep.Sweep`. Returns
    ``(plan, {entry: SimStats})`` where ``plan`` is the expanded
    :class:`~repro.config.sweep.SweepPlan` and the dict has one row per
    *declared* entry — deduplicated jobs share the same SimStats
    object. The CLI equivalent is ``python -m repro.harness sweep``.
    """
    from repro.config.sweep import Sweep, load_sweep, sweep_from_dict
    if isinstance(source, Sweep):
        sweep = source
    elif isinstance(source, dict):
        sweep = sweep_from_dict(source)
    else:
        sweep = load_sweep(source)
    plan = sweep.expand()
    results = submit(plan.jobs,
                     n_jobs=jobs if jobs is not None else sweep.jobs)
    return plan, {entry: results[entry.job] for entry in plan.entries}


def speedup(stats, base_stats):
    """Runtime improvement of ``stats`` over ``base_stats`` (cycles)."""
    return base_stats.cycles / stats.cycles - 1.0


def geomean_improvement(improvements):
    """Geometric mean of (1 + improvement) - 1."""
    if not improvements:
        return 0.0
    log_sum = sum(math.log1p(v) for v in improvements)
    return math.expm1(log_sum / len(improvements))


# ---------------------------------------------------------------------------
# Table 1: microbenchmark speedups, MSSR streams vs RI associativity
# ---------------------------------------------------------------------------
def table1_microbench(scale=0.2, jobs=None):
    """Returns {bench: {("mssr", n): improvement, ("ri", w): improvement}}.

    Matches the paper's setup: MSSR tracks 1/2/4 streams of up to 64
    instructions; RI uses a 64-set table with 1/2/4 ways (capacity-
    matched).
    """
    benches = ("nested-mispred", "linear-mispred")
    base_jobs = {bench: SimJob(bench, "baseline", scale)
                 for bench in benches}
    mssr_jobs = {(bench, streams): _mssr_job(bench, scale, streams, 16, 64)
                 for bench in benches for streams in (1, 2, 4)}
    ri_jobs = {(bench, ways): SimJob(bench, "ri", scale,
                                     {"sets": 64, "ways": ways})
               for bench in benches for ways in (1, 2, 4)}
    results = submit(list(base_jobs.values()) + list(mssr_jobs.values())
                     + list(ri_jobs.values()), n_jobs=jobs)

    out = {}
    for bench in benches:
        base = results[base_jobs[bench]]
        row = {}
        for streams in (1, 2, 4):
            row[("mssr", streams)] = speedup(
                results[mssr_jobs[(bench, streams)]], base)
        for ways in (1, 2, 4):
            row[("ri", ways)] = speedup(
                results[ri_jobs[(bench, ways)]], base)
        out[bench] = row
    return out


# ---------------------------------------------------------------------------
# Figure 3: RI reuse-table replacement frequencies
# ---------------------------------------------------------------------------
def fig3_ri_replacements(scale=0.2, num_sets=64, jobs=None):
    """Returns {(bench, ways): per-set replacement count list}."""
    jobset = {(bench, ways): SimJob(bench, "ri", scale,
                                    {"sets": num_sets, "ways": ways})
              for bench in ("nested-mispred", "linear-mispred")
              for ways in (1, 2, 4)}
    results = submit(list(jobset.values()), n_jobs=jobs)
    return {key: list(results[job].ri_set_replacements)
            for key, job in jobset.items()}


# ---------------------------------------------------------------------------
# Figure 4: reconvergence-type breakdown (and the intro's "10% avg / 31%
# max missed by single-stream" statistic)
# ---------------------------------------------------------------------------
def fig4_reconvergence_types(scale=0.15, workloads=None, jobs=None):
    """Returns {workload: (simple, software, hardware)} as fractions."""
    if workloads is None:
        workloads = (suite_names("spec2006") + suite_names("spec2017")
                     + suite_names("gap"))
    jobset = {name: _mssr_job(name, scale, 4, 16, 64)
              for name in workloads}
    results = submit(list(jobset.values()), n_jobs=jobs)

    out = {}
    for name in workloads:
        stats = results[jobset[name]]
        total = (stats.reconv_simple + stats.reconv_software
                 + stats.reconv_hardware)
        if total == 0:
            out[name] = (0.0, 0.0, 0.0)
        else:
            out[name] = (stats.reconv_simple / total,
                         stats.reconv_software / total,
                         stats.reconv_hardware / total)
    return out


def multi_stream_fraction(breakdown):
    """Fraction of reconvergence missed by single-stream tracking
    (software-induced + hardware-induced), per workload and averaged."""
    fractions = {name: soft + hard
                 for name, (_simple, soft, hard) in breakdown.items()}
    values = [v for v in fractions.values()]
    avg = sum(values) / len(values) if values else 0.0
    return fractions, avg


# ---------------------------------------------------------------------------
# Figure 10: IPC improvement across stream/WPB configurations
# ---------------------------------------------------------------------------
#: (streams, wpb entries) points from the paper; the squash log stream is
#: 4x the WPB size (4 instructions per fetch block on average, 4.1.2).
FIG10_CONFIGS = ((1, 16), (1, 64), (2, 64), (4, 64))
FIG10_UPPER_BOUND = (4, 1024)


def fig10_ipc_sweep(scale=0.12, suites=("spec2006", "spec2017", "gap"),
                    configs=FIG10_CONFIGS, jobs=None, sampling=None):
    """Returns {suite: {workload: {(streams, wpb): ipc_improvement}}}.

    ``sampling`` runs every point SimPoint-sampled instead of in full
    (same spec across the sweep, so baselines and MSSR points measure
    the same intervals and the improvement ratios stay comparable).
    """
    base_jobs = {}
    point_jobs = {}
    for suite in suites:
        for workload in suite_names(suite):
            base_jobs[workload] = SimJob(workload, "baseline", scale,
                                         sampling=sampling)
            for streams, wpb in configs:
                point_jobs[(workload, streams, wpb)] = SimJob(
                    workload, "mssr", scale,
                    {"streams": streams, "wpb": wpb,
                     "log": min(4 * wpb, 4096)},
                    sampling=sampling)
    results = submit(list(base_jobs.values()) + list(point_jobs.values()),
                     n_jobs=jobs)

    out = {}
    for suite in suites:
        suite_out = {}
        for workload in suite_names(suite):
            base = results[base_jobs[workload]]
            row = {}
            for streams, wpb in configs:
                stats = results[point_jobs[(workload, streams, wpb)]]
                row[(streams, wpb)] = stats.ipc / base.ipc - 1.0
            suite_out[workload] = row
        out[suite] = suite_out
    return out


def fig10_suite_averages(sweep):
    """Average improvement per suite per configuration."""
    out = {}
    for suite, rows in sweep.items():
        config_values = {}
        for row in rows.values():
            for config, value in row.items():
                config_values.setdefault(config, []).append(value)
        out[suite] = {config: geomean_improvement(values)
                      for config, values in config_values.items()}
    return out


# ---------------------------------------------------------------------------
# Figure 11: reconvergence stream distance
# ---------------------------------------------------------------------------
def fig11_stream_distance(scale=0.12, workloads=None, streams=8,
                          jobs=None):
    """Aggregated stream-distance histogram {distance: count}.

    Uses a deep (8-stream) configuration so distances beyond the default
    4 are observable, as the paper's profiling does.
    """
    if workloads is None:
        workloads = (suite_names("spec2006") + suite_names("spec2017")
                     + suite_names("gap"))
    jobset = [_mssr_job(name, scale, streams, 16, 64)
              for name in workloads]
    results = submit(jobset, n_jobs=jobs)

    hist = {}
    for job in jobset:
        for distance, count in results[job].stream_distance_hist.items():
            hist[distance] = hist.get(distance, 0) + count
    return hist


def distance_cdf(hist):
    """Cumulative fraction by distance (sorted)."""
    total = sum(hist.values())
    out = []
    running = 0
    for distance in sorted(hist):
        running += hist[distance]
        out.append((distance, running / total if total else 0.0))
    return out


# ---------------------------------------------------------------------------
# Figure 12: RGID (MSSR) vs RI on GAP at matched capacities
# ---------------------------------------------------------------------------
def fig12_rgid_vs_ri(scale=0.12,
                     rgid_configs=((1, 64), (2, 64), (4, 64),
                                   (1, 128), (2, 128), (4, 128)),
                     ri_configs=((64, 1), (64, 2), (64, 4),
                                 (128, 1), (128, 2), (128, 4)),
                     jobs=None):
    """Returns {workload: {"rgid (n,p)": imp, "ri (sets,ways)": imp}}.

    ``rgid_configs`` are (streams, log entries); WPB entries are one
    quarter of the log size (Section 4.1.2). ``ri_configs`` are
    (sets, ways) — total entries are capacity-matched against RGID.
    """
    workloads = suite_names("gap")
    base_jobs = {name: SimJob(name, "baseline", scale)
                 for name in workloads}
    rgid_jobs = {(name, streams, log): _mssr_job(
                     name, scale, streams, max(4, log // 4), log)
                 for name in workloads for streams, log in rgid_configs}
    ri_jobs = {(name, sets, ways): SimJob(name, "ri", scale,
                                          {"sets": sets, "ways": ways})
               for name in workloads for sets, ways in ri_configs}
    results = submit(list(base_jobs.values()) + list(rgid_jobs.values())
                     + list(ri_jobs.values()), n_jobs=jobs)

    out = {}
    for name in workloads:
        base = results[base_jobs[name]]
        row = {}
        for streams, log in rgid_configs:
            stats = results[rgid_jobs[(name, streams, log)]]
            row[("rgid", streams, log)] = stats.ipc / base.ipc - 1.0
        for sets, ways in ri_configs:
            stats = results[ri_jobs[(name, sets, ways)]]
            row[("ri", sets, ways)] = stats.ipc / base.ipc - 1.0
        out[name] = row
    return out


# ---------------------------------------------------------------------------
# Tables 2 and 4: hardware models
# ---------------------------------------------------------------------------
def table2_storage(num_streams=4, wpb_entries=16, squash_log_entries=64):
    model = StorageModel(num_streams=num_streams, wpb_entries=wpb_entries,
                         squash_log_entries=squash_log_entries)
    return model.report()


def table4_synthesis():
    recon = [reconvergence_detection_report(4, m) for m in (16, 32, 64)]
    reuse = [reuse_test_report(w) for w in (4, 6, 8)]
    return {"reconvergence_detection": recon, "reuse_test": reuse}
