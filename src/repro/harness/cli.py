"""Command-line front end for the simulation harness.

Reproduce single points (or small sweeps) without pytest::

    python -m repro.harness run --workload bfs --kind mssr --streams 4
    python -m repro.harness run --workload bfs --set mssr.rgid_bits=8
    python -m repro.harness run --workload bfs --workload cc --jobs 8 --json
    python -m repro.harness run --workload bfs --sampled --interval 2000
    python -m repro.harness sweep examples/sweeps/fig10_small.toml
    python -m repro.harness sweep examples/sweeps/smoke.toml --dry-run
    python -m repro.harness config show --kind mssr --set core.width=4
    python -m repro.harness config hash --kind mssr --set mssr.wpb_entries=32
    python -m repro.harness config docs --check
    python -m repro.harness trace --workload bfs --kind mssr --out bfs.jsonl
    python -m repro.harness profile --workload bfs --interval 2000
    python -m repro.harness simpoints --workload bfs --interval 2000
    python -m repro.harness perf --out BENCH_PIPELINE.json
    python -m repro.harness perf --quick --check BENCH_PIPELINE.json
    python -m repro.harness brchar --check
    python -m repro.harness list
    python -m repro.harness cache --clear
    python -m repro.harness cache prune --max-age-days 30
"""

import argparse
import json
import sys

from repro.harness.cache import Store
from repro.harness.jobs import KIND_PARAMS, SimJob
from repro.harness.runner import run_batch
from repro.log import configure as configure_logging, get_logger

_log = get_logger("harness.cli")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run paper-reproduction simulations as declarative "
                    "jobs with parallel execution and disk caching.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one or more jobs")
    run.add_argument("--workload", action="append", required=True,
                     help="workload name (repeatable), or suite:<name> "
                          "to expand a whole suite")
    _add_job_args(run)
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: REPRO_JOBS or 1)")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the on-disk store: results and sampling "
                          "checkpoints alike")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="emit full stats as JSON instead of summaries")
    run.add_argument("--sampled", action="store_true",
                     help="SimPoint-sampled execution instead of a full "
                          "detailed run")
    _add_sampling_args(run)
    run.add_argument("--warmup-branches", type=int, default=None,
                     help="branches replayed into the predictors "
                          "before each interval (default: 2048)")
    run.add_argument("--warmup-mem", type=int, default=None,
                     help="memory accesses replayed into the caches "
                          "before each interval (default: 4096)")
    run.add_argument("--detail-warmup", type=int, default=None,
                     help="instructions simulated in detail (stats "
                          "discarded) before each interval "
                          "(default: 1000)")

    sweep = sub.add_parser(
        "sweep", help="expand a declared scenario sweep into a "
                      "deduplicated job batch and run it")
    sweep.add_argument("file", help="TOML/JSON sweep declaration")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: the sweep "
                            "file's, else REPRO_JOBS)")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the expanded plan without simulating")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk store: results and "
                            "sampling checkpoints alike")
    sweep.add_argument("--json", action="store_true", dest="as_json",
                       help="emit full per-entry results as JSON")

    config = sub.add_parser(
        "config", help="print the configuration snapshot a job hashes")
    config.add_argument("action", nargs="?", default="show",
                        choices=("show", "hash", "docs"),
                        help="show the snapshot and the REPRO_* variables "
                             "that are set, print the snapshot's hash, or "
                             "(re)generate the configuration reference "
                             "docs")
    config.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="dotted model-key override (repeatable)")
    config.add_argument("--kind", default=None,
                        choices=sorted(KIND_PARAMS),
                        help="restrict the snapshot to the sections "
                             "active for this job kind (default: every "
                             "model section)")
    config.add_argument("--check", action="store_true",
                        help="docs: fail if the generated reference is "
                             "stale instead of rewriting it")
    config.add_argument("--target", default=None,
                        help="docs: file holding the generated block "
                             "(default: README.md next to the package)")

    profile = sub.add_parser(
        "profile", help="profile a workload into per-interval BBVs")
    profile.add_argument("--workload", required=True, help="workload name")
    profile.add_argument("--scale", type=float, default=0.15,
                         help="workload scale factor (default: 0.15)")
    profile.add_argument("--interval", type=int, default=None,
                         help="interval length in instructions")
    profile.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full profile as JSON")

    simpoints = sub.add_parser(
        "simpoints", help="profile + pick representative intervals")
    simpoints.add_argument("--workload", required=True,
                           help="workload name")
    simpoints.add_argument("--scale", type=float, default=0.15,
                           help="workload scale factor (default: 0.15)")
    simpoints.add_argument("--json", action="store_true", dest="as_json",
                           help="emit the selection as JSON")
    _add_sampling_args(simpoints)

    trace = sub.add_parser(
        "trace", help="simulate one job with the event bus enabled")
    trace.add_argument("--workload", required=True, help="workload name")
    _add_job_args(trace)
    trace.add_argument("--out", default=None,
                       help="JSONL event-trace path (default: "
                            "<workload>-<kind>.trace.jsonl)")
    trace.add_argument("--konata", default=None,
                       help="also write a Konata pipeline-view log here")
    trace.add_argument("--lockstep", action="store_true",
                       help="check every commit against the golden-model "
                            "emulator and report the first divergence")

    perf = sub.add_parser(
        "perf", help="measure simulator throughput on the pinned "
                     "benchmark matrix")
    perf.add_argument("--out", default="BENCH_PIPELINE.json",
                      help="report path (default: BENCH_PIPELINE.json)")
    perf.add_argument("--repeats", type=int, default=3,
                      help="timing repeats per point, best-of "
                           "(default: 3)")
    perf.add_argument("--quick", action="store_true",
                      help="measure only the small CI smoke subset")
    perf.add_argument("--check", default=None, metavar="BASELINE",
                      help="also gate the fresh numbers against this "
                           "baseline report; non-zero exit on "
                           "regression")
    perf.add_argument("--threshold", type=float, default=0.15,
                      help="allowed normalised-throughput drop for "
                           "--check (default: 0.15)")
    perf.add_argument("--profile-out", default=None, metavar="DIR",
                      help="also cProfile each point into "
                           "DIR/<point>.pstats")
    perf.add_argument("--history", default=None, metavar="JSONL",
                      help="append-only perf history file (default: "
                           "BENCH_HISTORY.jsonl beside --out)")
    perf.add_argument("--no-history", action="store_true",
                      help="skip the history append")

    brchar = sub.add_parser(
        "brchar", help="characterize the branch predictors against the "
                       "synthetic probe matrix")
    brchar.add_argument("--trace-len", type=int, default=20000,
                        help="branches per probe trace (default: 20000)")
    brchar.add_argument("--check", action="store_true",
                        help="assert the predictor signatures (TAGE "
                             "history length, loop exit, SC bias, tag "
                             "aliasing); non-zero exit on failure")
    brchar.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the matrix (and check results) as "
                             "JSON")

    lst = sub.add_parser("list", help="list registered workloads")
    lst.add_argument("--suite", help="restrict to one suite")

    cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk store (results and "
                      "checkpoints)")
    cache.add_argument("action", nargs="?", choices=("prune",),
                       help="'prune' removes aged / excess entries")
    cache.add_argument("--clear", action="store_true",
                       help="drop the entries of the current code "
                            "fingerprint")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="prune: drop entries older than this")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="prune: drop oldest entries beyond this "
                            "total size")
    return parser


def _add_sampling_args(parser):
    """SimPoint knobs shared by ``run --sampled`` and ``simpoints``."""
    parser.add_argument("--interval", type=int, default=None,
                        help="interval length in instructions "
                             "(default: 100000)")
    parser.add_argument("--max-k", type=int, default=None,
                        help="maximum number of clusters (default: 8)")


def _collect_sampling(args):
    """A SamplingSpec kwargs dict from CLI flags (only set flags)."""
    spec = {}
    for attr, key in (("interval", "interval_insts"), ("max_k", "max_k"),
                      ("warmup_branches", "warmup_branches"),
                      ("warmup_mem", "warmup_mem"),
                      ("detail_warmup", "detail_warmup_insts")):
        value = getattr(args, attr, None)
        if value is not None:
            spec[key] = value
    return spec


def _add_job_args(parser):
    """Job-shape flags shared by ``run`` and ``trace``."""
    parser.add_argument("--kind", default="baseline",
                        choices=sorted(KIND_PARAMS),
                        help="configuration kind (default: baseline)")
    parser.add_argument("--scale", type=float, default=0.15,
                        help="workload scale factor (default: 0.15)")
    parser.add_argument("--streams", type=int, help="MSSR stream count")
    parser.add_argument("--wpb", type=int, help="MSSR WPB entries/stream")
    parser.add_argument("--log", type=int, help="MSSR squash-log entries")
    parser.add_argument("--sets", type=int, help="RI/DIR table sets")
    parser.add_argument("--ways", type=int, help="RI/DIR associativity")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="dotted configuration override, e.g. "
                             "mssr.rgid_bits=8 (repeatable)")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="per-job simulated-cycle guard")
    parser.add_argument("--wall-timeout", type=float, default=None,
                        help="per-job wall-clock guard in seconds")


def _collect_params(args):
    params = {}
    for key in ("streams", "wpb", "log", "sets", "ways"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _collect_overrides(args):
    from repro.config.tree import parse_overrides
    return parse_overrides(getattr(args, "overrides", []) or [])


def _expand_workloads(names):
    from repro.workloads.registry import get_workload, suite_names
    out = []
    for name in names:
        if name.startswith("suite:"):
            out.extend(suite_names(name[len("suite:"):]))
        else:
            get_workload(name)   # fail fast on unknown names
            out.append(name)
    return out


def _cmd_run(args, out):
    try:
        sampling = None
        if args.sampled:
            sampling = _collect_sampling(args) or True
        workloads = _expand_workloads(args.workload)
        jobset = [SimJob(name, args.kind, args.scale,
                         _collect_params(args),
                         max_cycles=args.max_cycles,
                         wall_seconds=args.wall_timeout,
                         sampling=sampling,
                         config=_collect_overrides(args))
                  for name in workloads]
    except (KeyError, ValueError) as exc:
        _log.error("%s", exc)
        return 2

    from repro.harness.runner import JobFailure
    try:
        report = run_batch(jobset, n_jobs=args.jobs,
                           cache=False if args.no_cache else None)
    except JobFailure as exc:
        _log.error("%s", exc)
        return 1

    if args.as_json:
        payload = [{"job": job.spec(),
                    "job_hash": job.job_hash(),
                    "config_hash": job.config_hash(),
                    "stats": report.results[job].as_dict()}
                   for job in jobset]
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for job in jobset:
            out.write("%-40s %s\n" % (job.label(),
                                      report.results[job].summary()))
    out.write("# %s\n" % report.summary())
    return 0


def _cmd_trace(args, out):
    from repro.harness.jobs import _WallClock
    from repro.obs import JsonlTraceSink, KonataSink, Observability, \
        run_lockstep
    from repro.pipeline.core import O3Core
    from repro.workloads import get_workload

    try:
        job = SimJob(args.workload, args.kind, args.scale,
                     _collect_params(args), max_cycles=args.max_cycles,
                     wall_seconds=args.wall_timeout,
                     config=_collect_overrides(args))
        workload = get_workload(job.workload)
    except (KeyError, ValueError) as exc:
        _log.error("%s", exc)
        return 2

    out_path = args.out or "%s-%s.trace.jsonl" % (job.workload, job.kind)
    jsonl = JsonlTraceSink(out_path)
    sinks = [jsonl]
    if args.konata:
        sinks.append(KonataSink(args.konata))
    obs = Observability(sinks=sinks)

    _mod, prog = workload.build(job.scale)
    config = job.build_config()
    scheme = job.build_scheme()

    try:
        with _WallClock(job.wall_seconds):
            if args.lockstep:
                def _factory(program, cfg, reuse_scheme=None):
                    return O3Core(program, cfg, reuse_scheme=reuse_scheme,
                                  obs=obs)

                outcome = run_lockstep(prog, config, reuse_scheme=scheme,
                                       max_cycles=job.max_cycles,
                                       core_factory=_factory)
                if not outcome.ok:
                    _log.error("%s", outcome.divergence.format())
                    return 1
                stats = outcome.result.stats
                out.write("lockstep OK: %d commit(s) match the emulator\n"
                          % outcome.commits)
            else:
                core = O3Core(prog, config, reuse_scheme=scheme, obs=obs)
                stats = core.run(max_cycles=job.max_cycles).stats
    finally:
        obs.close()

    out.write("%-40s %s\n" % (job.label(), stats.summary()))
    out.write("trace  : %s (%d events)\n" % (out_path, jsonl.count))
    if args.konata:
        out.write("konata : %s\n" % args.konata)
    return 0


def _build_profile(args):
    """(program, BBVProfile) for the profile/simpoints subcommands."""
    from repro.sampling.bbv import DEFAULT_INTERVAL, profile_program
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    _mod, prog = workload.build(args.scale)
    interval = args.interval or DEFAULT_INTERVAL
    return prog, profile_program(prog, interval)


def _cmd_profile(args, out):
    try:
        _prog, profile = _build_profile(args)
    except (KeyError, ValueError) as exc:
        _log.error("%s", exc)
        return 2

    if args.as_json:
        json.dump(profile.as_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
        return 0
    out.write("%s scale=%s: %d insts, %d interval(s) x %d, "
              "%d block leader(s)\n"
              % (args.workload, args.scale, profile.total_insts,
                 profile.num_intervals, profile.interval_insts,
                 len(profile.block_leaders())))
    for iv in profile.intervals:
        out.write("  interval %-3d [%7d..%7d)  %d block(s)\n"
                  % (iv.index, iv.start_inst,
                     iv.start_inst + iv.num_insts, len(iv.bbv)))
    return 0


def _cmd_simpoints(args, out):
    from repro.sampling.simpoint import pick_simpoints

    try:
        _prog, profile = _build_profile(args)
        spec = _collect_sampling(args)
        selection = pick_simpoints(profile,
                                   max_k=spec.get("max_k", 8))
    except (KeyError, ValueError) as exc:
        _log.error("%s", exc)
        return 2

    if args.as_json:
        json.dump(selection.as_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
        return 0
    out.write("%s scale=%s: k=%d of %d interval(s), err<=%.3f, "
              "coverage=%.1f%%\n"
              % (args.workload, args.scale, selection.k,
                 selection.num_intervals, selection.error_bound,
                 100.0 * selection.coverage()))
    for point in selection.points:
        out.write("  interval %-3d start=%-7d insts=%-6d weight=%.3f "
                  "(%d member(s))\n"
                  % (point.index, point.start_inst, point.num_insts,
                     point.weight, point.cluster_size))
    return 0


def _cmd_perf(args, out):
    import os

    from repro.perf.bench import (DEFAULT_MATRIX, QUICK_NAMES,
                                  append_history, build_report,
                                  calibration_kops, compare_reports,
                                  load_report, profile_point, run_bench,
                                  select_points, write_report)

    points = select_points(QUICK_NAMES) if args.quick else DEFAULT_MATRIX
    out.write("calibrating...\n")
    calibration = calibration_kops()
    out.write("calibration: %.1f kops/s\n" % calibration)
    results = run_bench(points, repeats=args.repeats,
                        log=lambda line: out.write(line + "\n"))
    report = build_report(results, calibration=calibration)
    write_report(report, args.out)
    out.write("report : %s (commit %s)\n" % (args.out, report["commit"]))

    if not args.no_history:
        history = args.history or os.path.join(
            os.path.dirname(os.path.abspath(args.out)) or ".",
            "BENCH_HISTORY.jsonl")
        append_history(report, history)
        out.write("history: %s\n" % history)

    if args.profile_out:
        os.makedirs(args.profile_out, exist_ok=True)
        for point in points:
            path = os.path.join(args.profile_out,
                                "%s.pstats" % point.name)
            profile_point(point, path)
            out.write("profile: %s\n" % path)

    if args.check:
        try:
            baseline = load_report(args.check)
        except (OSError, ValueError) as exc:
            _log.error("cannot load baseline %s: %s", args.check, exc)
            return 2
        failures = compare_reports(report, baseline,
                                   threshold=args.threshold)
        if failures:
            for failure in failures:
                _log.error("perf regression: %s", failure)
            return 1
        out.write("gate   : OK (no point below %.0f%% of baseline)\n"
                  % ((1.0 - args.threshold) * 100.0))
    return 0


def _cmd_sweep(args, out):
    from repro.config.sweep import SweepError, load_sweep
    from repro.harness.runner import JobFailure

    try:
        sweep = load_sweep(args.file)
        plan = sweep.expand()
    except (SweepError, KeyError, ValueError) as exc:
        _log.error("%s", exc)
        return 2

    out.write("%s%s\n" % ("# " if args.as_json else "", plan.summary()))
    if args.dry_run:
        for entry in plan.entries:
            out.write("%-14s %-44s job=%s config=%s\n"
                      % (entry.scenario, entry.job.label(),
                         entry.job.job_hash()[:12],
                         entry.job.config_hash()[:12]))
        return 0

    n_jobs = args.jobs if args.jobs is not None else sweep.jobs
    try:
        report = run_batch(plan.jobs, n_jobs=n_jobs,
                           cache=False if args.no_cache else None)
    except JobFailure as exc:
        _log.error("%s", exc)
        return 1

    if args.as_json:
        payload = {
            "sweep": sweep.name,
            "declared": plan.declared,
            "unique": len(plan.jobs),
            "runner": {"executed": report.executed,
                       "memo_hits": report.memo_hits,
                       "disk_hits": report.disk_hits,
                       "groups": report.groups,
                       "program_loads": report.program_loads},
            "entries": [{"scenario": entry.scenario,
                         "job": entry.job.spec(),
                         "job_hash": entry.job.job_hash(),
                         "config_hash": entry.job.config_hash(),
                         "stats": report.results[entry.job].as_dict()}
                        for entry in plan.entries],
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for entry in plan.entries:
            out.write("%-14s %-44s %s\n"
                      % (entry.scenario, entry.job.label(),
                         report.results[entry.job].summary()))
    out.write("# %s\n" % report.summary())
    return 0


def _cmd_config(args, out):
    if args.action == "docs":
        from repro.config.docs import update_file
        import os
        target = args.target
        if target is None:
            target = os.path.join(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))))), "README.md")
        try:
            fresh = update_file(target, check=args.check)
        except (OSError, ValueError) as exc:
            _log.error("%s", exc)
            return 2
        if args.check and not fresh:
            _log.error("%s is stale; regenerate with "
                       "`python -m repro.harness config docs`", target)
            return 1
        out.write("%s: %s\n" % (target,
                                "up to date" if fresh else "rewritten"))
        return 0

    from repro.config import envreg
    from repro.config.tree import job_snapshot
    from repro.utils.hashing import canonical_hash
    try:
        snapshot = job_snapshot(args.kind, _collect_overrides(args))
    except (KeyError, ValueError) as exc:
        _log.error("%s", exc)
        return 2

    if args.action == "hash":
        out.write("%s\n" % canonical_hash(snapshot))
        return 0
    section = None
    for key in sorted(snapshot):
        if key.partition(".")[0] != section:
            if section is not None:
                out.write("\n")
            section = key.partition(".")[0]
            out.write("[%s]\n" % section)
        out.write("%s = %s\n" % (key, json.dumps(snapshot[key])))
    out.write("\n# config hash: %s\n" % canonical_hash(snapshot))
    for var, raw, parsed in envreg.environment_report():
        if raw is not None:
            out.write("# %s=%s (%s)\n" % (var.name, raw,
                                          json.dumps(parsed)))
    return 0


def _cmd_list(args, out):
    from repro.workloads.registry import SUITES, get_workload, \
        suite_names, workload_names
    if args.suite:
        try:
            names = suite_names(args.suite)
        except KeyError:
            _log.error("unknown suite %r (have: %s)",
                       args.suite, ", ".join(sorted(SUITES)))
            return 2
    else:
        names = workload_names()
    for name in names:
        workload = get_workload(name)
        out.write("%-18s %-10s %s\n" % (name, workload.suite,
                                        workload.description))
    return 0


def _cmd_brchar(args, out):
    from repro.workloads.brchar.driver import (characterization_table,
                                               signature_checks)
    rows = characterization_table(n=args.trace_len)
    checks = signature_checks(rows) if args.check else []
    if args.as_json:
        payload = {"trace_len": args.trace_len, "matrix": rows}
        if args.check:
            payload["checks"] = [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in checks]
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.write("%-10s %-9s %10s %10s %8s\n"
                  % ("probe", "predictor", "branches", "mispred", "mpb"))
        for row in rows:
            out.write("%-10s %-9s %10d %10d %8.4f\n"
                      % (row["probe"], row["predictor"], row["branches"],
                         row["mispredicts"], row["mpb"]))
        for name, passed, detail in checks:
            out.write("check %-20s %s  (%s)\n"
                      % (name, "PASS" if passed else "FAIL", detail))
    if any(not passed for _name, passed, _detail in checks):
        return 1
    return 0


def _cmd_cache(args, out):
    store = Store.from_env() or Store()
    if args.clear:
        out.write("removed %d entr(y/ies)\n" % store.clear())
    if args.action == "prune":
        if args.max_age_days is None and args.max_bytes is None:
            _log.error("prune needs --max-age-days and/or --max-bytes")
            return 2
        removed = store.prune(max_age_days=args.max_age_days,
                              max_bytes=args.max_bytes)
        out.write("pruned %d entr(y/ies)\n" % removed)
    census = store.census()
    entries, size = census.pop(store.fingerprint, (0, 0))
    out.write("cache dir   : %s\n" % store.directory)
    out.write("fingerprint : %s\n" % store.fingerprint)
    out.write("entries     : %d (%d bytes)\n" % (entries, size))
    out.write("orphaned    : %d entr(y/ies) (%d bytes) under %d stale "
              "fingerprint(s)\n"
              % (sum(count for count, _size in census.values()),
                 sum(size for _count, size in census.values()),
                 len(census)))
    return 0


def main(argv=None, out=None):
    configure_logging()
    args = _build_parser().parse_args(argv)
    out = out or sys.stdout
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "config":
        return _cmd_config(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "simpoints":
        return _cmd_simpoints(args, out)
    if args.command == "perf":
        return _cmd_perf(args, out)
    if args.command == "brchar":
        return _cmd_brchar(args, out)
    if args.command == "list":
        return _cmd_list(args, out)
    return _cmd_cache(args, out)


if __name__ == "__main__":
    sys.exit(main())
