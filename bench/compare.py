#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark results.

    python3 bench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is the ``--json`` output of ``bench/run.py``. Runs pair by
workload and seed: the k-th base run of a workload with seed s pairs
with the k-th new run of that workload with seed s. Run the two sides
alternating, for example parent, change, parent, change, with the same
seeds on both.

For every (workload, end-to-end metric) in ``BENCHMARK.json`` this
prints both sides' median and quartiles, the share of pairs the new side
won (ties count for neither) and a verdict. The allowance is ``BOUNDS``
times the base median, and for ``setup_s`` at least ``ABSOLUTE_FLOOR``:

* ``regressed``: the new median is worse than the base median by more
  than the allowance;
* ``improved``: at least 10 pairs, the new side won at least 9 in 10 of
  them, and the medians differ by more than the base side's quartile
  spread and by more than ``MIN_GAIN`` of the base median;
* ``unresolved``: neither, and a side's quartile spread is wider than
  the allowance, unless every new run reads better than every base run;
  also when no pair has both sides' metrics;
* ``unchanged``: otherwise.

Simulated metrics (``PAIRED``) are deterministic for a given seed, so
they are judged on the per-pair differences, against an absolute
tolerance, instead of on a bound sized to the seed-to-seed spread.

``failed_frac`` (failed / attempted operations) regresses on any
increase. A run that crashed counts as failed, and so does a (workload,
seed) run that one side has and the other lacks. Paired runs must have
the same ``sim_digest``: a difference is flagged, because a change meant
only to speed up the simulator must leave every simulated statistic
identical. The exit code is 1 when anything regressed or a digest
changed.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: The smallest gain that counts, as a share of the base median. Peak
#: RSS repeats to within 0.1 %, so the quartile rule alone calls a 0.3 %
#: shift between two sets of runs of one commit a gain.
MIN_GAIN = 0.01

#: Regression bounds of the host-side metrics, as shares of the base
#: median. They are tighter than the bounds in ``BENCHMARK.json``, which
#: must also cover the spread between runs with different seeds (the
#: benchmark's acceptance check): a change is judged here by how much it
#: moves a metric, and a metric whose runs spread wider than its bound
#: reads ``unresolved``.
BOUNDS = {"sim_kips": 0.10, "setup_s": 0.20, "peak_rss_mb": 0.10}

#: Absolute allowances below which a worse median is not a regression:
#: a set-up of a few milliseconds may grow by this much.
ABSOLUTE_FLOOR = {"setup_s": 0.020}

#: Simulated metrics judged on per-pair differences: name -> absolute
#: tolerance.
PAIRED = {"mssr_speedup": 0.0005}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _row(verdict, wins, base, new):
    return {"verdict": verdict, "wins": wins,
            "base": statistics.median(base), "new": statistics.median(new),
            "base_q": quartiles(base), "new_q": quartiles(new)}


def judge(base, new, better, bound, floor=0.0, min_pairs=MIN_PAIRS):
    """Verdict for one host-time metric over paired runs; returns a dict
    with ``verdict``, ``wins`` (share of pairs the new side won), the
    medians and the quartiles."""
    if len(base) != len(new) or not base:
        raise ValueError("need the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    row = _row(None, 0.0, base, new)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    row["wins"] = wins / len(base)
    base_q1, base_q3 = row["base_q"]
    new_q1, new_q3 = row["new_q"]
    allowed = max(bound * abs(row["base"]), floor)
    worse_by = sign * (row["base"] - row["new"])
    spread = max(base_q3 - base_q1, new_q3 - new_q1)
    if sign > 0:
        all_better = min(new) > max(base)
    else:
        all_better = max(new) < min(base)
    if worse_by > allowed:
        row["verdict"] = "regressed"
    elif (len(base) >= min_pairs and row["wins"] >= WIN_SHARE
          and -worse_by > max(base_q3 - base_q1,
                              MIN_GAIN * abs(row["base"]))):
        row["verdict"] = "improved"
    elif spread > allowed and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def judge_paired(base, new, better, tolerance, min_pairs=MIN_PAIRS):
    """Verdict for one deterministic metric: the median per-pair
    difference must not be worse than ``tolerance`` (absolute)."""
    if len(base) != len(new) or not base:
        raise ValueError("need the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (n - b) for b, n in zip(base, new)]
    wins = sum(1 for gain in gains if gain > 0) / len(gains)
    gain = statistics.median(gains)
    if gain < -tolerance:
        verdict = "regressed"
    elif len(gains) >= min_pairs and wins >= WIN_SHARE and gain > tolerance:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return _row(verdict, wins, base, new)


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def load(paths):
    """``{(workload, seed, k): result}``: ``k`` numbers the runs of one
    workload and seed in file order."""
    out = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        for result in doc["workloads"]:
            key = (result["workload"], result["seed"])
            k = sum(1 for other in out if other[:2] == key)
            out[key + (k,)] = result
    return out


def _missing(key):
    workload, seed, _k = key
    return {"workload": workload, "seed": seed, "metrics": {},
            "attempted": 1, "failed": 1}


def compare(base_paths, new_paths, benchmark):
    """Verdict rows and digest flags for two sets of result files."""
    base = load(base_paths)
    new = load(new_paths)
    keys = sorted(set(base) | set(new))
    rows = []
    flags = []
    for workload in sorted({key[0] for key in keys}):
        mine = [key for key in keys if key[0] == workload]
        a = [base.get(key) or _missing(key) for key in mine]
        b = [new.get(key) or _missing(key) for key in mine]
        both = [(x, y) for x, y in zip(a, b) if x["metrics"] and y["metrics"]]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = [x["metrics"][name] for x, _y in both]
            new_values = [y["metrics"][name] for _x, y in both]
            if not both:
                row = {"verdict": "unresolved", "wins": 0.0, "base": None,
                       "new": None, "base_q": None, "new_q": None}
            elif name in PAIRED:
                row = judge_paired(base_values, new_values, metric["better"],
                                   PAIRED[name])
            else:
                row = judge(base_values, new_values, metric["better"],
                            BOUNDS.get(name, metric["bound"]),
                            ABSOLUTE_FLOOR.get(name, 0.0))
            rows.append(dict(row, workload=workload, metric=name,
                             unit=metric["unit"]))
        base_failed, new_failed = failed_frac(a), failed_frac(b)
        rows.append({"workload": workload, "metric": "failed_frac",
                     "unit": "ratio", "base": base_failed, "new": new_failed,
                     "base_q": (base_failed, base_failed),
                     "new_q": (new_failed, new_failed), "wins": 0.0,
                     "verdict": "regressed" if new_failed > base_failed
                     else "unchanged"})
        for x, y in both:
            if x["sim_digest"] != y["sim_digest"]:
                flags.append("%s seed %d: sim_digest differs (mssr_speedup "
                             "%r -> %r)" % (workload, x["seed"],
                                            x["metrics"]["mssr_speedup"],
                                            y["metrics"]["mssr_speedup"]))
    return rows, flags


def _format(row):
    if row["base"] is None:
        return "%-12s %-13s %26s %26s %6s  %s" % (
            row["workload"], row["metric"], "-", "-", "-", row["verdict"])
    return "%-12s %-13s %10.5g [%6.4g, %6.4g] %10.5g [%6.4g, %6.4g] " \
        "%5.0f%%  %s" % (row["workload"], row["metric"], row["base"],
                         row["base_q"][0], row["base_q"][1], row["new"],
                         row["new_q"][0], row["new_q"][1], 100 * row["wins"],
                         row["verdict"])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True,
                        help="result files of the reference side")
    parser.add_argument("--new", nargs="+", required=True,
                        help="result files of the side under test")
    parser.add_argument("--benchmark", default=BENCHMARK_JSON,
                        help="BENCHMARK.json with the metrics' directions")
    args = parser.parse_args(argv)
    with open(args.benchmark, "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows, flags = compare(args.base, args.new, benchmark)
    print("%-12s %-13s %26s %26s %6s  %s"
          % ("workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "wins", "verdict"))
    for row in rows:
        print(_format(row))
    for flag in flags:
        print("FLAG: " + flag)
    bad = flags or any(row["verdict"] == "regressed" for row in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
