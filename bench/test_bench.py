"""Self-tests of the benchmark (outside the tier-1 suite).

    python3 -m pytest bench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cells  # noqa: E402
import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = cells.tiny()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_cells(name, seed, scratch):
    built = cells.WORKLOADS[name](seed, str(scratch), scales=TINY)
    outcomes = []
    for cell in built:
        cell.prepare()
        outcomes.append(cell.run())
    return built, outcomes


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_cells_pass_output_checks(name, tmp_path):
    from repro.harness import runner
    execute = runner.execute
    built, outcomes = _run_cells(name, 1, tmp_path)
    assert runner.execute is execute
    assert built
    for outcome in outcomes:
        assert outcome.errors == []
        assert outcome.failed == 0
        assert outcome.insts > 0
        # Only the batch's work runs outside this process.
        assert (outcome.speed is not None) == (name == "fig10-batch")


def test_probed_records_every_call_in_its_own_process(tmp_path):
    calls = hostspeed.probed(lambda: None, str(tmp_path))
    pid = os.fork()
    if pid == 0:
        calls()
        calls()
        os._exit(0)
    os.waitpid(pid, 0)
    calls()
    child = (tmp_path / ("probe-%d.jsonl" % pid)).read_text()
    ours = (tmp_path / ("probe-%d.jsonl" % os.getpid())).read_text()
    assert len(child.splitlines()) == 2 and len(ours.splitlines()) == 1
    assert hostspeed.worker_speed(str(tmp_path)) > 0
    assert os.listdir(tmp_path) == []


def test_worker_speed_weights_calls_by_time(tmp_path):
    nominal = hostspeed.NOMINAL_S
    (tmp_path / "probe-1.jsonl").write_text(
        json.dumps([3.0, nominal, nominal]) + "\n")
    (tmp_path / "probe-2.jsonl").write_text(
        json.dumps([1.0, nominal, 3 * nominal]) + "\n")
    assert hostspeed.worker_speed(str(tmp_path)) == \
        pytest.approx((3.0 + 0.5 ** hostspeed.SENSITIVITY) / 4.0)
    assert hostspeed.worker_speed(str(tmp_path)) is None


@pytest.mark.parametrize("program", sorted(cells.GAP_PROGRAMS))
def test_seed_one_rebuilds_the_registered_graphs(program):
    from repro.workloads import get_workload
    _mod, ours = cells.GAP_PROGRAMS[program](0.2, 1)
    _mod, registered = get_workload(program).build(0.2)
    assert ours.disassemble() == registered.disassemble()
    assert ours.initial_memory() == registered.initial_memory()


def test_checks_catch_a_wrong_result(tmp_path):
    built = cells.setup_listing1(1, str(tmp_path), scales=TINY)
    cell = built[0]
    cell.prepare()
    result, insts = cell.expected
    cell.expected = (result + 1, insts)
    outcome = cell.run()
    assert outcome.failed == 1 and outcome.errors


def _saved_attributes():
    out = {}
    for module_name, path, _name, _kind in tracing.TARGETS:
        owner, attr = tracing._resolve(module_name, path)
        out[(module_name, path)] = (owner, attr, vars(owner).get(attr))
    return out


def test_uninstall_restores_every_attribute_and_stats(tmp_path):
    before = _saved_attributes()
    cell = cells.setup_listing1(1, str(tmp_path), scales=TINY)[1]
    cell.prepare()
    untraced = cell.run()
    tracer = tracing.Tracer(worker_dir=str(tmp_path))
    with tracer:
        for owner, attr, original in before.values():
            assert vars(owner).get(attr) is not original
        with tracer.span("cell"):
            traced = cell.run()
    for owner, attr, original in before.values():
        assert vars(owner).get(attr) is original, (owner, attr)
    assert traced.errors == []
    assert traced.digest() == untraced.digest()
    index = tracing.SpanIndex(tracer.finish())
    assert index.count["pipeline.run"] == 1
    assert index.count["pipeline.commit"] == untraced.stats[0]["cycles"]
    assert index.count["mssr.try_reuse"] > 0


def test_traced_run_reports_every_layer_metric(tmp_path):
    trace_dir = tmp_path / "trace"
    result = run.run_workload("listing1", 1, 0.0, str(tmp_path),
                              trace_dir=str(trace_dir), scales=TINY,
                              min_passes=1)
    assert result["errors"] == []
    assert set(result["per_layer"]) == set(tracing.LAYER_METRICS)
    assert result["per_layer"]["pipeline.rename_s"] > 0
    assert 0.5 < result["core_coverage"] < 1.0
    with open(trace_dir / "listing1.spans.json", encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    assert {"id", "parent", "name", "start", "end"} <= set(spans[0])
    # Inside O3Core.run every wrapped call is a core layer's, so the
    # covered share and the run loop's own share add up to the whole.
    run_s = sum(span["end"] - span["start"] for span in spans
                if span["name"] == "pipeline.run")
    loop_share = result["per_layer"]["pipeline.loop_s"] / run_s
    assert abs(result["core_coverage"] + loop_share - 1.0) < 0.01


def test_seed_changes_only_seeded_workloads(tmp_path):
    # Seed 3, not 2: at the tiny scales seeds 1 and 2 happen to pick the
    # same simpoints (at the benchmark's scales they do not).
    digests = {}
    for name in ("listing1", "gap-mem", "sampled"):
        for seed in (1, 3):
            result = run.run_workload(name, seed, 0.0, str(tmp_path),
                                      scales=TINY, min_passes=1)
            assert result["errors"] == []
            digests[(name, seed)] = result["sim_digest"]
    assert digests[("listing1", 1)] == digests[("listing1", 3)]
    assert digests[("gap-mem", 1)] != digests[("gap-mem", 3)]
    assert digests[("sampled", 1)] != digests[("sampled", 3)]


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------
def test_judge_clear_win():
    base = [100.0 + i % 3 for i in range(10)]
    new = [120.0 + i % 3 for i in range(10)]
    assert compare.judge(base, new, "higher", 0.1)["verdict"] == "improved"
    assert compare.judge(new, base, "higher", 0.1)["verdict"] == "regressed"


def test_a_tiny_steady_gain_is_no_gain():
    base = [30.30 + 0.001 * i for i in range(10)]
    new = [value - 0.09 for value in base]
    assert compare.judge(base, new, "lower", 0.1)["verdict"] == "unchanged"


def test_judge_tie():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    verdict = compare.judge(base, list(reversed(base)), "lower", 0.1)
    assert verdict["verdict"] == "unchanged"


def test_judge_noisy_is_unresolved():
    base = [60.0, 100.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    new = [100.0, 140.0, 60.0, 120.0, 80.0, 130.0, 70.0, 110.0, 90.0, 100.0]
    assert compare.judge(base, new, "higher", 0.1)["verdict"] == \
        "unresolved"


def test_gain_needs_ten_pairs():
    verdict = compare.judge([100.0, 101.0, 102.0], [130.0, 131.0, 132.0],
                            "higher", 0.1)
    assert verdict["verdict"] == "unchanged"


def test_setup_floor_absorbs_a_few_milliseconds():
    base = [0.006, 0.0061, 0.0059]
    assert compare.judge(base, [0.012] * 3, "lower", 0.25,
                         floor=0.020)["verdict"] == "unchanged"
    assert compare.judge(base, [0.040] * 3, "lower", 0.25,
                         floor=0.020)["verdict"] == "regressed"


def test_paired_metric_ignores_the_seed_spread():
    # Seeds spread the values by far more than the tolerance, but each
    # pair agrees exactly: unchanged. Losing 0.001 on every seed is a
    # regression although it is small against the seed-to-seed spread.
    base = [1.002, 1.006, 1.010, 1.004]
    assert compare.judge_paired(base, list(base), "higher",
                                0.0005)["verdict"] == "unchanged"
    worse = [value - 0.001 for value in base]
    assert compare.judge_paired(base, worse, "higher",
                                0.0005)["verdict"] == "regressed"


def _result(seed, failed=0, digest="d", sim_kips=80.0):
    return {"workload": "listing1", "seed": seed, "attempted": 12,
            "failed": failed, "sim_digest": digest,
            "metrics": {"sim_kips": sim_kips, "setup_s": 0.01,
                        "peak_rss_mb": 40.0, "mssr_speedup": 1.005}}


def _result_file(path, *results):
    path.write_text(json.dumps({"workloads": list(results)}),
                    encoding="utf-8")
    return str(path)


def _benchmark():
    with open(compare.BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def _verdicts(base, new):
    rows, flags = compare.compare(base, new, _benchmark())
    return {row["metric"]: row["verdict"] for row in rows}, flags


def test_compare_flags_failures_and_digests(tmp_path):
    base = [_result_file(tmp_path / ("a%d.json" % i), _result(i))
            for i in range(3)]
    new = [_result_file(tmp_path / ("b%d.json" % i),
                        _result(i, 1 if i else 0, "d" if i else "other"))
           for i in range(3)]
    verdicts, flags = _verdicts(base, new)
    assert verdicts["failed_frac"] == "regressed"
    assert verdicts["sim_kips"] == "unchanged"
    assert len(flags) == 1 and "seed 0" in flags[0]


def test_compare_pairs_by_seed_not_by_position(tmp_path):
    # Seed 2 reads twice as fast as seed 1 on both sides; given in
    # opposite orders, the runs must still pair up by seed.
    base = [_result_file(tmp_path / "a.json", _result(1, sim_kips=50.0),
                         _result(2, sim_kips=100.0))]
    new = [_result_file(tmp_path / "b.json", _result(2, sim_kips=100.0),
                        _result(1, sim_kips=50.0))]
    rows, flags = compare.compare(base, new, _benchmark())
    row = [r for r in rows if r["metric"] == "sim_kips"][0]
    assert row["wins"] == 0.0 and not flags


def test_crashed_or_missing_runs_count_as_failed(tmp_path):
    base = [_result_file(tmp_path / ("a%d.json" % i), _result(i))
            for i in range(3)]
    crashed = run.failed_record("listing1", 2, "child exited")
    new = [_result_file(tmp_path / "b0.json", _result(0)),
           _result_file(tmp_path / "b2.json", crashed)]
    verdicts, _flags = _verdicts(base, new)
    assert verdicts["failed_frac"] == "regressed"
    # A workload that crashed on every seed still gets its rows.
    new = [_result_file(tmp_path / "c.json", *(
        run.failed_record("listing1", i, "timed out") for i in range(3)))]
    verdicts, _flags = _verdicts(base, new)
    assert verdicts["failed_frac"] == "regressed"
    assert verdicts["sim_kips"] == "unresolved"


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command-line contract
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(cells.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == tracing.LAYER_METRICS
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # compare.py judges a change by bounds no looser than these.
    assert all(compare.BOUNDS[name] <= bounds[name] for name in compare.BOUNDS)
    assert set(compare.PAIRED) <= set(bounds)


def test_every_layer_predicts_what_it_moves():
    workloads = set(run.WORKLOAD_NAMES)
    for name in tracing.LAYER_METRICS:
        assert name.split(".")[0] in tracing.LAYER_MOVES
    for layer, moves in tracing.LAYER_MOVES.items():
        for metric, on in moves:
            assert metric in run.END_TO_END, (layer, metric)
            assert set(on) <= workloads, (layer, on)


def test_summary_line_shape():
    result = {"workload": "listing1", "attempted": 4, "failed": 0,
              "errors": [], "metrics": {name: 1.5 for name in run.END_TO_END}}
    line = run.summary_line([result], trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert line["metrics"]["sim_kips"] == {"value": 1.5, "unit": "kinst/s"}
    crashed = run.failed_record("gap-mem", 1, "child exited with code 1")
    line = run.summary_line([result, crashed], trace=0)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (5, 1)
    assert set(line["metrics"]) == {"listing1." + name
                                    for name in run.END_TO_END}


def test_a_raising_cell_counts_as_failed(tmp_path):
    built = cells.setup_fig10_batch(1, str(tmp_path), scales=TINY)
    cell = built[0]
    cell.jobs = None                     # run_batch raises on this
    outcome = run.run_cell(cell)
    assert outcome.attempted == outcome.failed == cell.ops > 1
    assert "raised" in outcome.errors[0]


def test_speedup_skips_programs_without_both_ipcs():
    ipcs = {("a", "baseline"): 1.0, ("a", "mssr"): 1.1, ("b", "mssr"): 2.0,
            ("c", "baseline"): 1.0}
    assert cells.geomean_speedup(ipcs) == pytest.approx(1.1)
    assert cells.geomean_speedup({("b", "mssr"): 2.0}) == 0.0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "listing1", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
