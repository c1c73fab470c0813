"""Unit tests for the perf benchmark layer (logic, not throughput).

Wall-clock gating lives in ``benchmarks/test_perf_gate.py``; these tests
cover the pure machinery — point specs, report round-trips, the
normalised comparison — plus one tiny real measurement as a smoke test.
"""

import pytest

from repro.perf.bench import (BenchPoint, DEFAULT_MATRIX, QUICK_NAMES,
                              REPORT_VERSION, append_history,
                              build_report, compare_reports, load_report,
                              matrix_from_report, point_metric,
                              run_bench, run_point, select_points,
                              write_report)


def test_bench_point_spec_round_trip():
    for point in DEFAULT_MATRIX:
        clone = BenchPoint.from_spec(point.spec())
        assert clone.spec() == point.spec()
        assert clone.variant == point.variant


def test_bench_point_rejects_unknown_mode():
    with pytest.raises(ValueError):
        BenchPoint("bad", "gpu", "nested-mispred")


def test_bench_point_variant_omitted_when_unset():
    plain = BenchPoint("p", "emu", "nested-mispred")
    assert "variant" not in plain.spec()
    sb = BenchPoint("p-sb", "emu", "nested-mispred",
                    variant="superblock")
    assert sb.spec()["variant"] == "superblock"
    # Specs written before the field existed still load.
    legacy = dict(plain.spec())
    assert BenchPoint.from_spec(legacy).variant is None


def test_default_matrix_covers_new_modes():
    by_name = {p.name: p for p in DEFAULT_MATRIX}
    assert by_name["emu-sb-nested-mispred"].variant == "superblock"
    assert by_name["emu-sb-linear-mispred"].variant == "superblock"
    assert by_name["core-batched-nested-mispred"].mode == "batch"
    assert "emu-sb-nested-mispred" in QUICK_NAMES


def test_select_points_preserves_order_and_raises_on_unknown():
    points = select_points(QUICK_NAMES)
    assert [p.name for p in points] == list(QUICK_NAMES)
    with pytest.raises(KeyError):
        select_points(("no-such-point",))


def _fake_report(calibration=1000.0, scale=1.0):
    points = []
    for point in DEFAULT_MATRIX:
        result = {"point": point.spec(), "seconds": 1.0,
                  "cycles": 5000, "insts": 4000,
                  "kinsts_per_s": 40.0 * scale}
        if point.mode in ("core", "batch"):
            result["kcycles_per_s"] = 50.0 * scale
        points.append(result)
    return {"version": REPORT_VERSION, "commit": "deadbeef",
            "python": "3.12.0", "calibration_kops": calibration,
            "points": points}


def test_point_metric_gates_kinsts_for_every_mode():
    report = _fake_report()
    assert {r["point"]["mode"] for r in report["points"]} == \
        {"emu", "core", "batch"}
    for result in report["points"]:
        assert point_metric(result) == result["kinsts_per_s"]
    # kcycles/s is information only: a run that stalls more per
    # instruction can raise it, and a drop in it gates nothing.
    stalled = _fake_report()
    for result in stalled["points"]:
        if "kcycles_per_s" in result:
            result["kcycles_per_s"] *= 0.1
    assert compare_reports(stalled, report) == []


def test_compare_reports_pass_and_fail():
    base = _fake_report()
    assert compare_reports(_fake_report(scale=1.0), base) == []
    assert compare_reports(_fake_report(scale=0.9), base,
                           threshold=0.15) == []
    failures = compare_reports(_fake_report(scale=0.5), base,
                               threshold=0.15)
    assert len(failures) == len(DEFAULT_MATRIX)
    assert all("normalised throughput" in f for f in failures)


def test_compare_reports_normalises_by_calibration():
    base = _fake_report(calibration=1000.0)
    # Half-speed machine: both metric and calibration halve -> pass.
    assert compare_reports(_fake_report(calibration=500.0, scale=0.5),
                           base) == []
    # Same raw metrics but a 2x faster machine -> normalised regression.
    failures = compare_reports(_fake_report(calibration=2000.0), base)
    assert len(failures) == len(DEFAULT_MATRIX)


def test_compare_reports_ignores_missing_and_bad_calibration():
    base = _fake_report()
    current = _fake_report(scale=0.1)
    current["points"] = current["points"][:1]  # only one point measured
    assert len(compare_reports(current, base, threshold=0.15)) == 1
    broken = _fake_report(calibration=0.0)
    failures = compare_reports(broken, base)
    assert failures and "calibration" in failures[0]


def test_report_round_trip(tmp_path):
    report = _fake_report()
    path = tmp_path / "bench.json"
    write_report(report, str(path))
    assert load_report(str(path)) == report


def test_load_report_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1}')
    with pytest.raises(ValueError, match="missing"):
        load_report(str(path))


def test_append_history_is_append_only(tmp_path):
    import json

    path = tmp_path / "BENCH_HISTORY.jsonl"
    first = append_history(_fake_report(), str(path))
    append_history(_fake_report(scale=2.0), str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0] == json.loads(json.dumps(first))
    for record in records:
        assert record["commit"] == "deadbeef"
        assert record["calibration_kops"] == 1000.0
        assert set(record["points"]) == {p.name for p in DEFAULT_MATRIX}
    # The second run's metrics doubled; history keeps both.
    assert records[1]["points"]["emu-sb-nested-mispred"] == \
        2 * records[0]["points"]["emu-sb-nested-mispred"]


def test_run_point_batch_mode_smoke():
    point = BenchPoint("b", "batch", "nested-mispred", scale=0.02)
    result = run_point(point, repeats=1)
    assert result["cycles"] > 0
    assert result["insts"] > 0
    assert result["kcycles_per_s"] > 0
    assert point_metric(result) == result["kinsts_per_s"]


def test_run_bench_smoke_tiny_point():
    """One real (tiny) measurement end-to-end through run_bench."""
    point = BenchPoint("smoke", "emu", "nested-mispred", scale=0.02)
    lines = []
    results = run_bench((point,), repeats=1, log=lines.append)
    assert len(results) == 1 and len(lines) == 1
    result = results[0]
    assert result["point"]["name"] == "smoke"
    assert result["seconds"] > 0
    assert result["insts"] > 0
    assert result["kinsts_per_s"] > 0
    assert "kcycles_per_s" not in result
    report = build_report(results, calibration=1234.5)
    assert report["calibration_kops"] == 1234.5
    assert report["version"] == REPORT_VERSION


def test_git_commit_marks_a_dirty_tree(tmp_path):
    """A record made on uncommitted changes to tracked files is labelled
    ``<commit>-dirty``; untracked files do not count."""
    import subprocess

    from repro.perf.bench import _git_commit

    def git(*args):
        subprocess.run(("git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false") + args, cwd=tmp_path,
                       check=True, capture_output=True)

    git("init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "first")
    head = subprocess.run(("git", "rev-parse", "--short", "HEAD"),
                          cwd=tmp_path, check=True, capture_output=True,
                          text=True).stdout.strip()
    assert _git_commit(str(tmp_path)) == head
    (tmp_path / "untracked.txt").write_text("new\n")
    assert _git_commit(str(tmp_path)) == head
    tracked.write_text("two\n")
    assert _git_commit(str(tmp_path)) == head + "-dirty"
    git("add", "tracked.txt")
    assert _git_commit(str(tmp_path)) == head + "-dirty"
    assert _git_commit(str(tmp_path / "nowhere")) == "unknown"
