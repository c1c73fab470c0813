"""Scenario/sweep declarations, TOML loading and the sweep/config CLI."""

import glob
import io
import json
import os
import tomllib

import pytest

from repro.config.sweep import (Scenario, Sweep, SweepError, load_sweep,
                                sweep_from_dict)
from repro.harness import ResultCache, clear_memo
from repro.harness.cli import main as cli_main

_SCALE = 0.05

_SMOKE_TOML = """\
[sweep]
name = "smoke"
workloads = ["linear-mispred"]
scale = %s

[[scenario]]
name = "baseline"
kind = "baseline"

[[scenario]]
name = "mssr-grid"
kind = "mssr"
[scenario.grid]
mssr.num_streams = [1, 2]

[[scenario]]
name = "dci"                     # == the 1-stream grid point
kind = "mssr"
[scenario.set]
mssr.num_streams = 1
""" % _SCALE


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return ResultCache(directory=str(cache_dir))


# ---------------------------------------------------------------------------
# Scenario expansion
# ---------------------------------------------------------------------------
def test_grid_is_cartesian_product():
    scenario = Scenario("s", kind="mssr",
                        grid={"mssr.num_streams": [1, 2],
                              "mssr.wpb_entries": [8, 16]})
    points = scenario.points()
    assert len(points) == 4
    assert {(p["mssr.num_streams"], p["mssr.wpb_entries"])
            for p in points} == {(1, 8), (1, 16), (2, 8), (2, 16)}


def test_zip_advances_in_parallel():
    scenario = Scenario("s", kind="mssr",
                        zip={"mssr.wpb_entries": [8, 16],
                             "mssr.squash_log_entries": [32, 64]})
    points = scenario.points()
    assert [(p["mssr.wpb_entries"], p["mssr.squash_log_entries"])
            for p in points] == [(8, 32), (16, 64)]


def test_zip_length_mismatch_rejected():
    scenario = Scenario("s", kind="mssr",
                        zip={"mssr.wpb_entries": [8, 16],
                             "mssr.squash_log_entries": [32]})
    with pytest.raises(SweepError, match="equal lengths"):
        scenario.points()


def test_grid_times_zip_with_set_base():
    scenario = Scenario("s", kind="mssr",
                        set={"mssr.rgid_bits": 8},
                        grid={"mssr.num_streams": [1, 2]},
                        zip={"mssr.wpb_entries": [8, 16],
                             "mssr.squash_log_entries": [32, 64]})
    points = scenario.points()
    assert len(points) == 4
    assert all(p["mssr.rgid_bits"] == 8 for p in points)


def test_unknown_axis_key_suggests():
    scenario = Scenario("s", kind="mssr",
                        grid={"mssr.num_stream": [1, 2]})
    with pytest.raises(KeyError, match="mssr.num_streams"):
        scenario.points()


# ---------------------------------------------------------------------------
# Sweep expansion + dedupe
# ---------------------------------------------------------------------------
def test_expansion_dedupes_across_scenarios():
    sweep = sweep_from_dict(tomllib.loads(_SMOKE_TOML))
    plan = sweep.expand()
    # baseline + 2 grid points + dci = 4 declared, but dci == grid@1.
    assert plan.declared == 4
    assert len(plan.jobs) == 3
    assert plan.duplicates == 1
    dci = [e.job for e in plan.entries if e.scenario == "dci"][0]
    grid1 = [e.job for e in plan.entries
             if e.scenario == "mssr-grid"
             and e.job.spec()["config"]["mssr.num_streams"] == 1][0]
    assert dci.job_hash() == grid1.job_hash()


def test_suite_prefix_expands_workloads():
    sweep = Sweep(workloads=("suite:micro",), scale=_SCALE,
                  scenarios=[Scenario("b", kind="baseline")])
    plan = sweep.expand()
    assert plan.declared >= 2
    assert len({e.workload for e in plan.entries}) == plan.declared


def test_unknown_tables_and_keys_rejected():
    with pytest.raises(SweepError, match="scenarios"):
        sweep_from_dict({"sweep": {"scenario": []}})   # did-you-mean
    with pytest.raises(SweepError, match="unknown top-level"):
        sweep_from_dict({"sweep": {}, "scenraio": []})
    with pytest.raises(SweepError, match="missing 'kind'"):
        sweep_from_dict({"scenario": [{"name": "x"}]})
    with pytest.raises(SweepError, match="no scenarios"):
        sweep_from_dict({"sweep": {"name": "empty"}}).expand()


def test_bad_axis_value_fails_at_declaration():
    sweep = sweep_from_dict({
        "sweep": {"workloads": ["linear-mispred"], "scale": _SCALE},
        "scenario": [{"name": "s", "kind": "mssr",
                      "grid": {"mssr.memory_hazard_scheme":
                               ["verify", "blooom"]}}]})
    with pytest.raises(ValueError, match='did you mean "bloom"'):
        sweep.expand()


def test_load_sweep_reads_toml_and_json(tmp_path):
    toml_path = tmp_path / "s.toml"
    toml_path.write_text(_SMOKE_TOML)
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(tomllib.loads(_SMOKE_TOML)))
    assert load_sweep(str(toml_path)).expand().declared == \
        load_sweep(str(json_path)).expand().declared
    with pytest.raises(SweepError, match="cannot read"):
        load_sweep(str(tmp_path / "missing.toml"))


@pytest.mark.parametrize("name, text", [("bad.toml", "[sweep\nname = 1\n"),
                                        ("bad.json", '{"sweep": ')],
                         ids=["toml", "json"])
def test_malformed_sweep_file_names_the_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(SweepError, match=name):
        load_sweep(str(path))


def test_run_sweep_helper_shares_deduplicated_stats(tmp_cache):
    from repro.analysis.experiments import run_sweep
    clear_memo()
    plan, rows = run_sweep(tomllib.loads(_SMOKE_TOML))
    assert plan.declared == 4 and len(rows) == 4
    dci = [stats for entry, stats in rows.items()
           if entry.scenario == "dci"][0]
    grid1 = [stats for entry, stats in rows.items()
             if entry.scenario == "mssr-grid"
             and dict(entry.job.config)["mssr.num_streams"] == 1][0]
    assert dci is grid1               # one simulation, shared object
    assert all(stats.committed_insts > 0 for stats in rows.values())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _write_smoke(tmp_path):
    path = tmp_path / "smoke.toml"
    path.write_text(_SMOKE_TOML)
    return str(path)


def test_cli_sweep_dry_run(tmp_cache, tmp_path):
    out = io.StringIO()
    rc = cli_main(["sweep", _write_smoke(tmp_path), "--dry-run"],
                  out=out)
    text = out.getvalue()
    assert rc == 0
    assert "4 declared job(s), 3 unique (1 shared)" in text
    assert "job=" in text and "config=" in text


def test_cli_sweep_runs_and_persists_snapshots(tmp_cache, tmp_path):
    clear_memo()
    out = io.StringIO()
    rc = cli_main(["sweep", _write_smoke(tmp_path), "--json"], out=out)
    assert rc == 0
    payload = json.loads("\n".join(
        line for line in out.getvalue().splitlines()
        if not line.startswith("#")))
    assert payload["declared"] == 4
    assert payload["unique"] == 3
    assert len(payload["entries"]) == 4
    for entry in payload["entries"]:
        assert entry["stats"]["committed_insts"] > 0
    # every cached result carries its resolved snapshot + hashes
    # (entries live in 2-hex hash-prefix shard directories)
    assert tmp_cache.entries() == 3
    files = glob.glob(os.path.join(tmp_cache.directory,
                                   tmp_cache.fingerprint, "??", "*.json"))
    assert len(files) == 3
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["job"]["config"]["core.width"] == 8
        assert len(entry["config_hash"]) == 24
        assert os.path.basename(path) == entry["job_hash"] + ".json"
        shard = os.path.basename(os.path.dirname(path))
        assert entry["job_hash"].startswith(shard)


def test_cli_sweep_rejects_bad_file(tmp_cache, tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text("[sweep]\nnam = 'x'\n")
    rc = cli_main(["sweep", str(path)], out=io.StringIO())
    assert rc == 2
    assert "name" in capsys.readouterr().err


def test_cli_run_with_set_overrides(tmp_cache):
    clear_memo()
    out = io.StringIO()
    rc = cli_main(["run", "--workload", "linear-mispred", "--kind",
                   "mssr", "--scale", str(_SCALE), "--set",
                   "mssr.num_streams=2", "--json"], out=out)
    assert rc == 0
    payload = json.loads(out.getvalue().rsplit("#", 1)[0])
    assert len(payload[0]["config_hash"]) == 24
    assert payload[0]["job"]["config"]["mssr.num_streams"] == 2
    # the dotted override and the short --streams parameter are the
    # same point: running the latter is a pure cache hit.
    from repro.harness import SimJob
    via_param = SimJob("linear-mispred", "mssr", _SCALE, {"streams": 2})
    assert via_param.job_hash() == payload[0]["job_hash"]


def test_cli_run_rejects_bad_set(tmp_cache, capsys):
    rc = cli_main(["run", "--workload", "linear-mispred", "--set",
                   "core.widht=4"], out=io.StringIO())
    assert rc == 2
    assert "core.width" in capsys.readouterr().err


def test_cli_config_show_lists_the_kind_snapshot(tmp_cache, monkeypatch):
    from repro.config.schema import model_keys
    from repro.harness import SimJob
    monkeypatch.setenv("REPRO_JOBS", "4")
    out = io.StringIO()
    rc = cli_main(["config", "show", "--kind", "mssr", "--set",
                   "core.width=4"], out=out)
    assert rc == 0
    lines = out.getvalue().splitlines()
    shown = dict(line.split(" = ") for line in lines if " = " in line)
    assert sorted(shown) == sorted(model_keys("mssr"))
    job = SimJob("bfs", "mssr", config={"core.width": 4})
    assert {key: json.loads(value) for key, value in shown.items()} \
        == job.resolved_config()
    assert "# config hash: %s" % job.config_hash() in lines
    # Set REPRO_* variables are reported after the snapshot; unset ones
    # are not.
    assert "# REPRO_JOBS=4 (4)" in lines
    assert not any(line.startswith("# REPRO_FULL") for line in lines)
    # Without a kind, every model section is shown.
    out = io.StringIO()
    assert cli_main(["config", "show"], out=out) == 0
    assert sum(" = " in line for line in out.getvalue().splitlines()) \
        == len(model_keys())


def test_cli_config_hash_stable(tmp_cache):
    out_a, out_b = io.StringIO(), io.StringIO()
    assert cli_main(["config", "hash", "--kind", "mssr"], out=out_a) == 0
    assert cli_main(["config", "hash", "--kind", "mssr"], out=out_b) == 0
    assert out_a.getvalue() == out_b.getvalue()
    assert len(out_a.getvalue().strip()) == 24


def test_cli_config_docs_check_detects_drift(tmp_path, capsys):
    from repro.config.docs import BEGIN_MARK, END_MARK
    target = tmp_path / "README.md"
    target.write_text("# x\n\n%s\nstale\n%s\n" % (BEGIN_MARK, END_MARK))
    rc = cli_main(["config", "docs", "--check", "--target",
                   str(target)], out=io.StringIO())
    assert rc == 1
    out = io.StringIO()
    assert cli_main(["config", "docs", "--target", str(target)],
                    out=out) == 0
    assert cli_main(["config", "docs", "--check", "--target",
                     str(target)], out=io.StringIO()) == 0
