"""Configuration: schema, job snapshots, hashing and the env-var
registry.

The two load-bearing invariants:

* a job's configuration is its snapshot — defaults plus explicit
  overrides over the sections its kind activates — and ``config
  show``/``config hash`` report exactly that snapshot;
* job hashes are environment-independent — ``REPRO_*`` variables are
  runtime settings and never enter a snapshot.
"""

import io
import json

import pytest

from repro.config import envreg
from repro.config.schema import (CONFIG_SCHEMA_VERSION, field, model_keys,
                                 schema, suggestion)
from repro.config.sweep import load_file, load_sweep
from repro.config.tree import job_snapshot, parse_overrides
from repro.harness.cli import main as cli_main
from repro.harness.jobs import SimJob
from repro.utils.hashing import canonical_hash


# ---------------------------------------------------------------------------
# Env-var registry
# ---------------------------------------------------------------------------
def test_registry_covers_every_declared_variable():
    report = envreg.environment_report(env={})
    names = [var.name for var, _raw, _parsed in report]
    assert names == sorted(names)
    assert "REPRO_JOBS" in names
    assert len(names) == 10


def test_envreg_typed_parsing():
    env = {"REPRO_JOBS": "8", "REPRO_BENCH_SCALE": "0.3",
           "REPRO_FULL": "yes", "REPRO_SLOWPATH": "0"}
    assert envreg.get("REPRO_JOBS", env=env) == 8
    assert envreg.get("REPRO_BENCH_SCALE", env=env) == 0.3
    assert envreg.get("REPRO_FULL", env=env) is True
    assert envreg.get("REPRO_SLOWPATH", env=env) is False


def test_envreg_unparsable_falls_back_to_default():
    assert envreg.get("REPRO_JOBS", env={"REPRO_JOBS": "many"}) == 1
    assert envreg.get("REPRO_JOBS", env={}) == 1


def test_envreg_undeclared_variable_rejected():
    with pytest.raises(KeyError):
        envreg.get("REPRO_NOT_A_THING", env={})


def test_store_dir_sentinels():
    assert envreg.store_dir("REPRO_CACHE_DIR", env={}) == (True, None)
    assert envreg.store_dir(
        "REPRO_CACHE_DIR", env={"REPRO_CACHE_DIR": "off"}) == (False, None)
    assert envreg.store_dir(
        "REPRO_CACHE_DIR",
        env={"REPRO_CACHE_DIR": "/tmp/c"}) == (True, "/tmp/c")


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------
def test_schema_derived_from_dataclasses():
    from repro.pipeline.config import CoreConfig
    table = schema()
    assert table["core.width"].default == CoreConfig().width
    assert "mssr.num_streams" in table
    assert "harness.jobs" not in table
    assert list(table) == model_keys() and len(table) == 65


def test_unknown_key_suggests_close_match():
    with pytest.raises(KeyError, match="mssr.num_streams"):
        field("mssr.num_stream")


def test_coerce_parses_strings_and_validates_choices():
    assert field("core.width").coerce("4") == 4
    assert field("mssr.single_page_wpb").coerce("true") is True
    assert field("mem.l1d_size").coerce("0x10000") == 65536
    with pytest.raises(ValueError, match='did you mean "bloom"'):
        field("mssr.memory_hazard_scheme").coerce("blooom")
    with pytest.raises(ValueError, match="cannot parse 'wide'"):
        field("core.width").coerce("wide")
    with pytest.raises(ValueError, match="integer"):
        field("core.width").coerce(2.5)


def test_model_keys_per_kind():
    baseline = model_keys(kind="baseline")
    mssr = model_keys(kind="mssr")
    # every kind resolves the core + frontend + mem sections, nothing else
    assert all(key.startswith(("core.", "frontend.", "mem."))
               for key in baseline)
    assert "frontend.ftq_depth" in baseline
    assert "mem.model" in baseline
    assert "mssr.num_streams" in mssr
    assert "ri.num_sets" not in mssr
    assert "sampling.interval_insts" not in mssr
    assert "sampling.interval_insts" in model_keys()
    with pytest.raises(KeyError, match="unknown config kind"):
        model_keys(kind="msr")


def test_suggestion_helper():
    assert "verify" in suggestion("verfy", ("verify", "bloom"))
    assert suggestion("zzz", ("verify", "bloom")) == ""


# ---------------------------------------------------------------------------
# Files and the environment
# ---------------------------------------------------------------------------
def test_malformed_file_layer_names_the_file(tmp_path):
    """``load_file``, the one file reader, names a malformed file."""
    path = tmp_path / "bad.toml"
    path.write_text("[mssr]\nnum_streams = \n")
    with pytest.raises(ValueError, match="bad.toml"):
        load_file(str(path))


def test_unknown_file_key_fails_loudly(tmp_path):
    path = tmp_path / "sweep.toml"
    path.write_text('[sweep]\nworkloads = ["bfs"]\n[sweep.base]\n'
                    'core.widht = 4\n[[scenario]]\nkind = "baseline"\n')
    with pytest.raises(KeyError, match='did you mean "core.width"'):
        load_sweep(str(path)).expand()


def _cli_config_hash(kind=None, sets=()):
    argv = ["config", "hash"] + (["--kind", kind] if kind else [])
    for pair in sets:
        argv += ["--set", pair]
    out = io.StringIO()
    assert cli_main(argv, out=out) == 0
    return out.getvalue().strip()


def test_env_layer_cannot_set_model_keys(monkeypatch):
    """Setting every REPRO_* variable changes no snapshot and no
    ``config hash`` output."""
    kinds = (None, "baseline", "mssr", "ri", "dir")
    before = [(job_snapshot(kind), _cli_config_hash(kind))
              for kind in kinds]
    for name, var in envreg.REGISTRY.items():
        if var.type != "path" and name != "REPRO_LOG_LEVEL":
            monkeypatch.setenv(name, "1" if var.type == "bool" else "3")
    assert [(job_snapshot(kind), _cli_config_hash(kind))
            for kind in kinds] == before


def test_parse_overrides_forms():
    assert parse_overrides(["core.width=4"]) == {"core.width": 4}
    assert parse_overrides({"core.width": 4}) == {"core.width": 4}
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["core.width"])


# ---------------------------------------------------------------------------
# Round-trip: job snapshot -> sweep file -> job, same hash
# ---------------------------------------------------------------------------
def test_canonical_snapshot_round_trips_through_a_file(tmp_path):
    job = SimJob("bfs", "mssr", 0.1, {"streams": 2},
                 config={"core.width": 4})
    snapshot = job.resolved_config()
    # Persist the whole snapshot as a sweep file's base overrides
    # (nested form) and expand it: same values, same hashes.
    nested = {}
    for key, value in snapshot.items():
        section, _dot, name = key.partition(".")
        nested.setdefault(section, {})[name] = value
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps({
        "sweep": {"workloads": ["bfs"], "scale": 0.1, "base": nested},
        "scenario": [{"name": "replay", "kind": "mssr"}]}))
    (again,) = load_sweep(str(path)).expand().jobs
    assert again.resolved_config() == snapshot
    assert again.config_hash() == job.config_hash()
    assert again.job_hash() == job.job_hash()


def test_config_hash_is_order_independent_and_stable():
    a = canonical_hash({"core.width": 8, "mssr.num_streams": 4})
    b = canonical_hash({"mssr.num_streams": 4, "core.width": 8})
    assert a == b and len(a) == 24


# ---------------------------------------------------------------------------
# Job snapshots
# ---------------------------------------------------------------------------
def test_job_snapshot_covers_all_active_model_keys():
    snapshot = job_snapshot("mssr", {"mssr.num_streams": 2})
    assert set(snapshot) == set(model_keys(kind="mssr"))
    assert snapshot["mssr.num_streams"] == 2
    assert snapshot["core.width"] == schema()["core.width"].default


def test_job_snapshot_rejects_inactive_section_overrides():
    with pytest.raises(ValueError, match="no effect on kind"):
        job_snapshot("baseline", {"mssr.num_streams": 2})
    # Runtime settings are environment variables, not keys.
    with pytest.raises(KeyError,
                       match="unknown configuration key 'harness.jobs'"):
        job_snapshot("mssr", {"harness.jobs": 4})
    with pytest.raises(KeyError, match='did you mean "mssr.num_streams"'):
        job_snapshot("mssr", {"mssr.num_stream": 4})


def test_job_hash_is_environment_independent(monkeypatch):
    job = SimJob("bfs", "mssr", 0.1, {"streams": 2})
    before = job.job_hash()
    monkeypatch.setenv("REPRO_JOBS", "16")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.9")
    assert SimJob("bfs", "mssr", 0.1, {"streams": 2}).job_hash() == before


def test_equivalent_declarations_hash_identically():
    """Short params, dotted config and sweep-style declaration of the
    same point are one job."""
    via_params = SimJob("bfs", "mssr", 0.1, {"streams": 2})
    via_config = SimJob("bfs", "mssr", 0.1,
                        config={"mssr.num_streams": 2})
    assert via_params.job_hash() == via_config.job_hash()
    assert via_params.config_hash() == via_config.config_hash()


def test_changed_default_changes_hash():
    base = SimJob("bfs", "mssr", 0.1)
    assert base.spec()["config"]["mssr.rgid_bits"] == 6
    tweaked = SimJob("bfs", "mssr", 0.1, config={"mssr.rgid_bits": 8})
    assert tweaked.job_hash() != base.job_hash()


def test_spec_embeds_snapshot_and_versions():
    job = SimJob("bfs", "mssr", 0.1, {"streams": 4})
    assert job.job_hash() == "ddfa0fe6124a8e0fd233578b"     # schema v6
    spec = job.spec()
    assert spec["schema"] == CONFIG_SCHEMA_VERSION == 6
    assert spec["config"]["mssr.num_streams"] == 4
    assert "sampling" not in spec
    sampled = SimJob("bfs", "mssr", 0.1, sampling=True).spec()
    knobs = {key: value for key, value in sampled["sampling"]}
    assert knobs["interval_insts"] == 100000


# ---------------------------------------------------------------------------
# `config hash` prints the hash a job with the same overrides carries
# ---------------------------------------------------------------------------
#: ``config hash [--kind K] [--set core.width=4]`` outputs, pinned at
#: schema v6: any change to a default, a key or the canonical form
#: shows here.
_PINNED_CONFIG_HASHES = {
    (None, None): "074bb5400f394b037c76fb7f",
    ("baseline", None): "5dfdcff6b4f0aa896b75aa74",
    ("baseline", "core.width=4"): "41d3437c3c97ed09afc365bb",
    ("mssr", None): "e1afc4a6c705d0a5cc7b60fd",
    ("mssr", "core.width=4"): "0ae104ae2b8137f10f5677c5",
    ("ri", None): "8bb96d4db2917adeec08973b",
    ("ri", "core.width=4"): "a2b8af2ed21b1a22456542dc",
    ("dir", None): "86c653282ad8399c5af33c7d",
    ("dir", "core.width=4"): "7764851abd69fd3862f92c2c",
}


@pytest.mark.parametrize("kind,pair", sorted(_PINNED_CONFIG_HASHES,
                                             key=str))
def test_cli_config_hash_pinned(kind, pair):
    sets = [pair] if pair else []
    assert _cli_config_hash(kind, sets) \
        == _PINNED_CONFIG_HASHES[(kind, pair)]


@pytest.mark.parametrize("kind,sets", [
    ("baseline", {"core.width": 4, "mem.model": "ported"}),
    ("mssr", {"mssr.num_streams": 2, "mssr.rgid_bits": 8}),
    ("ri", {"ri.num_sets": 128, "frontend.decoupled": True}),
    ("dir", {"dir.assoc": 2, "core.rob_entries": 128}),
])
def test_cli_config_hash_is_the_job_config_hash(kind, sets):
    pairs = ["%s=%s" % (key, json.dumps(value).strip('"'))
             for key, value in sets.items()]
    job = SimJob("bfs", kind, 0.1, config=sets)
    assert _cli_config_hash(kind, pairs) == job.config_hash()
    assert _cli_config_hash(kind) == SimJob("bfs", kind).config_hash()


# ---------------------------------------------------------------------------
# Old-spec -> new-hash equivalence over the pinned experiment set
# ---------------------------------------------------------------------------
#: Every distinct (kind, params) point the checked-in experiments
#: declare (Figures 10-12, Tables 1-2, ablations); the new resolved
#: hashing must keep all of them distinct and deterministic.
_PINNED = [
    ("baseline", {}),
    ("mssr", {"streams": 1}),
    ("mssr", {"streams": 2}),
    ("mssr", {"streams": 4}),
    ("mssr", {"streams": 4, "wpb": 8, "log": 32}),
    ("mssr", {"streams": 4, "wpb": 16, "log": 128}),
    ("mssr", {"streams": 4, "wpb": 32, "log": 128}),
    ("mssr", {"streams": 2, "wpb": 32, "log": 128}),
    ("ri", {"sets": 64, "ways": 2}),
    ("ri", {"sets": 64, "ways": 4}),
    ("ri", {"sets": 128, "ways": 4}),
    ("dir", {"sets": 64, "ways": 4}),
]


def _old_spec(job):
    """The seed harness's spec shape (params, no resolved snapshot)."""
    from repro.isa.instruction import PREDECODE_VERSION
    return json.dumps({
        "workload": job.workload, "kind": job.kind, "scale": job.scale,
        "params": [[k, v] for k, v in job.params],
        "predecode": PREDECODE_VERSION,
    }, sort_keys=True, separators=(",", ":"))


def test_pinned_experiment_points_map_one_to_one():
    jobs = [SimJob("bfs", kind, 0.12, params)
            for kind, params in _PINNED]
    old = [_old_spec(job) for job in jobs]
    new = [job.job_hash() for job in jobs]
    # Distinct under the old scheme, still distinct under the new one,
    # and the mapping old->new is a function (1:1 on this set).
    assert len(set(old)) == len(jobs)
    assert len(set(new)) == len(jobs)
    mapping = {}
    for old_spec, new_hash in zip(old, new):
        assert mapping.setdefault(old_spec, new_hash) == new_hash


def test_params_spelling_defaults_collapses_to_the_default_point():
    """Explicitly passing the default wpb/log values is the *same
    simulation* as not passing them — under resolved-snapshot hashing
    the two declarations share one hash (the seed's params-list hashing
    kept them apart and simulated the point twice)."""
    explicit = SimJob("bfs", "mssr", 0.12,
                      {"streams": 4, "wpb": 16, "log": 64})
    implicit = SimJob("bfs", "mssr", 0.12, {"streams": 4})
    assert explicit.job_hash() == implicit.job_hash()


def test_pinned_hashes_are_deterministic_across_instances():
    for kind, params in _PINNED:
        a = SimJob("xz", kind, 0.12, dict(params))
        b = SimJob("xz", kind, 0.12, dict(params))
        assert a.job_hash() == b.job_hash()
