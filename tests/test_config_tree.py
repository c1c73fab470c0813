"""The layered configuration tree: schema, resolution, provenance,
hashing and the env-var registry.

The two load-bearing invariants:

* layer precedence is ``default < file < env < override``, and every
  resolved value can say which layer set it;
* job hashes are environment-independent — the env layer binds only to
  runtime keys (``harness.*`` / ``perf.*``), which never enter the
  canonical model snapshot.
"""

import json

import pytest

from repro.config import envreg
from repro.config.schema import (CONFIG_SCHEMA_VERSION, field, model_keys,
                                 schema, suggestion)
from repro.config.tree import (LAYER_DEFAULT, LAYER_ENV, LAYER_FILE,
                               LAYER_OVERRIDE, job_snapshot,
                               parse_overrides, resolve, snapshot_hash)
from repro.harness.jobs import SimJob


# ---------------------------------------------------------------------------
# Env-var registry
# ---------------------------------------------------------------------------
def test_registry_covers_every_declared_variable():
    report = envreg.environment_report(env={})
    names = [var.name for var, _raw, _parsed in report]
    assert names == sorted(names)
    assert "REPRO_JOBS" in names and "REPRO_CONFIG" in names


def test_envreg_typed_parsing():
    env = {"REPRO_JOBS": "8", "REPRO_BENCH_SCALE": "0.3",
           "REPRO_LOCKSTEP": "yes", "REPRO_FULL": "0"}
    assert envreg.get("REPRO_JOBS", env=env) == 8
    assert envreg.get("REPRO_BENCH_SCALE", env=env) == 0.3
    assert envreg.get("REPRO_LOCKSTEP", env=env) is True
    assert envreg.get("REPRO_FULL", env=env) is False


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
    assert table["mssr.num_streams"].model
    assert not table["harness.jobs"].model
    assert table["harness.jobs"].env == "REPRO_JOBS"


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
    assert "sampling.interval_insts" in model_keys(kind="mssr",
                                                   sampled=True)
    with pytest.raises(KeyError, match="unknown config kind"):
        model_keys(kind="msr")


def test_suggestion_helper():
    assert "verify" in suggestion("verfy", ("verify", "bloom"))
    assert suggestion("zzz", ("verify", "bloom")) == ""


# ---------------------------------------------------------------------------
# Layer precedence + provenance
# ---------------------------------------------------------------------------
def test_layer_precedence_file_env_override():
    tree = resolve(file={"core": {"width": 4}, "harness": {"jobs": 2}},
                   env={"REPRO_JOBS": "6"},
                   overrides=["core.width=2"])
    # file < env for the runtime key both layers set:
    assert tree["harness.jobs"] == 6
    assert tree.provenance("harness.jobs").layer == LAYER_ENV
    assert tree.provenance("harness.jobs").describe() == "env:REPRO_JOBS"
    # file < override for the model key both layers set:
    assert tree["core.width"] == 2
    assert tree.provenance("core.width").layer == LAYER_OVERRIDE
    # untouched keys stay at their default:
    assert tree.provenance("core.rob_entries").layer == LAYER_DEFAULT


def test_file_layer_provenance_records_source(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[mssr]\nnum_streams = 2\n")
    tree = resolve(file=str(path), env=False)
    entry = tree.provenance("mssr.num_streams")
    assert entry.value == 2
    assert entry.layer == LAYER_FILE
    assert str(path) in entry.describe()


def test_malformed_file_layer_names_the_file(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("[mssr]\nnum_streams = \n")
    with pytest.raises(ValueError, match="bad.toml"):
        resolve(file=str(path), env=False)


def test_repro_config_names_the_file_layer(tmp_path):
    path = tmp_path / "cfg.toml"
    path.write_text("[core]\nwidth = 4\n")
    tree = resolve(env={"REPRO_CONFIG": str(path)})
    assert tree["core.width"] == 4
    assert tree.provenance("core.width").layer == LAYER_FILE


def test_unknown_file_key_fails_loudly():
    with pytest.raises(KeyError, match="core.width"):
        resolve(file={"core": {"widht": 4}}, env=False)


def test_env_layer_cannot_set_model_keys():
    """No REPRO_* variable binds to a model key, by construction."""
    for key, spec in schema().items():
        if spec.model:
            assert spec.env is None, key


def test_parse_overrides_forms():
    assert parse_overrides(["core.width=4"]) == {"core.width": 4}
    assert parse_overrides({"core.width": 4}) == {"core.width": 4}
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["core.width"])


# ---------------------------------------------------------------------------
# Round-trip: resolved tree -> file -> resolved tree, same hash
# ---------------------------------------------------------------------------
def test_canonical_snapshot_round_trips_through_a_file(tmp_path):
    tree = resolve(env=False, overrides={"mssr.num_streams": 2,
                                         "core.width": 4})
    snapshot = tree.canonical(kind="mssr")
    # Persist the snapshot as a JSON config file (nested form) and
    # re-resolve with it as the file layer: same values, same hash.
    nested = {}
    for key, value in snapshot.items():
        section, _dot, name = key.partition(".")
        nested.setdefault(section, {})[name] = value
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(nested))
    again = resolve(file=str(path), env=False)
    assert again.canonical(kind="mssr") == snapshot
    assert again.config_hash(kind="mssr") == tree.config_hash(kind="mssr")


def test_config_hash_is_order_independent_and_stable():
    a = snapshot_hash({"core.width": 8, "mssr.num_streams": 4})
    b = snapshot_hash({"mssr.num_streams": 4, "core.width": 8})
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
    with pytest.raises(ValueError, match="runtime key"):
        job_snapshot("mssr", {"harness.jobs": 4})


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
    spec = SimJob("bfs", "mssr", 0.1, {"streams": 4}).spec()
    assert spec["schema"] == CONFIG_SCHEMA_VERSION
    assert spec["config"]["mssr.num_streams"] == 4
    assert "sampling" not in spec
    sampled = SimJob("bfs", "mssr", 0.1, sampling=True).spec()
    knobs = {key: value for key, value in sampled["sampling"]}
    assert knobs["interval_insts"] == 100000


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
    from repro.isa.predecode import PREDECODE_VERSION
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
