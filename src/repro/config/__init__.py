"""Configuration: schema, job snapshots, env registry, sweeps.

Import layering: :mod:`repro.config.envreg` is stdlib-only and safe to
import from anywhere (including :mod:`repro.isa.predecode`, which sits
under the whole simulator). The schema/tree/sweep modules introspect
the simulator's dataclasses, so they are exposed lazily here — eagerly
importing them from this package ``__init__`` would create an import
cycle (predecode -> repro.config -> schema -> pipeline -> predecode).
"""

from repro.config import envreg  # noqa: F401  (eager; stdlib-only)

_LAZY = {
    "CONFIG_SCHEMA_VERSION": ("repro.config.schema",
                              "CONFIG_SCHEMA_VERSION"),
    "FieldSpec": ("repro.config.schema", "FieldSpec"),
    "schema": ("repro.config.schema", "schema"),
    "field": ("repro.config.schema", "field"),
    "model_keys": ("repro.config.schema", "model_keys"),
    "job_snapshot": ("repro.config.tree", "job_snapshot"),
    "build_core_config": ("repro.config.tree", "build_core_config"),
    "build_reuse_scheme": ("repro.config.tree", "build_reuse_scheme"),
    "parse_overrides": ("repro.config.tree", "parse_overrides"),
    "Scenario": ("repro.config.sweep", "Scenario"),
    "Sweep": ("repro.config.sweep", "Sweep"),
    "SweepError": ("repro.config.sweep", "SweepError"),
    "SweepPlan": ("repro.config.sweep", "SweepPlan"),
    "load_sweep": ("repro.config.sweep", "load_sweep"),
    "sweep_from_dict": ("repro.config.sweep", "sweep_from_dict"),
}

__all__ = ["envreg"] + sorted(_LAZY)


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    import importlib
    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
