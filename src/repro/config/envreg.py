"""Registry of every ``REPRO_*`` environment variable.

Before this module existed, each subsystem read ``os.environ`` at its
own call sites with its own parsing conventions, so the set of knobs
was undiscoverable and the parsing rules subtly inconsistent. Every
variable is now *declared* here once — name, type, default and
docstring — and every consumer resolves through the typed accessors
below, so:

* ``python -m repro.harness config show`` can report the variables
  that are set (the README table is generated from this registry);
* parsing rules ("0 disables", "empty means unset", disable sentinels
  for cache directories) live in one place.

The variables are runtime settings only (worker counts, directories,
test and benchmark switches): none of them is part of a job's
configuration snapshot (:mod:`repro.config.tree`).

This module must stay stdlib-only: it is imported by
:mod:`repro.isa.predecode`, which sits under everything else.
"""

import dataclasses
import os

#: Values that disable a directory-backed store entirely
#: (``REPRO_CACHE_DIR=off`` and friends).
DISABLE_VALUES = ("", "0", "off", "none", "disabled")

#: Falsy spellings for boolean variables (case-insensitive).
FALSE_VALUES = ("", "0", "false", "off", "no")


@dataclasses.dataclass(frozen=True)
class EnvVar:
    """Declaration of one environment variable.

    ``type`` is one of ``str``/``int``/``float``/``bool``/``path``.
    """

    name: str
    type: str
    default: object
    doc: str

    def parse(self, raw):
        """Parse a raw environment string per the declared type.

        Unset or unparsable values resolve to the declared default
        (environment knobs must never crash an import).
        """
        if raw is None:
            return self.default
        if self.type == "bool":
            return raw.strip().lower() not in FALSE_VALUES
        raw = raw.strip()
        if self.type in ("str", "path"):
            return raw if raw else self.default
        if not raw:
            return self.default
        try:
            if self.type == "int":
                return int(raw)
            if self.type == "float":
                return float(raw)
        except ValueError:
            return self.default
        raise ValueError("unknown env var type %r" % self.type)


def _declare(*vars_):
    return {var.name: var for var in vars_}


#: Every ``REPRO_*`` variable the package reads, in one place.
REGISTRY = _declare(
    EnvVar("REPRO_JOBS", "int", 1,
           "Harness worker processes (0 = one per CPU; default 1 = "
           "serial)."),
    EnvVar("REPRO_CACHE_DIR", "path", None,
           "On-disk store of results and sampling checkpoints (default "
           "~/.cache/repro-sim; 'off' disables it)."),
    EnvVar("REPRO_TRACE", "path", None,
           "Directory: every executed job also writes a JSONL event "
           "trace there (workers included)."),
    EnvVar("REPRO_LOG_LEVEL", "str", None,
           "Logging level for the repro.* hierarchy (DEBUG, INFO, "
           "WARNING, ...)."),
    EnvVar("REPRO_SLOWPATH", "bool", False,
           "Run the emulator's interpretive ISA oracle instead of its "
           "predecoded and superblock paths (differential testing)."),
    EnvVar("REPRO_LOCKSTEP", "bool", False,
           "Cosimulation tests check every commit against the emulator "
           "instead of only final state."),
    EnvVar("REPRO_BENCH_SCALE", "float", 0.1,
           "Workload scale factor for benchmarks/ (paper inputs are "
           "proportionally shrunk)."),
    EnvVar("REPRO_FULL", "bool", False,
           "Include the expensive upper-bound benchmark configurations "
           "(e.g. Figure 10's 4x1024 point)."),
    EnvVar("REPRO_PERF_THRESHOLD", "float", 0.15,
           "Allowed normalised-throughput drop for the perf regression "
           "gate."),
    EnvVar("REPRO_PERF_CURRENT", "path", None,
           "Path to an already-measured perf report to gate instead of "
           "re-measuring."),
    EnvVar("REPRO_JOB_TIMEOUT", "float", 0.0,
           "Default per-job wall-clock timeout in seconds enforced by "
           "the batch runner (0 disables)."),
)


def declared(name):
    """The :class:`EnvVar` declaration for ``name`` (KeyError if the
    variable was never declared — new ``REPRO_*`` reads must be added
    to the registry, not scattered)."""
    return REGISTRY[name]


def raw(name, env=None):
    """The unparsed environment value for ``name`` (None when unset).

    ``env`` defaults to ``os.environ``; tests pass explicit dicts.
    """
    declared(name)
    env = os.environ if env is None else env
    return env.get(name)


def get(name, env=None):
    """Typed value of ``name``: parsed environment value, or the
    declared default when unset/unparsable."""
    return declared(name).parse(raw(name, env))


def store_dir(name, env=None):
    """Resolve a directory-backed store variable.

    Returns ``(enabled, directory)``: ``(True, None)`` when unset
    (use the built-in default directory), ``(False, None)`` when set to
    a disable sentinel (``off``/``0``/``none``/empty), and
    ``(True, path)`` otherwise.
    """
    value = raw(name, env)
    if value is None:
        return True, None
    if value.strip().lower() in DISABLE_VALUES:
        return False, None
    return True, value


def environment_report(env=None):
    """``[(EnvVar, raw, parsed)]`` for every declared variable, sorted
    by name — the data behind ``config show`` and the generated docs."""
    out = []
    for name in sorted(REGISTRY):
        var = REGISTRY[name]
        value = raw(name, env)
        out.append((var, value, var.parse(value)))
    return out
