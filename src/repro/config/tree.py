"""Layered resolution of the configuration tree.

Values resolve through four layers, later layers winning::

    code defaults  <  config file (TOML/JSON)  <  REPRO_* environment
                   <  programmatic / CLI ``--set key=value`` overrides

Every resolved value remembers which layer set it (and from where: the
file path or the variable name), so ``python -m repro.harness config
show --provenance`` can attribute the whole tree. Two rules keep
results reproducible:

* Only *runtime* keys (``harness.*`` / ``perf.*``) have environment
  bindings — the environment can pick worker counts and cache
  directories, never simulated semantics.
* Job hashes are computed from defaults + explicit overrides only
  (:func:`job_snapshot`): a :class:`~repro.harness.jobs.SimJob` is
  fully self-describing, so the same job hashes identically in any
  environment and any result file can be replayed from its embedded
  snapshot alone.
"""

import hashlib
import json
import os

from repro.config import envreg
from repro.config.schema import (
    CONFIG_SCHEMA_VERSION,
    KIND_SECTIONS,
    field,
    model_keys,
    schema,
    suggestion,
)

#: Provenance layer names, in precedence order.
LAYER_DEFAULT = "default"
LAYER_FILE = "file"
LAYER_ENV = "env"
LAYER_OVERRIDE = "override"


class ResolvedValue:
    """One resolved key: value + provenance."""

    __slots__ = ("value", "layer", "source")

    def __init__(self, value, layer, source=None):
        self.value = value
        self.layer = layer
        self.source = source

    def describe(self):
        """Human-readable provenance (``env:REPRO_JOBS`` etc.)."""
        if self.source:
            return "%s:%s" % (self.layer, self.source)
        return self.layer

    def __repr__(self):
        return "<ResolvedValue %r [%s]>" % (self.value, self.describe())


class ConfigTree:
    """A fully resolved configuration tree."""

    def __init__(self, values):
        self._values = values        # key -> ResolvedValue

    def __contains__(self, key):
        return key in self._values

    def __getitem__(self, key):
        return self._values[field(key).key].value

    def get(self, key, default=None):
        entry = self._values.get(key)
        return default if entry is None else entry.value

    def provenance(self, key):
        """The :class:`ResolvedValue` carrying value + layer info."""
        return self._values[field(key).key]

    def keys(self):
        return list(self._values)

    def flat(self, model_only=False):
        """``{key: value}`` over the whole tree."""
        return {key: entry.value for key, entry in self._values.items()
                if not model_only or field(key).model}

    # -- canonical form ------------------------------------------------
    def canonical(self, kind=None, sampled=False):
        """Canonical model snapshot: ordered ``{key: value}`` over the
        model sections (restricted to ``kind``'s sections if given)."""
        return {key: self._values[key].value
                for key in model_keys(kind=kind, sampled=sampled)}

    def config_hash(self, kind=None, sampled=False):
        """Stable hash of the canonical model snapshot."""
        return snapshot_hash(self.canonical(kind=kind, sampled=sampled))

    # -- reporting -----------------------------------------------------
    def lines(self, provenance=False, sections=None):
        """Formatted ``key = value`` lines for ``config show``."""
        out = []
        last_section = None
        for key in sorted(self._values,
                          key=lambda k: (field(k).section, k)):
            spec = field(key)
            if sections and spec.section not in sections:
                continue
            if spec.section != last_section:
                if last_section is not None:
                    out.append("")
                out.append("[%s]" % spec.section)
                last_section = spec.section
            entry = self._values[key]
            line = "%s = %s" % (key, json.dumps(entry.value))
            if provenance:
                line = "%-44s # %s" % (line, entry.describe())
            out.append(line)
        return out


def snapshot_hash(snapshot):
    """Canonical 24-hex hash of a ``{key: value}`` snapshot (same
    recipe as :meth:`repro.harness.jobs.SimJob.job_hash`)."""
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------
def flatten(mapping, prefix=""):
    """Flatten nested tables into dotted keys
    (``{"core": {"width": 8}}`` -> ``{"core.width": 8}``)."""
    out = {}
    for name, value in mapping.items():
        key = "%s%s" % (prefix, name)
        if isinstance(value, dict):
            out.update(flatten(value, key + "."))
        else:
            out[key] = value
    return out


def load_file(path):
    """Parse a config or sweep file into a dict: JSON when the name
    ends in ``.json``, TOML otherwise. A malformed file raises
    ``ValueError`` naming ``path``."""
    with open(path, "rb") as handle:
        try:
            if str(path).endswith(".json"):
                return json.load(handle)
            # Imported here, not at module level: on CPython 3.11 the
            # import adds about 0.6 MB to the peak RSS of every process
            # that resolves a configuration, and most never read a file.
            import tomllib
            return tomllib.load(handle)
        except ValueError as exc:      # incl. TOMLDecodeError, bad UTF-8
            raise ValueError("%s: %s" % (path, exc)) from None


def parse_overrides(pairs):
    """``["core.width=4", ...]`` (or a dict) -> ``{key: value}``.

    String values are coerced by the field's type, so CLI ``--set``
    and environment values share one parsing path.
    """
    if isinstance(pairs, dict):
        items = pairs.items()
    else:
        items = []
        for pair in pairs:
            key, _eq, value = str(pair).partition("=")
            if not _eq:
                raise ValueError("override %r is not key=value" % pair)
            items.append((key.strip(), value.strip()))
    out = {}
    for key, value in items:
        spec = field(key)
        out[spec.key] = spec.coerce(value, source="override")
    return out


def resolve(file=None, env=None, overrides=None):
    """Resolve the full tree; returns a :class:`ConfigTree`.

    ``file``: a TOML/JSON path, an already-loaded dict, or None. When
    None, ``REPRO_CONFIG`` (if set) names the file. ``env``: a mapping
    to use as the environment, None for ``os.environ``, or False to
    disable the environment layer entirely. ``overrides``: a dict or a
    list of ``key=value`` strings.
    """
    environ = {} if env is False else (os.environ if env is None
                                       else env)

    file_source = None
    file_values = {}
    if file is None and env is not False:
        file = envreg.get("REPRO_CONFIG", env=environ)
    if isinstance(file, dict):
        file_source = "<dict>"
        file_values = flatten(file)
    elif file:
        file_source = str(file)
        file_values = flatten(load_file(file))
    for key in file_values:
        field(key)                       # unknown keys fail loudly

    override_values = parse_overrides(overrides or {})

    values = {}
    for key, spec in schema().items():
        entry = ResolvedValue(spec.default, LAYER_DEFAULT)
        if key in file_values:
            entry = ResolvedValue(
                spec.coerce(file_values[key], source="file value"),
                LAYER_FILE, file_source)
        if spec.env and envreg.is_set(spec.env, env=environ):
            entry = ResolvedValue(envreg.get(spec.env, env=environ),
                                  LAYER_ENV, spec.env)
        if key in override_values:
            entry = ResolvedValue(override_values[key], LAYER_OVERRIDE)
        values[key] = entry
    return ConfigTree(values)


# ---------------------------------------------------------------------------
# Job snapshots: the hashed, persisted description of one simulation
# point. Environment-independent by construction (defaults + explicit
# overrides only).
# ---------------------------------------------------------------------------
_SNAPSHOT_MEMO = {}


def job_snapshot(kind, overrides=(), sampling=None):
    """Canonical model snapshot for one job.

    ``overrides`` is a dict (or tuple of pairs) of dotted model keys;
    keys outside the sections active for ``kind`` are rejected — an
    override that cannot affect the run must not silently change its
    hash. ``sampling`` (a dict of ``sampling.*`` short names, without
    the prefix) folds the sampling section in.
    """
    overrides = tuple(sorted(dict(overrides).items()))
    sampling_items = None if sampling is None \
        else tuple(sorted(dict(sampling).items()))
    memo_key = (kind, overrides, sampling_items)
    cached = _SNAPSHOT_MEMO.get(memo_key)
    if cached is not None:
        return dict(cached)

    sampled = sampling is not None
    keys = model_keys(kind=kind, sampled=sampled)
    active = set(keys)
    snapshot = {key: field(key).default for key in keys}
    for key, value in overrides:
        spec = field(key)
        if spec.key not in active:
            if not spec.model:
                raise ValueError(
                    "%s is a runtime key; it cannot be part of a job's "
                    "configuration" % spec.key)
            raise ValueError(
                "override %s has no effect on kind %r (active "
                "sections: %s)"
                % (spec.key, kind,
                   ", ".join(sorted({k.partition('.')[0]
                                     for k in active}))))
        snapshot[spec.key] = spec.coerce(value, source="override")
    if sampled:
        for name, value in sampling_items:
            key = "sampling.%s" % name
            snapshot[key] = field(key).coerce(value,
                                              source="sampling knob")
    _SNAPSHOT_MEMO[memo_key] = dict(snapshot)
    return snapshot


def build_core_config(kind, overrides=()):
    """A :class:`~repro.pipeline.config.CoreConfig` (with the scheme
    sub-config for ``kind``) from defaults + ``overrides``."""
    from repro.pipeline.config import (CoreConfig, FrontendConfig,
                                       MemConfig, MSSRConfig, RIConfig)

    snapshot = job_snapshot(kind, overrides)
    kwargs = {key.partition(".")[2]: value
              for key, value in snapshot.items()
              if key.startswith("core.")}
    kwargs["frontend"] = FrontendConfig(
        **{key.partition(".")[2]: value
           for key, value in snapshot.items()
           if key.startswith("frontend.")})
    kwargs["mem"] = MemConfig(
        **{key.partition(".")[2]: value
           for key, value in snapshot.items()
           if key.startswith("mem.")})
    if kind == "mssr":
        kwargs["mssr"] = MSSRConfig(**{key.partition(".")[2]: value
                                       for key, value in snapshot.items()
                                       if key.startswith("mssr.")})
    elif kind == "ri":
        kwargs["ri"] = RIConfig(**{key.partition(".")[2]: value
                                   for key, value in snapshot.items()
                                   if key.startswith("ri.")})
    return CoreConfig(**kwargs)


def build_reuse_scheme(kind, overrides=()):
    """The explicit reuse-scheme object for kinds the core config
    cannot express (DIR); None otherwise."""
    if kind != "dir":
        return None
    from repro.baselines.dir_reuse import DIRConfig, \
        DynamicInstructionReuse
    snapshot = job_snapshot(kind, overrides)
    return DynamicInstructionReuse(DIRConfig(
        num_sets=snapshot["dir.num_sets"],
        assoc=snapshot["dir.assoc"]))


def kinds():
    """Known job kinds (sections beyond ``core`` they activate)."""
    return dict(KIND_SECTIONS)


__all__ = [
    "CONFIG_SCHEMA_VERSION", "ConfigTree", "ResolvedValue",
    "LAYER_DEFAULT", "LAYER_FILE", "LAYER_ENV", "LAYER_OVERRIDE",
    "build_core_config", "build_reuse_scheme", "flatten",
    "job_snapshot", "kinds", "load_file", "parse_overrides", "resolve",
    "snapshot_hash", "suggestion",
]
