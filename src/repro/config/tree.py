"""Job snapshots: the one configuration resolver.

A job's configuration is its *snapshot*: every model key of the
sections active for its kind, at the code default unless an explicit
override names it. :class:`~repro.harness.jobs.SimJob` hashes the
snapshot, the simulator is built from it, and ``python -m
repro.harness config show|hash`` print it, so what is reported is what
is simulated. The environment never enters a snapshot: ``REPRO_*``
variables pick worker counts, cache directories and the like
(:mod:`repro.config.envreg`), so the same job hashes identically in any
environment and any result file can be replayed from its embedded
snapshot alone.
"""

from repro.config.schema import field, model_keys


def parse_overrides(pairs):
    """``["core.width=4", ...]`` (or a dict) -> ``{key: value}``.

    String values are coerced by the field's type, so CLI ``--set``
    values and programmatic overrides share one parsing path.
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


_SNAPSHOT_MEMO = {}


def job_snapshot(kind, overrides=()):
    """Canonical model snapshot for one job.

    ``overrides`` is a dict (or tuple of pairs) of dotted model keys;
    keys outside the sections active for ``kind`` are rejected — an
    override that cannot affect the run must not silently change its
    hash. ``kind=None`` spans every model section.
    """
    overrides = tuple(sorted(dict(overrides).items()))
    memo_key = (kind, overrides)
    cached = _SNAPSHOT_MEMO.get(memo_key)
    if cached is not None:
        return dict(cached)

    keys = model_keys(kind=kind)
    active = set(keys)
    snapshot = {key: field(key).default for key in keys}
    for key, value in overrides:
        spec = field(key)
        if spec.key not in active:
            raise ValueError(
                "override %s has no effect on kind %r (active "
                "sections: %s)"
                % (spec.key, kind,
                   ", ".join(sorted({k.partition('.')[0]
                                     for k in active}))))
        snapshot[spec.key] = spec.coerce(value, source="override")
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
        **{key.partition(".")[2]: value
           for key, value in snapshot.items() if key.startswith("dir.")}))


__all__ = [
    "build_core_config", "build_reuse_scheme", "job_snapshot",
    "parse_overrides",
]
