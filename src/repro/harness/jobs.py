"""Declarative simulation jobs.

A :class:`SimJob` names everything needed to reproduce one simulated
point — workload, configuration kind, scale and scheme parameters — as
plain picklable data. Jobs have a canonical stable hash, so identical
points are deduplicated within a batch, memoised across experiments in
one process, and persisted across processes by the on-disk result cache
(:mod:`repro.harness.cache`).

Job hashes are computed over the *fully resolved* configuration
snapshot (:func:`repro.config.tree.job_snapshot`): the spec embeds
every model key of the active sections at its resolved value, so a
persisted result is reproducible from its file alone and a changed
default is a changed hash. The short scheme parameters (``streams``,
``wpb``, ...) and arbitrary dotted ``config`` overrides
(``mssr.rgid_bits=8``) both land in the same snapshot, so two jobs
that describe the same point hash identically regardless of how they
were declared.

Workers rebuild the program and configuration from the job spec and
return :class:`~repro.pipeline.stats.SimStats` as a plain dict, so a
job's full lifecycle (submit, transport, persist) never relies on
process-local state.
"""

import dataclasses
import os
import signal
import threading
from typing import Optional, Tuple

from repro.utils.hashing import canonical_hash

#: Short scheme parameter -> configuration key, per kind.
KIND_PARAM_KEYS = {
    "baseline": {},
    "mssr": {"streams": "mssr.num_streams", "wpb": "mssr.wpb_entries",
             "log": "mssr.squash_log_entries"},
    "ri": {"sets": "ri.num_sets", "ways": "ri.assoc"},
    "dir": {"sets": "dir.num_sets", "ways": "dir.assoc"},
}

#: Scheme parameters accepted per configuration kind.
KIND_PARAMS = {kind: tuple(mapping)
               for kind, mapping in KIND_PARAM_KEYS.items()}


class JobTimeout(Exception):
    """A job exceeded its wall-clock guard."""


@dataclasses.dataclass(frozen=True)
class SimJob:
    """One (workload, configuration) simulation point.

    ``params`` may be given as a dict; it is canonicalised to a sorted
    tuple of pairs so equal jobs compare and hash equal regardless of
    keyword order. ``max_cycles`` and ``wall_seconds`` are safety guards
    only — a guarded run either produces the exact same stats or fails —
    so they are excluded from the job hash.

    ``config`` holds extra overrides as dotted configuration keys
    (``{"mssr.rgid_bits": 8}`` or a tuple of pairs) — any model key of
    the sections active for ``kind`` is sweepable. Overrides are
    validated against the schema, canonicalised to a sorted tuple of
    pairs and folded into the resolved snapshot; a short parameter and
    a dotted override naming the same field resolve with the short
    parameter winning.

    ``sampling`` switches the job to SimPoint-sampled execution
    (:mod:`repro.sampling`): ``True`` for the default
    :class:`~repro.sampling.sampler.SamplingSpec`, or a dict /
    ``SamplingSpec`` of knobs. It is canonicalised to a sorted tuple of
    pairs and only enters the job hash when set.
    """

    workload: str
    kind: str = "baseline"
    scale: float = 0.15
    params: Tuple = ()
    max_cycles: Optional[int] = None
    wall_seconds: Optional[float] = None
    sampling: Optional[Tuple] = None
    config: Tuple = ()

    def __post_init__(self):
        if self.kind not in KIND_PARAMS:
            raise ValueError("unknown config kind %r (have: %s)"
                             % (self.kind, ", ".join(sorted(KIND_PARAMS))))
        params = self.params
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted(tuple(pair) for pair in params))
        allowed = KIND_PARAMS[self.kind]
        for key, _value in params:
            if key not in allowed:
                raise ValueError(
                    "parameter %r not valid for kind %r (allowed: %s)"
                    % (key, self.kind, ", ".join(allowed) or "none"))
        object.__setattr__(self, "params", params)
        config = self.config
        if isinstance(config, dict):
            config = tuple(sorted(config.items()))
        else:
            config = tuple(sorted(tuple(pair) for pair in config))
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "scale", round(float(self.scale), 6))
        if self.sampling is not None:
            from repro.sampling.sampler import SamplingSpec
            spec = SamplingSpec() if self.sampling is True \
                else SamplingSpec.from_any(self.sampling)
            object.__setattr__(self, "sampling",
                               tuple(sorted(spec.spec().items())))
        if config:
            # Eagerly validate keys, values and section/kind fit, so a
            # bad sweep axis fails at declaration, not mid-batch.
            self.resolved_config()

    # ------------------------------------------------------------------
    def overrides(self):
        """Merged dotted-key overrides: ``config`` plus the short
        scheme parameters mapped onto their configuration keys."""
        merged = dict(self.config)
        mapping = KIND_PARAM_KEYS[self.kind]
        for key, value in self.params:
            merged[mapping[key]] = value
        return merged

    def resolved_config(self):
        """The fully resolved model snapshot for this job: every model
        key of the active sections at its resolved value."""
        from repro.config.tree import job_snapshot
        return job_snapshot(self.kind, self.overrides())

    def config_hash(self):
        """Stable hash of the resolved configuration snapshot alone
        (shared by every workload simulated under this configuration)."""
        return canonical_hash(self.resolved_config())

    def build_config(self):
        """The :class:`~repro.pipeline.config.CoreConfig` this job
        simulates (scheme sub-config included)."""
        from repro.config.tree import build_core_config
        return build_core_config(self.kind, self.overrides())

    def build_scheme(self):
        """Explicit reuse-scheme object (DIR), or None."""
        from repro.config.tree import build_reuse_scheme
        return build_reuse_scheme(self.kind, self.overrides())

    @property
    def sampling_spec(self):
        """The :class:`~repro.sampling.sampler.SamplingSpec`, or None."""
        if self.sampling is None:
            return None
        from repro.sampling.sampler import SamplingSpec
        return SamplingSpec.from_any(self.sampling)

    def spec(self):
        """Canonical JSON-able description (hash input).

        The ``config`` entry is the fully resolved model snapshot, so
        the hash covers every knob that can affect the run — changed
        defaults change hashes, and a persisted result is reproducible
        from its spec alone. The predecode and config-schema versions
        are folded in as well: bumping either changes every job hash,
        so results computed under older semantics or an older hashing
        scheme are never silently reused.
        """
        from repro.config.schema import CONFIG_SCHEMA_VERSION
        from repro.isa.predecode import PREDECODE_VERSION
        out = {
            "workload": self.workload,
            "kind": self.kind,
            "scale": self.scale,
            "config": self.resolved_config(),
            "schema": CONFIG_SCHEMA_VERSION,
            "predecode": PREDECODE_VERSION,
        }
        if self.sampling is not None:
            out["sampling"] = [[k, v] for k, v in self.sampling]
        return out

    def job_hash(self):
        cached = self.__dict__.get("_job_hash")
        if cached is None:
            cached = canonical_hash(self.spec())
            object.__setattr__(self, "_job_hash", cached)
        return cached

    def label(self):
        pairs = list(self.params) + list(self.config)
        params = " ".join("%s=%s" % kv for kv in pairs)
        sampled = " [sampled]" if self.sampling is not None else ""
        return "%s/%s%s%s%s" % (self.workload, self.kind,
                                " " if params else "", params, sampled)

    def __repr__(self):
        return "<SimJob %s scale=%s>" % (self.label(), self.scale)


# ---------------------------------------------------------------------------
# Config / scheme construction. Both resolve through the job snapshot,
# so a config built here is byte-for-byte the one a SimJob with the
# same parameters would hash and persist.
# ---------------------------------------------------------------------------
def _merged_overrides(kind, config_overrides, params):
    if kind not in KIND_PARAM_KEYS:
        raise ValueError("unknown config kind %r (have: %s)"
                         % (kind, ", ".join(sorted(KIND_PARAM_KEYS))))
    merged = dict(config_overrides or {})
    mapping = KIND_PARAM_KEYS[kind]
    for key, value in params.items():
        if key not in mapping:
            raise ValueError(
                "parameter %r not valid for kind %r (allowed: %s)"
                % (key, kind, ", ".join(mapping) or "none"))
        merged[mapping[key]] = value
    return merged


def build_config(kind, config_overrides=None, **params):
    """Build a named core configuration.

    ``kind``: ``baseline``, ``mssr`` (params: streams, wpb, log),
    ``ri`` (params: sets, ways) or ``dir`` (scheme object on a baseline
    core, params: sets, ways). ``config_overrides`` takes arbitrary
    dotted configuration keys (``{"mssr.rgid_bits": 8}``).
    """
    from repro.config.tree import build_core_config
    return build_core_config(kind,
                             _merged_overrides(kind, config_overrides,
                                               params))


def build_scheme(kind, config_overrides=None, **params):
    """Explicit reuse-scheme object for kinds the config can't express."""
    from repro.config.tree import build_reuse_scheme
    return build_reuse_scheme(kind,
                              _merged_overrides(kind, config_overrides,
                                                params))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
class _WallClock:
    """SIGALRM-based wall-clock guard (no-op off the main thread or on
    platforms without SIGALRM)."""

    def __init__(self, seconds):
        self.seconds = seconds
        self._armed = False
        self._old = None

    def __enter__(self):
        if (not self.seconds or not hasattr(signal, "SIGALRM")
                or threading.current_thread()
                is not threading.main_thread()):
            return self

        def _expired(_signum, _frame):
            raise JobTimeout("wall clock guard (%.1fs) expired"
                             % self.seconds)

        self._old = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, float(self.seconds))
        self._armed = True
        return self

    def __exit__(self, *_exc):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
        return False


def trace_path_for(job, directory):
    """Canonical per-job JSONL trace path under ``directory``."""
    return os.path.join(directory,
                        "%s-%s-%s.jsonl" % (job.workload, job.kind,
                                            job.job_hash()[:12]))


def _env_trace_obs(job):
    """Observability for ``REPRO_TRACE=<dir>``: every executed job writes
    a JSONL event trace into the directory (workers included)."""
    from repro.config import envreg
    directory = envreg.get("REPRO_TRACE")
    if not directory:
        return None
    from repro.obs import JsonlTraceSink, Observability
    os.makedirs(directory, exist_ok=True)
    return Observability(sinks=[JsonlTraceSink(trace_path_for(job,
                                                             directory))])


def execute(job, obs=None):
    """Run one job in this process; returns a fresh ``SimStats``.

    Workers (and the serial fallback) both come through here, so the
    parallel and serial paths are the same code modulo transport.
    ``obs`` attaches an observability bus to the simulated core; when
    omitted and ``REPRO_TRACE`` names a directory, a per-job JSONL
    trace sink is attached automatically.

    Jobs with a ``sampling`` spec route through
    :func:`repro.sampling.sampler.run_sampled` instead of a full
    detailed run; their checkpoints persist beside the results in the
    store ``REPRO_CACHE_DIR`` names, keyed by (workload, scale, sampling
    spec) only, so every configuration kind of the same program shares
    them.
    """
    from repro.pipeline.core import O3Core
    from repro.workloads import get_workload

    owned_obs = None
    if obs is None:
        obs = owned_obs = _env_trace_obs(job)
    try:
        with _WallClock(job.wall_seconds):
            workload = get_workload(job.workload)
            _mod, prog = workload.build(job.scale)
            config = job.build_config()
            if job.sampling is not None:
                from repro.sampling.checkpoint import CheckpointStore
                from repro.sampling.sampler import run_sampled
                result = run_sampled(
                    prog, config,
                    scheme_factory=job.build_scheme,
                    spec=job.sampling_spec, obs=obs,
                    max_cycles=job.max_cycles,
                    store=CheckpointStore.from_env(),
                    key_spec={"workload": job.workload,
                              "scale": job.scale})
                return result.stats
            scheme = job.build_scheme()
            core = O3Core(prog, config, reuse_scheme=scheme, obs=obs)
            result = core.run(max_cycles=job.max_cycles)
    finally:
        if owned_obs is not None:
            owned_obs.close()
    return result.stats
