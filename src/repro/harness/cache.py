"""The on-disk store: simulation results and sampling checkpoints.

Every entry is one JSON file at
``<store dir>/<code fingerprint>/<shard>/<key>.json``, where the key is
a :func:`~repro.utils.hashing.canonical_hash` and the shard its first
two hex digits. Sharding keeps directory listings bounded (256 buckets
per fingerprint) so a store holding millions of entries stays fast to
look up and to walk — a flat directory with 10^6+ entries makes every
``os.listdir`` and every cold ``open`` crawl. The fingerprint hashes
every ``.py`` source file in the ``repro`` package, so editing the
simulator (or a workload) automatically invalidates every entry
without any manual versioning.

:class:`Store` owns the layout, the counters, the walks and pruning.
Two thin formats sit on it, in the same directory: :class:`ResultCache`
(one job's stats in an envelope that embeds the job's snapshot) and
:class:`repro.sampling.checkpoint.CheckpointStore` (the sampler's
simpoint selection and checkpoints for one program).

The directory defaults to ``$XDG_CACHE_HOME/repro-sim`` (or
``~/.cache/repro-sim``) and is overridable via ``REPRO_CACHE_DIR``.
Setting ``REPRO_CACHE_DIR`` to ``0``, ``off`` or the empty string
disables the store entirely.

All I/O failures degrade to misses — a broken or read-only store never
breaks an experiment, it only costs re-simulation.
"""

import hashlib
import json
import os
import tempfile
import time

from repro.config import envreg

_FINGERPRINT = None


def code_fingerprint():
    """Hash of every ``.py`` file in the repro package (cached per
    process).

    The predecode schema version, the configuration-schema version and
    the ``REPRO_SLOWPATH`` escape hatch are folded in as well: results
    simulated via the interpretive oracle must never be served to (or
    poison the cache of) superblock runs, and entries hashed under an
    older job-hashing scheme (before job snapshots) must never be
    misattributed — bumping ``CONFIG_SCHEMA_VERSION`` strands them
    under a stale fingerprint, which ``harness cache`` reports as
    orphaned. The slowpath marker is applied per *call* (not baked into
    the cached digest) because tests toggle the environment variable
    mid-process.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro
        from repro.config.schema import CONFIG_SCHEMA_VERSION
        from repro.isa.instruction import PREDECODE_VERSION
        base = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        digest.update(("predecode-v%d" % PREDECODE_VERSION).encode("utf-8"))
        digest.update(("config-v%d" % CONFIG_SCHEMA_VERSION)
                      .encode("utf-8"))
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, base).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _FINGERPRINT = digest.hexdigest()[:16]
    from repro.emu.emulator import slowpath_enabled
    if slowpath_enabled():
        return _FINGERPRINT + "-slow"
    return _FINGERPRINT


def default_cache_dir():
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-sim")


def _walk(directory):
    """Yield ``(path, size_bytes, mtime)`` for every ``*.json`` file at
    any depth under ``directory``, so entries that older layouts left
    behind stay visible to the orphan count and to pruning. Unreadable
    paths are silently skipped, like every store I/O."""
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            yield path, info.st_size, info.st_mtime


def write_json_atomic(path, payload):
    """Publish ``json.dumps(payload, sort_keys=True)`` at ``path``.

    The text is encoded in one ``json.dumps`` call, which runs the C
    encoder (``json.dump`` always runs the pure-Python one), and written
    once to a temporary file beside ``path`` that then replaces it, so
    a reader never sees a torn file. Raises OSError on failure, leaving
    no temporary file behind.
    """
    text = json.dumps(payload, sort_keys=True)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Store:
    """JSON entries keyed by canonical hash under the code fingerprint.

    Tracks ``hits`` / ``misses`` / ``stores`` counters so tests (and the
    batch runner's reports) can verify that a warm store performs zero
    new simulations.
    """

    def __init__(self, directory=None, fingerprint=None):
        self.directory = directory or default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @classmethod
    def from_env(cls):
        """Store configured by ``REPRO_CACHE_DIR`` (None if disabled)."""
        enabled, directory = envreg.store_dir("REPRO_CACHE_DIR")
        if not enabled:
            return None
        return cls(directory=directory)

    # ------------------------------------------------------------------
    def path(self, key):
        """Where the entry for ``key`` lives under this fingerprint."""
        return os.path.join(self.directory, self.fingerprint, key[:2],
                            key + ".json")

    def load(self, key, field=None):
        """The payload stored under ``key`` (or its ``field``), or None
        on a miss: a missing, unreadable or malformed entry."""
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if field is not None:
                payload = payload[field]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def save(self, key, payload):
        """Persist ``payload`` under ``key``; failures are silently
        ignored."""
        try:
            write_json_atomic(self.path(key), payload)
        except OSError:
            return
        self.stores += 1

    # ------------------------------------------------------------------
    def census(self):
        """``{fingerprint: (entries, bytes)}`` for every top-level
        directory of the store that holds entries."""
        out = {}
        for path, size, _mtime in _walk(self.directory):
            name = os.path.relpath(path, self.directory).split(os.sep)[0]
            entries, total = out.get(name, (0, 0))
            out[name] = (entries + 1, total + size)
        return out

    def entries(self):
        """Number of entries stored under the current fingerprint."""
        sub = os.path.join(self.directory, self.fingerprint)
        return sum(1 for _entry in _walk(sub))

    def orphaned(self):
        """``(entries, fingerprints)`` stranded under fingerprints other
        than the current one — entries from older code, an older
        hashing scheme or an older layout that can never be served
        again (``harness cache`` reports them; ``harness cache prune``
        reclaims them)."""
        stale = [entries for name, (entries, _bytes)
                 in self.census().items() if name != self.fingerprint]
        return sum(stale), len(stale)

    def clear(self):
        """Drop the current fingerprint's entries. Returns the number of
        entries removed."""
        removed = 0
        sub = os.path.join(self.directory, self.fingerprint)
        for path, _size, _mtime in list(_walk(sub)):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_age_days=None, max_bytes=None):
        """Prune entries across *all* fingerprints (stale fingerprints
        are exactly what pruning should reclaim first).

        Drops entries older than ``max_age_days`` first, then the oldest
        remaining entries until the store fits in ``max_bytes``. Either
        limit may be None (no limit). Returns the number of entries
        removed; failures degrade to keeping the entry.
        """
        now = time.time()
        entries = sorted(_walk(self.directory), key=lambda e: e[2])
        removed = 0
        kept = []
        for path, size, mtime in entries:
            if max_age_days is not None \
                    and now - mtime > max_age_days * 86400.0:
                try:
                    os.unlink(path)
                    removed += 1
                    continue
                except OSError:
                    pass
            kept.append((path, size, mtime))
        if max_bytes is not None:
            total = sum(size for _path, size, _mtime in kept)
            for path, size, _mtime in kept:  # oldest first
                if total <= max_bytes:
                    break
                try:
                    os.unlink(path)
                    removed += 1
                    total -= size
                except OSError:
                    pass
        return removed


class ResultCache(Store):
    """Simulation results, one entry per job keyed by its job hash."""

    def get(self, job):
        """Stats dict for ``job``, or None on a miss."""
        return self.load(job.job_hash(), "stats")

    def put(self, job, stats_dict):
        """Persist a result; failures are silently ignored.

        Every entry embeds the job's fully resolved configuration
        snapshot (inside ``job.config``) plus its stable configuration
        hash, so any row of any table is reproducible from the result
        file alone.
        """
        self.save(job.job_hash(), {"job": job.spec(),
                                   "job_hash": job.job_hash(),
                                   "config_hash": job.config_hash(),
                                   "stats": stats_dict})
