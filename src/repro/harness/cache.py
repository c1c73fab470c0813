"""On-disk result cache for simulation jobs.

Results are stored one JSON file per job under
``<cache dir>/<code fingerprint>/<shard>/<job hash>.json``, where the
shard is the first two hex digits of the job hash. Sharding keeps
directory listings bounded (256 buckets per fingerprint) so a store
holding millions of cached points stays fast to look up and to walk —
a flat directory with 10^6+ entries makes every ``os.listdir`` and
every cold ``open`` crawl. The fingerprint hashes every ``.py`` source
file in the ``repro`` package, so editing the simulator (or a
workload) automatically invalidates all cached results without any
manual versioning.

The cache directory defaults to ``$XDG_CACHE_HOME/repro-sim`` (or
``~/.cache/repro-sim``) and is overridable via ``REPRO_CACHE_DIR``.
Setting ``REPRO_CACHE_DIR`` to ``0``, ``off`` or the empty string
disables disk caching entirely.

All I/O failures degrade to cache misses — a broken or read-only cache
never breaks an experiment, it only costs re-simulation.
"""

import hashlib
import json
import os
import tempfile

from repro.config import envreg

_DISABLE_VALUES = envreg.DISABLE_VALUES

_FINGERPRINT = None


def code_fingerprint():
    """Hash of every ``.py`` file in the repro package (cached per
    process).

    The predecode schema version, the configuration-schema version and
    the ``REPRO_SLOWPATH`` escape hatch are folded in as well: results
    simulated via the interpretive paths must never be served to (or
    poison the cache of) predecoded runs, and entries hashed under an
    older job-hashing scheme (pre configuration tree) must never be
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
        from repro.isa.predecode import PREDECODE_VERSION
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
    from repro.isa.predecode import slowpath_enabled
    if slowpath_enabled():
        return _FINGERPRINT + "-slow"
    return _FINGERPRINT


def default_cache_dir():
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-sim")


#: Hex digits of the job hash used as the shard directory name.
SHARD_CHARS = 2


def shard_of(key):
    """Shard directory name for one entry key (2-hex hash prefix)."""
    return key[:SHARD_CHARS]


def _is_shard_dir(name):
    """True for 2-hex shard directory names (``a3``, ``0f``, ...)."""
    if len(name) != SHARD_CHARS:
        return False
    try:
        int(name, 16)
    except ValueError:
        return False
    return True


def iter_entries(sub):
    """Yield ``(name, path)`` for every JSON entry under one
    fingerprint directory: sharded entries plus flat ones (the
    checkpoint store's layout, which stale result-cache fingerprints
    may also hold). Unreadable paths are silently skipped, like every
    cache I/O."""
    try:
        names = sorted(os.listdir(sub))
    except OSError:
        return
    for name in names:
        path = os.path.join(sub, name)
        if name.endswith(".json"):
            yield name, path
        elif _is_shard_dir(name) and os.path.isdir(path):
            try:
                inner = sorted(os.listdir(path))
            except OSError:
                continue
            for entry in inner:
                if entry.endswith(".json"):
                    yield entry, os.path.join(path, entry)


def stale_fingerprints(directory, current):
    """Fingerprint subdirectories of ``directory`` other than
    ``current`` — entries under them were produced by older code or an
    older hashing scheme and can never be served again. Returns
    ``[(fingerprint, entries)]`` sorted by name. Directories without
    entries are skipped: the default checkpoint store at
    ``<cache>/checkpoints`` holds fingerprint directories, not
    entries."""
    out = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    for name in names:
        if name == current:
            continue
        sub = os.path.join(directory, name)
        if not os.path.isdir(sub):
            continue
        count = sum(1 for _name, _path in iter_entries(sub))
        if count:
            out.append((name, count))
    return out


# ---------------------------------------------------------------------------
# Store walking / writing / pruning, shared by every on-disk store with
# the ``<root>/<fingerprint>/<key>.json`` layout (the result cache here
# and the checkpoint store in :mod:`repro.sampling.checkpoint`).
# ---------------------------------------------------------------------------
def walk_store(directory):
    """Yield ``(path, size_bytes, mtime)`` for every JSON entry under
    every fingerprint subdirectory of ``directory`` — sharded and
    flat entries alike (missing or unreadable paths are silently
    skipped, like every cache I/O)."""
    try:
        fingerprints = sorted(os.listdir(directory))
    except OSError:
        return
    for fingerprint in fingerprints:
        sub = os.path.join(directory, fingerprint)
        if not os.path.isdir(sub):
            continue
        for _name, path in iter_entries(sub):
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


def prune_store(directory, max_age_days=None, max_bytes=None, now=None):
    """Prune a ``<root>/<fingerprint>/<key>.json`` store.

    Drops entries older than ``max_age_days`` first, then the oldest
    remaining entries until the store fits in ``max_bytes``. Either
    limit may be None (no limit). Returns the number of entries
    removed; failures degrade to keeping the entry.
    """
    import time
    now = time.time() if now is None else now
    entries = sorted(walk_store(directory), key=lambda e: e[2])
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


class ResultCache:
    """JSON result store keyed by job hash + code fingerprint.

    Tracks ``hits`` / ``misses`` / ``stores`` counters so tests (and the
    batch runner's reports) can verify that a warm cache performs zero
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
        """Cache configured by ``REPRO_CACHE_DIR`` (None if disabled)."""
        enabled, directory = envreg.store_dir("REPRO_CACHE_DIR")
        if not enabled:
            return None
        return cls(directory=directory)

    # ------------------------------------------------------------------
    def _path(self, job):
        job_hash = job.job_hash()
        return os.path.join(self.directory, self.fingerprint,
                            shard_of(job_hash), job_hash + ".json")

    def get(self, job):
        """Stats dict for ``job``, or None on a miss."""
        try:
            with open(self._path(job), "r", encoding="utf-8") as handle:
                stats = json.load(handle)["stats"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, job, stats_dict):
        """Persist a result; failures are silently ignored.

        Every entry embeds the job's fully resolved configuration
        snapshot (inside ``job.config``) plus its stable configuration
        hash, so any row of any table is reproducible from the result
        file alone.
        """
        try:
            write_json_atomic(self._path(job),
                              {"job": job.spec(),
                               "job_hash": job.job_hash(),
                               "config_hash": job.config_hash(),
                               "stats": stats_dict})
        except OSError:
            return
        self.stores += 1

    # ------------------------------------------------------------------
    def entries(self):
        """Number of results stored for the current fingerprint."""
        sub = os.path.join(self.directory, self.fingerprint)
        return sum(1 for _name, _path in iter_entries(sub))

    def prune(self, max_age_days=None, max_bytes=None):
        """Prune old / excess entries across *all* fingerprints (stale
        fingerprints are exactly what pruning should reclaim first).
        Returns the number of entries removed."""
        return prune_store(self.directory, max_age_days=max_age_days,
                           max_bytes=max_bytes)

    def total_bytes(self):
        """Total size of every entry across all fingerprints."""
        return sum(size for _path, size, _mtime
                   in walk_store(self.directory))

    def orphaned(self):
        """``(entries, fingerprints)`` stranded under fingerprints other
        than the current one — results from older code or an older
        hashing scheme that can never be served again (``harness
        cache`` reports them; ``harness cache prune`` reclaims
        them)."""
        stale = stale_fingerprints(self.directory, self.fingerprint)
        return sum(count for _name, count in stale), len(stale)

    def clear(self):
        """Drop the current fingerprint's cached results. Returns the
        number of entries removed."""
        removed = 0
        sub = os.path.join(self.directory, self.fingerprint)
        for _name, path in list(iter_entries(sub)):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
