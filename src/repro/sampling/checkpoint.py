"""Architectural checkpoints and the on-disk checkpoint store.

A :class:`Checkpoint` is everything needed to drop the detailed
pipeline into the middle of a program: pc, architectural registers, the
memory delta against the program's initial image, and short *warmup
traces* — the last N control transfers and memory accesses executed
before the checkpoint — which :mod:`repro.sampling.sampler` replays
functionally through the branch predictors, BTB, RAS and cache
hierarchy before cycle 0 so the sampled interval does not start from
glacially cold microarchitectural state.

Checkpoints are JSON-serialisable and persist in a
:class:`CheckpointStore` laid out exactly like the harness result cache
(``<dir>/<code fingerprint>/<key>.json``, ``REPRO_CKPT_DIR``), sharing
its store-walking and pruning helpers.
"""

import collections
import hashlib
import json
import os

from repro.emu.emulator import Emulator
from repro.harness.cache import (
    code_fingerprint,
    default_cache_dir,
    prune_store,
    walk_store,
    write_json_atomic,
)
from repro.pipeline.core import InitialState

#: Default warmup trace depths.
DEFAULT_WARMUP_BRANCHES = 2048
DEFAULT_WARMUP_MEM = 4096


class Checkpoint:
    """Architectural state at one dynamic instruction boundary."""

    __slots__ = ("inst_count", "pc", "regs", "mem_words", "branch_trace",
                 "mem_trace")

    def __init__(self, inst_count, pc, regs, mem_words, branch_trace=(),
                 mem_trace=()):
        self.inst_count = inst_count
        self.pc = pc
        self.regs = list(regs)
        self.mem_words = dict(mem_words)
        # (pc, taken, target, flags) tuples, oldest first.
        self.branch_trace = [tuple(entry) for entry in branch_trace]
        # (addr, is_write) tuples, oldest first.
        self.mem_trace = [tuple(entry) for entry in mem_trace]

    def initial_state(self):
        """The :class:`~repro.pipeline.core.InitialState` to inject."""
        return InitialState(self.pc, self.regs, self.mem_words)

    def as_dict(self):
        return {
            "inst_count": self.inst_count,
            "pc": self.pc,
            "regs": list(self.regs),
            "mem_words": {"%d" % addr: value
                          for addr, value in self.mem_words.items()},
            "branch_trace": [list(entry) for entry in self.branch_trace],
            "mem_trace": [list(entry) for entry in self.mem_trace],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["inst_count"], data["pc"], data["regs"],
                   {int(addr): value
                    for addr, value in data["mem_words"].items()},
                   data["branch_trace"], data["mem_trace"])

    def __repr__(self):
        return "<Checkpoint @%d pc=%#x %d mem word(s)>" % (
            self.inst_count, self.pc, len(self.mem_words))


def _snapshot(emu, image, branches, mems):
    delta = {addr: value for addr, value in emu.memory.words.items()
             if image.get(addr, 0) != value}
    return Checkpoint(emu.inst_count, emu.pc, emu.regs, delta,
                      list(branches), list(mems))


def capture_checkpoints(program, boundaries,
                        warmup_branches=DEFAULT_WARMUP_BRANCHES,
                        warmup_mem=DEFAULT_WARMUP_MEM):
    """Fast-forward the emulator once, checkpointing at each boundary.

    ``boundaries`` are dynamic instruction counts (ascending order not
    required; duplicates collapse). Returns ``{boundary: Checkpoint}``.
    Raises :class:`ValueError` if the program halts before the last
    boundary is reached.
    """
    emu = Emulator(program)
    image = program.initial_memory()
    branches = collections.deque(maxlen=max(1, warmup_branches))
    mems = collections.deque(maxlen=max(1, warmup_mem))

    out = {}
    for boundary in sorted(set(boundaries)):
        if boundary < emu.inst_count:
            raise ValueError("boundary %d precedes emulator position %d"
                             % (boundary, emu.inst_count))
        emu.run_until(boundary, trace=(branches, mems))
        if emu.inst_count < boundary:
            raise ValueError(
                "program halted at %d insts, before boundary %d"
                % (emu.inst_count, boundary))
        out[boundary] = _snapshot(emu, image, branches, mems)
    return out


# ---------------------------------------------------------------------------
# On-disk store
# ---------------------------------------------------------------------------
def spec_key(spec):
    """Canonical 24-hex key for a JSON-able spec dict (same recipe as
    :meth:`repro.harness.jobs.SimJob.job_hash`)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def default_checkpoint_dir():
    return os.path.join(default_cache_dir(), "checkpoints")


class CheckpointStore:
    """JSON blob store keyed by spec hash + code fingerprint.

    The second on-disk store next to the harness result cache, with the
    same layout, environment override (``REPRO_CKPT_DIR``), miss-on-
    any-failure semantics and shared pruning helpers. Values are plain
    JSON dicts — the sampler persists the simpoint selection plus the
    captured checkpoints for one (program, sampling spec) as a single
    entry, so a warm store skips both emulator passes.
    """

    def __init__(self, directory=None, fingerprint=None):
        self.directory = directory or default_checkpoint_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @classmethod
    def from_env(cls):
        """Store configured by ``REPRO_CKPT_DIR`` (None if disabled)."""
        from repro.config import envreg
        enabled, directory = envreg.store_dir("REPRO_CKPT_DIR")
        if not enabled:
            return None
        return cls(directory=directory)

    def _path(self, key):
        return os.path.join(self.directory, self.fingerprint,
                            key + ".json")

    def get(self, key):
        """Payload dict for ``key``, or None on a miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key, payload):
        """Persist a payload dict; failures are silently ignored."""
        try:
            write_json_atomic(self._path(key), payload)
        except OSError:
            return
        self.stores += 1

    # ------------------------------------------------------------------
    def entries(self):
        """Entry count for the current fingerprint."""
        try:
            names = os.listdir(os.path.join(self.directory,
                                            self.fingerprint))
        except OSError:
            return 0
        return sum(1 for name in names if name.endswith(".json"))

    def total_bytes(self):
        return sum(size for _path, size, _mtime
                   in walk_store(self.directory))

    def prune(self, max_age_days=None, max_bytes=None):
        """Prune old / excess entries across all fingerprints."""
        return prune_store(self.directory, max_age_days=max_age_days,
                           max_bytes=max_bytes)
