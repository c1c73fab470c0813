"""Architectural checkpoints and the on-disk checkpoint store.

A :class:`Checkpoint` is everything needed to drop the detailed
pipeline into the middle of a program: pc, architectural registers, the
memory delta against the program's initial image, and short *warmup
traces* — the last N control transfers and memory accesses executed
before the checkpoint — which :mod:`repro.sampling.sampler` replays
functionally through the branch predictors, BTB, RAS and cache
hierarchy before cycle 0 so the sampled interval does not start from
glacially cold microarchitectural state.

Checkpoints are JSON-serialisable and persist through
:class:`CheckpointStore`, a format over the harness store
(:class:`repro.harness.cache.Store`): they sit beside the cached
results, under the same directory and code fingerprint.
"""

import collections

from repro.emu.emulator import Emulator
from repro.harness.cache import Store
from repro.harness.cache import code_fingerprint  # noqa: F401  (re-export)
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
class CheckpointStore(Store):
    """The sampler's entries in the harness store: for one (program,
    sampling spec) the simpoint selection plus the captured
    checkpoints, as one plain JSON dict, so a warm store skips both
    emulator passes."""

    def get(self, key):
        """Payload dict for ``key``, or None on a miss."""
        return self.load(key)

    def put(self, key, payload):
        """Persist a payload dict; failures are silently ignored."""
        self.save(key, payload)
