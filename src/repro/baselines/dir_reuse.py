"""Dynamic Instruction Reuse (Sodani & Sohi, ISCA 1997) — scheme Sv.

The earliest squash-reuse proposal the paper compares against (Section
3.7): a PC-indexed *Reuse Buffer* stores each squashed instruction's
source operand **values** and its result. At rename, an instruction
whose PC hits the buffer and whose source registers are (a) already
ready and (b) hold exactly the stored values skips execution; the stored
result is written into a freshly allocated register.

Because entries carry values rather than register names, no physical
registers are retained and no invalidation is ever needed — but the
scheme inherits the table weaknesses the paper dissects in Section
3.7.1: one entry per (set, way) means *temporal references* (the same
static instruction squashed with different operands) overwrite each
other, and the reuse test can only fire when operands are ready at
rename, missing reuse of still-in-flight dependence chains.
"""

import dataclasses

from repro.baselines.base import ReuseScheme, ReuseResult
from repro.pipeline.config import _check_positive


class _DIREntry:
    __slots__ = ("pc", "src_values", "result", "is_load", "load_addr",
                 "load_size", "valid", "lru")

    def __init__(self):
        self.pc = -1
        self.src_values = ()
        self.result = 0
        self.is_load = False
        self.load_addr = None
        self.load_size = 0
        self.valid = False
        self.lru = 0


@dataclasses.dataclass
class DIRConfig:
    """Reuse Buffer geometry."""

    num_sets: int = 64
    assoc: int = 4

    def __post_init__(self):
        _check_positive(self, "num_sets", "assoc")


class DynamicInstructionReuse(ReuseScheme):
    """Value-matching reuse buffer (DIR scheme Sv)."""

    name = "dir"
    needs_rgids = False

    def __init__(self, config=None):
        super().__init__()
        self.config = config or DIRConfig()
        self.num_sets = self.config.num_sets
        self.assoc = self.config.assoc
        self.sets = [[_DIREntry() for _ in range(self.assoc)]
                     for _ in range(self.num_sets)]
        self.regfile = None            # bound at attach
        self._tick = 0
        self.insertions = 0
        self.replacements = 0

    def attach(self, core):
        super().attach(core)
        self.regfile = core.regfile

    def _set_for(self, pc):
        return self.sets[(pc >> 2) % self.num_sets]

    # ------------------------------------------------------------------
    def on_branch_squash(self, trigger, squashed, squashed_blocks):
        values = self.regfile.values
        for dyn in squashed:
            inst = dyn.inst
            if (not dyn.renamed or not dyn.executed or not inst.writes_reg
                    or inst.is_branch or inst.is_store or dyn.verify_load):
                continue
            self._insert(dyn, tuple(values[p] for p in dyn.srcs_preg))

    def _insert(self, dyn, src_values):
        self._tick += 1
        ways = self._set_for(dyn.pc)
        victim = None
        for entry in ways:
            if entry.valid and entry.pc == dyn.pc:
                victim = entry          # temporal reference: overwrite
                break
        if victim is None:
            for entry in ways:
                if not entry.valid:
                    victim = entry
                    break
        if victim is None:
            victim = min(ways, key=lambda e: e.lru)
            self.replacements += 1
        victim.pc = dyn.pc
        victim.src_values = src_values
        victim.result = dyn.result
        victim.is_load = dyn.inst.is_load
        victim.load_addr = dyn.mem_addr if dyn.inst.is_load else None
        victim.load_size = dyn.mem_size if dyn.inst.is_load else 0
        victim.valid = True
        victim.lru = self._tick
        self.insertions += 1

    # ------------------------------------------------------------------
    def try_reuse(self, dyn):
        entry = None
        for candidate in self._set_for(dyn.pc):
            if candidate.valid and candidate.pc == dyn.pc:
                entry = candidate
                break
        if entry is None:
            return None
        if entry.is_load and entry.load_addr is None:
            return None
        self.obs.reuse_test(dyn)
        regfile = self.regfile
        # Value test: every source must be ready with the stored value.
        for preg, stored in zip(dyn.srcs_preg, entry.src_values):
            if not regfile.ready[preg] or regfile.values[preg] != stored:
                return None
        self._tick += 1
        entry.lru = self._tick
        verify_addr = entry.load_addr if entry.is_load else None
        return ReuseResult(None, None, value=entry.result,
                           verify_addr=verify_addr)

    def on_verify_fail(self, dyn):
        for ways in self.sets:
            for entry in ways:
                entry.valid = False
