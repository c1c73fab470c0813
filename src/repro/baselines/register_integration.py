"""Register Integration (Roth & Sohi, MICRO 2000) — table-based squash reuse.

The comparison baseline of Sections 2.2.3/2.2.4 and Figure 12. Squashed,
executed instructions are inserted into a PC-indexed, PC-tagged
set-associative *reuse table*; each entry records the instruction's
source *physical register names* and its destination register (whose
value is retained in the PRF). At rename, an instruction whose PC hits
the table and whose current source physical registers match the entry's
is "integrated": it adopts the stored destination register and skips
execution.

The two structural weaknesses the paper highlights are modelled exactly:

* **table conflicts** — low associativity causes replacements that evict
  reusable results (per-set replacement counters feed Figure 3); and
* **transitive invalidation** — whenever a physical register is freed,
  every entry naming it as a source must be invalidated, which in turn
  frees that entry's destination register and may cascade.
"""

from repro.baselines.base import ReuseScheme, ReuseResult


class _RIEntry:
    __slots__ = ("pc", "src_pregs", "dest_preg", "is_load", "load_addr",
                 "load_size", "valid", "lru", "reserved")

    def __init__(self):
        self.pc = -1
        self.src_pregs = ()
        self.dest_preg = None
        self.is_load = False
        self.load_addr = None
        self.load_size = 0
        self.valid = False
        self.lru = 0
        self.reserved = False


class RegisterIntegration(ReuseScheme):
    """Reuse table with physical-register-name matching."""

    name = "ri"
    needs_rgids = False

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.sets = [[_RIEntry() for _ in range(self.assoc)]
                     for _ in range(self.num_sets)]
        self._tick = 0
        self._pending = {}           # seq of squashed insts to claim
        self._src_index = {}         # preg -> set of entry ids sourcing it
        self._entries_by_id = {}     # id(entry) -> entry
        self.set_replacements = [0] * self.num_sets

    def attach(self, core):
        """Publish the per-set replacement counters immediately: Figure 3
        reads ``ri_set_replacements`` unconditionally, so the list must
        exist (all zeros included) even for runs that never replace."""
        super().attach(core)
        core.stats.ri_set_replacements = self.set_replacements

    # ------------------------------------------------------------------
    def _set_for(self, pc):
        return (pc >> 2) % self.num_sets

    def _lookup(self, pc):
        for entry in self.sets[self._set_for(pc)]:
            if entry.valid and entry.pc == pc:
                return entry
        return None

    # ------------------------------------------------------------------
    # Squash-time insertion
    # ------------------------------------------------------------------
    def on_branch_squash(self, trigger, squashed, squashed_blocks):
        self._pending = {}
        for dyn in squashed:
            if not dyn.renamed or not dyn.executed:
                continue
            inst = dyn.inst
            if (not inst.writes_reg or inst.is_branch or inst.is_store
                    or dyn.verify_load):
                continue
            self._pending[dyn.seq] = dyn

    def wants_preg(self, dyn):
        """Claim the register and insert the entry (the paper's RI keeps
        squashed results alive in the PRF exactly the same way)."""
        if dyn.seq not in self._pending:
            return False
        self._insert(dyn)
        return True

    def _insert(self, dyn):
        ways = self.sets[self._set_for(dyn.pc)]
        self._tick += 1
        victim = None
        for entry in ways:
            if entry.valid and entry.pc == dyn.pc:
                victim = entry  # same static instruction: replace in place
                break
        if victim is None:
            for entry in ways:
                if not entry.valid:
                    victim = entry
                    break
        if victim is None:
            victim = min(ways, key=lambda e: e.lru)
            self.obs.ri_replacement()
            self.set_replacements[self._set_for(dyn.pc)] += 1
        if victim.valid:
            self._invalidate_entry(victim)

        victim.pc = dyn.pc
        victim.src_pregs = dyn.srcs_preg
        victim.dest_preg = dyn.dest_preg
        victim.is_load = dyn.inst.is_load
        victim.load_addr = dyn.mem_addr if dyn.inst.is_load else None
        victim.load_size = dyn.mem_size if dyn.inst.is_load else 0
        victim.valid = True
        victim.reserved = True
        victim.lru = self._tick
        for preg in victim.src_pregs:
            self._src_index.setdefault(preg, set()).add(id(victim))
        self._entries_by_id[id(victim)] = victim
        self.obs.ri_insertion()

    # ------------------------------------------------------------------
    # Rename-time integration
    # ------------------------------------------------------------------
    def try_reuse(self, dyn):
        entry = self._lookup(dyn.pc)
        if entry is None or not entry.reserved:
            return None
        self.obs.reuse_test(dyn)
        if entry.src_pregs != dyn.srcs_preg:
            return None
        verify_addr = None
        if entry.is_load:
            verify_addr = entry.load_addr
        self._tick += 1
        entry.lru = self._tick
        # Transfer the register to the integrating instruction and drop
        # the entry (its result now lives on the correct path).
        self._release_entry(entry, free_preg=False)
        return ReuseResult(entry.dest_preg, None, verify_addr=verify_addr)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _release_entry(self, entry, free_preg):
        entry.valid = False
        was_reserved = entry.reserved
        entry.reserved = False
        for preg in entry.src_pregs:
            refs = self._src_index.get(preg)
            if refs:
                refs.discard(id(entry))
        entry.src_pregs = ()
        if free_preg and was_reserved:
            # Freeing the destination may cascade (transitive
            # invalidation) via on_preg_freed.
            self.core.free_reserved_preg(entry.dest_preg)

    def _invalidate_entry(self, entry):
        self.obs.ri_invalidation()
        self._release_entry(entry, free_preg=True)

    def on_preg_freed(self, preg):
        """Transitive invalidation: entries sourcing a freed register are
        stale and must be dropped (freeing their own registers, which may
        recurse through this hook)."""
        refs = self._src_index.pop(preg, None)
        if not refs:
            return
        for entry_id in list(refs):
            entry = self._entries_by_id.get(entry_id)
            if entry is not None and entry.valid:
                self._invalidate_entry(entry)

    def emergency_release(self):
        """Free-list pressure: drop the globally least-recent entry."""
        victim = None
        for ways in self.sets:
            for entry in ways:
                if entry.valid and entry.reserved:
                    if victim is None or entry.lru < victim.lru:
                        victim = entry
        if victim is None:
            return False
        self._invalidate_entry(victim)
        return True

    def on_verify_fail(self, dyn):
        """Flush all entries on a load-verification failure."""
        for ways in self.sets:
            for entry in ways:
                if entry.valid:
                    self._release_entry(entry, free_preg=True)

    def finalize(self):
        self.stats.ri_set_replacements = list(self.set_replacements)
