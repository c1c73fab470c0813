"""Load/store queues with speculative forwarding and violation detection.

Loads execute speculatively: a load may issue before an older store's
address is known. The store, when it finally executes, searches the load
queue for younger already-executed loads on an overlapping address
(XiangShan-style store-to-load check, Section 3.8.1) and triggers a
replay squash from the oldest violator. This is the mechanism that also
punishes over-eager squash reuse of loads (the paper's xz anomaly).
"""


def _overlap(addr_a, size_a, addr_b, size_b):
    return addr_a < addr_b + size_b and addr_b < addr_a + size_a


class LoadStoreQueue:
    """Combined LQ/SQ keyed by instruction age (seq)."""

    def __init__(self, memory, lq_entries=96, sq_entries=96):
        self.memory = memory           # committed architectural memory
        self.lq_entries = lq_entries
        self.sq_entries = sq_entries
        self.loads = {}                # seq -> DynInst (allocated at dispatch)
        self.stores = {}               # seq -> DynInst

    # ------------------------------------------------------------------
    @property
    def lq_free(self):
        return self.lq_entries - len(self.loads)

    @property
    def sq_free(self):
        return self.sq_entries - len(self.stores)

    def allocate(self, dyn):
        if dyn.is_load:
            self.loads[dyn.seq] = dyn
        elif dyn.is_store:
            self.stores[dyn.seq] = dyn

    def remove(self, dyn):
        self.loads.pop(dyn.seq, None)
        self.stores.pop(dyn.seq, None)

    # ------------------------------------------------------------------
    def speculative_read(self, addr, size, seq):
        """Load value as seen by instruction ``seq``: committed memory
        patched with all older, already-executed stores (oldest first).

        Stores whose addresses are still unknown are simply skipped —
        that is the speculation that store-to-load checks later police.
        """
        base = addr & ~7
        shift = (addr - base) * 8
        end = addr + size
        window = self.memory.read_word(base)
        if shift + size * 8 > 64:
            # Only a misaligned (wrong-path) load straddles two words.
            window |= self.memory.read_word(base + 8) << 64
        forwarded = False
        # ``stores`` holds dispatch order, which is seq order (stores
        # allocate in program order and fetch seqs never rewind), so
        # the older stores form a prefix. "Issued" is the forwarding
        # horizon: stores latch address and data the cycle they issue,
        # which is when their bytes become visible to younger loads.
        for store in self.stores.values():
            if store.seq >= seq:
                break
            s_addr = store.mem_addr
            if s_addr is None or not store.issued or store.squashed:
                continue
            s_end = s_addr + store.mem_size
            if s_addr >= end or addr >= s_end:
                continue
            forwarded = True
            # Overwrite the bytes both cover, [lo, hi), in one step.
            lo = s_addr if s_addr > addr else addr
            hi = s_end if s_end < end else end
            data = store.store_data
            data = data << ((s_addr - base) * 8) if s_addr >= base \
                else data >> ((base - s_addr) * 8)
            mask = ((1 << ((hi - lo) * 8)) - 1) << ((lo - base) * 8)
            window = (window & ~mask) | (data & mask)
        return (window >> shift) & ((1 << (size * 8)) - 1), forwarded

    # ------------------------------------------------------------------
    def find_violations(self, store):
        """Younger executed loads overlapping a just-executed store.

        Returns them oldest-first; the core replays from the first.
        """
        violators = [
            load for load in self.loads.values()
            if load.seq > store.seq and load.issued
            and load.issue_cycle < store.issue_cycle
            and load.mem_addr is not None
            and _overlap(load.mem_addr, load.mem_size,
                         store.mem_addr, store.mem_size)
            and not load.squashed
        ]
        violators.sort(key=lambda d: d.seq)
        return violators

    def commit_store(self, dyn):
        """Retire a store: write architectural memory."""
        self.memory.write(dyn.mem_addr, dyn.store_data, dyn.mem_size)
        self.stores.pop(dyn.seq, None)

    def commit_load(self, dyn):
        self.loads.pop(dyn.seq, None)
