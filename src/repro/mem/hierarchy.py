"""Flat synchronous two-level hierarchy (``mem.model = "flat"``).

The geometry comes from ``mem.*`` (``MemConfig``, whose defaults follow
the paper's Table 3). An access probes each level in order; the
returned latency is the first-hit level's (inclusive) load-to-use
delay. Misses fill all levels on the way back (inclusive hierarchy).

This is the default, byte-identical-to-pinned-stats model. The ported
model (:mod:`repro.mem.ports`) adds MSHRs, bounded outstanding misses
and a shared L2 behind an L1I; both share the :class:`repro.mem.cache.
Cache` level model and expose the same ``warm``/``stats`` surface so
the sampling layer and the harness treat them interchangeably.

Dirty accounting: a store installs its line dirty in L1; when L1 later
evicts that dirty victim the writeback lands in L2 (the L2 copy turns
dirty), and a store miss that fills L2 from DRAM marks the L2 copy
dirty as well — without either, L2 writeback/flush accounting
undercounts every written line (the L2 copy stayed clean forever).
"""

from repro.mem.cache import Cache


class MemoryHierarchy:
    """L1D + L2 + DRAM timing model.

    ``config`` is a :class:`~repro.pipeline.config.MemConfig`; its
    ``l1d_*``, ``l2_*``, ``dram_latency`` and ``line_bytes`` apply.
    """

    def __init__(self, config):
        line_bytes = config.line_bytes
        self.l1 = Cache("L1D", config.l1d_size, config.l1d_assoc,
                        line_bytes, config.l1d_latency)
        self.l2 = Cache("L2", config.l2_size, config.l2_assoc,
                        line_bytes, config.l2_latency)
        self.line_bytes = line_bytes
        self.dram_latency = config.dram_latency
        self.dram_accesses = 0

    def _fill_l1(self, addr, dirty):
        """Install ``addr`` in L1, writing a dirty victim back into L2."""
        if self.l1.fill(addr, dirty=dirty) \
                and self.l1.last_victim_line is not None:
            victim_addr = self.l1.last_victim_line * self.line_bytes
            if not self.l2.mark_dirty(victim_addr):
                # Inclusion was broken by an earlier L2 eviction: the
                # writeback re-installs the line dirty.
                self.l2.fill(victim_addr, dirty=True)

    def access(self, addr, is_write=False):
        """Probe the hierarchy; returns the access latency in cycles."""
        if self.l1.lookup(addr):
            if is_write:
                self.l1.mark_dirty(addr)
            return self.l1.latency
        if self.l2.lookup(addr):
            self._fill_l1(addr, is_write)
            return self.l2.latency
        self.dram_accesses += 1
        self.l2.fill(addr, dirty=is_write)
        self._fill_l1(addr, is_write)
        return self.dram_latency

    def warm(self, addr, is_write=False):
        """Functional warmup access (sampling layer): probe and fill,
        latency discarded."""
        self.access(addr, is_write=is_write)

    def stats(self):
        return {
            "l1_hits": self.l1.hits,
            "l1_misses": self.l1.misses,
            "l1_writebacks": self.l1.writebacks,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "l2_writebacks": self.l2.writebacks,
            "dram_accesses": self.dram_accesses,
        }
