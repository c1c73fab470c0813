"""Set-associative cache timing model.

Functional data lives in :class:`repro.emu.memory.SparseMemory`; caches
only track *presence* to derive access latencies (a standard decoupling
in execution-driven simulators). Writeback/write-allocate with true
LRU replacement.

One :class:`Cache` class models every level of the hierarchy — the flat
``MemoryHierarchy``'s L1D and L2, and the ported memory system's L1I,
L1D and shared L2 are all instances of it.
"""


class _Line:
    __slots__ = ("tag", "valid", "dirty", "lru")

    def __init__(self):
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.lru = 0


def _lru_key(line):
    # Invalid lines sort first (free ways are always preferred), then
    # least-recently-used.
    return (line.valid, line.lru)


class Cache:
    """One cache level.

    A set's ways are created lazily: a fill into a set with fewer than
    ``assoc`` ways takes a fresh way; a full set evicts its least
    recently used way (an invalid way first). ``last_victim_line`` holds
    the line address evicted by the most recent :meth:`fill` (None when
    the fill hit or took a free way) so an outer hierarchy can
    propagate the victim's dirty state to the next level.
    """

    __slots__ = ("name", "size_bytes", "assoc", "line_bytes", "latency",
                 "num_sets", "sets", "_tick", "hits", "misses",
                 "writebacks", "fills", "last_victim_line",
                 "last_victim_dirty")

    def __init__(self, name, size_bytes, assoc, line_bytes, latency):
        if size_bytes % (assoc * line_bytes):
            raise ValueError("cache size must be a multiple of way size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.latency = latency
        self.num_sets = size_bytes // (assoc * line_bytes)
        # Ways are created on first fill (see :meth:`fill`).
        self.sets = [[] for _ in range(self.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fills = 0
        self.last_victim_line = None
        self.last_victim_dirty = False

    def lookup(self, addr):
        """True on hit; updates LRU."""
        self._tick += 1
        # Hot path: one floor-div, one modulo, no tuple construction
        # (this runs once per load in detailed mode).
        tag = addr // self.line_bytes
        for line in self.sets[tag % self.num_sets]:
            if line.valid and line.tag == tag:
                line.lru = self._tick
                self.hits += 1
                return True
        self.misses += 1
        return False

    def probe(self, addr):
        """True when the line is resident; no LRU/stats side effects."""
        tag = addr // self.line_bytes
        for line in self.sets[tag % self.num_sets]:
            if line.valid and line.tag == tag:
                return True
        return False

    def fill(self, addr, dirty=False):
        """Install the line; returns True if a dirty victim was evicted.

        ``last_victim_line`` / ``last_victim_dirty`` record the evicted
        line (if any valid line was displaced) for victim propagation.
        """
        self._tick += 1
        tag = addr // self.line_bytes
        ways = self.sets[tag % self.num_sets]
        for line in ways:
            if line.valid and line.tag == tag:
                line.lru = self._tick
                line.dirty = line.dirty or dirty
                self.last_victim_line = None
                self.last_victim_dirty = False
                return False
        self.fills += 1
        if len(ways) < self.assoc:
            # A never-filled way: the one min() would pick over a full
            # set, whose never-filled ways sort first and tie at lru 0.
            # Only flush() invalidates, and a flushed way is as good a
            # victim (nothing of an invalid way outlives its refill).
            victim = _Line()
            ways.append(victim)
        else:
            victim = min(ways, key=_lru_key)
        wrote_back = victim.valid and victim.dirty
        if victim.valid:
            self.last_victim_line = victim.tag
            self.last_victim_dirty = victim.dirty
        else:
            self.last_victim_line = None
            self.last_victim_dirty = False
        if wrote_back:
            self.writebacks += 1
        victim.tag = tag
        victim.valid = True
        victim.dirty = dirty
        victim.lru = self._tick
        return wrote_back

    def mark_dirty(self, addr):
        tag = addr // self.line_bytes
        for line in self.sets[tag % self.num_sets]:
            if line.valid and line.tag == tag:
                line.dirty = True
                return True
        return False

    def flush(self):
        """Invalidate every line; returns the number of dirty lines
        dropped (writeback/flush accounting)."""
        dirty = 0
        for ways in self.sets:
            for line in ways:
                if line.valid and line.dirty:
                    dirty += 1
                line.valid = False
                line.dirty = False
        return dirty

    @property
    def accesses(self):
        return self.hits + self.misses

    def stats(self):
        """Per-level counters, keyed by this level's name."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "writebacks": self.writebacks,
        }
