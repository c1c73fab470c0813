"""Port-based memory system (``mem.model = "ported"``).

One shared, unified L2 serves two L1s — an L1I and an L1D, both plain
:class:`repro.mem.cache.Cache` instances — through typed request ports.
Each port owns a bounded :class:`MSHRFile`: an outstanding miss
allocates an entry keyed by line address that holds the fill's
completion cycle, a second miss to the same line *merges* onto the
existing entry instead of re-requesting, and when every MSHR is busy
the port stalls the request until the earliest fill lands. Requests
return absolute completion cycles, so two independent misses issued on
nearby cycles overlap — the memory-level parallelism the flat model's
synchronous ``access() → latency`` probe cannot express.

Timing simplification: fills are applied *eagerly* (tags update at
request time, the MSHR entry carries the time the data arrives). That
is why the MSHR merge check runs before the L1 lookup — an eagerly
filled line would otherwise fake an L1 hit while its fill is still in
flight. Squashing the requesting instruction does not deallocate the
entry: the fill completes regardless, which is precisely how wrong-path
misses warm the hierarchy for the correct path (and for MSSR's reuse of
squashed-stream results).

The L1I is built with ``latency=0``: its hit latency is already part of
``frontend.fetch_latency``, so a port request that hits L1I completes
on the issuing cycle and only L2/DRAM round-trips add fetch delay —
matching the flat ``InstructionCache`` contract of "0 extra on hit".
"""

from repro.mem.cache import Cache


class MSHRFile:
    """Bounded set of outstanding line misses for one port."""

    __slots__ = ("capacity", "entries", "merges", "stalls", "peak")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self.entries = {}  # line address -> absolute fill completion cycle
        self.merges = 0
        self.stalls = 0
        self.peak = 0

    def drain(self, cycle):
        """Retire every entry whose fill has completed by ``cycle``."""
        if self.entries:
            done = [line for line, c in self.entries.items() if c <= cycle]
            for line in done:
                del self.entries[line]

    def pending(self, line_addr):
        """Completion cycle of an in-flight fill for the line, or None."""
        return self.entries.get(line_addr)

    def full(self):
        return len(self.entries) >= self.capacity

    def earliest(self):
        return min(self.entries.values())

    def allocate(self, line_addr, completion):
        self.entries[line_addr] = completion
        if len(self.entries) > self.peak:
            self.peak = len(self.entries)

    def occupancy(self):
        return len(self.entries)

    def stats(self):
        return {
            "merges": self.merges,
            "stalls": self.stalls,
            "peak": self.peak,
        }


class MemPort:
    """Typed request interface from one L1 into the shared hierarchy.

    ``request(cycle, addr, ...)`` returns the absolute cycle the data is
    available. Bandwidth is modeled as ``ports`` requests per cycle:
    request ``k`` issued on one cycle starts ``k // ports`` cycles
    later. When ``obs`` is set, every request emits a ``MemAccessEvent``
    and maintains the ``mem_*`` counters (the D-port; the I-port goes
    through the icache adapter's own counters instead).
    """

    __slots__ = ("name", "l1", "l2", "dram_latency", "line_bytes",
                 "mshrs", "ports", "dram_accesses",
                 "_bw_cycle", "_bw_used", "obs")

    def __init__(self, name, l1, l2, dram_latency, mshrs, ports,
                 obs=None):
        self.name = name
        self.l1 = l1
        self.l2 = l2
        self.dram_latency = dram_latency
        self.line_bytes = l1.line_bytes
        self.mshrs = MSHRFile(mshrs)
        self.ports = ports
        self.dram_accesses = 0
        self._bw_cycle = -1
        self._bw_used = 0
        self.obs = obs

    def _fill_l1(self, addr, dirty):
        """Install in L1, pushing a dirty victim's state into L2."""
        if self.l1.fill(addr, dirty=dirty) \
                and self.l1.last_victim_line is not None:
            victim_addr = self.l1.last_victim_line * self.line_bytes
            if not self.l2.mark_dirty(victim_addr):
                self.l2.fill(victim_addr, dirty=True)

    def request(self, cycle, addr, is_write=False, seq=None):
        """Issue a load/store probe; returns the completion cycle."""
        mshrs = self.mshrs
        mshrs.drain(cycle)

        # Port bandwidth: the (k+1)-th request of a cycle starts
        # k // ports cycles later.
        if cycle == self._bw_cycle:
            self._bw_used += 1
        else:
            self._bw_cycle = cycle
            self._bw_used = 1
        start = cycle + (self._bw_used - 1) // self.ports

        line_addr = addr // self.line_bytes
        # Merge check must precede the L1 lookup: fills are eager, so a
        # line with an in-flight fill already has valid L1 tags.
        pending = mshrs.pending(line_addr)
        if pending is not None and pending > start:
            mshrs.merges += 1
            if is_write:
                self.l1.mark_dirty(addr)
            completion = pending if pending > start + self.l1.latency \
                else start + self.l1.latency
            if self.obs is not None:
                self.obs.mem_access(
                    cycle, seq, addr, is_write, "mshr",
                    completion - cycle, mshrs.occupancy(), True)
            return completion

        if self.l1.lookup(addr):
            if is_write:
                self.l1.mark_dirty(addr)
            completion = start + self.l1.latency
            if self.obs is not None:
                self.obs.mem_access(
                    cycle, seq, addr, is_write, "l1",
                    completion - cycle, mshrs.occupancy(), False)
            return completion

        # L1 miss: need an MSHR. With all entries busy the request
        # waits for the earliest in-flight fill to land.
        if mshrs.full():
            mshrs.stalls += 1
            if self.obs is not None:
                self.obs.mem_mshr_stall()
            wait = mshrs.earliest()
            if wait > start:
                start = wait
            mshrs.drain(start)

        if self.l2.lookup(addr):
            level = "l2"
            completion = start + self.l2.latency
        else:
            level = "dram"
            self.dram_accesses += 1
            self.l2.fill(addr, dirty=is_write)
            completion = start + self.dram_latency
        self._fill_l1(addr, is_write)
        mshrs.allocate(line_addr, completion)
        if self.obs is not None:
            self.obs.mem_access(
                cycle, seq, addr, is_write, level,
                completion - cycle, mshrs.occupancy(), False)
        return completion


class PortedICache:
    """Drop-in for ``InstructionCache`` backed by the I-port.

    ``access(start_pc, end_pc, cycle)`` returns the *extra* fetch delay
    for the block (0 when every line hits L1I), charging the worst line
    in the block, and keeps the ``icache_accesses``/``icache_misses``
    counters through the same obs helper as the flat icache.
    """

    __slots__ = ("port", "obs", "line_bytes")

    def __init__(self, port, obs=None):
        self.port = port
        self.obs = obs
        self.line_bytes = port.line_bytes

    def access(self, start_pc, end_pc, cycle=0):
        line_bytes = self.line_bytes
        line = (start_pc // line_bytes) * line_bytes
        completion = cycle
        hit = True
        while line <= end_pc:
            resident = self.port.l1.probe(line)
            done = self.port.request(cycle, line)
            if done > completion:
                completion = done
            if not resident:
                hit = False
            line += line_bytes
        delay = completion - cycle
        if self.obs is not None:
            self.obs.icache_access(start_pc, end_pc, hit, delay)
        return delay

    def flush(self):
        """Pipeline flushes don't invalidate cache contents."""


class PortedMemorySystem:
    """L1I + L1D (one :class:`Cache` class) behind one shared L2.

    ``config`` is a :class:`~repro.pipeline.config.MemConfig`. Exposes
    the same ``warm``/``stats`` surface as the flat ``MemoryHierarchy``
    so the sampling layer and harness treat the two models
    interchangeably; the pipeline reaches the timing model through
    ``dport``/``iport``.
    """

    def __init__(self, config, obs=None):
        line_bytes = config.line_bytes
        self.line_bytes = line_bytes
        # L1I hit latency is subsumed by frontend.fetch_latency, hence
        # latency=0 (an L1I hit adds no extra fetch delay).
        self.l1i = Cache("L1I", config.l1i_size, config.l1i_assoc,
                         line_bytes, 0)
        self.l1d = Cache("L1D", config.l1d_size, config.l1d_assoc,
                         line_bytes, config.l1d_latency)
        self.l2 = Cache("L2", config.l2_size, config.l2_assoc, line_bytes,
                        config.l2_latency)
        self.dport = MemPort("dport", self.l1d, self.l2,
                             config.dram_latency, config.mshrs,
                             config.ports, obs=obs)
        self.iport = MemPort("iport", self.l1i, self.l2,
                             config.dram_latency, config.mshrs,
                             config.ports)
        self.icache = PortedICache(self.iport, obs=obs)

    @property
    def dram_accesses(self):
        return self.dport.dram_accesses + self.iport.dram_accesses

    def _warm_level(self, l1, addr, dirty):
        """Functional warmup: probe/fill L1+L2 with no MSHR or event
        side effects (mirrors the flat model's warm path)."""
        if l1.lookup(addr):
            if dirty:
                l1.mark_dirty(addr)
            return
        if not self.l2.lookup(addr):
            self.l2.fill(addr, dirty=dirty)
        if l1.fill(addr, dirty=dirty) and l1.last_victim_line is not None:
            victim_addr = l1.last_victim_line * self.line_bytes
            if not self.l2.mark_dirty(victim_addr):
                self.l2.fill(victim_addr, dirty=True)

    def warm(self, addr, is_write=False):
        """Warm the data side (sampling-layer functional warmup)."""
        self._warm_level(self.l1d, addr, bool(is_write))

    def warm_inst(self, pc):
        """Warm the instruction side for one fetch address."""
        self._warm_level(self.l1i, pc, False)

    def stats(self):
        return {
            "l1i_hits": self.l1i.hits,
            "l1i_misses": self.l1i.misses,
            "l1d_hits": self.l1d.hits,
            "l1d_misses": self.l1d.misses,
            "l1d_writebacks": self.l1d.writebacks,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "l2_writebacks": self.l2.writebacks,
            "dram_accesses": self.dram_accesses,
            "mshr_merges": self.dport.mshrs.merges + self.iport.mshrs.merges,
            "mshr_stalls": self.dport.mshrs.stalls + self.iport.mshrs.stalls,
            "mshr_peak": max(self.dport.mshrs.peak, self.iport.mshrs.peak),
        }
