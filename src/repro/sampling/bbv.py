"""Basic-block-vector profiling over the golden-model emulator.

SimPoint-style sampling starts from a cheap functional pass: execution
is sliced into fixed-size intervals (100k instructions by default) and
each interval is summarised as a *basic-block vector* — how many
instructions the interval spent in each dynamic basic block. Program
phases show up as clusters of similar BBVs, which
:mod:`repro.sampling.simpoint` exploits to pick a few representative
intervals for detailed simulation.

Basic blocks are discovered dynamically: a new block begins at the
program entry and after every executed control instruction (taken or
not), so the block leader set is exactly the set of dynamic control-flow
join points the run actually visits. Each interval's vector maps leader
pc -> instructions executed under that leader, which sums to the
interval length by construction.
"""

from repro.emu.emulator import BBVAccumulator, Emulator

#: Default interval length in committed instructions. The paper's
#: SimPoint methodology uses 100M-instruction intervals on full SPEC
#: runs; our scaled workloads are ~10^4-10^6 instructions, so the
#: default scales down in proportion.
DEFAULT_INTERVAL = 100_000


class Interval:
    """One profiled interval: position, length and its BBV."""

    __slots__ = ("index", "start_inst", "num_insts", "bbv")

    def __init__(self, index, start_inst, num_insts, bbv):
        self.index = index
        self.start_inst = start_inst
        self.num_insts = num_insts
        self.bbv = bbv              # leader pc -> inst count

    def as_dict(self):
        return {
            "index": self.index,
            "start_inst": self.start_inst,
            "num_insts": self.num_insts,
            "bbv": {"%d" % pc: count for pc, count in self.bbv.items()},
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["index"], data["start_inst"], data["num_insts"],
                   {int(pc): count for pc, count in data["bbv"].items()})

    def __repr__(self):
        return "<Interval %d [%d..%d) %d blocks>" % (
            self.index, self.start_inst, self.start_inst + self.num_insts,
            len(self.bbv))


class BBVProfile:
    """Per-interval BBVs for one full functional run."""

    def __init__(self, interval_insts, intervals, total_insts, halted):
        self.interval_insts = interval_insts
        self.intervals = list(intervals)
        self.total_insts = total_insts
        self.halted = halted

    @property
    def num_intervals(self):
        return len(self.intervals)

    def block_leaders(self):
        """Every leader pc seen in any interval (sorted)."""
        leaders = set()
        for interval in self.intervals:
            leaders.update(interval.bbv)
        return sorted(leaders)

    def as_dict(self):
        return {
            "interval_insts": self.interval_insts,
            "total_insts": self.total_insts,
            "halted": self.halted,
            "intervals": [iv.as_dict() for iv in self.intervals],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["interval_insts"],
                   [Interval.from_dict(iv) for iv in data["intervals"]],
                   data["total_insts"], data["halted"])

    def __repr__(self):
        return "<BBVProfile %d interval(s) x %d insts, %d total>" % (
            self.num_intervals, self.interval_insts, self.total_insts)


def profile_program(program, interval_insts=DEFAULT_INTERVAL,
                    max_insts=50_000_000):
    """Profile ``program`` into per-interval BBVs (one emulator pass).

    Returns a :class:`BBVProfile`. The final partial interval is kept
    (with its true ``num_insts``) so interval lengths always partition
    the dynamic instruction count exactly.
    """
    if interval_insts <= 0:
        raise ValueError("interval_insts must be positive, got %r"
                         % (interval_insts,))
    emu = Emulator(program)
    acc = BBVAccumulator(program.entry)
    intervals = []
    # One run per interval: no block straddles an interval boundary.
    start = 0
    while True:
        halted = emu.run_until(min(start + interval_insts, max_insts),
                               bbv=acc)
        count = emu.inst_count - start
        if count < interval_insts:
            break
        intervals.append(Interval(len(intervals), start, count, acc.counts))
        start += count
        count = 0
        acc.counts = {}
        if halted or start >= max_insts:
            break
    if count:
        if intervals and count < interval_insts // 2:
            # Merge a short tail into the last full interval: a
            # near-empty final interval would otherwise earn a cluster
            # of its own and be dominated by pipeline-fill overhead
            # when simulated in isolation.
            last = intervals[-1]
            for block, insts in acc.counts.items():
                last.bbv[block] = last.bbv.get(block, 0) + insts
            last.num_insts += count
        else:
            intervals.append(Interval(len(intervals), start, count,
                                      acc.counts))
    return BBVProfile(interval_insts, intervals, emu.inst_count, halted)
