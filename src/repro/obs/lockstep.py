"""Lockstep differential checking of the O3 core against the emulator.

Comparing only final registers and memory tells you *that* a run
diverged but not *where*. This checker replays the golden-model
:class:`~repro.emu.emulator.Emulator` one instruction per O3
:class:`~repro.obs.events.CommitEvent` and compares every commit as it
happens — committed PC, destination value, store address and data — so
a correctness bug is localised to the exact first divergent commit,
together with the last-N-events ring-buffer dump leading up to it. The
final registers and memory are compared as well, so every cosimulation
test runs under this checker.
"""

from repro.emu.emulator import Emulator
from repro.obs.events import CommitEvent
from repro.obs.sinks import CallbackSink, RingBufferSink
from repro.utils.bits import wrap64


class DivergenceReport:
    """The first point where the core and the golden model disagree."""

    __slots__ = ("commit_index", "cycle", "seq", "pc", "field",
                 "expected", "actual", "events")

    def __init__(self, commit_index, cycle, seq, pc, field, expected,
                 actual, events=()):
        self.commit_index = commit_index   # 0-based committed-inst index
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.field = field                 # pc | reg-value | store-addr |
        self.expected = expected           # store-data | final-state
        self.actual = actual
        self.events = list(events)

    def format(self):
        lines = [
            "lockstep divergence at commit #%d (cycle %s, seq %s, "
            "pc %s): %s expected %r, core committed %r"
            % (self.commit_index, self.cycle, self.seq,
               "%#x" % self.pc if isinstance(self.pc, int) else self.pc,
               self.field, self.expected, self.actual)]
        if self.events:
            lines.append("last %d events:" % len(self.events))
            lines.extend("  " + line for line in self.events)
        return "\n".join(lines)

    def __repr__(self):
        return "<Divergence commit=%d pc=%r field=%s>" % (
            self.commit_index, self.pc, self.field)


class LockstepDivergence(Exception):
    """Raised mid-simulation when a commit disagrees with the emulator."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.format())


class LockstepResult:
    """Outcome of :func:`run_lockstep`."""

    __slots__ = ("result", "divergence", "commits")

    def __init__(self, result, divergence, commits):
        self.result = result          # SimResult, or None on divergence
        self.divergence = divergence  # DivergenceReport or None
        self.commits = commits        # commits compared

    @property
    def ok(self):
        return self.divergence is None


class _CommitChecker:
    """Steps the emulator once per CommitEvent and compares."""

    def __init__(self, program):
        self.program = program
        self.emu = Emulator(program)
        self.commits = 0

    def _diverge(self, event, field, expected, actual):
        raise LockstepDivergence(DivergenceReport(
            self.commits, event.cycle, event.seq, event.pc, field,
            expected, actual))

    def on_event(self, event):
        if type(event) is not CommitEvent:
            return
        emu = self.emu
        if emu.halted:
            self._diverge(event, "pc", "<halted>", event.pc)
        if event.pc != emu.pc:
            self._diverge(event, "pc", emu.pc, event.pc)
        inst = self.program.inst_at(emu.pc)
        if inst.is_store:
            addr = wrap64(emu.regs[inst.srcs[1]] + inst.imm)
            if event.mem_addr != addr:
                self._diverge(event, "store-addr", addr, event.mem_addr)
            data = emu.regs[inst.srcs[0]] \
                & ((1 << (inst.info.mem_size * 8)) - 1)
            if event.store_data != data:
                self._diverge(event, "store-data", data, event.store_data)
        emu.step()
        if event.dest is not None and event.result != emu.regs[event.dest]:
            self._diverge(event, "reg-value", emu.regs[event.dest],
                          event.result)
        self.commits += 1


def run_lockstep(program, config=None, reuse_scheme=None, max_cycles=None,
                 ring_capacity=256, core_factory=None):
    """Run ``program`` on the O3 core with commit-by-commit checking.

    Returns a :class:`LockstepResult`; on divergence ``result`` is None
    and ``divergence`` carries the first divergent commit plus the
    ring-buffer event dump. ``core_factory(program, config,
    reuse_scheme=...)`` lets tests substitute an instrumented (e.g.
    fault-injecting) core.
    """
    from repro.pipeline.core import O3Core

    factory = core_factory or O3Core
    core = factory(program, config, reuse_scheme=reuse_scheme)
    ring = core.obs.attach(RingBufferSink(ring_capacity))
    checker = _CommitChecker(program)
    core.obs.attach(CallbackSink(checker.on_event))

    try:
        result = core.run(max_cycles=max_cycles)
    except LockstepDivergence as exc:
        exc.report.events = ring.format_lines()
        return LockstepResult(None, exc.report, checker.commits)

    divergence = None
    if result.regs != checker.emu.regs:
        divergence = DivergenceReport(
            checker.commits, core.cycle, None, None, "final-state",
            checker.emu.regs, result.regs, ring.format_lines())
    elif result.memory != checker.emu.memory:
        divergence = DivergenceReport(
            checker.commits, core.cycle, None, None, "final-state",
            "<emulator memory>", "<core memory>", ring.format_lines())
    return LockstepResult(result if divergence is None else None,
                          divergence, checker.commits)
