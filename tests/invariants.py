"""Per-cycle invariant checker for the detailed core.

Each core-structure operation has one implementation: the stage code
that runs it (rename takes a register and inserts into an issue queue,
writeback wakes the waiters, execute issues, commit and the squash unit
free, the squash unit rolls the RAT back and returns IQ slots). This
checker guards that code on real runs. :class:`CheckedCore` is an
:class:`~repro.pipeline.core.O3Core` whose commit stage checks the whole
machine before it commits: at the start of a cycle, after the previous
cycle's squash and reuse-scheme hook. By default it checks every cycle;
``run()`` checks once more when it returns, and asserts that the checks
really ran.

:func:`check_machine` raises :class:`InvariantViolation` naming the
cycle and the first broken invariant:

* **ROB.** In seq order; nothing in it is squashed or committed.
* **Free list.** No duplicates; it holds exactly the FREE registers.
* **Register states.** The IN_FLIGHT registers are exactly the ROB's
  destination registers, one instruction each. Exactly
  ``NUM_ARCH_REGS`` registers are ARCH. The RAT maps each
  architectural register to the destination of its youngest in-flight
  writer, or else to an ARCH register; with RGIDs tracked, the RAT's
  RGID is that writer's.
* **Issue queues.** Each queue's ``size`` equals a recount of its live
  (unsquashed) entries, which are exactly the ROB's dispatched,
  unissued instructions for that queue.
* **Waiters.** No live waiter is listed under a ready register; each
  waiter's ``wait_count`` equals the number of lists it sits in, and a
  ready entry waits on nothing.
* **LSQ.** ``lsq.loads`` and ``lsq.stores`` hold exactly the ROB's
  dispatched loads and stores, in seq order (store-to-load forwarding
  walks ``stores`` oldest first).
* **RGIDs.** Every global counter lies in the current epoch
  (``0 <= global_rgid - epoch_base < rgid_limit``); every RAT RGID is
  ``NULL_RGID`` or at most its global counter. Checked only when the
  scheme tracks RGIDs.

The checks read the structures only, so a checked run's stats are the
unchecked run's.
"""

import collections
from itertools import chain, compress, filterfalse, repeat
from operator import attrgetter, is_not, le, lt

from repro.isa.predecode import (KIND_ALU, KIND_BRANCH, KIND_DIV,
                                 KIND_LOAD, KIND_MUL, KIND_STORE)
from repro.isa.registers import NUM_ARCH_REGS
from repro.obs.sinks import MetricsSink
from repro.pipeline.core import O3Core
from repro.pipeline.regfile import ARCH, IN_FLIGHT

_DEST = attrgetter("dest_preg")
_AREG = attrgetter("dest_areg")
_RGID = attrgetter("dest_rgid")
_SEQ = attrgetter("seq")
_ISSUED = attrgetter("issued")
_SQUASHED = attrgetter("squashed")
_COMMITTED = attrgetter("committed")
_WAIT = attrgetter("wait_count")
_IS_LOAD = attrgetter("is_load")
_IS_STORE = attrgetter("is_store")
_REUSED = attrgetter("reused")
_KIND = attrgetter("pd.kind")

#: The instruction kinds each issue queue takes (nops and halts go into
#: none).
_INT_IQ_KINDS = frozenset((KIND_ALU, KIND_MUL, KIND_DIV, KIND_BRANCH))
_MEM_IQ_KINDS = frozenset((KIND_LOAD, KIND_STORE))


class InvariantViolation(AssertionError):
    """A core structure disagrees with the rest of the machine."""


def _fail(state, what, detail):
    raise InvariantViolation("cycle %d: %s: %s" % (state.cycle, what,
                                                   detail))


def check_machine(state):
    """Check every invariant of the module docstring on a
    :class:`~repro.pipeline.latches.CoreState`."""
    rob = state.rob
    _check_rob(state, rob)
    _check_registers(state, rob)
    if state.rat.track_rgids:
        _check_rgids(state, rob)
    # Reused instructions rename/dispatch did not put into an issue
    # queue or the LSQ (a reused load that verifies its value is in
    # both).
    bypassed = {dyn for dyn in compress(rob, map(_REUSED, rob))
                if not dyn.verify_load}
    _check_issue_queues(state, rob, bypassed)
    _check_lsq(state, rob, bypassed)


def _check_rob(state, rob):
    seqs = list(map(_SEQ, rob))
    if not all(map(lt, seqs, seqs[1:])):
        _fail(state, "ROB", "out of seq order: %s" % seqs)
    if any(map(_SQUASHED, rob)) or any(map(_COMMITTED, rob)):
        dyn = next(d for d in rob if d.squashed or d.committed)
        _fail(state, "ROB", "#%d is %s" % (
            dyn.seq, "squashed" if dyn.squashed else "committed"))


def _check_registers(state, rob):
    """Free list, register states and the RAT."""
    regfile = state.regfile
    try:
        regfile.check_conservation()
    except AssertionError as exc:
        _fail(state, "free list", exc)

    states = regfile.states
    dest_of = list(map(_DEST, rob))
    dests = list(compress(dest_of, map(is_not, dest_of, repeat(None))))
    held = list(map(states.__getitem__, dests))
    if held.count(IN_FLIGHT) != len(dests):
        preg = dests[[s == IN_FLIGHT for s in held].index(False)]
        _fail(state, "register states", "p%d is a ROB destination but %s"
              % (preg, regfile.state_of(preg)))
    if len(set(dests)) != len(dests):
        preg = next(p for p, n in collections.Counter(dests).items()
                    if n > 1)
        _fail(state, "register states",
              "p%d is the destination of two ROB instructions" % preg)
    if states.count(IN_FLIGHT) != len(dests):
        owned = set(dests)
        preg = next(p for p, s in enumerate(states)
                    if s == IN_FLIGHT and p not in owned)
        _fail(state, "register states",
              "p%d is in-flight but no ROB instruction writes it" % preg)
    if states.count(ARCH) != NUM_ARCH_REGS:
        _fail(state, "register states", "%d ARCH registers, want %d"
              % (states.count(ARCH), NUM_ARCH_REGS))

    # The RAT maps a register to its youngest in-flight writer's
    # destination (later ROB entries overwrite earlier ones here), or
    # else to the committed (ARCH) register.
    youngest = dict(zip(map(_AREG, rob), dest_of))
    youngest.pop(None, None)
    rmap = state.rat.map
    mapped = list(map(states.__getitem__, rmap))
    if list(map(rmap.__getitem__, youngest)) != list(youngest.values()) \
            or mapped.count(ARCH) != NUM_ARCH_REGS - len(youngest):
        for areg, preg in enumerate(rmap):
            want = youngest.get(areg)
            if want is None and states[preg] != ARCH:
                _fail(state, "RAT", "x%d maps to p%d (%s) with no "
                      "in-flight writer"
                      % (areg, preg, regfile.state_of(preg)))
            if want is not None and preg != want:
                _fail(state, "RAT", "x%d maps to p%d, its youngest "
                      "in-flight writer to p%d" % (areg, preg, want))


def _check_rgids(state, rob):
    rat = state.rat
    rgids = rat.rgid
    youngest = dict(zip(map(_AREG, rob), map(_RGID, rob)))
    youngest.pop(None, None)
    for areg, rgid in youngest.items():
        if rgids[areg] != rgid:
            _fail(state, "RGIDs", "x%d has RGID %d, its youngest "
                  "in-flight writer %d" % (areg, rgids[areg], rgid))
    global_rgid = rat.global_rgid
    base = rat.epoch_base
    if min(global_rgid) < base or \
            max(global_rgid) - base >= rat.rgid_limit:
        _fail(state, "RGIDs", "global counters %r outside the epoch "
              "[%d, %d)" % (global_rgid, base, base + rat.rgid_limit))
    if not all(map(le, rgids, global_rgid)):
        areg = [r <= g for r, g in zip(rgids, global_rgid)].index(False)
        _fail(state, "RGIDs", "x%d has RGID %d past its global counter "
              "%d" % (areg, rgids[areg], global_rgid[areg]))


def _check_issue_queues(state, rob, bypassed):
    """Issue-queue occupancy and the waiter lists."""
    unissued = list(filterfalse(_ISSUED, rob))
    kinds = list(map(_KIND, unissued))
    expected = {
        iq: set(compress(unissued, map(iq_kinds.__contains__, kinds)))
        - bypassed
        for iq, iq_kinds in ((state.int_iq, _INT_IQ_KINDS),
                             (state.mem_iq, _MEM_IQ_KINDS))}
    ready = state.regfile.ready
    for iq, want in expected.items():
        name = iq.name
        ready_live = list(filterfalse(_SQUASHED, iq.ready))
        if any(map(_WAIT, ready_live)):
            dyn = next(d for d in ready_live if d.wait_count)
            _fail(state, "waiters", "%s IQ: ready #%d has wait_count %d"
                  % (name, dyn.seq, dyn.wait_count))
        waiting = iq.waiting
        # A ready register may keep a list of squashed waiters: its
        # wakeup popped only the list of its earlier lifetime.
        for preg in compress(waiting, map(ready.__getitem__, waiting)):
            dyn = next(filterfalse(_SQUASHED, waiting[preg]), None)
            if dyn is not None:
                _fail(state, "waiters", "%s IQ: #%d waits on p%d, which "
                      "is ready" % (name, dyn.seq, preg))
        lists = collections.Counter(filterfalse(
            _SQUASHED, chain.from_iterable(waiting.values())))
        if list(map(_WAIT, lists)) != list(lists.values()):
            dyn = next(d for d, n in lists.items() if d.wait_count != n)
            _fail(state, "waiters", "%s IQ: #%d has wait_count %d but "
                  "sits in %d list(s)"
                  % (name, dyn.seq, dyn.wait_count, lists[dyn]))
        live = set(ready_live)
        if len(live) != len(ready_live) or not live.isdisjoint(lists):
            _fail(state, "issue queues", "%s IQ lists an instruction "
                  "twice" % name)
        live.update(lists)
        if iq.size != len(live):
            _fail(state, "issue queues", "%s IQ size %d, %d live entries"
                  % (name, iq.size, len(live)))
        if live != want:
            _fail(state, "issue queues",
                  "%s IQ holds %s, the ROB's unissued entries are %s"
                  % (name, sorted(map(_SEQ, live)),
                     sorted(map(_SEQ, want))))
        if iq.size > iq.capacity:
            _fail(state, "issue queues", "%s IQ size %d over capacity %d"
                  % (name, iq.size, iq.capacity))


def _check_lsq(state, rob, bypassed):
    lsq = state.lsq
    for name, queue, flag in (("loads", lsq.loads, _IS_LOAD),
                              ("stores", lsq.stores, _IS_STORE)):
        want = list(compress(rob, map(flag, rob)))
        if bypassed:
            want = [dyn for dyn in want if dyn not in bypassed]
        if list(queue.values()) != want or \
                list(queue) != list(map(_SEQ, want)):
            _fail(state, "LSQ", "%s holds %s, the ROB's dispatched "
                  "entries are %s" % (name, list(queue),
                                      list(map(_SEQ, want))))


class _Checker:
    """Stands in for the commit stage and the squash unit of one core.

    ``tick`` checks the machine at the start of every ``every``-th
    cycle (none when ``every`` is None), and with ``after_squash`` of
    every cycle that follows a squash, then commits; ``apply`` applies a
    squash and counts it by kind in ``squashes``. Between two checks
    the global RGID counters must not decrease: a squash does not roll
    them back (Section 3.1), and a reset moves them to a later epoch.
    """

    __slots__ = ("state", "every", "after_squash", "commit", "squash",
                 "checks", "squashes", "squashed", "global_rgid")

    def __init__(self, core, every, after_squash):
        self.state = core.state
        self.every = every
        self.after_squash = after_squash
        self.commit = core.commit_stage.tick
        self.squash = core._squash_unit.apply
        self.checks = 0
        self.squashes = collections.Counter()
        self.squashed = False
        self.global_rgid = list(core.rat.global_rgid)

    def check(self):
        state = self.state
        check_machine(state)
        global_rgid = state.rat.global_rgid
        if not all(map(le, self.global_rgid, global_rgid)):
            _fail(state, "RGIDs", "global counters went back from %r to "
                  "%r" % (self.global_rgid, global_rgid))
        self.global_rgid = list(global_rgid)

    def tick(self):
        every = self.every
        if self.squashed or (every and self.state.cycle % every == 0):
            self.squashed = False
            self.check()
            self.checks += 1
        self.commit()

    def apply(self, request):
        self.squash(request)
        self.squashes[request.kind] += 1
        self.squashed = self.after_squash


class CheckedCore(O3Core):
    """An O3 core checked by :func:`check_machine` at the start of every
    ``every``-th cycle, with ``after_squash`` also of every cycle after
    a squash, and after each ``run()``. With ``metrics`` a
    :class:`~repro.obs.sinks.MetricsSink` recounts the event-derived
    stats, and ``run()`` also asserts it agrees with the live ones.
    ``checker.checks`` counts the start-of-cycle checks and
    ``checker.squashes`` the applied squashes by kind.

    :func:`checked` makes a subclass with other settings; the class is a
    ``core_factory`` for :func:`~repro.obs.lockstep.run_lockstep`.
    """

    every = 1
    after_squash = False
    metrics = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.metrics_sink = self.obs.attach(MetricsSink()) \
            if self.metrics else None
        checker = _Checker(self, self.every, self.after_squash)
        self.commit_stage = self._squash_unit = self.checker = checker

    def run(self, max_cycles=None, max_insts=None):
        checker = self.checker
        first, checks = self.state.cycle, checker.checks
        result = super().run(max_cycles=max_cycles, max_insts=max_insts)
        checker.check()
        every = self.every
        if every:
            assert checker.checks - checks >= \
                self.state.cycle // every - first // every, \
                "the checker missed cycles"
        if self.metrics_sink is not None:
            assert self.metrics_sink.verify(result.stats) == []
        return result


def checked(every=1, after_squash=False, metrics=False):
    """A :class:`CheckedCore` subclass with these settings."""
    return type("CheckedCore", (CheckedCore,),
                {"every": every, "after_squash": after_squash,
                 "metrics": metrics})
