"""Typed latches, queues and shared state between pipeline stages.

The stage objects in :mod:`repro.pipeline.stages` do not reach into each
other: everything that crosses a stage boundary flows through one of the
``__slots__`` records in this module —

* :class:`DecodeQueue` — the fetch → rename/dispatch latch (bounded
  queue of fetched :class:`~repro.pipeline.dyninst.DynInst`);
* :class:`CompletionQueue` — the execute → writeback latch (completion
  events keyed by the cycle they become visible);
* :class:`SquashRequest` / :class:`SquashArbiter` — the single funnel
  for all squash requests raised during a cycle (branch mispredictions,
  memory-order replays, reuse-verification flushes). The arbiter keeps
  only the oldest-boundary request, which is exactly the priority rule
  the scattered ``_request_squash`` calls used to implement in-line;
* :class:`CoreState` — the architectural machinery every stage shares
  (ROB, RAT, physical register file, LSQ, issue queues, the frontend,
  the reuse scheme and the observability bus) plus the per-cycle control
  scalars (``cycle``, ``halted``, commit bookkeeping).

Nothing here decides anything; policy lives in the stages. This module
is the wiring.
"""

import collections


class SquashRequest:
    """One squash demand raised by a backend stage.

    ``boundary_seq`` is the youngest surviving sequence number: every
    instruction with ``seq > boundary_seq`` is squashed. ``kind`` is
    ``"branch"`` (misprediction), ``"replay"`` (memory-order violation)
    or ``"verify"`` (reused-load verification failure).
    """

    __slots__ = ("boundary_seq", "trigger", "kind", "redirect_pc")

    def __init__(self, boundary_seq, trigger, kind, redirect_pc):
        self.boundary_seq = boundary_seq
        self.trigger = trigger
        self.kind = kind
        self.redirect_pc = redirect_pc

    def __repr__(self):
        return "<SquashRequest %s boundary=%d redirect=%#x>" % (
            self.kind, self.boundary_seq, self.redirect_pc)


class SquashArbiter:
    """Single arbitration point for all in-cycle squash requests.

    Stages raise requests as they discover them (branch resolution at
    writeback, store-to-load violations, verification failures); the
    arbiter keeps only the oldest-boundary one — squashing at the older
    boundary subsumes any younger request — and the core drains it at
    cycle end via :meth:`take`.

    On equal boundaries a ``"branch"`` request wins. A replay/verify
    request for the instruction right after a branch (boundary = the
    branch's seq) ties with that branch's misprediction; keeping the
    replay would refetch the victim's wrong-path pc and lose the
    branch's redirect.
    """

    __slots__ = ("pending",)

    def __init__(self):
        self.pending = None

    def request(self, boundary_seq, trigger, kind, redirect_pc):
        """Raise a squash request; older boundaries win arbitration,
        and a branch wins a tie."""
        current = self.pending
        if current is None or boundary_seq < current.boundary_seq \
                or (boundary_seq == current.boundary_seq
                    and kind == "branch"):
            self.pending = SquashRequest(boundary_seq, trigger, kind,
                                         redirect_pc)

    def take(self):
        """Remove and return the winning request (None if quiet)."""
        request = self.pending
        self.pending = None
        return request


class DecodeQueue:
    """Fetch → rename/dispatch latch: fetched, not-yet-renamed insts.

    ``entries`` is the backing deque; the fetch stage appends whole
    blocks, the rename stage drains from the left, squashes pop from the
    right (youngest first). ``capacity`` is the configured decode-queue
    size — the fetch stage delivers another block only while a whole
    block still fits.
    """

    __slots__ = ("entries", "capacity")

    def __init__(self, capacity):
        self.entries = collections.deque()
        self.capacity = capacity

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def drop_younger_than(self, boundary_seq):
        """Squash: pop instructions with ``seq > boundary_seq`` from the
        tail; returns them newest first, each marked squashed."""
        entries = self.entries
        dropped = []
        while entries and entries[-1].seq > boundary_seq:
            dyn = entries.pop()
            dyn.squashed = True
            dropped.append(dyn)
        return dropped


class CompletionQueue:
    """Execute → writeback latch: completion events by visible cycle.

    ``by_cycle`` maps a cycle to the instructions whose results become
    visible then; execute appends to it and writeback pops the current
    cycle's list.
    """

    __slots__ = ("by_cycle",)

    def __init__(self):
        self.by_cycle = {}


class CoreState:
    """Shared architectural machinery and per-cycle control scalars.

    Every stage object holds a reference to the one ``CoreState`` of its
    core; stage-to-stage communication goes through the latch objects it
    carries (``decode_queue``, ``completions``, ``squash_arbiter``) and
    the architectural structures (ROB, RAT, register file, LSQ, issue
    queues). The :class:`~repro.pipeline.core.O3Core` facade re-exposes
    these fields under their historical names.
    """

    __slots__ = (
        # configuration & observability
        "config", "obs", "stats",
        # architectural machinery
        "memory", "hierarchy", "memsys", "regfile", "rat", "rob", "lsq",
        # frontend
        "program", "predictor", "btb", "ras", "fetch",
        # backend structures
        "int_iq", "mem_iq", "iqs",
        # latches
        "decode_queue", "completions", "squash_arbiter",
        # reuse scheme and its resolved optional hooks (None when the
        # scheme does not override them; see baselines.base.resolve_hook)
        "scheme", "on_fetch_block", "try_reuse", "wants_preg",
        "on_preg_freed", "on_store_executed", "on_cycle",
        # per-cycle control scalars
        "cycle", "halted", "last_commit_cycle", "last_retired_block",
        "commit_limit", "budget_stop",
    )

    def __init__(self):
        self.cycle = 0
        self.halted = False
        self.memsys = None           # PortedMemorySystem (ported mode only)
        self.last_commit_cycle = 0
        self.last_retired_block = -1
        self.commit_limit = None     # committed-inst budget (run(max_insts=))
        self.budget_stop = False     # halted by the budget, not `halt`

    # ------------------------------------------------------------------
    # Register-lifetime helpers shared by commit, squash and the reuse
    # schemes (the scheme is notified of every release).
    # ------------------------------------------------------------------
    def free_preg(self, preg):
        """Release a physical register and notify the reuse scheme."""
        self.regfile.free(preg)
        if self.on_preg_freed is not None:
            self.on_preg_freed(preg)

    def arch_regs(self):
        """Current architectural register values via the RAT."""
        from repro.isa.registers import NUM_ARCH_REGS
        return [self.regfile.values[self.rat.lookup(a)] if a else 0
                for a in range(NUM_ARCH_REGS)]
