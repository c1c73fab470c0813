"""Issue queues, wakeup network and functional-unit ports.

Two reservation-station pools (integer and memory, per Table 3) hold
dispatched instructions until their source physical registers are ready.
Wakeup is event-driven: completing instructions broadcast their dest preg
and dependents' wait counts drop; zero-wait instructions enter the ready
pool and issue oldest-first subject to per-class port limits.
"""

from operator import attrgetter

from repro.isa.opcodes import OpClass
from repro.isa.predecode import (KIND_ALU, KIND_BRANCH, KIND_LOAD,
                                 KIND_MUL, KIND_NOP, KIND_STORE)

_SEQ_KEY = attrgetter("seq")


class IssueQueue:
    """One reservation-station pool.

    ``size`` counts dispatched, not-yet-issued entries. Issue decrements
    it here; squashes are the squash unit's job
    (:meth:`~repro.pipeline.stages.squash.SquashUnit.apply` subtracts
    the squashed, never-issued entries it pops from the ROB). Squashed
    entries themselves stay in ``_ready``/``_waiting`` until their next
    touch: :meth:`take_ready` and :meth:`wakeup` skip them.

    The rename, writeback and execute stages do :meth:`insert`,
    :meth:`wakeup` and :meth:`take_ready` inline on their
    per-instruction paths (same checks, same list order); a change here
    must be made there too.
    """

    def __init__(self, name, capacity):
        self.name = name
        self.capacity = capacity
        self.size = 0
        self._waiting = {}    # preg -> [DynInst]
        self._ready = []      # DynInst with all operands ready

    @property
    def has_space(self):
        return self.size < self.capacity

    def insert(self, dyn, not_ready_pregs):
        """Dispatch ``dyn`` waiting on the given source pregs."""
        if not self.has_space:
            raise AssertionError("%s IQ overflow" % self.name)
        self.size += 1
        dyn.wait_count = len(not_ready_pregs)
        if dyn.wait_count == 0:
            self._ready.append(dyn)
        else:
            for preg in not_ready_pregs:
                self._waiting.setdefault(preg, []).append(dyn)

    def wakeup(self, preg):
        """Broadcast readiness of ``preg``."""
        waiters = self._waiting.pop(preg, None)
        if not waiters:
            return
        for dyn in waiters:
            if dyn.squashed:
                continue
            dyn.wait_count -= 1
            if dyn.wait_count == 0:
                self._ready.append(dyn)

    def take_ready(self, limit, accept):
        """Pop up to ``limit`` ready instructions (oldest first) for which
        ``accept(dyn)`` grants an FU port."""
        ready = self._ready
        if not ready:
            return []
        # Squashed entries only exist in the cycles right after a squash;
        # scan before paying for the filtering list allocation.
        for dyn in ready:
            if dyn.squashed:
                ready = [d for d in ready if not d.squashed]
                if not ready:
                    self._ready = ready
                    return []
                break
        ready.sort(key=_SEQ_KEY)
        issued = []
        remaining = []
        take = limit
        for dyn in ready:
            if take and accept(dyn):
                issued.append(dyn)
                take -= 1
                self.size -= 1
            else:
                remaining.append(dyn)
        self._ready = remaining
        return issued


class FunctionUnits:
    """Per-cycle port accounting for ALU / BRU / LSU plus the unpipelined
    divider.

    The core's execute stage does :meth:`IssueQueue.take_ready` and
    :meth:`try_take` inline, counting one cycle's port use in locals;
    it keeps only the divider's busy horizon (``div_busy_until``) here.
    """

    def __init__(self, config):
        self.config = config
        self.div_busy_until = 0
        self._alu_used = 0
        self._bru_used = 0
        self._lsu_used = 0
        self._cycle = -1
        # Port limits as plain attributes (try_take is called for every
        # ready instruction every cycle).
        self._num_alu = config.num_alu
        self._num_bru = config.num_bru
        self._num_lsu = config.num_lsu
        self._div_latency = config.div_latency

    def new_cycle(self, cycle):
        self._cycle = cycle
        self._alu_used = 0
        self._bru_used = 0
        self._lsu_used = 0

    def try_take(self, dyn):
        """Claim a port for ``dyn``; returns False when saturated."""
        kind = dyn.pd.kind
        if kind == KIND_ALU or kind == KIND_MUL or kind >= KIND_NOP:
            if self._alu_used < self._num_alu:
                self._alu_used += 1
                return True
            return False
        if kind == KIND_LOAD or kind == KIND_STORE:
            if self._lsu_used < self._num_lsu:
                self._lsu_used += 1
                return True
            return False
        if kind == KIND_BRANCH:
            if self._bru_used < self._num_bru:
                self._bru_used += 1
                return True
            return False
        # KIND_DIV: unpipelined divider sharing the ALU ports.
        if self._alu_used < self._num_alu and \
                self.div_busy_until <= self._cycle:
            self._alu_used += 1
            self.div_busy_until = self._cycle + self._div_latency
            return True
        return False

    def latency_of(self, dyn):
        op_class = dyn.inst.info.op_class
        cfg = self.config
        if op_class is OpClass.MUL:
            return cfg.mul_latency
        if op_class is OpClass.DIV:
            return cfg.div_latency
        if op_class is OpClass.BRANCH:
            return cfg.branch_latency
        if op_class is OpClass.STORE:
            return cfg.store_latency
        return cfg.alu_latency
