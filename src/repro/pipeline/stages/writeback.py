"""Writeback stage: completion, wakeup, branch resolution, hazards.

Drains the :class:`~repro.pipeline.latches.CompletionQueue` latch for
the current cycle. Every squash condition discovered here — branch
misprediction, store-to-load ordering violation, reused-load
verification failure — is raised on the shared
:class:`~repro.pipeline.latches.SquashArbiter`; this stage never applies
recovery itself.

An instruction completes in one frame: it writes its register and
wakes the register's waiters in each issue queue (an issue queue with no
waiter on the register is not touched).
"""


class WritebackStage:
    """Complete executed instructions and wake their consumers."""

    __slots__ = ("state", "regfile", "iqs", "lsq", "obs", "scheme",
                 "on_store_executed", "completions", "arbiter")

    def __init__(self, state):
        self.state = state
        self.regfile = state.regfile
        self.iqs = state.iqs
        self.lsq = state.lsq
        self.obs = state.obs
        self.scheme = state.scheme
        self.on_store_executed = state.on_store_executed
        self.completions = state.completions
        self.arbiter = state.squash_arbiter

    def tick(self):
        # Wake test: no completion is due this cycle.
        done = self.completions.by_cycle.pop(self.state.cycle, None)
        if not done:
            return
        obs = self.obs
        values = self.regfile.values
        ready = self.regfile.ready
        iqs = self.iqs
        for dyn in done:
            if dyn.squashed:
                continue
            dyn.executed = True
            if obs.enabled:
                obs.emit_writeback(dyn)
            if dyn.verify_load:
                self._verify_load(dyn)
                continue

            dyn.completed = True
            preg = dyn.dest_preg
            if preg is not None:
                values[preg] = dyn.result
                ready[preg] = True
                for iq in iqs:
                    waiting = iq.waiting
                    if preg not in waiting:
                        continue
                    for waiter in waiting.pop(preg):
                        if waiter.squashed:
                            continue
                        waiter.wait_count -= 1
                        if waiter.wait_count == 0:
                            iq.ready.append(waiter)

            if dyn.is_branch:
                if dyn.pred_npc != dyn.actual_npc:
                    dyn.mispredicted = dyn.pred_npc is not None
                    self.arbiter.request(dyn.seq, dyn, "branch",
                                         dyn.actual_npc)
            elif dyn.is_store:
                if self.on_store_executed is not None:
                    self.on_store_executed(dyn.mem_addr, dyn.mem_size)
                violators = self.lsq.find_violations(dyn)
                if violators:
                    victim = violators[0]
                    obs.replay_violation(victim)
                    self.arbiter.request(victim.seq - 1, victim, "replay",
                                         victim.pc)

    def _verify_load(self, dyn):
        """A reused load's re-execution finished: its value was already
        delivered at rename, so this only checks it."""
        # store_data caches the verification re-read (see
        # ExecuteStage._execute_load); mismatch -> flush from this load.
        if dyn.result != dyn.store_data:
            self.obs.verify_flush(dyn)
            self.scheme.on_verify_fail(dyn)
            self.arbiter.request(dyn.seq - 1, dyn, "verify", dyn.pc)
