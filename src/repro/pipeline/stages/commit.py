"""Commit stage: in-order retirement from the ROB head."""

from repro.pipeline.regfile import ARCH, FREE


class CommitStage:
    """Retire up to ``width`` completed instructions per cycle.

    Owns commit-side policy: store/load retirement into the LSQ,
    architectural register promotion (and the freeing of the previous
    mapping), branch predictor training, and FTQ deallocation once every
    instruction of a block has retired. Reuse-verification loads block
    retirement until their re-execution has actually run
    (``verify_load and not executed``).

    An instruction retires in one frame: it promotes its register and
    frees the previous mapping (with the double-free check), and only
    loads and stores touch the LSQ.
    """

    __slots__ = ("state", "width", "rob", "lsq", "obs", "regfile",
                 "on_preg_freed", "predictor", "btb", "fetch")

    def __init__(self, state):
        self.state = state
        self.width = state.config.width
        self.rob = state.rob
        self.lsq = state.lsq
        self.obs = state.obs
        self.regfile = state.regfile
        self.on_preg_freed = state.on_preg_freed
        self.predictor = state.predictor
        self.btb = state.btb
        self.fetch = state.fetch

    def tick(self):
        # Wake test: nothing retires unless the ROB head is done.
        rob = self.rob
        if not rob:
            return
        head = rob[0]
        if not head.completed or (head.verify_load and not head.executed):
            return
        state = self.state
        obs = self.obs
        lsq = self.lsq
        regfile = self.regfile
        reg_states = regfile.states
        ready = regfile.ready
        free = regfile.free_list
        on_preg_freed = self.on_preg_freed
        for _ in range(self.width):
            rob.popleft()
            head.committed = True

            if head.is_store:
                lsq.commit_store(head)
            elif head.is_load:
                lsq.loads.pop(head.seq, None)
            dest = head.dest_preg
            if dest is not None:
                reg_states[dest] = ARCH
                old = head.old_preg
                if old is not None:
                    if reg_states[old] == FREE:
                        raise AssertionError("double free of p%d" % old)
                    reg_states[old] = FREE
                    ready[old] = False
                    free.append(old)
                    if on_preg_freed is not None:
                        on_preg_freed(old)
            if head.is_branch:
                pd = head.pd
                if pd.is_cond_branch:
                    obs.cond_branch(head.mispredicted)
                    if head.bp_meta is not None:
                        self.predictor.update(
                            pd.pc, head.actual_npc != pd.next_pc,
                            head.bp_meta)
                elif pd.is_indirect:
                    obs.indirect_branch(head.mispredicted)
                    self.btb.install(pd.pc, head.actual_npc)
            retired = head.block_id - 1
            if retired > state.last_retired_block:
                self.fetch.retire_block(retired)
                state.last_retired_block = retired

            obs.commit(head)
            state.last_commit_cycle = state.cycle
            if head.pd.is_halt:
                state.halted = True
                return
            if state.commit_limit is not None \
                    and state.stats.committed_insts >= state.commit_limit:
                # Stop committing, but let the rest of this cycle's
                # stages run before halting (the cycle loop raises the
                # halt at cycle end): completion events already
                # scheduled for this cycle must drain, or a resumed run
                # would deadlock on them.
                state.budget_stop = True
                return
            if not rob:
                return
            head = rob[0]
            if not head.completed or (head.verify_load and not head.executed):
                return
