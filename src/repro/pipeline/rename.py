"""Register Alias Table with RGID extension.

The RAT maps each architectural register to its youngest physical
register. Following Section 3.1 of the paper, every mapping additionally
carries a *Rename Mapping Generation ID* (RGID): a per-architectural-
register version number drawn from a global counter that is bumped on
every rename. Two execution contexts observed the same value of register
``a`` iff their recorded RGIDs for ``a`` are equal — this is the entire
reuse test.

The table is state; the stages own its transitions. Rename/dispatch
maps a fresh destination and draws its RGID from the global counter
(NULL once the epoch's ``rgid_limit`` values are used up); the squash
unit recovers by rollback: each squashed instruction undoes its own
mapping, youngest first (the paper uses interval checkpoints +
rollback; pure rollback is timing-equivalent in a functional model and
always exact). The global RGID counters are deliberately *not* rolled
back: they identify mappings on both correct and wrong paths
(Section 3.1).
"""

from repro.isa.registers import NUM_ARCH_REGS

#: Reserved RGID meaning "not reusable" (non-renameable or overflowed).
NULL_RGID = -1


class RenameTable:
    """RAT + RGIDs + global RGID counters."""

    def __init__(self, rgid_bits=6, track_rgids=True):
        self.track_rgids = track_rgids
        self.rgid_limit = (1 << rgid_bits)
        self.map = list(range(NUM_ARCH_REGS))   # areg -> preg
        self.rgid = [0] * NUM_ARCH_REGS          # areg -> current RGID
        self.global_rgid = [0] * NUM_ARCH_REGS   # areg -> last issued RGID
        self.overflow_events = 0
        # RGIDs are modelled as unbounded ints partitioned into epochs of
        # ``rgid_limit`` values. The hardware value is ``rgid % limit``;
        # the epoch encodes the paper's post-reset suspension guarantee
        # (no stale pre-reset RGID can ever compare equal to a post-reset
        # one), making the mechanism exactly sound in simulation.
        self.epoch_base = 0

    # ------------------------------------------------------------------
    def lookup(self, areg):
        return self.map[areg]

    def apply_reuse(self, dyn, reuse_preg, reuse_rgid):
        """Point ``dyn``'s dest at a reused physical register.

        No new RGID is allocated: the squashed instruction's RGID is
        forwarded so downstream reuse tests keep matching (Section 3.1).
        """
        areg = dyn.inst.dest
        dyn.dest_areg = areg
        dyn.old_preg = self.map[areg]
        dyn.old_rgid = self.rgid[areg]
        dyn.dest_preg = reuse_preg
        dyn.dest_rgid = reuse_rgid
        self.map[areg] = reuse_preg
        self.rgid[areg] = reuse_rgid

    # ------------------------------------------------------------------
    def reset_rgids(self):
        """Global RGID reset (Section 3.3.2): start a fresh epoch.

        Existing RAT entries keep their (now stale) RGIDs; because fresh
        RGIDs come from the new epoch, a stale value can never compare
        equal to a new one — the property the paper's post-reset stream
        suspension exists to guarantee. The caller (MSSR controller) also
        models the performance side: new squashed streams are refused
        until a ROB's worth of instructions has committed.
        """
        self.epoch_base += self.rgid_limit
        self.global_rgid = [self.epoch_base] * NUM_ARCH_REGS
        self.overflow_events = 0
