"""Dynamic instruction: one fetched instance of a static instruction.

A single object flows through fetch -> rename -> issue -> execute ->
commit, accumulating state. Squash reuse and the RI baseline read and
write the rename-related fields (physical registers, RGIDs, reuse flags).
"""


class DynInst:
    """One in-flight dynamic instruction."""

    __slots__ = (
        # identity
        "seq", "pc", "inst", "block_id", "fetch_cycle",
        # control prediction state (branches only)
        "pred_npc", "bp_meta", "ras_snap", "actual_npc", "mispredicted",
        # rename state
        "srcs_preg", "dest_preg", "dest_areg", "old_preg",
        "src_rgids", "dest_rgid", "old_rgid", "renamed",
        # execution state
        "issued", "issue_cycle", "executed", "completed", "committed",
        "squashed", "result", "wait_count",
        # memory state
        "mem_addr", "mem_size", "store_data",
        # squash-reuse state
        "reuse_candidate", "reused", "verify_load", "reuse_scheme_tag",
        # cached classification (hot paths)
        "is_branch", "is_load", "is_store",
    )

    def __init__(self, seq, pc, inst, block_id, fetch_cycle):
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.block_id = block_id
        self.fetch_cycle = fetch_cycle

        self.pred_npc = None
        self.bp_meta = None
        self.ras_snap = None
        self.actual_npc = None
        self.mispredicted = False

        self.srcs_preg = ()
        self.dest_preg = None
        self.dest_areg = None
        self.old_preg = None
        self.src_rgids = ()
        self.dest_rgid = None
        self.old_rgid = None
        self.renamed = False

        self.issued = False
        self.issue_cycle = -1
        self.executed = False
        self.completed = False
        self.committed = False
        self.squashed = False
        self.result = None
        self.wait_count = 0

        self.mem_addr = None
        self.mem_size = 0
        self.store_data = None

        self.reuse_candidate = None
        self.reused = False
        self.verify_load = False
        self.reuse_scheme_tag = None

        self.is_branch = inst.is_branch
        self.is_load = inst.is_load
        self.is_store = inst.is_store

    def __repr__(self):
        flags = "".join(flag for flag, present in (
            ("R", self.renamed), ("X", self.executed), ("C", self.completed),
            ("Q", self.squashed), ("U", self.reused)) if present)
        return "<DynInst #%d %r %s>" % (self.seq, self.inst, flags)
