"""Typed pipeline event records.

One event class per observable microarchitectural moment. Events are
plain ``__slots__`` records so constructing them is cheap, and every
field is a JSON-native scalar (or a flat tuple of scalars), so a record
serialises losslessly through :meth:`Event.as_dict` into the JSONL trace
and back out of post-mortem dumps.

Events are only constructed when the owning
:class:`~repro.obs.bus.Observability` bus has at least one sink attached
(``bus.enabled``); the disabled simulation path never allocates them.
"""


class Event:
    """Base event record. ``etype`` names the event in traces."""

    __slots__ = ()
    etype = "event"

    def as_dict(self):
        """Flat JSON-able dict, ``type`` first."""
        data = {"type": self.etype}
        for cls in type(self).__mro__:
            for name in getattr(cls, "__slots__", ()):
                data[name] = getattr(self, name)
        return data

    def __repr__(self):
        fields = " ".join(
            "%s=%r" % (k, v) for k, v in self.as_dict().items()
            if k != "type")
        return "<%s %s>" % (self.etype, fields)


class FtqEnqueueEvent(Event):
    """The BPU appended one predicted block to the fetch target queue
    (decoupled frontend only). ``occupancy`` counts undelivered FTQ
    entries *after* this enqueue (the BPU's run-ahead distance)."""

    __slots__ = ("cycle", "block_id", "start_pc", "pred_next_pc",
                 "occupancy")
    etype = "ftq-enqueue"

    def __init__(self, cycle, block_id, start_pc, pred_next_pc, occupancy):
        self.cycle = cycle
        self.block_id = block_id
        self.start_pc = start_pc
        self.pred_next_pc = pred_next_pc
        self.occupancy = occupancy


class FetchStallEvent(Event):
    """The fetch stage could not deliver a block this cycle (decoupled
    frontend only). ``reason`` is ``ftq-empty`` (BPU starvation),
    ``redirect`` (within the post-squash redirect bubble) or ``icache``
    (the FTQ head has not aged ``fetch_latency`` cycles yet)."""

    __slots__ = ("cycle", "reason")
    etype = "fetch-stall"

    def __init__(self, cycle, reason):
        self.cycle = cycle
        self.reason = reason


class IcacheAccessEvent(Event):
    """The fetch pipeline looked one prediction block up in the
    instruction cache (decoupled frontend with ``frontend.icache_lines``
    set). ``hit`` is False when any line of the block missed; ``delay``
    is the extra fetch latency charged (0 on a hit)."""

    __slots__ = ("cycle", "start_pc", "end_pc", "hit", "delay")
    etype = "icache-access"

    def __init__(self, cycle, start_pc, end_pc, hit, delay):
        self.cycle = cycle
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.hit = hit
        self.delay = delay


class MemAccessEvent(Event):
    """The L1D port served one load/store request (``mem.model =
    "ported"`` only). ``level`` names where the request was satisfied —
    ``l1`` / ``l2`` / ``dram``, or ``mshr`` when it merged onto an
    in-flight same-line miss. ``latency`` is issue-to-completion in
    cycles; ``outstanding`` the port's MSHR occupancy after the request
    (>1 means overlapping misses, i.e. real MLP)."""

    __slots__ = ("cycle", "seq", "addr", "is_write", "level", "latency",
                 "outstanding", "merged")
    etype = "mem-access"

    def __init__(self, cycle, seq, addr, is_write, level, latency,
                 outstanding, merged):
        self.cycle = cycle
        self.seq = seq
        self.addr = addr
        self.is_write = is_write
        self.level = level
        self.latency = latency
        self.outstanding = outstanding
        self.merged = merged


class WrongPathCaptureEvent(Event):
    """FTQ-sourced MSSR capture handed one squashed prediction block to
    the reuse scheme at branch-squash time (``mssr.ftq_capture``).
    ``pending`` is True for blocks that were flushed before delivery —
    wrong-path code decode-time capture never sees."""

    __slots__ = ("cycle", "block_id", "start_pc", "end_pc", "num_insts",
                 "pending")
    etype = "wrong-path-capture"

    def __init__(self, cycle, block_id, start_pc, end_pc, num_insts,
                 pending):
        self.cycle = cycle
        self.block_id = block_id
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.num_insts = num_insts
        self.pending = pending


class FetchEvent(Event):
    """One prediction block entered the pipeline.

    ``insts`` is a tuple of ``(seq, pc, text)`` triples, one per fetched
    instruction in program order.
    """

    __slots__ = ("cycle", "block_id", "start_pc", "end_pc", "insts")
    etype = "fetch"

    def __init__(self, cycle, block_id, start_pc, end_pc, insts):
        self.cycle = cycle
        self.block_id = block_id
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.insts = insts


class RenameEvent(Event):
    """An instruction passed rename (normally or via reuse)."""

    __slots__ = ("cycle", "seq", "pc", "op", "dest_preg", "old_preg",
                 "srcs_preg", "src_rgids", "dest_rgid", "reused")
    etype = "rename"

    def __init__(self, cycle, seq, pc, op, dest_preg, old_preg, srcs_preg,
                 src_rgids, dest_rgid, reused):
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dest_preg = dest_preg
        self.old_preg = old_preg
        self.srcs_preg = srcs_preg
        self.src_rgids = src_rgids
        self.dest_rgid = dest_rgid
        self.reused = reused


class IssueEvent(Event):
    """An instruction was selected by an issue queue."""

    __slots__ = ("cycle", "seq", "pc", "op")
    etype = "issue"

    def __init__(self, cycle, seq, pc, op):
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.op = op


class WritebackEvent(Event):
    """An instruction finished execution and wrote its result."""

    __slots__ = ("cycle", "seq", "pc", "op", "dest_preg", "result",
                 "verify")
    etype = "writeback"

    def __init__(self, cycle, seq, pc, op, dest_preg, result, verify):
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dest_preg = dest_preg
        self.result = result
        self.verify = verify


class CommitEvent(Event):
    """An instruction retired from the ROB head.

    Carries everything a differential checker needs to validate the
    commit against a golden model: the architectural destination and its
    value for register writers, and address/data for stores. ``branch``
    is ``None`` for non-control instructions, else one of ``cond`` /
    ``indirect`` / ``direct``.
    """

    __slots__ = ("cycle", "seq", "pc", "op", "dest", "result", "mem_addr",
                 "mem_size", "store_data", "branch", "mispredicted")
    etype = "commit"

    def __init__(self, cycle, seq, pc, op, dest, result, mem_addr,
                 mem_size, store_data, branch, mispredicted):
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dest = dest
        self.result = result
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.store_data = store_data
        self.branch = branch
        self.mispredicted = mispredicted


class SquashEvent(Event):
    """A squash was applied at cycle end.

    ``kind`` is ``branch`` / ``replay`` / ``verify``. ``squashed_seqs``
    are the renamed (ROB) instructions rolled back, ``dropped_seqs`` the
    not-yet-renamed decode-queue instructions discarded with them.
    """

    __slots__ = ("cycle", "kind", "trigger_seq", "trigger_pc",
                 "boundary_seq", "redirect_pc", "squashed_seqs",
                 "dropped_seqs")
    etype = "squash"

    def __init__(self, cycle, kind, trigger_seq, trigger_pc, boundary_seq,
                 redirect_pc, squashed_seqs, dropped_seqs):
        self.cycle = cycle
        self.kind = kind
        self.trigger_seq = trigger_seq
        self.trigger_pc = trigger_pc
        self.boundary_seq = boundary_seq
        self.redirect_pc = redirect_pc
        self.squashed_seqs = squashed_seqs
        self.dropped_seqs = dropped_seqs


class ReconvergeEvent(Event):
    """The corrected fetch stream reconverged with a squashed stream.

    ``reconv_kind`` follows the paper's classification: ``simple`` /
    ``software`` / ``hardware``; ``distance`` is the stream distance
    (1 = most recent squash).
    """

    __slots__ = ("cycle", "stream_idx", "reconv_pc", "distance",
                 "reconv_kind", "trigger_seq")
    etype = "reconverge"

    def __init__(self, cycle, stream_idx, reconv_pc, distance,
                 reconv_kind, trigger_seq):
        self.cycle = cycle
        self.stream_idx = stream_idx
        self.reconv_pc = reconv_pc
        self.distance = distance
        self.reconv_kind = reconv_kind
        self.trigger_seq = trigger_seq


class ReuseAttemptEvent(Event):
    """A rename-time reuse test (``outcome="test"``) or applied reuse
    (``outcome="hit"``). MSSR attempts carry the squash-log location and
    the RGIDs compared by the reuse test."""

    __slots__ = ("cycle", "seq", "pc", "outcome", "stream_idx",
                 "entry_idx", "src_rgids", "entry_rgids", "is_load")
    etype = "reuse"

    def __init__(self, cycle, seq, pc, outcome, stream_idx, entry_idx,
                 src_rgids, entry_rgids, is_load):
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.outcome = outcome
        self.stream_idx = stream_idx
        self.entry_idx = entry_idx
        self.src_rgids = src_rgids
        self.entry_rgids = entry_rgids
        self.is_load = is_load


class IntervalEvent(Event):
    """A sampled-simulation interval began or ended.

    ``phase`` is ``begin`` / ``end``; ``index`` is the interval's
    position in the full dynamic instruction stream, ``start_inst`` its
    first instruction number, and ``weight`` the SimPoint cluster weight
    it represents. Sinks see every interval of a sampled run on one bus,
    so traces (and per-interval lockstep checks) can segment the stream.
    """

    __slots__ = ("cycle", "phase", "index", "start_inst", "num_insts",
                 "weight")
    etype = "interval"

    def __init__(self, cycle, phase, index, start_inst, num_insts, weight):
        self.cycle = cycle
        self.phase = phase
        self.index = index
        self.start_inst = start_inst
        self.num_insts = num_insts
        self.weight = weight


#: Every concrete event class, in pipeline order (trace documentation).
EVENT_TYPES = (FtqEnqueueEvent, FetchStallEvent, IcacheAccessEvent,
               MemAccessEvent, FetchEvent, RenameEvent, IssueEvent,
               WritebackEvent, CommitEvent, SquashEvent,
               WrongPathCaptureEvent, ReconvergeEvent, ReuseAttemptEvent,
               IntervalEvent)


def format_event(event):
    """One-line human rendering used by ring-buffer dumps."""
    data = event.as_dict()
    cycle = data.pop("cycle", None)
    kind = data.pop("type")
    pc = data.pop("pc", None)
    head = "[%8s] %-10s" % (cycle if cycle is not None else "-", kind)
    if pc is not None:
        head += " pc=%#x" % pc
    body = " ".join("%s=%s" % (k, _fmt(k, v)) for k, v in data.items()
                    if v is not None and v != ())
    return (head + " " + body).rstrip()


def _fmt(key, value):
    if isinstance(value, int) and key.endswith("_pc"):
        return "%#x" % value
    return str(value)
