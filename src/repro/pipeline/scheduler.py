"""Issue queues: the reservation stations between dispatch and issue.

Two reservation-station pools (integer and memory, per Table 3) hold
dispatched instructions until their source physical registers are ready.
Wakeup is event-driven: completing instructions broadcast their dest preg
and dependents' wait counts drop; zero-wait instructions enter the ready
pool and issue oldest-first subject to per-class port limits.

The queue is plain state. The stages that own its transitions work on
it directly: rename/dispatch inserts, writeback wakes, execute selects
and claims the function-unit ports (counting them in locals, with the
unpipelined divider's busy horizon on the stage), and the squash unit
returns the slots of squashed entries.
"""


class IssueQueue:
    """One reservation-station pool.

    ``size`` counts dispatched, not-yet-issued entries. Issue decrements
    it; squashes are the squash unit's job
    (:meth:`~repro.pipeline.stages.squash.SquashUnit.apply` subtracts
    the squashed, never-issued entries it pops from the ROB, and drops
    the waiter lists of the registers it frees). Other squashed entries
    stay in ``ready``/``waiting`` until their next touch: execute and
    writeback skip them.

    ``waiting`` maps a source preg to the instructions waiting on it (an
    instruction waiting on two pregs sits in two lists, and its
    ``wait_count`` says how many); a preg has a list only while it is
    allocated and not yet written. ``ready`` holds the instructions
    with every operand ready, in no particular order.
    """

    __slots__ = ("name", "capacity", "size", "waiting", "ready")

    def __init__(self, name, capacity):
        self.name = name
        self.capacity = capacity
        self.size = 0
        self.waiting = {}     # preg -> [DynInst]
        self.ready = []       # DynInst with all operands ready
