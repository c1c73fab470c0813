"""Pipeline stage objects.

Each stage is one object owning the policy of one pipeline segment and
nothing else; everything a stage shares with its neighbours flows
through the typed latches in :mod:`repro.pipeline.latches` and the
shared :class:`~repro.pipeline.latches.CoreState`. The core's cycle
loop (:meth:`O3Core.run <repro.pipeline.core.O3Core.run>`) ticks them
once per cycle in reverse pipeline order (commit → writeback → execute
→ rename/dispatch → fetch) so a single-cycle producer wakes its
consumer back-to-back, then drains the squash arbiter.

Every ``tick`` opens with an O(1) wake test and returns before loading
anything else when its stage cannot act this cycle: an empty or
unfinished ROB head (commit), no completion due (writeback), empty
ready lists (execute), a decode-queue head still in the frontend
pipeline or without room in the ROB or its issue queue (rename), a
stalled fused frontend or a decode queue without room for a block
(fetch).
"""

from repro.pipeline.stages.commit import CommitStage
from repro.pipeline.stages.execute import ExecuteStage
from repro.pipeline.stages.fetch import FetchStage
from repro.pipeline.stages.rename import RenameDispatchStage
from repro.pipeline.stages.squash import SquashUnit
from repro.pipeline.stages.writeback import WritebackStage

__all__ = [
    "CommitStage",
    "ExecuteStage",
    "FetchStage",
    "RenameDispatchStage",
    "SquashUnit",
    "WritebackStage",
]
