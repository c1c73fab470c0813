"""Fetch stage: drive the frontend and fill the decode queue.

The pipeline-side fetch stage owns only delivery policy (how many
blocks per cycle, decode-queue backpressure); prediction, the FTQ and
the icache live in the frontend (:mod:`repro.frontend.fetch`,
:mod:`repro.frontend.icache`) behind the
:class:`~repro.frontend.fetch.FetchUnit` interface.
"""


class FetchStage:
    """Deliver predicted blocks from the frontend into the decode queue."""

    __slots__ = ("state", "fetch", "decoupled", "entries", "limit", "obs",
                 "on_fetch_block", "blocks_per_cycle")

    def __init__(self, state):
        cfg = state.config
        self.state = state
        self.fetch = state.fetch
        self.decoupled = state.fetch.decoupled
        self.entries = state.decode_queue.entries
        # Deliver only while a whole block still fits.
        self.limit = state.decode_queue.capacity - cfg.fetch_block_insts
        self.obs = state.obs
        self.on_fetch_block = state.on_fetch_block
        self.blocks_per_cycle = cfg.fetch_blocks_per_cycle

    def tick(self):
        fetch = self.fetch
        if self.decoupled:
            # The BPU runs ahead into the FTQ every cycle, regardless of
            # decode backpressure.
            fetch.tick(self.state.cycle)
        elif fetch.stalled:
            # Wake test: a fused frontend waits for a redirect.
            return
        # Wake test: the decode queue cannot take a whole block.
        entries = self.entries
        limit = self.limit
        if len(entries) > limit:
            return
        cycle = self.state.cycle
        on_fetch_block = self.on_fetch_block
        for _ in range(self.blocks_per_cycle):
            if len(entries) > limit:
                return
            block = fetch.fetch_block(cycle)
            if block is None:
                return
            self.obs.fetch_block(block)
            if on_fetch_block is not None:
                on_fetch_block(block)
            entries.extend(block.insts)
