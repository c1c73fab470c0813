"""Fetch stage: drive the frontend and fill the decode queue.

The pipeline-side fetch stage owns only delivery policy (how many
blocks per cycle, decode-queue backpressure); prediction, the FTQ and
the icache live in the frontend (:mod:`repro.frontend.fetch`,
:mod:`repro.frontend.icache`) behind the
:class:`~repro.frontend.fetch.FetchUnit` interface.
"""


class FetchStage:
    """Deliver predicted blocks from the frontend into the decode queue."""

    __slots__ = ("state", "fetch", "decode_queue", "obs", "on_fetch_block",
                 "blocks_per_cycle", "block_insts")

    def __init__(self, state):
        cfg = state.config
        self.state = state
        self.fetch = state.fetch
        self.decode_queue = state.decode_queue
        self.obs = state.obs
        self.on_fetch_block = state.on_fetch_block
        self.blocks_per_cycle = cfg.fetch_blocks_per_cycle
        self.block_insts = cfg.fetch_block_insts

    def tick(self):
        cycle = self.state.cycle
        fetch = self.fetch
        # Decoupled mode: the BPU runs ahead into the FTQ regardless of
        # decode backpressure (no-op when fused).
        fetch.tick(cycle)
        entries = self.decode_queue.entries
        # Deliver only while a whole block still fits.
        limit = self.decode_queue.capacity - self.block_insts
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
