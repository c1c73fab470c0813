"""Wrong-Path Buffers: fetch-side squashed-stream tracking (Section 3.4).

Each of the N streams holds up to M *fetch block ranges* — (start_pc,
end_pc) pairs copied from the squashed FTQ entries. Because every block
is a contiguous instruction run, reconvergence detection is a pure range
overlap test (the paper's left/right aligner logic), never an
instruction-by-instruction comparison:

    start_pc_head <= end_pc_wpb  and  end_pc_head >= start_pc_wpb

The exact reconvergence PC is ``max(start_pc_head, start_pc_wpb)`` of the
first (priority-encoded) overlapping entry.
"""

from repro.isa.instruction import INST_BYTES

#: Page size for the optional single-page restriction (sv48, 4KiB pages).
PAGE_SHIFT = 12


class WPBStream:
    """One squashed stream at fetch-block granularity."""

    __slots__ = ("blocks", "valid", "event_id", "trigger_seq", "age",
                 "generation", "num_insts", "vpn")

    def __init__(self):
        self.blocks = []       # list of (start_pc, end_pc) inclusive
        self.valid = False
        self.event_id = -1     # squash event that created this stream
        self.trigger_seq = -1  # seq of the mispredicting branch
        self.age = 0           # fetched instructions since creation
        self.generation = 0    # bumped on every (in)validation
        self.num_insts = 0
        self.vpn = None

    def fill(self, block_ranges, event_id, trigger_seq, max_blocks,
             single_page=False):
        """(Re)populate from squashed block ranges (oldest first)."""
        self.generation += 1
        self.blocks = []
        self.vpn = None
        for start_pc, end_pc in block_ranges:
            if len(self.blocks) >= max_blocks:
                break
            if single_page:
                vpn = start_pc >> PAGE_SHIFT
                if self.vpn is None:
                    self.vpn = vpn
                if vpn != self.vpn or (end_pc >> PAGE_SHIFT) != self.vpn:
                    break  # stream restricted to one physical page
            self.blocks.append((start_pc, end_pc))
        self.valid = bool(self.blocks)
        self.event_id = event_id
        self.trigger_seq = trigger_seq
        self.age = 0
        self.num_insts = sum((end - start) // INST_BYTES + 1
                             for start, end in self.blocks)

    def invalidate(self):
        self.generation += 1
        self.valid = False
        self.blocks = []
        self.num_insts = 0

    # ------------------------------------------------------------------
    def find_overlap(self, start_head, end_head):
        """First overlapping entry: returns (inst_offset, reconv_pc) or None.

        ``inst_offset`` counts instructions from the start of the stream
        (the first wrong-path instruction after the mispredicted branch).
        """
        offset = 0
        for start_wpb, end_wpb in self.blocks:
            if start_head <= end_wpb and end_head >= start_wpb:
                reconv_pc = max(start_head, start_wpb)
                offset += (reconv_pc - start_wpb) // INST_BYTES
                return offset, reconv_pc
            offset += (end_wpb - start_wpb) // INST_BYTES + 1
        return None

    def pcs(self):
        """The full squashed PC sequence (used for lockstep monitoring)."""
        out = []
        for start_pc, end_pc in self.blocks:
            pc = start_pc
            while pc <= end_pc:
                out.append(pc)
                pc += INST_BYTES
        return out


class WrongPathBuffers:
    """N-stream WPB with round-robin allocation."""

    def __init__(self, num_streams, entries_per_stream, single_page=False):
        self.num_streams = num_streams
        self.entries_per_stream = entries_per_stream
        self.single_page = single_page
        self.streams = [WPBStream() for _ in range(num_streams)]
        self._write_ptr = 0
        #: How many streams are valid. Fetch reads it once per block to
        #: skip the per-stream scans, so every change of a stream's
        #: ``valid`` goes through :meth:`allocate` or :meth:`invalidate`.
        self.num_valid = 0

    def allocate(self, block_ranges, event_id, trigger_seq):
        """Fill the next stream (round robin); returns its index.

        The caller must clean up the previous occupant (reserved physical
        registers) *before* calling this.
        """
        idx = self._write_ptr
        self._write_ptr = (self._write_ptr + 1) % self.num_streams
        stream = self.streams[idx]
        was_valid = stream.valid
        stream.fill(block_ranges, event_id, trigger_seq,
                    self.entries_per_stream, single_page=self.single_page)
        self.num_valid += stream.valid - was_valid
        return idx

    def invalidate(self, idx):
        """Invalidate stream ``idx``."""
        stream = self.streams[idx]
        self.num_valid -= stream.valid
        stream.invalidate()

    def next_victim(self):
        """Stream index the next allocation will overwrite."""
        return self._write_ptr

    def find_reconvergence(self, start_head, end_head, exclude=()):
        """Search all streams; returns (stream_idx, offset, reconv_pc).

        Among overlapping streams the most recently updated one wins, and
        within it the overlap closest to the mispredicted branch
        (Section 3.3.1 selection policy). ``exclude`` skips streams (e.g.
        the one currently driving an active lockstep).
        """
        best = None
        for idx, stream in enumerate(self.streams):
            if not stream.valid or idx in exclude:
                continue
            hit = stream.find_overlap(start_head, end_head)
            if hit is None:
                continue
            offset, reconv_pc = hit
            if best is None or stream.event_id > best[3]:
                best = (idx, offset, reconv_pc, stream.event_id)
        if best is None:
            return None
        return best[0], best[1], best[2]
