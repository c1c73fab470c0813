"""Sparse byte-addressable memory built on aligned 64-bit words.

Untouched memory reads as zero, which makes wrong-path loads (which may
compute arbitrary addresses) well defined without any fault model.
"""

from repro.utils.bits import MASK64


class SparseMemory:
    """Word-granular sparse memory with 1/4/8-byte accessors.

    ``words`` maps aligned word addresses to unsigned 64-bit values and
    is the only copy of memory (an absent word reads as zero), so code
    may index it directly for a naturally aligned 8-byte access, as the
    emulator's compiled blocks do, provided it stores only values
    already masked to 64 bits. Every other access goes through
    :meth:`read` and :meth:`write`, which check size and alignment.
    """

    def __init__(self, image=None):
        self.words = {}
        if image:
            for addr, value in image.items():
                if addr % 8:
                    raise ValueError("image addresses must be 8-byte aligned")
                self.words[addr] = value & MASK64

    def copy(self):
        clone = SparseMemory()
        clone.words = dict(self.words)
        return clone

    # ------------------------------------------------------------------
    # Raw word access
    # ------------------------------------------------------------------
    def read_word(self, addr):
        return self.words.get(addr & ~7, 0)

    def write_word(self, addr, value):
        self.words[addr & ~7] = value & MASK64

    # ------------------------------------------------------------------
    # Sized access (no alignment requirement across word boundaries is
    # needed: the ISA only issues naturally-aligned 1/4/8-byte accesses,
    # which never straddle an 8-byte word).
    # ------------------------------------------------------------------
    def read(self, addr, size):
        """Read ``size`` bytes (1, 4 or 8), zero-extended."""
        if size == 8:
            if addr % 8:
                raise ValueError("misaligned 8-byte read at %#x" % addr)
            return self.read_word(addr)
        if size == 4:
            if addr % 4:
                raise ValueError("misaligned 4-byte read at %#x" % addr)
            word = self.read_word(addr)
            shift = (addr & 4) * 8
            return (word >> shift) & 0xFFFFFFFF
        if size == 1:
            word = self.read_word(addr)
            shift = (addr & 7) * 8
            return (word >> shift) & 0xFF
        raise ValueError("unsupported access size %d" % size)

    def write(self, addr, value, size):
        """Write ``size`` bytes (1, 4 or 8)."""
        if size == 8:
            if addr % 8:
                raise ValueError("misaligned 8-byte write at %#x" % addr)
            self.write_word(addr, value)
            return
        if size == 4:
            if addr % 4:
                raise ValueError("misaligned 4-byte write at %#x" % addr)
            shift = (addr & 4) * 8
            mask = 0xFFFFFFFF << shift
        elif size == 1:
            shift = (addr & 7) * 8
            mask = 0xFF << shift
        else:
            raise ValueError("unsupported access size %d" % size)
        word = self.read_word(addr)
        word = (word & ~mask) | ((value << shift) & mask)
        self.write_word(addr, word)

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def nonzero_words(self):
        """Mapping of word address -> value for all nonzero words."""
        return {a: v for a, v in self.words.items() if v}

    def read_word_array(self, addr, count):
        """Read ``count`` consecutive 64-bit words starting at ``addr``."""
        return [self.read(addr + 8 * i, 8) for i in range(count)]

    def __eq__(self, other):
        if not isinstance(other, SparseMemory):
            return NotImplemented
        return self.nonzero_words() == other.nonzero_words()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq
