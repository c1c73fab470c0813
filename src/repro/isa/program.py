"""Program container: code image, labels and an initialised data segment."""

from repro.isa.instruction import Instruction, INST_BYTES
from repro.utils.bits import MASK64, to_unsigned

#: Default layout. Code and data live in disjoint regions; the stack grows
#: down from STACK_TOP. Nothing enforces protection — wrong-path execution
#: is allowed to read anywhere (returning zeros for untouched memory).
CODE_BASE = 0x1000
DATA_BASE = 0x100000
STACK_TOP = 0x8000000


class DataSegment:
    """Bump allocator for statically-initialised data.

    Allocations are 8-byte aligned. ``image()`` renders the initial memory
    contents as a mapping of aligned word address -> 64-bit value, which is
    what :class:`repro.emu.memory.SparseMemory` consumes.
    """

    def __init__(self, base=DATA_BASE):
        self.base = base
        self._next = base
        self._words = {}
        self.symbols = {}

    def align(self, alignment=8):
        rem = self._next % alignment
        if rem:
            self._next += alignment - rem

    def reserve(self, name, num_bytes):
        """Reserve zero-initialised space; returns the base address."""
        self.align(8)
        addr = self._next
        self._next += (num_bytes + 7) & ~7
        if name is not None:
            if name in self.symbols:
                raise ValueError("duplicate data symbol %r" % name)
            self.symbols[name] = addr
        return addr

    def word_array(self, name, values):
        """Allocate and initialise an array of 64-bit words."""
        addr = self.reserve(name, 8 * len(values))
        for i, v in enumerate(values):
            word = to_unsigned(int(v))
            if word:
                self._words[addr + 8 * i] = word
        return addr

    def word(self, name, value=0):
        """Allocate a single 64-bit scalar."""
        return self.word_array(name, [value])

    def addr_of(self, name):
        return self.symbols[name]

    @property
    def end(self):
        return self._next

    def image(self):
        """Initial memory image: aligned word address -> value."""
        return dict(self._words)


class Program:
    """An assembled program ready for emulation or simulation."""

    def __init__(self, instructions, labels=None, data=None,
                 entry=None, code_base=CODE_BASE):
        self.code_base = code_base
        self.instructions = list(instructions)
        self.labels = dict(labels or {})
        self.data = data if data is not None else DataSegment()
        self.entry = entry if entry is not None else code_base
        self._check_pcs()
        self._by_pc = None
        self._superblocks = None

    def _check_pcs(self):
        pc = self.code_base
        for inst in self.instructions:
            if not isinstance(inst, Instruction):
                raise TypeError("not an Instruction: %r" % (inst,))
            if inst.pc != pc:
                raise ValueError(
                    "instruction %r has pc %#x, expected %#x"
                    % (inst, inst.pc or -1, pc))
            pc += INST_BYTES
        self.code_end = pc

    def __len__(self):
        return len(self.instructions)

    def has_pc(self, pc):
        """True when ``pc`` addresses a real instruction."""
        return (self.code_base <= pc < self.code_end
                and (pc - self.code_base) % INST_BYTES == 0)

    def inst_at(self, pc):
        """Instruction at ``pc`` (raises for invalid addresses)."""
        if not self.has_pc(pc):
            raise KeyError("no instruction at pc %#x" % pc)
        return self.instructions[(pc - self.code_base) // INST_BYTES]

    def predecode(self):
        """``{pc: Instruction}`` for every instruction (built once and
        cached, so every core and the superblock table over this
        program share it). Membership is exactly :meth:`has_pc`, so one
        ``dict.get`` is both the bounds check and the lookup."""
        by_pc = self._by_pc
        if by_pc is None:
            by_pc = self._by_pc = {inst.pc: inst
                                   for inst in self.instructions}
        return by_pc

    def superblocks(self):
        """The program's compiled :class:`~repro.isa.superblock.
        SuperblockTable` (block-granular dispatch for the emulator fast
        path; built once and cached like :meth:`predecode`)."""
        table = self._superblocks
        if table is None:
            from repro.isa.superblock import build_superblocks
            table = self._superblocks = build_superblocks(self)
        return table

    def label_pc(self, name):
        return self.labels[name]

    def initial_memory(self):
        return self.data.image()

    def disassemble(self):
        """Human-readable listing with labels (debugging aid)."""
        by_pc = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines = []
        for inst in self.instructions:
            for name in sorted(by_pc.get(inst.pc, [])):
                lines.append("%s:" % name)
            lines.append("  %#07x  %r" % (inst.pc, inst))
        return "\n".join(lines)
