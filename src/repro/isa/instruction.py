"""Static instruction representation."""

from repro.isa.opcodes import Op, OpClass, OPCODE_INFO
from repro.isa.registers import reg_name
from repro.utils.bits import to_unsigned

#: All instructions are 4 bytes, like RV64 without the C extension.
INST_BYTES = 4

#: Bumped whenever the execution semantics of static instructions
#: change in a way that could alter results; folded into job specs and
#: the harness cache fingerprint so results cached under older code are
#: never silently reused. v2: superblock compilation
#: (repro.isa.superblock) joins the execution fast path.
PREDECODE_VERSION = 2


class Instruction:
    """One static instruction.

    Operand conventions (``srcs`` is a tuple of architectural register
    numbers):

    * ALU reg-reg:      ``dest = fn(srcs[0], srcs[1])``
    * ALU reg-imm:      ``dest = fn(srcs[0], imm)``
    * loads:            ``dest = mem[srcs[0] + imm]``
    * stores:           ``mem[srcs[1] + imm] = srcs[0]``
    * branches:         ``if fn(srcs[0], srcs[1]): pc = imm`` (absolute target)
    * ``jal``:          ``dest = pc + 4; pc = imm``
    * ``jalr``:         ``dest = pc + 4; pc = (srcs[0] + imm)``

    Branch/jump targets are stored as *absolute byte addresses* in ``imm``
    (the assembler resolves labels), which keeps the simulator simple while
    remaining faithful to PC-relative hardware encodings.

    The constructor also computes, once, every field the core's stages
    and the superblock compiler read, so the hot paths read plain
    attributes instead of walking ``info``: the functional-unit
    ``kind`` (``repro.isa.opcodes.KIND_*``), the fall-through
    ``next_pc`` (None when unplaced), the static taken ``target`` (None
    for ``jalr``), the operand shape (``src0``, ``src1``, ``num_srcs``,
    ``has_imm``, the unsigned immediate ``imm_u``), the memory shape
    (``is_lw``, ``mem_size``, ``store_mask``), the semantic functions
    (``alu_fn``, ``branch_fn``) and the classification flags.
    """

    __slots__ = ("op", "info", "dest", "srcs", "imm", "pc", "label",
                 "kind", "next_pc", "target", "src0", "src1", "num_srcs",
                 "has_imm", "imm_u", "is_lw", "mem_size", "store_mask",
                 "alu_fn", "branch_fn",
                 "is_branch", "is_cond_branch", "is_indirect", "is_load",
                 "is_store", "is_halt", "writes_reg")

    def __init__(self, op, dest=None, srcs=(), imm=0, pc=None, label=None):
        if not isinstance(op, Op):
            raise TypeError("op must be an Op, got %r" % (op,))
        self.op = op
        self.info = OPCODE_INFO[op]
        self.dest = dest
        self.srcs = tuple(srcs)
        self.imm = imm
        self.pc = pc
        self.label = label
        self._validate()
        info = self.info
        self.kind = info.kind
        self.next_pc = None if pc is None else pc + INST_BYTES
        self.target = None if op is Op.JALR else imm
        srcs = self.srcs
        self.num_srcs = len(srcs)
        self.src0 = srcs[0] if srcs else None
        self.src1 = srcs[1] if len(srcs) > 1 else None
        self.has_imm = info.has_imm
        self.imm_u = to_unsigned(imm) if info.has_imm else 0
        self.is_lw = op is Op.LW
        self.mem_size = info.mem_size
        self.store_mask = (1 << (info.mem_size * 8)) - 1
        self.alu_fn = info.alu_fn
        self.branch_fn = info.branch_fn
        self.is_branch = info.is_control
        self.is_cond_branch = (info.op_class is OpClass.BRANCH
                               and op not in (Op.JAL, Op.JALR))
        self.is_indirect = op is Op.JALR
        self.is_load = info.is_load
        self.is_store = info.is_store
        self.is_halt = op is Op.HALT
        self.writes_reg = info.has_dest and self.dest != 0

    def _validate(self):
        info = self.info
        if len(self.srcs) != info.num_srcs:
            raise ValueError(
                "%s expects %d sources, got %d"
                % (self.op.value, info.num_srcs, len(self.srcs)))
        if info.has_dest and self.dest is None:
            raise ValueError("%s requires a destination" % self.op.value)
        if not info.has_dest and self.dest is not None:
            raise ValueError("%s takes no destination" % self.op.value)

    def __repr__(self):
        parts = [self.op.value]
        if self.dest is not None:
            parts.append(reg_name(self.dest))
        parts.extend(reg_name(s) for s in self.srcs)
        if self.info.has_imm:
            parts.append(str(self.imm))
        loc = "@%#x" % self.pc if self.pc is not None else ""
        return "<%s%s>" % (" ".join(parts), loc)
