"""Superblock trace-JIT: one compiled Python function per basic block.

This module discovers every straight-line region of a program (single
entry, ending at a branch/halt — the same block boundaries the BBV
profiler derives dynamically) and *generates Python source* for the
whole region from the program's own
:class:`~repro.isa.instruction.Instruction` records (their precomputed
operand, immediate and memory fields), compiled once per static block,
so the emulator's fast path is one dict lookup + one call per
**block**.

The generated code is register-allocated and bit-identical to the
interpretive :meth:`~repro.emu.emulator.Emulator._execute`:

* every register the block reads is a local, loaded once at entry, and
  ``x0`` is the literal 0; written registers go back to ``regs`` once
  per exit. Identity operations (``rs + 0``, ``x0 + imm``) compile to
  plain copies and constants;
* constants (converted immediates, fall-through pcs, masks) are inlined
  as literals; the ALU/branch functions of the rare ops without an
  inline template, the block's pc tuple and ``sext32`` are bound as
  default arguments, the fastest name lookup CPython offers;
* common ALU/branch ops are emitted as inline expressions
  (``(a + b) & MASK64`` instead of a ``wrap64`` call); signed compares
  use the sign-flip trick (``(a ^ 2**63) < (b ^ 2**63)`` orders
  unsigned representations exactly like ``to_signed`` compares);
* a naturally aligned 8-byte load or store indexes the memory's word
  dict (``SparseMemory.words``) directly. A misaligned one calls
  ``SparseMemory.read``/``write``, which raise the interpreter's
  ``ValueError``; sub-word accesses always call them;
* the observer fields (``last_mem_addr``, ``last_mem_size``,
  ``last_branch_taken``) are written once per exit, with what the
  block's last access and closing branch left: per-instruction
  execution leaves the same values after the block;
* blocks containing memory operations carry an exactness guard: the
  path that may raise stores the raising instruction's index in ``n``,
  and a re-raising ``except`` handler writes the registers back,
  restores the observer fields of the last access that completed and
  publishes the raising instruction's pc and the count of instructions
  fully executed, so ``Emulator.run_until`` commits an *exact* state
  even when a block raises mid-block. Blocks without memory operations
  cannot raise synchronously and skip the guard entirely. (An
  asynchronous exception — e.g. KeyboardInterrupt — resolves to a
  conservative count.)

Every emulator pass dispatches through these blocks, and BBV profiling
counts them inside the dispatch loop (``Emulator.run_until(...,
bbv=...)``). The interpreter covers only the residue: block exits that
land off the leader set (e.g. an indirect jump into the middle of a
block), unknown PCs and a remaining instruction budget that cannot fit
a whole block; ``REPRO_SLOWPATH=1`` interprets every instruction.

Each block also has a *traced* variant, compiled lazily the first time
a run asks for a warmup trace: it appends the checkpoint warmup records
(``(pc, taken, target, flags)`` per control instruction, ``(addr,
is_write)`` per memory access) inline, in program order, so checkpoint
capture and ``Emulator.run_trace`` stay on block dispatch too.
"""

from repro.isa.opcodes import (KIND_BRANCH, KIND_DIV, KIND_HALT, KIND_LOAD,
                               KIND_NOP, KIND_STORE, Op)
from repro.utils.bits import MASK64, SIGN_BIT, sext32

#: Static cap on instructions per generated block; a capped block chains
#: into a synthetic leader at its fall-through pc, so long straight-line
#: regions become a sequence of blocks rather than one giant function.
MAX_BLOCK_INSTS = 64

_MASK = "0x%X" % MASK64
#: wrap64 and ``& ~1`` fused into one literal mask (jalr targets).
_MASK_EVEN = "0x%X" % (MASK64 & ~1)

#: Warmup branch-record flags (bitmask in the 4th tuple slot).
FLAG_COND = 1
FLAG_INDIRECT = 2
FLAG_CALL = 4
FLAG_RET = 8

#: Register holding return addresses (``ra``) — call/return detection.
_RA = 1


def trace_flags(inst):
    """Warmup-record flags of one control
    :class:`~repro.isa.instruction.Instruction`."""
    flags = 0
    if inst.is_cond_branch:
        flags |= FLAG_COND
    if inst.is_indirect:
        flags |= FLAG_INDIRECT
    if inst.writes_reg and inst.dest == _RA:
        flags |= FLAG_CALL
    if inst.is_indirect and inst.src0 == _RA and inst.dest != _RA:
        flags |= FLAG_RET
    return flags


class Superblock:
    """One compiled straight-line region.

    ``fn(emu, regs) -> next_pc`` executes every instruction of the
    block (``length`` of them) and returns the successor pc;
    ``ends_branch`` is True when the last of them is a control
    instruction (so the successor starts a new basic block).
    :meth:`traced_fn` is the warmup-tracing variant, compiled on first
    use.
    """

    __slots__ = ("pc", "length", "ends_branch", "fn", "records", "traced")

    def __init__(self, records, fn):
        self.pc = records[0].pc
        self.length = len(records)
        self.ends_branch = records[-1].kind == KIND_BRANCH
        self.fn = fn
        self.records = records
        self.traced = None

    @property
    def pcs(self):
        """The member instruction addresses."""
        return tuple(rec.pc for rec in self.records)

    @property
    def source(self):
        """The generated Python (debugging / tests; regenerated, so the
        tables do not hold every block's text)."""
        return _codegen(self.records)[1]

    def traced_fn(self):
        """``fn(emu, regs, branch_append, mem_append) -> next_pc``: the
        block with its warmup records appended inline."""
        if self.traced is None:
            self.traced = _codegen(self.records, traced=True)[0]
        return self.traced

    def __repr__(self):
        return "<Superblock %#x x%d>" % (self.pc, self.length)


class SuperblockTable:
    """Every block of one program, keyed by leader pc."""

    __slots__ = ("blocks", "by_pc")

    def __init__(self, blocks):
        self.blocks = blocks
        self.by_pc = {block.pc: block for block in blocks}


# ---------------------------------------------------------------------------
# Inline expression templates. Each returns a Python expression string
# computing the op on unsigned 64-bit operands, bit-identical to the
# _ALU_FN / _BRANCH_FN lambdas (the property test in
# tests/test_superblock.py covers every opcode against the interpretive
# oracle). ``b_const`` is the pre-converted immediate for immediate
# forms (None for register forms).
# ---------------------------------------------------------------------------
def _signed(expr, const=None):
    if const is not None:
        return "%d" % (const ^ SIGN_BIT)
    return "(%s ^ %d)" % (expr, SIGN_BIT)


def _shamt(expr, const=None):
    if const is not None:
        return "%d" % (const & 63)
    return "(%s & 63)" % expr


def _alu_expr(op, a, b, b_const=None):
    """Inline expression for ``op`` or None (bound-function fallback)."""
    if op in (Op.ADD, Op.ADDI):
        return "(%s + %s) & %s" % (a, b, _MASK)
    if op is Op.SUB:
        return "(%s - %s) & %s" % (a, b, _MASK)
    if op in (Op.AND, Op.ANDI):
        return "%s & %s" % (a, b)
    if op in (Op.OR, Op.ORI):
        return "%s | %s" % (a, b)
    if op in (Op.XOR, Op.XORI):
        return "%s ^ %s" % (a, b)
    if op is Op.MUL:
        return "(%s * %s) & %s" % (a, b, _MASK)
    if op in (Op.SLT, Op.SLTI):
        return "1 if %s < %s else 0" % (_signed(a), _signed(b, b_const))
    if op in (Op.SLTU, Op.SLTIU):
        return "1 if %s < %s else 0" % (a, b)
    if op in (Op.SLL, Op.SLLI):
        return "(%s << %s) & %s" % (a, _shamt(b, b_const), _MASK)
    if op in (Op.SRL, Op.SRLI):
        # Register values are already masked to 64 bits.
        return "%s >> %s" % (a, _shamt(b, b_const))
    if op in (Op.SRA, Op.SRAI):
        # Two's-complement reinterpretation: Python's >> on a negative
        # int is arithmetic, so convert, shift, mask back.
        return "((%s - ((%s & %d) << 1)) >> %s) & %s" \
            % (a, a, SIGN_BIT, _shamt(b, b_const), _MASK)
    return None


def _branch_expr(op, a, b):
    """Inline taken-condition for ``op`` or None."""
    if op is Op.BEQ:
        return "%s == %s" % (a, b)
    if op is Op.BNE:
        return "%s != %s" % (a, b)
    if op is Op.BLT:
        return "%s < %s" % (_signed(a), _signed(b))
    if op is Op.BGE:
        return "%s >= %s" % (_signed(a), _signed(b))
    if op is Op.BLTU:
        return "%s < %s" % (a, b)
    if op is Op.BGEU:
        return "%s >= %s" % (a, b)
    return None


# ---------------------------------------------------------------------------
# Code generation. Registers live in locals (``r<n>``; ``x0`` is the
# literal 0), so an operand costs a local load instead of a list index.
# ---------------------------------------------------------------------------
#: ``a op 0 == a`` (shift amounts included) and ``0 op b == b``: such an
#: instruction compiles to a plain copy.
_RIGHT_IDENTITY = frozenset((Op.ADD, Op.ADDI, Op.SUB, Op.OR, Op.ORI,
                             Op.XOR, Op.XORI, Op.SLL, Op.SLLI, Op.SRL,
                             Op.SRLI, Op.SRA, Op.SRAI))
_LEFT_IDENTITY = frozenset((Op.ADD, Op.OR, Op.XOR))


def _reg(num):
    return "0" if num == 0 else "r%d" % num


def _offset(base, imm):
    """``(base + imm) & MASK64`` (register values are already masked)."""
    if imm == 0 and base != "0":
        return base
    return "(%s + %d) & %s" % (base, imm, _MASK)


def _alu(rec, index, binds):
    """Right-hand side of one register-writing ALU/MUL/DIV record."""
    if rec.has_imm and not rec.num_srcs:      # lui
        return "%d" % rec.imm_u
    a = _reg(rec.src0)
    if rec.has_imm:
        b, b_const = "%d" % rec.imm_u, rec.imm_u
    else:
        b = _reg(rec.src1)
        b_const = 0 if rec.src1 == 0 else None
    op = rec.op
    if a == "0" and b_const is not None:
        # Both operands known: fold with the semantic function itself.
        return "%d" % rec.alu_fn(0, b_const)
    if b_const == 0 and op in _RIGHT_IDENTITY:
        return a
    if a == "0" and op in _LEFT_IDENTITY:
        return b
    expr = _alu_expr(op, a, b, b_const)
    if expr is None:
        name = "_f%d" % index
        binds[name] = rec.alu_fn
        expr = "%s(%s, %s)" % (name, a, b)
    return expr


def _codegen(records, traced=False):
    """``(function, source)`` of one block (see :class:`Superblock`).

    Every register the block reads is loaded into its local once, at
    entry. So is every register first written at or after the first
    memory access: a fault may come before that write, and the fault
    handler writes back every written register. Written registers go
    back to ``regs`` once, at the exit or in the handler.
    Naturally aligned 8-byte accesses index ``SparseMemory.words``
    directly; a misaligned one calls ``SparseMemory.read``/``write``,
    which raises, and sub-word accesses always call them. The observer
    fields are written once per exit: the last access's address and
    size, and the closing branch's outcome.
    """
    loads, written = [], []
    first_mem = None
    for index, rec in enumerate(records):
        if rec.kind in (KIND_LOAD, KIND_STORE):
            if first_mem is None:
                first_mem = index
        elif rec.kind in (KIND_NOP, KIND_HALT) \
                or (rec.kind <= KIND_DIV and not rec.writes_reg):
            continue
        for num in (rec.src0, rec.src1)[:rec.num_srcs]:
            if num and num not in written and num not in loads:
                loads.append(num)
        if rec.writes_reg and rec.dest not in written:
            if rec.dest not in loads and first_mem is not None:
                # A fault at or after first_mem may precede this write.
                loads.append(rec.dest)
            written.append(rec.dest)

    binds = {}
    body = []
    mem_ops = []              # (index, address local, size), in order
    unguarded = 0             # body lines before the first access
    entry = ["r%d = regs[%d]" % (num, num) for num in sorted(loads)]
    if any(rec.kind in (KIND_LOAD, KIND_STORE) and rec.mem_size == 8
           for rec in records):
        entry.append("_w = emu.memory.words")
    if any(rec.kind == KIND_LOAD and rec.mem_size != 8 for rec in records):
        entry.append("_rd = emu.memory.read")
    if any(rec.kind == KIND_STORE and rec.mem_size != 8 for rec in records):
        entry.append("_wr = emu.memory.write")

    for index, rec in enumerate(records[:-1] if records[-1].kind in (
            KIND_BRANCH, KIND_HALT) else records):
        kind = rec.kind
        if kind == KIND_LOAD or kind == KIND_STORE:
            if not mem_ops:
                unguarded = len(body)
            addr = "_a%d" % index
            size = rec.mem_size
            mem_ops.append((index, addr, size))
            is_load = kind == KIND_LOAD
            body.append("%s = %s" % (addr, _offset(
                _reg(rec.src0 if is_load else rec.src1), rec.imm)))
            if size == 8:
                # The fallback call raises the misalignment error.
                body.append("if %s & 7:" % addr)
                body.append("    n = %d" % index)
                if is_load:
                    body.append("    emu.memory.read(%s, 8)" % addr)
                    if rec.writes_reg:
                        body.append("r%d = _w.get(%s, 0)"
                                    % (rec.dest, addr))
                else:
                    body.append("    emu.memory.write(%s, %s, 8)"
                                % (addr, _reg(rec.src0)))
                    body.append("_w[%s] = %s" % (addr, _reg(rec.src0)))
            else:
                body.append("n = %d" % index)
                if not is_load:
                    body.append("_wr(%s, %s, %d)"
                                % (addr, _reg(rec.src0), size))
                elif not rec.writes_reg:
                    # The access still happens: alignment checks fire.
                    body.append("_rd(%s, %d)" % (addr, size))
                elif rec.is_lw:
                    binds["_sx"] = sext32
                    body.append("r%d = _sx(_rd(%s, 4))" % (rec.dest, addr))
                else:
                    body.append("r%d = _rd(%s, %d)"
                                % (rec.dest, addr, size))
            if traced:
                body.append("_ma((%s, %d))" % (addr, 0 if is_load else 1))
        elif kind <= KIND_DIV and rec.writes_reg:
            # ALU / MUL / DIV are pure: an x0 destination emits nothing.
            body.append("r%d = %s" % (rec.dest, _alu(rec, index, binds)))

    # The exit: the closing control instruction's own effects, then the
    # write-back and the observer fields, then the successor pc.
    last = records[-1]
    taken = None
    if last.kind == KIND_BRANCH:
        if last.is_cond_branch:
            cond = _branch_expr(last.op, _reg(last.src0), _reg(last.src1))
            if cond is None:      # pragma: no cover - all ops templated
                binds["_fb"] = last.branch_fn
                cond = "_fb(%s, %s)" % (_reg(last.src0), _reg(last.src1))
            body.append("_tk = %s" % cond)
            taken = "_tk"
        else:
            if last.op is not Op.JAL:
                # The target is read before the link write, so
                # ``jalr ra, ra`` stays correct.
                body.append("_tg = (%s + %d) & %s"
                            % (_reg(last.src0), last.imm, _MASK_EVEN))
            if last.writes_reg:
                body.append("r%d = %d" % (last.dest, last.next_pc))
            taken = "True"
    elif last.kind == KIND_HALT:
        body.append("emu.halted = True")
    body += ["regs[%d] = r%d" % (num, num) for num in sorted(written)]
    if mem_ops:
        _index, addr, size = mem_ops[-1]
        body.append("emu.last_mem_addr = %s" % addr)
        body.append("emu.last_mem_size = %d" % size)
    if taken is not None:
        body.append("emu.last_branch_taken = %s" % taken)

    if last.kind != KIND_BRANCH:
        # Halt, or a capped (program-end) block: chain to the fall-through.
        body.append("return %d" % last.next_pc)
    elif not last.is_cond_branch:
        target = "%d" % last.imm if last.op is Op.JAL else "_tg"
        if traced:
            body.append("_ba((%d, 1, %s, %d))"
                        % (last.pc, target, trace_flags(last)))
        body.append("return %s" % target)
    elif traced:
        flags = trace_flags(last)
        body.append("if _tk:")
        body.append("    _ba((%d, 1, %d, %d))" % (last.pc, last.imm, flags))
        body.append("    return %d" % last.imm)
        body.append("_ba((%d, 0, %d, %d))"
                    % (last.pc, last.next_pc, flags))
        body.append("return %d" % last.next_pc)
    else:
        body.append("return %d if _tk else %d" % (last.imm, last.next_pc))

    if mem_ops:
        # Only a memory access raises (a misaligned address). ``n`` is
        # the raising instruction's index: everything before it retired,
        # so publish its pc and that count, write the registers back and
        # restore the observer fields of the last access that completed.
        binds["_pcs"] = tuple(rec.pc for rec in records)
        handler = ["regs[%d] = r%d" % (num, num) for num in sorted(written)]
        keyword = "if"
        for (index, _addr, _size), (_prev, addr, size) in zip(mem_ops[1:],
                                                            mem_ops):
            handler.append("%s n == %d:" % (keyword, index))
            handler.append("    emu.last_mem_addr = %s" % addr)
            handler.append("    emu.last_mem_size = %d" % size)
            keyword = "elif"
        handler += ["emu.pc = _pcs[n]", "emu._sb_progress = n", "raise"]
        lines = entry + body[:unguarded] + ["n = 0", "try:"]
        lines += ["    " + line for line in body[unguarded:]]
        lines.append("except BaseException:")
        lines += ["    " + line for line in handler]
    else:
        lines = entry + body

    args = ["emu", "regs"] + (["_ba", "_ma"] if traced else []) \
        + ["%s=%s" % (name, name) for name in sorted(binds)]
    source = "def _block(%s):\n%s\n" % (
        ", ".join(args), "\n".join("    " + line for line in lines))
    namespace = dict(binds)
    exec(compile(source, "<superblock %#x>" % records[0].pc, "exec"),
         namespace)
    return namespace["_block"], source


def compile_block(records):
    """Compile one straight-line run of :class:`~repro.isa.instruction.
    Instruction` records into a :class:`Superblock`."""
    return Superblock(tuple(records), _codegen(records)[0])


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------
def discover_leaders(program):
    """Static block leaders: the program entry, every direct branch
    target and every post-branch fall-through (which covers both
    not-taken paths and jal return sites). Only pcs addressing real
    instructions qualify."""
    by_pc = program.predecode()
    leaders = set()
    candidates = [program.entry]
    for rec in program.instructions:
        if rec.kind == KIND_BRANCH:
            candidates.append(rec.next_pc)
            if rec.target is not None:
                candidates.append(rec.target)
    for pc in candidates:
        if pc in by_pc:
            leaders.add(pc)
    return leaders


def build_superblocks(program, max_insts=MAX_BLOCK_INSTS):
    """Discover and compile every superblock of ``program``.

    Blocks may overlap (an interior leader — e.g. a loop back-edge
    target inside a longer straight-line run — gets its own block
    starting there); straight-line code has no entry conditions, so
    overlap is semantically free and keeps blocks long. Blocks longer
    than ``max_insts`` are capped and chain into a synthetic leader at
    the cap boundary.
    """
    by_pc = program.predecode()
    worklist = sorted(discover_leaders(program))
    blocks = {}
    while worklist:
        pc = worklist.pop()
        if pc in blocks or pc not in by_pc:
            continue
        records = []
        cur = pc
        while True:
            rec = by_pc.get(cur)
            if rec is None:
                break
            records.append(rec)
            if rec.kind in (KIND_BRANCH, KIND_HALT):
                break
            if len(records) >= max_insts:
                worklist.append(rec.next_pc)
                break
            cur = rec.next_pc
        blocks[pc] = compile_block(records)
    return SuperblockTable([blocks[pc] for pc in sorted(blocks)])
