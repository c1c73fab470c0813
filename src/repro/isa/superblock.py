"""Superblock trace-JIT: one compiled Python function per basic block.

The predecode layer (:mod:`repro.isa.predecode`) collapsed decode into
one dict lookup + one closure call *per instruction*. This module takes
the next rung: it discovers every straight-line region of a program
(single entry, ending at a branch/halt — the same block boundaries the
BBV profiler derives dynamically) and *generates Python source* for the
whole region, compiled once per static block, so the emulator's fast
path becomes one dict lookup + one call per **block**.

Code generation mirrors the per-instruction semantic closures exactly:

* constants (register numbers, converted immediates, fall-through pcs,
  masks) are inlined as literals; non-literal constants (ALU/branch
  functions for the rare ops without an inline template, the block's pc
  tuple, ``sext32``) are bound as default arguments — the same
  "fastest CPython name lookup" trick predecode uses;
* common ALU/branch ops are emitted as inline expressions
  (``(a + b) & MASK64`` instead of a ``wrap64`` call); signed compares
  use the sign-flip trick (``(a ^ 2**63) < (b ^ 2**63)`` orders
  unsigned representations exactly like ``to_signed`` compares);
* every observer field (``last_branch_taken``, ``last_mem_addr``,
  ``last_mem_size``) is updated in program order, so a block-mode run
  is unobservable next to the closure path;
* blocks containing memory operations carry an exactness guard: a
  progress marker is stored before every potentially-raising access
  (misaligned loads/stores raise ``ValueError``), and a re-raising
  ``except`` handler publishes the raising instruction's pc and the
  count of instructions fully executed, so ``Emulator.run_until``
  commits an *exact* ``inst_count`` even when a block body raises
  mid-block. Blocks without memory operations cannot raise
  synchronously and skip the guard entirely. (Asynchronous exceptions
  — e.g. KeyboardInterrupt — resolve to the last marker, a
  conservative count; the per-instruction paths have the analogous
  ambiguity inside a closure.)

Every emulator pass dispatches through these blocks; observers see
them through one block-granular protocol (``Emulator.run_until(...,
on_block=...)``), and per-instruction stepping covers only the residue:
block exits that land off the leader set (e.g. an indirect jump into
the middle of a block), unknown PCs, a remaining instruction budget
that cannot fit a whole block, and ``REPRO_SLOWPATH``.

Each block also has a *traced* variant, compiled lazily the first time
a run asks for a warmup trace: it appends the checkpoint warmup records
(``(pc, taken, target, flags)`` per control instruction, ``(addr,
is_write)`` per memory access) inline, in program order, so checkpoint
capture and ``Emulator.run_trace`` stay on block dispatch too.
"""

from repro.isa.opcodes import Op
from repro.isa.predecode import (KIND_BRANCH, KIND_HALT, KIND_LOAD,
                                 KIND_NOP, KIND_STORE)
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
    if inst.is_indirect and inst.srcs and inst.srcs[0] == _RA \
            and inst.dest != _RA:
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
# tests/test_superblock.py covers every opcode against per-inst
# stepping). ``b_const`` is the pre-converted immediate for immediate
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
# Per-instruction statement emission. ``guarded`` marks blocks holding
# memory operations: those set the progress marker ``n`` before each
# access so the except handler can publish an exact instruction count.
# ``traced`` appends the warmup records through ``_ba`` (branches) and
# ``_ma`` (memory accesses).
# ---------------------------------------------------------------------------
def _emit(rec, index, lines, binds, guarded, traced):
    kind = rec.kind
    if kind == KIND_NOP:
        return

    if kind == KIND_BRANCH:
        if rec.is_cond_branch:
            cond = _branch_expr(rec.op, "regs[%d]" % rec.src0,
                                "regs[%d]" % rec.src1)
            if cond is None:      # pragma: no cover - all ops templated
                name = "_f%d" % index
                binds[name] = rec.branch_fn
                cond = "%s(regs[%d], regs[%d])" % (name, rec.src0,
                                                   rec.src1)
            lines.append("_tk = %s" % cond)
            lines.append("emu.last_branch_taken = _tk")
            if traced:
                flags = trace_flags(rec.inst)
                lines.append("if _tk:")
                lines.append("    _ba((%d, 1, %d, %d))"
                             % (rec.pc, rec.imm, flags))
                lines.append("    return %d" % rec.imm)
                lines.append("_ba((%d, 0, %d, %d))"
                             % (rec.pc, rec.next_pc, flags))
                lines.append("return %d" % rec.next_pc)
                return
            lines.append("return %d if _tk else %d" % (rec.imm,
                                                       rec.next_pc))
            return
        if rec.op is Op.JAL:
            if rec.writes_reg:
                lines.append("regs[%d] = %d" % (rec.dest, rec.next_pc))
            lines.append("emu.last_branch_taken = True")
            if traced:
                lines.append("_ba((%d, 1, %d, %d))"
                             % (rec.pc, rec.imm, trace_flags(rec.inst)))
            lines.append("return %d" % rec.imm)
            return
        # jalr: target computed before the link write (so
        # ``jalr ra, ra`` stays correct), exactly like the closure.
        lines.append("_tg = (regs[%d] + %d) & %s"
                     % (rec.src0, rec.imm, _MASK_EVEN))
        if rec.writes_reg:
            lines.append("regs[%d] = %d" % (rec.dest, rec.next_pc))
        lines.append("emu.last_branch_taken = True")
        if traced:
            lines.append("_ba((%d, 1, _tg, %d))"
                         % (rec.pc, trace_flags(rec.inst)))
        lines.append("return _tg")
        return

    if kind == KIND_LOAD:
        if guarded:
            lines.append("n = %d" % index)
        lines.append("_a = (regs[%d] + %d) & %s"
                     % (rec.src0, rec.imm, _MASK))
        # The access always happens (alignment checks fire even for an
        # x0 destination); only the writeback is gated.
        if rec.writes_reg:
            if rec.is_lw:
                binds["_sx"] = sext32
                lines.append("regs[%d] = _sx(_rd(_a, 4))" % rec.dest)
            else:
                lines.append("regs[%d] = _rd(_a, %d)"
                             % (rec.dest, rec.mem_size))
        else:
            lines.append("_rd(_a, %d)" % rec.mem_size)
        lines.append("emu.last_mem_addr = _a")
        lines.append("emu.last_mem_size = %d" % rec.mem_size)
        if traced:
            lines.append("_ma((_a, 0))")
        return

    if kind == KIND_STORE:
        if guarded:
            lines.append("n = %d" % index)
        lines.append("_a = (regs[%d] + %d) & %s"
                     % (rec.src1, rec.imm, _MASK))
        lines.append("_wr(_a, regs[%d], %d)" % (rec.src0, rec.mem_size))
        lines.append("emu.last_mem_addr = _a")
        lines.append("emu.last_mem_size = %d" % rec.mem_size)
        if traced:
            lines.append("_ma((_a, 1))")
        return

    if kind == KIND_HALT:
        lines.append("emu.halted = True")
        lines.append("return %d" % rec.next_pc)
        return

    # ALU / MUL / DIV: pure, so an x0 destination emits nothing.
    if not rec.writes_reg:
        return
    if rec.has_imm:
        if not rec.num_srcs:      # lui materialises its immediate
            lines.append("regs[%d] = %d" % (rec.dest, rec.imm_u))
            return
        a = "regs[%d]" % rec.src0
        expr = _alu_expr(rec.op, a, "%d" % rec.imm_u, b_const=rec.imm_u)
        if expr is None:
            name = "_f%d" % index
            binds[name] = rec.alu_fn
            expr = "%s(%s, %d)" % (name, a, rec.imm_u)
    else:
        a = "regs[%d]" % rec.src0
        b = "regs[%d]" % rec.src1
        expr = _alu_expr(rec.op, a, b)
        if expr is None:
            name = "_f%d" % index
            binds[name] = rec.alu_fn
            expr = "%s(%s, %s)" % (name, a, b)
    lines.append("regs[%d] = %s" % (rec.dest, expr))


def compile_block(records):
    """Compile one straight-line run of :class:`~repro.isa.predecode.
    PDInst` records into a :class:`Superblock`."""
    return Superblock(tuple(records), _codegen(records)[0])


def _codegen(records, traced=False):
    """``(function, source)`` of one block (see :class:`Superblock`)."""
    has_load = any(rec.kind == KIND_LOAD for rec in records)
    has_store = any(rec.kind == KIND_STORE for rec in records)
    guarded = has_load or has_store

    binds = {}
    body = []
    for index, rec in enumerate(records):
        _emit(rec, index, body, binds, guarded, traced)
    last = records[-1]
    if last.kind not in (KIND_BRANCH, KIND_HALT):
        # Capped (or program-end) block: chain into the fall-through.
        body.append("return %d" % last.next_pc)

    prologue = []
    if has_load:
        prologue.append("_rd = emu.memory.read")
    if has_store:
        prologue.append("_wr = emu.memory.write")

    if guarded:
        binds["_pcs"] = tuple(rec.pc for rec in records)
        lines = ["    n = 0"]
        lines += ["    " + line for line in prologue]
        lines.append("    try:")
        lines += ["        " + line for line in body]
        lines.append("    except BaseException:")
        lines.append("        emu.pc = _pcs[n]")
        lines.append("        emu._sb_progress = n")
        lines.append("        raise")
    else:
        lines = ["    " + line for line in prologue + body]

    args = ["emu", "regs"] + (["_ba", "_ma"] if traced else []) \
        + ["%s=%s" % (name, name) for name in sorted(binds)]
    source = "def _block(%s):\n%s\n" % (", ".join(args),
                                        "\n".join(lines))
    namespace = dict(binds)
    exec(compile(source, "<superblock %#x>" % records[0].pc, "exec"),
         namespace)
    return namespace["_block"], source


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------
def discover_leaders(program):
    """Static block leaders: the program entry, every direct branch
    target and every post-branch fall-through (which covers both
    not-taken paths and jal return sites). Only pcs addressing real
    instructions qualify."""
    pd = program.predecode()
    by_pc = pd.by_pc
    leaders = set()
    candidates = [program.entry]
    for rec in pd.records:
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
    by_pc = program.predecode().by_pc
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
