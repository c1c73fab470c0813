"""Load/store queue: forwarding, patching, violation search."""

from hypothesis import given, settings, strategies as st

from repro.isa import Op, Instruction
from repro.emu import SparseMemory
from repro.pipeline.dyninst import DynInst
from repro.pipeline.lsq import LoadStoreQueue


def _store(seq, addr, data, size=8, issued=True, issue_cycle=0):
    inst = Instruction(Op.SD if size == 8 else Op.SB, srcs=(1, 2),
                       imm=0, pc=0x100 + 4 * seq)
    dyn = DynInst(seq, inst.pc, inst, 0, 0)
    dyn.mem_addr = addr
    dyn.mem_size = size
    dyn.store_data = data
    dyn.issued = issued
    dyn.issue_cycle = issue_cycle
    return dyn


def _load(seq, addr, size=8, issued=True, issue_cycle=0):
    inst = Instruction(Op.LD, dest=3, srcs=(1,), imm=0, pc=0x100 + 4 * seq)
    dyn = DynInst(seq, inst.pc, inst, 0, 0)
    dyn.mem_addr = addr
    dyn.mem_size = size
    dyn.issued = issued
    dyn.issue_cycle = issue_cycle
    return dyn


def _lsq(initial=None):
    return LoadStoreQueue(SparseMemory(initial or {}))


def test_read_from_committed_memory():
    lsq = _lsq({0x100: 0xAA})
    value, forwarded = lsq.speculative_read(0x100, 8, seq=5)
    assert value == 0xAA and not forwarded


def test_forward_from_older_store():
    lsq = _lsq({0x100: 0xAA})
    store = _store(1, 0x100, 0xBB)
    lsq.allocate(store)
    value, forwarded = lsq.speculative_read(0x100, 8, seq=2)
    assert value == 0xBB and forwarded


def test_younger_store_not_forwarded():
    lsq = _lsq({0x100: 0xAA})
    lsq.allocate(_store(9, 0x100, 0xBB))
    value, _fw = lsq.speculative_read(0x100, 8, seq=2)
    assert value == 0xAA


def test_unissued_store_skipped():
    lsq = _lsq({0x100: 0xAA})
    lsq.allocate(_store(1, 0x100, 0xBB, issued=False))
    value, _fw = lsq.speculative_read(0x100, 8, seq=2)
    assert value == 0xAA   # the speculation violations later catch


def test_partial_byte_patching():
    lsq = _lsq({0x100: 0x1111111111111111})
    lsq.allocate(_store(1, 0x103, 0xFF, size=1))
    value, forwarded = lsq.speculative_read(0x100, 8, seq=2)
    assert forwarded
    assert value == 0x11111111FF111111


def test_multiple_stores_apply_in_age_order():
    lsq = _lsq()
    lsq.allocate(_store(1, 0x100, 0x01))
    lsq.allocate(_store(2, 0x100, 0x02))
    value, _fw = lsq.speculative_read(0x100, 8, seq=3)
    assert value == 0x02


def test_violation_search_finds_early_loads():
    lsq = _lsq()
    load = _load(5, 0x100, issue_cycle=3)
    lsq.allocate(load)
    store = _store(2, 0x100, 0xEE, issue_cycle=9)
    lsq.allocate(store)
    assert lsq.find_violations(store) == [load]


def test_no_violation_if_load_issued_after_store():
    lsq = _lsq()
    load = _load(5, 0x100, issue_cycle=10)
    lsq.allocate(load)
    store = _store(2, 0x100, 0xEE, issue_cycle=9)
    lsq.allocate(store)
    assert lsq.find_violations(store) == []


def test_no_violation_for_disjoint_addresses():
    lsq = _lsq()
    load = _load(5, 0x200, issue_cycle=0)
    lsq.allocate(load)
    store = _store(2, 0x100, 0xEE, issue_cycle=5)
    lsq.allocate(store)
    assert lsq.find_violations(store) == []


def test_commit_store_writes_memory():
    lsq = _lsq()
    store = _store(1, 0x100, 0x42)
    lsq.allocate(store)
    lsq.commit_store(store)
    assert lsq.memory.read(0x100, 8) == 0x42
    assert not lsq.stores


# ---------------------------------------------------------------------------
# Differential check of store-to-load forwarding against a byte loop
# ---------------------------------------------------------------------------
def _patch_bytes(word, word_base, store):
    lo = max(store.mem_addr, word_base)
    hi = min(store.mem_addr + store.mem_size, word_base + 8)
    for byte_addr in range(lo, hi):
        byte = (store.store_data >> ((byte_addr - store.mem_addr) * 8)) \
            & 0xFF
        shift = (byte_addr - word_base) * 8
        word = (word & ~(0xFF << shift)) | (byte << shift)
    return word


def _byte_loop_read(lsq, addr, size, seq):
    """Reference forwarding: both words around the load, patched a byte
    at a time by every older, issued, unsquashed overlapping store in
    seq order (the LSQ's original implementation)."""
    base = addr & ~7
    word0 = lsq.memory.read_word(base)
    word1 = lsq.memory.read_word(base + 8)
    older = sorted(
        (s for s in lsq.stores.values()
         if s.seq < seq and s.issued and s.mem_addr is not None
         and not s.squashed and s.mem_addr < addr + size
         and addr < s.mem_addr + s.mem_size),
        key=lambda s: s.seq)
    for store in older:
        word0 = _patch_bytes(word0, base, store)
        word1 = _patch_bytes(word1, base + 8, store)
    combined = word0 | (word1 << 64)
    value = (combined >> ((addr - base) * 8)) & ((1 << (size * 8)) - 1)
    return value, bool(older)


#: Region bases: an ordinary data page, and the last bytes below 2**64
#: where a wrong-path load's second word lies past the address space.
_REGIONS = (0x1000, (1 << 64) - 32)

_store_specs = st.lists(
    st.tuples(st.integers(0, 31),                    # offset in region
              st.sampled_from((1, 4, 8)),            # size
              st.integers(0, (1 << 64) - 1),         # data
              st.sampled_from(("issued", "unissued", "squashed",
                               "no-addr"))),
    max_size=10)


@settings(max_examples=300, deadline=None)
@given(region=st.sampled_from(_REGIONS), stores=_store_specs,
       words=st.lists(st.integers(0, (1 << 64) - 1), min_size=4,
                      max_size=4),
       load_offset=st.integers(0, 31), load_size=st.sampled_from((1, 4, 8)),
       load_seq=st.integers(0, 12))
def test_speculative_read_matches_byte_loop(region, stores, words,
                                            load_offset, load_size,
                                            load_seq):
    """Random store sets — 1/4/8-byte stores at any byte offset (so
    partial overlaps and misaligned stores), unissued, squashed,
    address-less and younger stores — against loads that may be
    misaligned, straddle two words or sit right below 2**64."""
    lsq = _lsq({region + 8 * i: word for i, word in enumerate(words)})
    for seq, (offset, size, data, state) in enumerate(stores):
        addr = region + offset
        if addr + size > 1 << 64:
            continue
        store = _store(seq, addr, data & ((1 << (size * 8)) - 1),
                       size=size, issued=state != "unissued")
        store.squashed = state == "squashed"
        if state == "no-addr":
            store.mem_addr = None
        lsq.allocate(store)
    addr = region + load_offset
    assert lsq.speculative_read(addr, load_size, load_seq) == \
        _byte_loop_read(lsq, addr, load_size, load_seq)
