"""Sparse memory vs a bytearray reference model (hypothesis)."""

import pytest
from hypothesis import given, strategies as st

from repro.emu import SparseMemory


def test_uninitialised_reads_zero():
    mem = SparseMemory()
    assert mem.read(0x1000, 8) == 0
    assert mem.read(12345 * 8, 8) == 0


def test_sized_writes_and_reads():
    mem = SparseMemory()
    mem.write(0x100, 0x1122334455667788, 8)
    assert mem.read(0x100, 8) == 0x1122334455667788
    assert mem.read(0x100, 4) == 0x55667788
    assert mem.read(0x104, 4) == 0x11223344
    assert mem.read(0x100, 1) == 0x88
    assert mem.read(0x107, 1) == 0x11
    mem.write(0x103, 0xFF, 1)
    assert mem.read(0x100, 4) == 0xFF667788


def test_misaligned_access_raises():
    mem = SparseMemory()
    with pytest.raises(ValueError):
        mem.read(0x101, 8)
    with pytest.raises(ValueError):
        mem.write(0x102, 0, 4)
    with pytest.raises(ValueError):
        mem.read(0x100, 3)


def test_image_and_equality():
    mem = SparseMemory({0x10: 7, 0x18: 0})
    other = SparseMemory({0x10: 7})
    assert mem == other          # zero words don't matter
    other.write(0x20, 1, 8)
    assert mem != other


def test_copy_is_independent():
    mem = SparseMemory({0: 5})
    clone = mem.copy()
    clone.write(0, 6, 8)
    assert mem.read(0, 8) == 5


_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),     # byte offset
        st.sampled_from([1, 4, 8]),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    ),
    max_size=60,
)


@given(_ops)
def test_against_bytearray_reference(ops):
    mem = SparseMemory()
    ref = bytearray(256 + 8)
    for offset, size, value in ops:
        addr = offset - offset % size  # align naturally
        mem.write(0x1000 + addr, value, size)
        ref[addr:addr + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little")
    for check in range(0, 256, 8):
        expected = int.from_bytes(ref[check:check + 8], "little")
        assert mem.read(0x1000 + check, 8) == expected


def test_read_word_array():
    mem = SparseMemory()
    for i in range(4):
        mem.write(0x40 + 8 * i, i + 1, 8)
    assert mem.read_word_array(0x40, 4) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Access patterns a last-word cache would get wrong (the memory keeps
# none: ``words`` is its only copy): sequential sub-word reads,
# read-modify-write, ping-pong between words, and copies.
# ---------------------------------------------------------------------------
def test_cache_sequential_subword_reads():
    mem = SparseMemory()
    mem.write(0x1000, 0x1122334455667788, 8)
    # Each slice of the same word must be correct.
    assert mem.read(0x1000, 8) == 0x1122334455667788
    assert mem.read(0x1000, 4) == 0x55667788
    assert mem.read(0x1004, 4) == 0x11223344
    for i, byte in enumerate([0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22,
                              0x11]):
        assert mem.read(0x1000 + i, 1) == byte


def test_cache_cross_page_alternation():
    """Ping-ponging between far-apart words (different pages) never
    cross-serves values."""
    mem = SparseMemory()
    a, b = 0x1000, 0x1000 + 64 * 1024  # 64 KiB apart
    mem.write(a, 0xAAAA, 8)
    mem.write(b, 0xBBBB, 8)
    for _ in range(3):
        assert mem.read(a, 8) == 0xAAAA
        assert mem.read(b, 8) == 0xBBBB
        assert mem.read(a + 8, 8) == 0      # untouched word
        assert mem.read(b, 4) == 0xBBBB


def test_cache_coherent_after_partial_writes():
    """Sub-word writes read-modify-write the word; a read of the same
    word right after must see the merged value."""
    mem = SparseMemory()
    mem.write(0x2000, 0xFFFFFFFFFFFFFFFF, 8)
    mem.write(0x2000, 0, 1)                  # clear lowest byte
    assert mem.read(0x2000, 8) == 0xFFFFFFFFFFFFFF00
    mem.write(0x2004, 0x12345678, 4)         # clear upper half
    assert mem.read(0x2000, 8) == 0x12345678FFFFFF00
    assert mem.read(0x2004, 4) == 0x12345678


def test_cache_does_not_leak_across_copies():
    mem = SparseMemory()
    mem.write(0x3000, 111, 8)
    assert mem.read(0x3000, 8) == 111
    clone = mem.copy()
    clone.write(0x3000, 222, 8)
    assert mem.read(0x3000, 8) == 111
    assert clone.read(0x3000, 8) == 222
    mem.write(0x3000, 333, 8)
    assert clone.read(0x3000, 8) == 222


def test_checkpoint_mem_delta_round_trip():
    """nonzero_words -> image constructor round-trips (the
    checkpoint/restore path in the harness)."""
    mem = SparseMemory()
    for i in range(8):
        mem.write(0x4000 + 8 * i, (i * 0x1111) & 0xFFFF, 8)
    mem.write(0x4000, 0, 8)                  # zeroed word drops out
    assert mem.read(0x4000 + 8, 8) == 0x1111
    delta = mem.nonzero_words()
    assert 0x4000 not in delta
    restored = SparseMemory(dict(delta))
    assert restored == mem
    assert restored.read(0x4000 + 8, 8) == 0x1111
    # Diverge after restore: equality must break both ways.
    restored.write(0x4000, 5, 8)
    assert restored != mem
