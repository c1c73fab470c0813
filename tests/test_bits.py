"""64-bit arithmetic helpers: unit values + hypothesis vs Python ints."""

from hypothesis import given, strategies as st

from repro.utils.bits import (
    MASK64, wrap64, to_signed, to_unsigned, sext32, sll64, srl64, sra64,
    div_trunc, rem_trunc, mulh64,
)

u64 = st.integers(min_value=0, max_value=MASK64)
s64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def test_wrap64_basics():
    assert wrap64(0) == 0
    assert wrap64(1 << 64) == 0
    assert wrap64(-1) == MASK64
    assert wrap64(MASK64 + 2) == 1


def test_signed_round_trip_extremes():
    assert to_signed(MASK64) == -1
    assert to_signed(1 << 63) == -(1 << 63)
    assert to_unsigned(-1) == MASK64
    assert to_unsigned(-(1 << 63)) == 1 << 63


@given(s64)
def test_signed_unsigned_round_trip(value):
    assert to_signed(to_unsigned(value)) == value


def _sext32_reference(value):
    return (((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000) & MASK64


def test_sext32_edges():
    """``lw``'s sign extension: bits above 31 are ignored, bit 31 is
    copied into bits 32-63."""
    cases = {
        0: 0,
        0x7FFFFFFF: 0x7FFFFFFF,
        0x80000000: 0xFFFFFFFF80000000,
        0xFFFFFFFF: MASK64,
        0x1234_5678_0000_0001: 1,
        0xFFFF_FFFF_7FFF_FFFF: 0x7FFFFFFF,
        0x0000_0001_8000_0000: 0xFFFFFFFF80000000,
    }
    for value, expected in cases.items():
        assert sext32(value) == expected == _sext32_reference(value)


@given(u64)
def test_sext32_matches_reference(value):
    assert sext32(value) == _sext32_reference(value)


@given(u64, st.integers(min_value=0, max_value=127))
def test_shifts_match_reference(value, shamt):
    eff = shamt & 63
    assert sll64(value, shamt) == (value << eff) & MASK64
    assert srl64(value, shamt) == value >> eff
    assert sra64(value, shamt) == to_unsigned(to_signed(value) >> eff)


def test_division_by_zero_riscv_semantics():
    assert div_trunc(42, 0) == MASK64          # -1
    assert rem_trunc(42, 0) == 42
    assert rem_trunc(to_unsigned(-7), 0) == to_unsigned(-7)


def test_division_overflow_case():
    int_min = to_unsigned(-(1 << 63))
    assert div_trunc(int_min, to_unsigned(-1)) == int_min
    assert rem_trunc(int_min, to_unsigned(-1)) == 0


@given(s64, s64)
def test_division_truncates_toward_zero(a, b):
    if b == 0 or (a == -(1 << 63) and b == -1):
        return
    got = to_signed(div_trunc(to_unsigned(a), to_unsigned(b)))
    expected = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        expected = -expected
    assert got == expected


@given(s64, s64)
def test_remainder_identity(a, b):
    if b == 0 or (a == -(1 << 63) and b == -1):
        return
    q = to_signed(div_trunc(to_unsigned(a), to_unsigned(b)))
    r = to_signed(rem_trunc(to_unsigned(a), to_unsigned(b)))
    assert q * b + r == a
    assert abs(r) < abs(b)


@given(s64, s64)
def test_mulh_matches_wide_multiply(a, b):
    got = to_signed(mulh64(to_unsigned(a), to_unsigned(b)))
    assert got == (a * b) >> 64
