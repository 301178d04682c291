"""The shortest-digit kernel against ``repr``, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schubfach_limbs

from subplanck._shortest import _schubfach, repr_bytes


def assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(all="raise"):
        rows = repr_bytes(values)
    got = [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]
    want = [repr(v) for v in values.tolist()]
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert wrong == [], f"{len(wrong)} of {len(want)} differ, e.g. {wrong[:5]}"


def signed(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, -values])


# Raw 64-bit patterns: any double, with extra weight on +-0 and subnormals.
PATTERNS = st.lists(
    st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**52 - 1),
        st.integers(2**63, 2**63 + 2**52 - 1),
    ),
    min_size=1,
    max_size=400,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(PATTERNS)
def test_bit_patterns_match_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert_repr(values[np.isfinite(values)])


def draw_bit_patterns(seed: int, n: int = 100_000) -> np.ndarray:
    """About ``n`` finite non-zero bit patterns of either sign: a quarter
    each of any double, ``t = 0`` at a random exponent, odd ``c`` and
    subnormals (half of them with ``t < 2**20``), then ``t = 0`` at every
    exponent."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64)
    sign, t_mask = np.uint64(1 << 63), np.uint64((1 << 52) - 1)
    kind = np.arange(n) % 4
    bits[kind == 1] &= ~t_mask
    bits[kind == 2] |= 1
    bits[kind == 3] &= sign | t_mask
    bits[(kind == 3) & (np.arange(n) % 8 == 7)] &= sign | np.uint64((1 << 20) - 1)
    every = np.arange(1, 2047, dtype=np.uint64) << 52
    bits = np.concatenate([bits, every, every | sign])
    return bits[np.isfinite(bits.view(np.float64)) & (bits << 1 != 0)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_digits_match_the_limb_product_oracle(seed):
    # The value's products are multiplied out once and the bounds' are
    # derived from them by a carry or a borrow; the oracle multiplies out
    # all three from 32-bit limbs.  The decimal (f, k) must be the same.
    bits = draw_bit_patterns(seed)
    f, k = _schubfach(bits)
    want_f, want_k = schubfach_limbs(bits)
    wrong = np.flatnonzero((f != want_f) | (k != want_k))
    assert wrong.size == 0, f"{wrong.size} of {bits.size} differ, e.g. {bits[wrong[:5]]}"


def test_widest_texts():
    # the widest texts start with a sign: 20 digits after the point, 16
    # before it, or 17 digits and a three-digit exponent
    assert_repr(signed(np.array([1.2345678901234567e-4, 1.0000000000000002e-4, 9999999999999998.0, 1.2345678901234567e-100])))


def test_powers_of_two():
    assert_repr(signed(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_repr(signed(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])))


def test_subnormals():
    # t = 10 is 4.94e-323, which repr writes as 5e-323: one digit, where
    # the JDK's two-digit minimum would give 4.9e-323.
    assert_repr(signed(np.arange(1, 10_001, dtype=np.uint64).view(np.float64)))


def test_integers_and_ties():
    # Below 2**53 every integer is exact and prints in full with ".0";
    # a quarter above 2**49 or 2**50 is exactly halfway between two
    # 16-digit decimals, and repr keeps the even one.
    near = 2.0**53 + np.arange(-2000, 2000)
    quarters = np.concatenate([2.0**49 + np.arange(4096) + 0.25, 2.0**50 + np.arange(4096) + 0.75])
    small = np.arange(0, 100_000, dtype=np.float64)
    assert_repr(signed(np.concatenate([near, quarters, small])))


@pytest.mark.parametrize("edge", [1e16, 1e-4])
def test_both_sides_of_the_positional_range(edge):
    # Positive doubles are ordered like their bit patterns: 2000 each side.
    bits = np.array(edge).view(np.uint64) + np.arange(-2000, 2001).astype(np.uint64)
    assert_repr(signed(bits.view(np.float64)))


def test_short_decimals_and_extremes():
    decimals = [float(f"{i}e{e}") for i in range(1, 1000) for e in (-7, -5, -4, -3, -1, 0, 3, 15, 16, 22)]
    extremes = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3, math.pi, math.e, 9007199254740993.0]
    assert_repr(signed(np.array(decimals + extremes)))


def test_empty_array():
    assert repr_bytes(np.array([])).shape[0] == 0


def test_non_finite_values_are_refused():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            repr_bytes(np.array([1.0, bad]))
