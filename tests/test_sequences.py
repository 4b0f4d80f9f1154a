"""Tests for the invert transform and composition-triangle machinery."""

from __future__ import annotations

import enum
import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_integer_arguments

from restricted_words.sequences import (
    Sequence,
    Triangle,
    binom,
    composition_triangle,
    invert,
    invert_power,
    lift_triangle,
    row_sums,
)


def brute_compositions(f: list[int], n: int, k: int) -> int:
    """c(n,k) by literally enumerating compositions of n into k parts."""
    total = 0
    for parts in itertools.product(range(1, n + 1), repeat=k):
        if sum(parts) == n:
            prod = 1
            for p in parts:
                prod *= f[p - 1]
            total += prod
    return total


def poly_power_coeffs(f: list[int], k: int, size: int) -> list[int]:
    """Coefficients of x^1..x^size in (sum f(i) x^i)^k."""
    acc = [0] * (size + 1)
    acc[0] = 1
    base = [0] + f[:size]
    for _ in range(k):
        nxt = [0] * (size + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(base):
                if i + j <= size and b != 0:
                    nxt[i + j] += a * b
        acc = nxt
    return acc[1:]


small_ints = st.integers(min_value=-4, max_value=4)
seqs = st.lists(small_ints, min_size=1, max_size=9)


class TestBinom:
    def test_matches_pascal(self):
        for n in range(8):
            for k in range(-2, n + 3):
                if 0 <= k <= n:
                    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k) or n == 0
                else:
                    assert binom(n, k) == 0

    def test_edge_values(self):
        assert binom(0, 0) == 1
        assert binom(5, -1) == 0
        assert binom(3, 7) == 0


class _Colour(enum.IntEnum):
    RED = 3


# (value given, int stored) for Integral values that are not plain ints
INTEGRAL_VALUES = [
    (True, 1),
    (False, 0),
    (np.int64(7), 7),
    (np.int64(-(2**63)), -(2**63)),
    (np.uint8(255), 255),
    (_Colour.RED, 3),
]
INTEGRAL_IDS = ["true", "false", "int64", "int64-min", "uint8", "intenum"]

# values that are not Integral, integral-valued ones included
NON_INTEGRAL_VALUES = [
    2.5,
    2.0,
    Fraction(5, 2),
    Fraction(4, 2),
    Decimal("2.5"),
    Decimal("2"),
    "2",
    None,
]
NON_INTEGRAL_IDS = [
    "float", "float-integral", "fraction", "fraction-integral",
    "decimal", "decimal-integral", "str", "none",
]


def _stored_exactly(values, expected):
    assert list(values) == expected
    assert all(type(v) is int for v in values)


class TestSequence:
    def test_one_indexed_access(self):
        s = Sequence([10, 20, 30])
        assert s.at(1) == 10
        assert s.at(3) == 30

    def test_out_of_range(self):
        s = Sequence([1, 2])
        with pytest.raises(IndexError):
            s.at(0)
        with pytest.raises(IndexError):
            s.at(3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequence([])

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            Sequence([1, 2.5])

    def test_plain_ints_are_stored_unchanged(self):
        big = 7**200
        s = Sequence([big, -1, 0])
        assert s.values[0] is big
        _stored_exactly(s.values, [big, -1, 0])

    @pytest.mark.parametrize(("value", "stored"), INTEGRAL_VALUES, ids=INTEGRAL_IDS)
    def test_other_integrals_are_stored_as_int(self, value, stored):
        _stored_exactly(Sequence([1, value]).values, [1, stored])

    @pytest.mark.parametrize("value", NON_INTEGRAL_VALUES, ids=NON_INTEGRAL_IDS)
    def test_non_integral_raises_type_error(self, value):
        message = f"sequence values must be integers, got {value!r}"
        with pytest.raises(TypeError) as raised:
            Sequence([1, value])
        assert str(raised.value) == message

    def test_equality_and_iter(self):
        assert Sequence([1, 2]) == Sequence([1, 2])
        assert list(Sequence([3, 1])) == [3, 1]


class TestTriangle:
    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            Triangle([[1], [2, 3, 4]])

    @pytest.mark.parametrize(("value", "stored"), INTEGRAL_VALUES, ids=INTEGRAL_IDS)
    def test_other_integrals_are_stored_as_int(self, value, stored):
        rows = Triangle([[value], [2, value]]).rows
        _stored_exactly(rows[0], [stored])
        _stored_exactly(rows[1], [2, stored])

    @pytest.mark.parametrize("value", NON_INTEGRAL_VALUES, ids=NON_INTEGRAL_IDS)
    def test_non_integral_raises_type_error(self, value):
        message = f"sequence values must be integers, got {value!r}"
        with pytest.raises(TypeError) as raised:
            Triangle([[1], [2, value]])
        assert str(raised.value) == message

    def test_at_bounds(self):
        t = Triangle([[1], [2, 3]])
        assert t.at(2, 1) == 2
        with pytest.raises(IndexError):
            t.at(2, 3)
        with pytest.raises(IndexError):
            t.at(3, 1)


class TestInvert:
    def test_shifted_padovan_gives_tribonacci_style(self):
        # 1,0,1,1,1,2,2,3 inverts to 1,1,2,4,7,13,24,44
        assert invert([1, 0, 1, 1, 1, 2, 2, 3]) == Sequence(
            [1, 1, 2, 4, 7, 13, 24, 44]
        )

    def test_unit_shift_gives_fibonacci(self):
        assert invert([0, 1, 1, 1, 1, 1, 1]) == Sequence([0, 1, 1, 2, 3, 5, 8])

    def test_single_term(self):
        assert invert([7]) == Sequence([7])

    @given(seqs)
    def test_power_one_equals_invert(self, f):
        assert invert_power(f, 1) == invert(f)

    @given(seqs, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_power_is_iterated_invert(self, f, m):
        expect = Sequence(f)
        for _ in range(m):
            expect = invert(expect)
        assert invert_power(f, m) == expect


class TestInvertPower:
    def test_aerated_ones_level_1_and_2(self):
        f = [1, 0, 1, 0, 1, 0]
        assert invert_power(f, 1) == Sequence([1, 1, 2, 3, 5, 8])
        assert invert_power(f, 2) == Sequence([1, 2, 5, 12, 29, 70])

    def test_zero_is_identity(self):
        assert invert_power([3, 1, 4], 0) == Sequence([3, 1, 4])

    @given(seqs, st.integers(min_value=-6, max_value=6))
    @settings(max_examples=60)
    def test_negative_m_undoes_transform(self, f, m):
        # B = A/(1 - mA) gives back A = B/(1 + mB)
        assert invert_power(invert_power(f, m), -m) == Sequence(f)


class TestCompositionTriangle:
    def test_small_weighted_example(self):
        # f = 1,3,7: c(3,2) = f(1)f(2) + f(2)f(1) = 6
        t = composition_triangle([1, 3, 7])
        assert t.at(3, 2) == 6
        assert t.at(3, 1) == 7
        assert t.at(3, 3) == 1

    def test_first_column_is_f(self):
        t = composition_triangle([2, -1, 5, 0])
        assert [t.at(n, 1) for n in range(1, 5)] == [2, -1, 5, 0]

    @given(seqs)
    @settings(max_examples=40)
    def test_against_brute_enumeration(self, f):
        t = composition_triangle(f)
        n = len(f)
        for k in range(1, min(n, 4) + 1):
            assert t.at(n, k) == brute_compositions(f, n, k)

    @given(seqs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40)
    def test_columns_are_polynomial_powers(self, f, k):
        t = composition_triangle(f)
        coeffs = poly_power_coeffs(f, k, len(f))
        for n in range(1, len(f) + 1):
            expect = coeffs[n - 1] if k <= n else 0
            got = t.at(n, k) if k <= n else 0
            assert got == expect

    @given(seqs)
    def test_row_sums_equal_invert(self, f):
        assert row_sums(composition_triangle(f)) == invert(f)


class TestLiftTriangle:
    def test_level_one_is_identity(self):
        t = composition_triangle([1, 2, 3, 4])
        assert lift_triangle(t, 1) is t

    def test_lift_at_zero_gives_f_back(self):
        # m = 0 is accepted: the lift is the triangle of the inverse
        # transform of f, and its row sums are f itself.
        f = [1, 2, 3, 4, 5]
        c0 = lift_triangle(composition_triangle(f), 0)
        assert list(invert_power(f, -1)) == [1, 1, 0, -1, -1]
        assert c0 == composition_triangle([1, 1, 0, -1, -1])
        assert list(row_sums(c0)) == f

    def test_aerated_ones_level_2_cell(self):
        # words counted by 1,0,1,0,...: c_2(4,2) = 5
        c1 = composition_triangle([1, 0, 1, 0, 1])
        c2 = lift_triangle(c1, 2)
        assert c2.at(4, 2) == 5
        assert c2.at(5, 2) == 10

    @given(seqs, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=60)
    def test_lift_matches_triangle_of_transform(self, f, m):
        # c_m computed by lifting equals the triangle built directly from
        # the (m-1)-th transform of f, whose row sums give the m-th; at
        # every integer m, m <= 0 included.
        c1 = composition_triangle(f)
        lifted = lift_triangle(c1, m)
        direct = composition_triangle(invert_power(f, m - 1))
        assert lifted == direct

    @given(seqs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40)
    def test_lift_row_sums_give_mth_transform(self, f, m):
        c1 = composition_triangle(f)
        assert row_sums(lift_triangle(c1, m)) == invert_power(f, m)


@pytest.mark.parametrize(
    "func, args",
    [
        (invert_power, ([1] * 20, 70)),
        (lift_triangle, (composition_triangle([1] * 20), 70)),
    ],
    ids=["invert_power", "lift_triangle"],
)
def test_integer_m(func, args):
    # a numpy m would wrap past 2**63 at these sizes; floats are refused
    assert_integer_arguments(func, args, "m")
