"""Tests for the five families: base counts, recurrences, closed forms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    GRID_POINTS,
    GRID_SPECS,
    assert_integer_arguments,
    levels_for,
    point_id,
    spec_id,
)

from restricted_words import cases
from restricted_words.cases import (
    CaseSpec,
    c1_case3_repunit,
    c1_explicit,
    c2_explicit_case2,
    cm_explicit_case1,
    cm_explicit_case1_alt,
    f0_prefix,
    f0_value,
    fm_explicit,
    fm_sequence,
    triangle_formula_available,
    triangle_formula_value,
)
from restricted_words.sequences import (
    binom,
    composition_triangle,
    invert_power,
    lift_triangle,
)


# each public function of cases with integer arguments, and the names of
# its trailing arguments that must be integers; at n = 70 a numpy int64
# that is not taken as an exact int overflows in the powers
INTEGER_ARGUMENT_CALLS = [
    (f0_value, (CaseSpec(1, a=3), 70), "n"),
    (f0_prefix, (CaseSpec(4), 6), "N"),
    (fm_sequence, (CaseSpec(5), 2, 8), "m N"),
    (c1_explicit, (CaseSpec(3, a=3, b=1), 6, 2), "n k"),
    (c1_case3_repunit, (2, 6, 2), "b n k"),
    (c2_explicit_case2, (2, 7, 3), "a n k"),
    (cm_explicit_case1, (2, 3, 70, 1), "a m n k"),
    (cm_explicit_case1_alt, (2, 3, 70, 1), "a m n k"),
    (fm_explicit, (CaseSpec(2, a=1), 2, 70), "m n"),
    (triangle_formula_available, (CaseSpec(2, a=1), 2), "m"),
    (triangle_formula_value, (CaseSpec(2, a=2), 2, 7, 3), "m n k"),
]


@pytest.mark.parametrize(
    "func, args, names",
    INTEGER_ARGUMENT_CALLS,
    ids=[func.__name__ for func, _, _ in INTEGER_ARGUMENT_CALLS],
)
def test_integer_arguments(func, args, names):
    # floats are refused as CaseSpec refuses them, naming the argument;
    # numpy ints are taken as exact ints
    assert_integer_arguments(func, args, names)


class TestCaseSpec:
    def test_valid_specs(self):
        CaseSpec(1, a=1)
        CaseSpec(2, a=7)
        CaseSpec(3, a=4, b=2)
        CaseSpec(4)
        CaseSpec(5)

    @pytest.mark.parametrize(
        "args",
        [
            dict(case_id=0),
            dict(case_id=6),
            dict(case_id=1),
            dict(case_id=1, a=0),
            dict(case_id=2, a=2, b=1),
            dict(case_id=3, a=2),
            dict(case_id=3, a=2, b=2),
            dict(case_id=3, a=1, b=2),
            dict(case_id=4, a=2),
            dict(case_id=5, b=1),
        ],
    )
    def test_invalid_specs(self, args):
        with pytest.raises(ValueError):
            CaseSpec(**args)

    @pytest.mark.parametrize(
        "args, name",
        [
            (dict(case_id=2, a=2.5), "a"),
            (dict(case_id=1, a=2.0), "a"),
            (dict(case_id=1.0, a=2), "case_id"),
            (dict(case_id=1, a="2"), "a"),
            (dict(case_id=1, a=Fraction(2)), "a"),
            (dict(case_id=3, a=3, b=1.0), "b"),
        ],
    )
    def test_non_integer_parameters_refused(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            CaseSpec(**args)

    def test_integral_parameters_stored_as_int(self):
        spec = CaseSpec(np.int64(3), a=np.int32(3), b=np.uint8(1))
        assert spec == CaseSpec(3, a=3, b=1)
        assert all(type(value) is int for value in spec)
        assert repr(spec) == "CaseSpec(case_id=3, a=3, b=1)"

    def test_replace_checks_its_fields(self):
        spec = CaseSpec(1, a=2)
        assert spec._replace(a=np.int64(4)) == CaseSpec(1, a=4)
        assert type(spec._replace(a=np.int64(4)).a) is int
        for bad in (0, 2.0):
            with pytest.raises(ValueError):
                spec._replace(a=bad)

    def test_alphabet_sizes(self):
        assert CaseSpec(1, a=3).alphabet_size(2) == 5
        assert CaseSpec(4).alphabet_size(0) == 2
        assert CaseSpec(5).alphabet_size(3) == 5
        with pytest.raises(ValueError):
            CaseSpec(4).alphabet_size(-1)


class TestF0:
    def test_frozen_values(self):
        assert f0_value(CaseSpec(1, a=3), 4) == 12
        assert f0_value(CaseSpec(3, a=3, b=2), 4) == 15
        assert f0_value(CaseSpec(2, a=2), 4) == 0
        assert f0_value(CaseSpec(4), 7) == 5
        assert f0_value(CaseSpec(5), 8) == 3

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            f0_value(CaseSpec(4), 0)
        with pytest.raises(ValueError):
            f0_prefix(CaseSpec(4), 0)

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_prefix_matches_values(self, spec):
        pref = f0_prefix(spec, 12)
        assert list(pref) == [f0_value(spec, n) for n in range(1, 13)]

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_prefix_is_level_zero_recurrence(self, spec):
        assert f0_prefix(spec, 12) == fm_sequence(spec, 0, 12)

    def test_case3_near_diagonal_closed_forms(self):
        # a = b+1 gives (b^n - 1)/(b - 1); for b = 1 that degenerates to n
        assert list(f0_prefix(CaseSpec(3, a=2, b=1), 8)) == list(range(1, 9))
        assert [f0_value(CaseSpec(3, a=3, b=2), n) for n in range(1, 9)] == [
            2**n - 1 for n in range(1, 9)
        ]

    def test_single_letter_family1_dies_out(self):
        assert list(f0_prefix(CaseSpec(1, a=1), 5)) == [1, 1, 0, 0, 0]

    def test_prefix_shorter_than_seeds(self):
        # family 5 has three seeds; shorter prefixes truncate them
        assert list(f0_prefix(CaseSpec(5), 1)) == [1]
        assert list(f0_prefix(CaseSpec(5), 2)) == [1, 0]
        assert f0_value(CaseSpec(5), 1) == 1
        assert f0_value(CaseSpec(5), 2) == 0


class TestFmSequence:
    def test_frozen_values(self):
        assert list(fm_sequence(CaseSpec(1, a=2), 1, 5)) == [1, 3, 7, 17, 41]
        assert list(fm_sequence(CaseSpec(4), 2, 5)) == [1, 2, 5, 13, 34]
        assert list(fm_sequence(CaseSpec(5), 1, 6)) == [1, 1, 2, 4, 7, 13]
        assert list(fm_sequence(CaseSpec(2, a=2), 1, 5)) == [1, 1, 3, 5, 11]

    # one row per family pins every entry of the recurrence table
    @pytest.mark.parametrize(
        "spec,row",
        [
            (CaseSpec(1, a=2), [1, 5, 23, 107, 497, 2309, 10727, 49835]),
            (CaseSpec(2, a=2), [1, 3, 11, 39, 139, 495, 1763, 6279]),
            (CaseSpec(3, a=3, b=1), [1, 6, 35, 204, 1189, 6930, 40391, 235416]),
            (CaseSpec(4), [1, 3, 10, 34, 116, 396, 1352, 4616]),
            (CaseSpec(5), [1, 3, 10, 34, 115, 389, 1316, 4452]),
        ],
        ids=["case1", "case2", "case3", "case4", "case5"],
    )
    def test_frozen_rows_at_level_three(self, spec, row):
        assert list(fm_sequence(spec, 3, 8)) == row

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_prefix_below_seed_count(self, spec):
        # fewer terms than seeds are the first terms of a longer call
        for m in levels_for(spec):
            longer = list(fm_sequence(spec, m, 8))
            for N in range(1, spec.seed_count + 1):
                assert list(fm_sequence(spec, m, N)) == longer[:N]
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            fm_sequence(spec, 1, 0)

    def test_negative_m(self):
        with pytest.raises(ValueError):
            fm_sequence(CaseSpec(4), -1, 5)

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_recurrence_equals_invert_transform(self, point):
        spec, m = point
        assert fm_sequence(spec, m, 20) == invert_power(f0_prefix(spec, 20), m)


class TestC1Explicit:
    def test_frozen_values(self):
        assert c1_explicit(CaseSpec(2, a=1), 6, 2) == 3
        assert c1_explicit(CaseSpec(2, a=3), 7, 2) == 0
        assert c1_explicit(CaseSpec(3, a=3, b=2), 3, 2) == 6
        assert c1_explicit(CaseSpec(4), 5, 2) == 2
        assert c1_explicit(CaseSpec(5), 5, 2) == 2
        assert c1_explicit(CaseSpec(1, a=2), 3, 1) == 2

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            c1_explicit(CaseSpec(4), 3, 4)
        with pytest.raises(ValueError):
            c1_explicit(CaseSpec(4), 3, 0)

    # off-grid points: family 1 up to a = 8 and every family-3 pair
    # 1 <= b < a <= 8 (plus a = 10, b = 9), which reach discriminants
    # a^2-4b = 4 and 9 and wider a-b gaps than the default grid
    @pytest.mark.parametrize(
        "spec",
        GRID_SPECS
        + [
            spec
            for spec in [CaseSpec(1, a=a) for a in range(1, 9)]
            + [CaseSpec(3, a=a, b=b) for a in range(2, 9) for b in range(1, a)]
            + [CaseSpec(3, a=10, b=9)]
            if spec not in GRID_SPECS
        ],
        ids=spec_id,
    )
    def test_equals_convolution_triangle(self, spec):
        t = composition_triangle(f0_prefix(spec, 40))
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert c1_explicit(spec, n, k) == t.at(n, k), (spec, n, k)

    def test_diagonal_is_one(self):
        for spec in GRID_SPECS:
            assert c1_explicit(spec, 9, 9) == 1

    def test_repunit_specialization_agrees(self):
        for b in (1, 2):
            spec = CaseSpec(3, a=b + 1, b=b)
            for n in range(1, 13):
                for k in range(1, n + 1):
                    assert c1_case3_repunit(b, n, k) == c1_explicit(spec, n, k)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_repunit_equals_convolution_triangle(self, b):
        t = composition_triangle(f0_prefix(CaseSpec(3, a=b + 1, b=b), 40))
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert c1_case3_repunit(b, n, k) == t.at(n, k), (b, n, k)

    def test_repunit_rejects_bad_b(self):
        with pytest.raises(ValueError):
            c1_case3_repunit(0, 3, 1)


class TestC2ExplicitCase2:
    def test_frozen_values(self):
        assert c2_explicit_case2(1, 4, 2) == 5
        assert c2_explicit_case2(1, 3, 1) == 2
        assert c2_explicit_case2(1, 3, 3) == 1

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_equals_lifted_triangle(self, a):
        spec = CaseSpec(2, a=a)
        t = lift_triangle(composition_triangle(f0_prefix(spec, 60)), 2)
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert c2_explicit_case2(a, n, k) == t.at(n, k), (a, n, k)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            c2_explicit_case2(0, 3, 1)
        with pytest.raises(ValueError):
            c2_explicit_case2(1, 3, 4)


class TestRowCallOrder:
    # each closed form caches whole rows and shares subterms between them;
    # a high row asked for first must leave every later cell as it would
    # be from a cold start in ascending order
    FORMS = {
        "c1-case1": lambda n, k: c1_explicit(CaseSpec(1, a=3), n, k),
        "c1-case2": lambda n, k: c1_explicit(CaseSpec(2, a=2), n, k),
        "c1-case3": lambda n, k: c1_explicit(CaseSpec(3, a=5, b=2), n, k),
        "c1-case4": lambda n, k: c1_explicit(CaseSpec(4), n, k),
        "c1-case5": lambda n, k: c1_explicit(CaseSpec(5), n, k),
        "c2-case2": lambda n, k: c2_explicit_case2(3, n, k),
        "repunit": lambda n, k: c1_case3_repunit(3, n, k),
    }

    @staticmethod
    def clear_caches():
        for cached in (
            cases._binomials,
            cases._inner_j_sums,
            cases._c1_row,
            cases._c2_row,
            cases._repunit_row,
        ):
            cached.cache_clear()

    @pytest.mark.parametrize("name", FORMS)
    def test_high_row_first_gives_the_same_cells(self, name):
        form = self.FORMS[name]

        def ascending():
            return [[form(n, k) for k in range(1, n + 1)] for n in range(1, 31)]

        self.clear_caches()
        cold = ascending()
        self.clear_caches()
        form(30, 11)
        assert ascending() == cold


class TestCmExplicitCase1:
    def test_adjudication_cell(self):
        # the corrected leading term gives the lift value; the variant
        # with the m-power leading term overshoots by 1 here
        assert cm_explicit_case1(1, 2, 2, 1) == 2
        assert cm_explicit_case1_alt(1, 2, 2, 1) == 3

    def test_diagonal(self):
        assert cm_explicit_case1(2, 2, 3, 3) == 1

    def test_level_one_collapses_to_c1(self):
        # at m = 1 the lift is the identity; both closed forms must also
        # match the convolution triangle of f_0, which reads no closed form
        spec = CaseSpec(1, a=3)
        t = composition_triangle(f0_prefix(spec, 60))
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert cm_explicit_case1(3, 1, n, k) == c1_explicit(spec, n, k)
                assert cm_explicit_case1(3, 1, n, k) == t.at(n, k), (n, k)

    def test_variant_overshoots_even_at_level_one(self):
        # leading term 1^(n-k) instead of 0^(n-k): every off-diagonal
        # cell gains the spurious C(n-1,k-1)
        spec = CaseSpec(1, a=3)
        for n in range(1, 10):
            for k in range(1, n + 1):
                extra = 0 if n == k else binom(n - 1, k - 1)
                expect = c1_explicit(spec, n, k) + extra
                assert cm_explicit_case1_alt(3, 1, n, k) == expect

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_lifted_triangle(self, a, m):
        t = lift_triangle(composition_triangle(f0_prefix(CaseSpec(1, a=a), 12)), m)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert cm_explicit_case1(a, m, n, k) == t.at(n, k), (a, m, n, k)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            cm_explicit_case1(2, 0, 3, 1)
        with pytest.raises(ValueError):
            cm_explicit_case1_alt(2, 0, 3, 1)


class TestFmExplicit:
    def test_frozen_values(self):
        assert fm_explicit(CaseSpec(2, a=1), 1, 6) == 8
        assert fm_explicit(CaseSpec(2, a=2), 1, 5) == 11
        assert fm_explicit(CaseSpec(1, a=2), 1, 3) == 7

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_equals_recurrence(self, point):
        spec, m = point
        seq = fm_sequence(spec, m, 12)
        for n in range(1, 13):
            assert fm_explicit(spec, m, n) == seq.at(n), (spec, m, n)

    def test_family1_level_zero_is_f0(self):
        # the sum collapses to c_1(n,1) = f_0(n), here 3 * 2**68 > 2**63
        spec = CaseSpec(1, a=3)
        assert fm_explicit(spec, 0, 70) == f0_value(spec, 70) == 3 * 2**68
        assert fm_explicit(spec, np.int64(0), 70) == 3 * 2**68

    def test_bad_n(self):
        with pytest.raises(ValueError):
            fm_explicit(CaseSpec(4), 1, 0)


class TestTriangleFormulaRouting:
    def test_availability_map(self):
        # every family at every level m >= 1, and no family below
        for spec in GRID_SPECS:
            for m in range(-1, 6):
                assert triangle_formula_available(spec, m) == (m >= 1), (spec, m)

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_value_matches_lift_where_available(self, point):
        spec, m = point
        if m < 1:
            with pytest.raises(ValueError, match="^m must be >= 1$"):
                triangle_formula_value(spec, m, 3, 1)
            return
        t = lift_triangle(composition_triangle(f0_prefix(spec, 10)), m)
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert triangle_formula_value(spec, m, n, k) == t.at(n, k)
