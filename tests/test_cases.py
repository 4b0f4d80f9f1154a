"""Tests for the five families: base counts, recurrences, closed forms."""

from __future__ import annotations

import pytest
from conftest import GRID_POINTS, GRID_SPECS, levels_for, point_id, spec_id

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

    def test_too_short_for_seeds(self):
        with pytest.raises(ValueError):
            fm_sequence(CaseSpec(1, a=2), 1, 1)
        with pytest.raises(ValueError):
            fm_sequence(CaseSpec(5), 1, 2)

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

    # off-grid family-3 points reach discriminants a^2-4b = 4 and 9 and
    # wider a-b gaps than the default grid
    @pytest.mark.parametrize(
        "spec",
        GRID_SPECS
        + [CaseSpec(3, a=a, b=b) for a, b in ((4, 3), (5, 3), (5, 4), (6, 1), (10, 9))],
        ids=spec_id,
    )
    def test_equals_convolution_triangle(self, spec):
        t = composition_triangle(f0_prefix(spec, 14))
        for n in range(1, 15):
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

    def test_repunit_rejects_bad_b(self):
        with pytest.raises(ValueError):
            c1_case3_repunit(0, 3, 1)


class TestC2ExplicitCase2:
    def test_frozen_values(self):
        assert c2_explicit_case2(1, 4, 2) == 5
        assert c2_explicit_case2(1, 3, 1) == 2
        assert c2_explicit_case2(1, 3, 3) == 1

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_equals_lifted_triangle(self, a):
        spec = CaseSpec(2, a=a)
        t = lift_triangle(composition_triangle(f0_prefix(spec, 14)), 2)
        for n in range(1, 15):
            for k in range(1, n + 1):
                assert c2_explicit_case2(a, n, k) == t.at(n, k), (a, n, k)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            c2_explicit_case2(0, 3, 1)
        with pytest.raises(ValueError):
            c2_explicit_case2(1, 3, 4)


class TestCmExplicitCase1:
    def test_adjudication_cell(self):
        # the corrected leading term gives the lift value; the variant
        # with the m-power leading term overshoots by 1 here
        assert cm_explicit_case1(1, 2, 2, 1) == 2
        assert cm_explicit_case1_alt(1, 2, 2, 1) == 3

    def test_diagonal(self):
        assert cm_explicit_case1(2, 2, 3, 3) == 1

    def test_level_one_collapses_to_c1(self):
        spec = CaseSpec(1, a=3)
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert cm_explicit_case1(3, 1, n, k) == c1_explicit(spec, n, k)

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
        if spec.case_id == 1 and m == 0:
            return
        seq = fm_sequence(spec, m, 12)
        for n in range(1, 13):
            assert fm_explicit(spec, m, n) == seq.at(n), (spec, m, n)

    def test_family1_level_zero_rejected(self):
        with pytest.raises(ValueError):
            fm_explicit(CaseSpec(1, a=2), 0, 4)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            fm_explicit(CaseSpec(4), 1, 0)


class TestTriangleFormulaRouting:
    def test_availability_map(self):
        assert triangle_formula_available(CaseSpec(1, a=2), 3)
        assert triangle_formula_available(CaseSpec(2, a=2), 2)
        assert not triangle_formula_available(CaseSpec(2, a=2), 3)
        assert triangle_formula_available(CaseSpec(5), 1)
        assert not triangle_formula_available(CaseSpec(5), 2)
        assert not triangle_formula_available(CaseSpec(3, a=3, b=2), 0)

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_value_matches_lift_where_available(self, point):
        spec, m = point
        if not triangle_formula_available(spec, m):
            with pytest.raises(ValueError):
                triangle_formula_value(spec, m, 3, 1)
            return
        t = lift_triangle(composition_triangle(f0_prefix(spec, 10)), m)
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert triangle_formula_value(spec, m, n, k) == t.at(n, k)
