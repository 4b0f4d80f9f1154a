"""Tests for the five families: base counts, recurrences, closed forms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    c1_case3_repunit_table,
    cm_explicit_case1_alt_table,
    f0_prefix,
    fm_explicit,
    fm_sequence,
    triangle_formula_available,
    triangle_formula_table,
)
from restricted_words.sequences import (
    binom,
    composition_triangle,
    invert_power,
    lift_triangle,
)


def family2_c2(a, N):
    # family 2's own closed-form c_2, taking a as an argument
    return triangle_formula_table(CaseSpec(2, a=a), 2, N)


def family1_cm(a, m, N):
    # family 1's lifted c_m, taking a as an argument
    return triangle_formula_table(CaseSpec(1, a=a), m, N)


# each public function of cases with integer arguments, and the names of
# its trailing arguments that must be integers, at a small size; the
# ``_table`` ids of the c_1, c_2 and family-1 c_m closed forms name
# triangle_formula_table at that triangle
INTEGER_ARGUMENT_CALLS = {
    "alphabet_size": (CaseSpec(1, a=3).alphabet_size, (2,), "m"),
    "f0_prefix": (f0_prefix, (CaseSpec(4), 6), "N"),
    "fm_sequence": (fm_sequence, (CaseSpec(5), 2, 8), "m N"),
    "fm_explicit": (fm_explicit, (CaseSpec(2, a=1), 2, 70), "m n"),
    "triangle_formula_available": (
        triangle_formula_available, (CaseSpec(2, a=1), 2), "m"
    ),
    "c1_explicit_table": (
        triangle_formula_table, (CaseSpec(3, a=3, b=1), 1, 6), "m N"
    ),
    "c1_case3_repunit_table": (c1_case3_repunit_table, (2, 6), "b N"),
    "c2_explicit_case2_table": (family2_c2, (2, 7), "a N"),
    "cm_explicit_case1_table": (family1_cm, (2, 3, 8), "a m N"),
    "cm_explicit_case1_alt_table": (cm_explicit_case1_alt_table, (2, 3, 8), "a m N"),
    "triangle_formula_table": (triangle_formula_table, (CaseSpec(2, a=2), 2, 7), "m N"),
}

# each closed form again at row 70, where a numpy int64 that is not taken
# as an exact int overflows in the powers; the id names the closed form
CLOSED_FORMS_AT_ROW_70 = {
    "f0_value": (f0_prefix, (CaseSpec(1, a=3), 70), "N"),
    "c1_explicit": (triangle_formula_table, (CaseSpec(3, a=3, b=1), 1, 70), "m N"),
    "c1_case3_repunit": (c1_case3_repunit_table, (2, 70), "b N"),
    "c2_explicit_case2": (family2_c2, (2, 70), "a N"),
    "cm_explicit_case1": (family1_cm, (2, 3, 70), "a m N"),
    "cm_explicit_case1_alt": (cm_explicit_case1_alt_table, (2, 3, 70), "a m N"),
    "triangle_formula_value": (triangle_formula_table, (CaseSpec(2, a=2), 2, 70), "m N"),
}


@pytest.mark.parametrize(
    "func, args, names",
    [*INTEGER_ARGUMENT_CALLS.values(), *CLOSED_FORMS_AT_ROW_70.values()],
    ids=list(INTEGER_ARGUMENT_CALLS) + list(CLOSED_FORMS_AT_ROW_70),
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
        # m is taken as an exact int, so a numpy int8 does not wrap
        assert CaseSpec(1, a=2).alphabet_size(np.int8(127)) == 129


class TestF0:
    def test_frozen_values(self):
        assert f0_prefix(CaseSpec(1, a=3), 4).at(4) == 12
        assert f0_prefix(CaseSpec(3, a=3, b=2), 4).at(4) == 15
        assert f0_prefix(CaseSpec(2, a=2), 4).at(4) == 0
        assert f0_prefix(CaseSpec(4), 7).at(7) == 5
        assert f0_prefix(CaseSpec(5), 8).at(8) == 3

    def test_n_below_one_rejected(self):
        for N in (0, -1):
            with pytest.raises(ValueError, match="^N must be >= 1$"):
                f0_prefix(CaseSpec(4), N)

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_prefix_matches_values(self, spec):
        # f_0(n) is the one-part cell c_1(n,1) of the closed form
        pref = f0_prefix(spec, 12)
        assert list(pref) == [row[0] for row in triangle_formula_table(spec, 1, 12)]

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_prefix_is_level_zero_recurrence(self, spec):
        assert f0_prefix(spec, 12) == fm_sequence(spec, 0, 12)

    def test_case3_near_diagonal_closed_forms(self):
        # a = b+1 gives (b^n - 1)/(b - 1); for b = 1 that degenerates to n
        assert list(f0_prefix(CaseSpec(3, a=2, b=1), 8)) == list(range(1, 9))
        assert list(f0_prefix(CaseSpec(3, a=3, b=2), 8)) == [
            2**n - 1 for n in range(1, 9)
        ]

    def test_single_letter_family1_dies_out(self):
        assert list(f0_prefix(CaseSpec(1, a=1), 5)) == [1, 1, 0, 0, 0]

    def test_prefix_shorter_than_seeds(self):
        # family 5 has three seeds; shorter prefixes truncate them
        assert list(f0_prefix(CaseSpec(5), 1)) == [1]
        assert list(f0_prefix(CaseSpec(5), 2)) == [1, 0]


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
        assert triangle_formula_table(CaseSpec(2, a=1), 1, 6)[5][1] == 3
        assert triangle_formula_table(CaseSpec(2, a=3), 1, 7)[6][1] == 0
        assert triangle_formula_table(CaseSpec(3, a=3, b=2), 1, 3)[2][1] == 6
        assert triangle_formula_table(CaseSpec(4), 1, 5)[4][1] == 2
        assert triangle_formula_table(CaseSpec(5), 1, 5)[4][1] == 2
        assert triangle_formula_table(CaseSpec(1, a=2), 1, 3)[2][0] == 2

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
        assert triangle_formula_table(spec, 1, 40) == t.rows, spec

    def test_diagonal_is_one(self):
        for spec in GRID_SPECS:
            assert [row[-1] for row in triangle_formula_table(spec, 1, 9)] == [1] * 9

    def test_repunit_specialization_agrees(self):
        for b in (1, 2):
            spec = CaseSpec(3, a=b + 1, b=b)
            assert c1_case3_repunit_table(b, 12) == triangle_formula_table(spec, 1, 12)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_repunit_equals_convolution_triangle(self, b):
        t = composition_triangle(f0_prefix(CaseSpec(3, a=b + 1, b=b), 40))
        assert c1_case3_repunit_table(b, 40) == t.rows

    def test_repunit_rejects_bad_b(self):
        with pytest.raises(ValueError):
            c1_case3_repunit_table(0, 3)


class TestC2ExplicitCase2:
    def test_frozen_values(self):
        rows = triangle_formula_table(CaseSpec(2, a=1), 2, 4)
        assert rows[3][1] == 5
        assert rows[2][0] == 2
        assert rows[2][2] == 1

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_equals_lifted_triangle(self, a):
        spec = CaseSpec(2, a=a)
        t = lift_triangle(composition_triangle(f0_prefix(spec, 60)), 2)
        assert triangle_formula_table(spec, 2, 60) == t.rows

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="^case 2 needs a >= 1$"):
            family2_c2(0, 3)
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            family2_c2(1, 0)


class TestRowCallOrder:
    # each closed form caches whole rows and shares subterms between them;
    # a high row built first (through the private row function, since a
    # table builds its rows in ascending order) must leave every later
    # table as it would be from a cold start
    FORMS = {
        "c1-case1": (
            lambda N: triangle_formula_table(CaseSpec(1, a=3), 1, N),
            lambda: cases._c1_row(1, 3, None, 30),
        ),
        "c1-case2": (
            lambda N: triangle_formula_table(CaseSpec(2, a=2), 1, N),
            lambda: cases._c1_row(2, 2, None, 30),
        ),
        "c1-case3": (
            lambda N: triangle_formula_table(CaseSpec(3, a=5, b=2), 1, N),
            lambda: cases._c1_row(3, 5, 2, 30),
        ),
        "c1-case4": (
            lambda N: triangle_formula_table(CaseSpec(4), 1, N),
            lambda: cases._c1_row(4, None, None, 30),
        ),
        "c1-case5": (
            lambda N: triangle_formula_table(CaseSpec(5), 1, N),
            lambda: cases._c1_row(5, None, None, 30),
        ),
        "c2-case2": (
            lambda N: family2_c2(3, N),
            lambda: cases._c2_row(3, 30),
        ),
        "repunit": (
            lambda N: c1_case3_repunit_table(3, N),
            lambda: cases._repunit_row(3, 30),
        ),
        "cm-case1": (
            lambda N: family1_cm(3, 4, N),
            lambda: cases._lifted_row(1, 3, None, 4, 30),
        ),
        "formula-case3": (
            lambda N: triangle_formula_table(CaseSpec(3, a=5, b=2), 3, N),
            lambda: cases._lifted_row(3, 5, 2, 3, 30),
        ),
    }

    @staticmethod
    def clear_caches():
        for cached in (
            cases._binomials,
            cases._inner_j_sums,
            cases._c1_row,
            cases._c2_row,
            cases._repunit_row,
            cases._lifted_row,
        ):
            cached.cache_clear()

    @pytest.mark.parametrize("name", FORMS)
    def test_high_row_first_gives_the_same_cells(self, name):
        table, high_row = self.FORMS[name]
        self.clear_caches()
        cold = table(30)
        self.clear_caches()
        high_row()
        assert table(30) == cold


class TestCmExplicitCase1:
    def test_adjudication_cell(self):
        # the corrected leading term gives the lift value; the variant
        # with the m-power leading term overshoots by 1 here
        assert family1_cm(1, 2, 2)[1][0] == 2
        assert cm_explicit_case1_alt_table(1, 2, 2)[1][0] == 3

    def test_diagonal(self):
        assert family1_cm(2, 2, 3)[2][2] == 1

    def test_level_one_collapses_to_c1(self):
        # at m = 1 the lift is the identity: the closed form must match
        # the convolution triangle of f_0, which reads no closed form, and
        # that triangle lifted to level 1
        spec = CaseSpec(1, a=3)
        t = composition_triangle(f0_prefix(spec, 60))
        rows = family1_cm(3, 1, 60)
        assert rows == t.rows
        assert rows == lift_triangle(t, 1).rows

    def test_variant_overshoots_even_at_level_one(self):
        # leading term 1^(n-k) instead of 0^(n-k): every off-diagonal
        # cell gains the spurious C(n-1,k-1)
        c1 = composition_triangle(f0_prefix(CaseSpec(1, a=3), 9)).rows
        variant = cm_explicit_case1_alt_table(3, 1, 9)
        for n in range(1, 10):
            for k in range(1, n + 1):
                extra = 0 if n == k else binom(n - 1, k - 1)
                assert variant[n - 1][k - 1] == c1[n - 1][k - 1] + extra

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_lifted_triangle(self, a, m):
        t = lift_triangle(composition_triangle(f0_prefix(CaseSpec(1, a=a), 12)), m)
        assert family1_cm(a, m, 12) == t.rows, (a, m)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            family1_cm(2, 0, 3)
        with pytest.raises(ValueError):
            cm_explicit_case1_alt_table(2, 0, 3)


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
        assert fm_explicit(spec, 0, 70) == f0_prefix(spec, 70).at(70) == 3 * 2**68
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
                triangle_formula_table(spec, m, 3)
            return
        t = lift_triangle(composition_triangle(f0_prefix(spec, 10)), m)
        assert triangle_formula_table(spec, m, 10) == t.rows


def _tables(spec, m, N):
    # (name, closed-form table, the same rows by an independent route) for
    # every closed form that covers spec at level m >= 1: c_1, c_m, family
    # 2's own c_2 and the two table functions of their own; the routes read
    # f_0 and the sequence transforms, no closed form
    f0 = f0_prefix(spec, N)
    c1 = composition_triangle(f0)
    lift = lift_triangle(c1, m).rows
    out = [
        ("c1", triangle_formula_table(spec, 1, N), c1.rows),
        ("triangle_formula_table", triangle_formula_table(spec, m, N), lift),
    ]
    a, b = spec.a, spec.b
    if spec.case_id == 1:
        # the variant's leading term m^(n-k) C(n-1,k-1) in place of the
        # lift's (m-1)^(n-k) C(n-1,k-1)
        variant = tuple(
            tuple(
                cell + (m ** (n - k) - (m - 1) ** (n - k)) * binom(n - 1, k - 1)
                for k, cell in enumerate(row, start=1)
            )
            for n, row in enumerate(lift, start=1)
        )
        alt = cm_explicit_case1_alt_table(a, m, N)
        out.append(("cm_explicit_case1_alt_table", alt, variant))
    if spec.case_id == 2:
        # family 2's own c_2 against the convolution of f_1, not the lift
        c2 = composition_triangle(invert_power(f0, 1)).rows
        out.append(("c2", triangle_formula_table(spec, 2, N), c2))
    if spec.case_id == 3:
        # the repunit form at this b, whatever a is, against the a = b+1
        # convolution
        repunit = composition_triangle(f0_prefix(CaseSpec(3, a=b + 1, b=b), N)).rows
        out.append(("c1_case3_repunit_table", c1_case3_repunit_table(b, N), repunit))
    return out


# off the default grid: families 1-2 with a <= 8, family 3 with
# 1 <= b < a <= 8, and families 4-5
OFF_GRID_SPECS = st.one_of(
    st.tuples(st.sampled_from((1, 2)), st.integers(1, 8)),
    st.integers(2, 8).flatmap(
        lambda a: st.tuples(st.just(3), st.just(a), st.integers(1, a - 1))
    ),
    st.tuples(st.sampled_from((4, 5))),
).map(lambda fields: CaseSpec(*fields))


# the table functions, with arguments that give a table of N rows last
TABLE_CALLS = {
    name: (func, args)
    for name, (func, args, _) in INTEGER_ARGUMENT_CALLS.items()
    if name.endswith("_table")
}


class TestTables:
    # each table function returns rows 1..N equal to an independent
    # route's triangle, and checks its arguments once

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_equal_cell_by_cell_on_the_grid(self, spec):
        for m in (1, 2, 3):
            for name, table, route in _tables(spec, m, 12):
                assert table == route, (name, m)
                assert [len(row) for row in table] == list(range(1, 13)), name

    @given(OFF_GRID_SPECS, st.integers(1, 6), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_equal_cell_by_cell_off_the_grid(self, spec, m, N):
        for name, table, route in _tables(spec, m, N):
            assert table == route, name

    @pytest.mark.parametrize(
        "func, args", list(TABLE_CALLS.values()), ids=list(TABLE_CALLS)
    )
    def test_refuse_fewer_than_one_row(self, func, args):
        for N in (0, -1):
            with pytest.raises(ValueError, match="^N must be >= 1$"):
                func(*args[:-1], N)

    def test_refuse_bad_parameters(self):
        for m in (0, -1):
            for call in (
                lambda: triangle_formula_table(CaseSpec(4), m, 5),
                lambda: family1_cm(2, m, 5),
                lambda: cm_explicit_case1_alt_table(2, m, 5),
            ):
                with pytest.raises(ValueError, match="^m must be >= 1$"):
                    call()
        for bad in (0, -1):
            with pytest.raises(ValueError, match="^b must be >= 1$"):
                c1_case3_repunit_table(bad, 5)
            # a family's spec refuses a bad a before any table is read
            for case_id, call in (
                (2, lambda: family2_c2(bad, 5)),
                (1, lambda: family1_cm(bad, 2, 5)),
            ):
                with pytest.raises(ValueError, match=f"^case {case_id} needs a >= 1$"):
                    call()
            with pytest.raises(ValueError, match="^a must be >= 1$"):
                cm_explicit_case1_alt_table(bad, 2, 5)
