from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    GRID_POINTS,
    GRID_SPECS,
    assert_integer_arguments,
    bump_cell,
    point_id,
    spec_id,
)

from restricted_words import cases, verification, words
from restricted_words.cases import CaseSpec
from restricted_words.identity_checks import Counterexample, IdentityReport
from restricted_words.verification import (
    SEQUENCE_ROUTES,
    TRIANGLE_ROUTES,
    AdjudicationReport,
    Comparison,
    CrossCheckReport,
    adjudicate_case1_leading_term,
    cross_check,
    default_grid,
    sequence_values,
    triangle_rows,
)
from restricted_words.words import DEFAULT_BUDGET, build_dfa

# every sequence route, then every triangle route
ROUTES = [(sequence_values, source) for source in SEQUENCE_ROUTES] + [
    (triangle_rows, source) for source in TRIANGLE_ROUTES
]


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 37
    assert grid == GRID_POINTS
    assert all(isinstance(spec, CaseSpec) for spec, _ in grid)


@pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
def test_cross_check_agrees(point):
    spec, m = point
    report = cross_check(spec, m, max_len=7, triangle_n=9)
    assert report.ok, report.describe()


def test_report_structure():
    report = cross_check(CaseSpec(3, a=3, b=2), 1, max_len=5, triangle_n=6)
    labels = [c.label for c in report.comparisons]
    assert "exhaustive-vs-automaton" in labels
    assert "repunit-specialization-vs-field-form" in labels
    assert "explicit-triangle-vs-lift" in labels
    assert all(c.checked > 0 for c in report.comparisons)
    text = report.describe()
    assert "case 3, a=3, b=2, m=1" in text
    assert "agree" in text


def test_level_zero_skips_triangle_comparisons():
    report = cross_check(CaseSpec(2, a=2), 0, max_len=5, triangle_n=6)
    labels = [c.label for c in report.comparisons]
    assert "recurrence-vs-triangle-row-sums" not in labels
    assert "marked-exhaustive-vs-triangle" not in labels
    assert report.ok


def _count_calls(monkeypatch, *names):
    """Wrap the named ``words`` functions; the returned dict counts calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(words, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(words, name, counted(name))
    return calls


def test_one_enumeration_per_point(monkeypatch):
    calls = _count_calls(
        monkeypatch, "marked_histograms", "marked_histogram", "count_exhaustive"
    )
    report = cross_check(CaseSpec(2, a=1), 1, max_len=5, triangle_n=6)
    assert calls == {
        "marked_histograms": 1,
        "marked_histogram": 0,
        "count_exhaustive": 0,
    }
    assert report.ok, report.describe()


@pytest.mark.parametrize("m, builds", [(0, 1), (1, 1), (2, 2)])
def test_composition_triangles_built_per_point(monkeypatch, m, builds):
    # c_1 from f0, which the eq3 lift reuses, and at m >= 2 the triangle
    # of the transformed sequence
    real = verification.composition_triangle
    calls = []

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(verification, "composition_triangle", counted)
    report = cross_check(CaseSpec(2, a=2), m, max_len=5, triangle_n=6)
    assert len(calls) == builds
    assert report.ok, report.describe()


@pytest.mark.parametrize("budget, reached", [(DEFAULT_BUDGET, 7), (300, 5)])
def test_report_names_the_length_enumerated(budget, reached):
    # family 4 at m = 1 has three letters: 3**5 words fit a budget of 300
    spec, m = CaseSpec(4), 1
    report = cross_check(spec, m, max_len=7, triangle_n=9, budget=budget)
    assert report.enumerated_to == reached
    checked = {c.label: c.checked for c in report.comparisons}
    assert checked["exhaustive-vs-automaton"] == reached + 1
    # the text is unchanged: a header, then one agreeing line per comparison
    lines = report.describe().splitlines()
    assert lines[0] == "cross-check: case 4, m=1"
    assert len(lines) == 1 + len(report.comparisons)
    assert all(": agree (" in line for line in lines[1:])


def test_one_automaton_pass_per_sequence(monkeypatch):
    calls = _count_calls(
        monkeypatch, "count_automaton", "automaton_counts", "automaton_histograms"
    )
    report = cross_check(CaseSpec(2, a=1), 1, max_len=5, triangle_n=6)
    assert calls == {
        "count_automaton": 0,
        "automaton_counts": 1,
        "automaton_histograms": 1,
    }
    assert report.ok, report.describe()
    calls.update(dict.fromkeys(calls, 0))
    cross_check(CaseSpec(2, a=1), 0, max_len=5, triangle_n=6)
    assert calls == {
        "count_automaton": 0,
        "automaton_counts": 1,
        "automaton_histograms": 0,
    }


@pytest.mark.parametrize(
    "m, witness",
    [
        (1, {"explicit-c1-vs-convolution": (3, 2)}),
        (
            2,
            {
                "explicit-c1-vs-convolution": (3, 2),
                "lift-vs-transformed-convolution": (3, 1),
            },
        ),
    ],
)
def test_corrupted_composition_triangle_is_caught(monkeypatch, m, witness):
    # one wrong cell (3, 2) in every triangle built.  At m >= 2 the lift of
    # c_1 and the transformed sequence's own triangle part; at m = 1 both
    # would be c_1, so that line is not reported, and c_1's closed form
    # catches the cell
    real = verification.composition_triangle

    def corrupt(f):
        rows = [list(row) for row in real(f).rows]
        rows[2][1] += 1
        return verification.Triangle(rows)

    monkeypatch.setattr(verification, "composition_triangle", corrupt)
    report = cross_check(CaseSpec(2, a=2), m, max_len=5, triangle_n=6)
    found = {c.label: c.witness for c in report.comparisons}
    assert ("lift-vs-transformed-convolution" in found) == (m >= 2)
    for label, cell in witness.items():
        assert (found[label]["n"], found[label]["k"]) == cell, label


def test_one_quotient_per_family():
    # every level, plain and marked, steps its family's one quotient
    words._lumped.cache_clear()
    for spec, m in default_grid():
        assert cross_check(spec, m).ok
    assert words._lumped.cache_info().currsize == len(GRID_SPECS) == 12


def test_broken_automaton_is_caught(monkeypatch):
    real = words.automaton_counts

    def off_by_one(spec, m, length):
        values = real(spec, m, length)
        values[3] += 1
        return values

    monkeypatch.setattr(words, "automaton_counts", off_by_one)
    report = cross_check(CaseSpec(4), 1, max_len=5, triangle_n=6)
    assert not report.ok
    bad = {c.label: c for c in report.comparisons if not c.ok}
    assert bad["exhaustive-vs-automaton"].witness["len"] == 3
    assert "exhaustive-vs-automaton: MISMATCH at len=3" in report.describe()


def test_corrupted_formula_is_caught(monkeypatch):
    real = cases.triangle_formula_table

    def corrupt(spec, m, N):
        return bump_cell(real(spec, m, N), 5, 2)

    monkeypatch.setattr(cases, "triangle_formula_table", corrupt)
    report = cross_check(CaseSpec(4), 1, max_len=5, triangle_n=6)
    assert not report.ok
    # at m = 1 the one table is both the closed-form c_1 and the formula
    # route's triangle, so both of their comparisons fail and no other
    bad = [c for c in report.comparisons if not c.ok]
    assert [c.label for c in bad] == [
        "explicit-c1-vs-convolution",
        "explicit-triangle-vs-lift",
    ]
    for c in bad:
        assert (c.witness["n"], c.witness["k"]) == (5, 2)
        assert c.witness["lhs"] == c.witness["rhs"] + 1


@pytest.mark.parametrize(
    "name, point, label",
    [
        (
            "c1_case3_repunit_table",
            (CaseSpec(3, a=3, b=2), 1),
            "repunit-specialization-vs-field-form",
        ),
        ("_c2_row", (CaseSpec(2, a=2), 2), "explicit-triangle-vs-lift"),
    ],
)
def test_corrupted_closed_form_cell_is_caught(monkeypatch, name, point, label):
    # one wrong cell (n, k) = (6, 3) fails its own comparison and no other
    real = getattr(cases, name)

    def corrupt(param, n):
        # a table function gets N and returns rows 1..N, a row function
        # gets n and returns row n alone
        if name.endswith("_table"):
            return bump_cell(real(param, n), 6, 3)
        row = real(param, n)
        return row[:2] + (row[2] + 1,) + row[3:] if n == 6 else row

    monkeypatch.setattr(cases, name, corrupt)
    report = cross_check(*point)
    bad = [c for c in report.comparisons if not c.ok]
    assert [c.label for c in bad] == [label]
    assert (bad[0].witness["n"], bad[0].witness["k"]) == (6, 3)
    assert bad[0].witness["lhs"] == bad[0].witness["rhs"] + 1


def test_corrupted_explicit_route_is_caught(monkeypatch):
    real = cases.fm_explicit

    def corrupt(spec, m, n):
        value = real(spec, m, n)
        return value + 1 if n == 4 else value

    monkeypatch.setattr(cases, "fm_explicit", corrupt)
    report = cross_check(CaseSpec(2, a=2), 1, max_len=5, triangle_n=6)
    bad = [c for c in report.comparisons if not c.ok]
    assert [c.label for c in bad] == ["explicit-fm-vs-recurrence"]
    assert bad[0].witness["n"] == 4
    assert "explicit-fm-vs-recurrence: MISMATCH at n=4" in report.describe()


@pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
def test_routes_give_values_exactly_where_covered(spec):
    # every route covers every family: the sequence routes at every m >= 0,
    # the triangle routes at every m >= 1, and all give the same values
    for routes, run, levels in (
        (SEQUENCE_ROUTES, sequence_values, range(5)),
        (TRIANGLE_ROUTES, triangle_rows, range(1, 5)),
    ):
        for m in levels:
            first, *rest = (run(spec, m, 5, source) for source in routes)
            assert first and all(values == first for values in rest), m


@pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
def test_cross_check_runs_closed_forms_exactly_where_covered(spec):
    # f_m's closed form at every level, the triangle's at every m >= 1
    for m in range(4):
        labels = [c.label for c in cross_check(spec, m, 3, 4).comparisons]
        assert "explicit-fm-vs-recurrence" in labels, m
        assert ("explicit-triangle-vs-lift" in labels) == (m >= 1), m


@pytest.mark.parametrize(
    "spec",
    [CaseSpec(1, a=2), CaseSpec(2, a=2), CaseSpec(3, a=3, b=1), CaseSpec(4), CaseSpec(5)],
    ids=spec_id,
)
def test_formula_triangle_matches_convolution_at_sixty_rows(spec):
    # the lift's stepped weights (m-1)^d C(k-1+d, d) at m = 3, with cells
    # beyond 2^63, against the route that reads no closed form
    assert triangle_rows(spec, 3, 60, "formula") == triangle_rows(
        spec, 3, 60, "convolution"
    )


def test_corrupted_lift_is_caught(monkeypatch):
    # family 3 at m = 2 reaches cases._lifted_row only through the formula
    # triangle; one wrong cell (n, k) = (4, 2) fails that line alone
    real = cases._lifted_row

    def corrupt(case_id, a, b, m, n):
        row = real(case_id, a, b, m, n)
        return row[:1] + (row[1] + 1,) + row[2:] if n == 4 else row

    monkeypatch.setattr(cases, "_lifted_row", corrupt)
    report = cross_check(CaseSpec(3, a=3, b=1), 2)
    bad = [c for c in report.comparisons if not c.ok]
    assert [c.label for c in bad] == ["explicit-triangle-vs-lift"]
    assert (bad[0].witness["n"], bad[0].witness["k"]) == (4, 2)


# off the default grid: families 1-2 with a <= 8, family 3 with
# 1 <= b < a <= 8, and families 4-5
OFF_GRID_SPECS = st.one_of(
    st.tuples(st.sampled_from((1, 2)), st.integers(1, 8)),
    st.integers(2, 8).flatmap(
        lambda a: st.tuples(st.just(3), st.just(a), st.integers(1, a - 1))
    ),
    st.tuples(st.sampled_from((4, 5))),
).map(lambda fields: CaseSpec(*fields))


class TestOffGrid:
    @given(OFF_GRID_SPECS, st.integers(0, 6), st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_explicit_fm_equals_recurrence(self, spec, m, n):
        assert cases.fm_explicit(spec, m, n) == cases.fm_sequence(spec, m, n).at(n)

    @given(OFF_GRID_SPECS, st.integers(1, 6), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_formula_triangle_equals_convolution(self, spec, m, N):
        formula = triangle_rows(spec, m, N, "formula")
        assert formula == triangle_rows(spec, m, N, "convolution")


def test_unknown_source_names_the_choices():
    spec = CaseSpec(4)
    with pytest.raises(ValueError) as seq:
        sequence_values(spec, 0, 0, "bogus")
    assert str(seq.value) == (
        "unknown sequence source 'bogus'; "
        "choose from recurrence, invert, explicit, automaton"
    )
    with pytest.raises(ValueError) as tri:
        triangle_rows(spec, 0, 0, "recurrence")
    assert str(tri.value) == (
        "unknown triangle source 'recurrence'; choose from convolution, formula, eq3"
    )


@pytest.mark.parametrize("source", SEQUENCE_ROUTES)
def test_sequence_routes_refuse_a_negative_level(source):
    with pytest.raises(ValueError, match="^m must be >= 0$"):
        sequence_values(CaseSpec(1, a=2), -1, 3, source)


def test_bad_arguments():
    with pytest.raises(ValueError):
        cross_check(CaseSpec(4), 1, max_len=-1)
    with pytest.raises(ValueError):
        cross_check(CaseSpec(4), 1, triangle_n=0)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"max_len": -1}, "max_len must be >= 0"),
        ({"triangle_n": 0}, "triangle_n must be >= 1"),
        # both wrong: max_len is checked first
        ({"max_len": -1, "triangle_n": 0}, "max_len must be >= 0"),
    ],
)
def test_cross_check_names_the_bound_that_fails(bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cross_check(CaseSpec(4), 1, **bounds)


class TestAdjudication:
    def test_outcome(self):
        report = adjudicate_case1_leading_term(max_n=8)
        assert report.ok
        assert report.lift_value == 2
        assert report.corrected_value == 2
        assert report.printed_value == 3
        assert report.witness_cell == {"a": 1, "m": 2, "n": 2, "k": 1}
        assert report.corrected_agreement.ok
        assert report.variant_first_mismatch is not None

    def test_describe_mentions_verdict(self):
        text = adjudicate_case1_leading_term(max_n=6).describe()
        assert "corrected form confirmed" in text
        assert "m-power variant" in text

    def test_count_and_witness_run_across_the_tables(self):
        # nine (a, m) tables of 78 cells each; the variant fails first in
        # the a = 1, m = 1 table
        report = adjudicate_case1_leading_term()
        assert report.corrected_agreement == Comparison("corrected-vs-lift", 702)
        assert report.variant_first_mismatch == {
            "a": 1, "m": 1, "n": 2, "k": 1, "lhs": 2, "rhs": 1
        }

    def test_corrupted_form_is_caught_in_a_later_table(self, monkeypatch):
        real = cases.triangle_formula_table

        def corrupt(spec, m, N):
            rows = real(spec, m, N)
            return bump_cell(rows, 7, 4) if (spec, m) == (CaseSpec(1, a=2), 3) else rows

        monkeypatch.setattr(cases, "triangle_formula_table", corrupt)
        report = adjudicate_case1_leading_term()
        # five whole tables of 78 cells, then 21 + 4 cells of the sixth
        witness = {"a": 2, "m": 3, "n": 7, "k": 4, "lhs": 1129, "rhs": 1128}
        assert report.corrected_agreement == Comparison(
            "corrected-vs-lift", 415, witness
        )
        assert not report.ok
        # dict equality ignores key order; the text pins a, m, n, k
        lines = report.describe().splitlines()
        assert (
            "  corrected-vs-lift: MISMATCH at a=2, m=3, n=7, k=4, lhs=1129, rhs=1128"
            in lines
        )
        assert lines[-1] == "  verdict: INCONCLUSIVE"


# each record with a sample and the repr the frozen dataclasses printed
RECORDS = [
    (CaseSpec(3, a=3, b=1), "CaseSpec(case_id=3, a=3, b=1)"),
    (
        build_dfa(CaseSpec(1, a=1), 1),
        "Dfa(start=0, transitions=((1, 0), (-1, 0)), accepting=(True, True))",
    ),
    (
        Comparison("x", 3, {"n": 2, "lhs": 1, "rhs": 2}),
        "Comparison(label='x', checked=3, witness={'n': 2, 'lhs': 1, 'rhs': 2})",
    ),
    (
        CrossCheckReport(CaseSpec(4), 1, (Comparison("x", 3),), 10),
        "CrossCheckReport(spec=CaseSpec(case_id=4, a=None, b=None), m=1, "
        "comparisons=(Comparison(label='x', checked=3, witness=None),), "
        "enumerated_to=10)",
    ),
    (
        AdjudicationReport({"a": 1}, 1, 2, 2, Comparison("y", 4), None),
        "AdjudicationReport(witness_cell={'a': 1}, printed_value=1, "
        "corrected_value=2, lift_value=2, "
        "corrected_agreement=Comparison(label='y', checked=4, witness=None), "
        "variant_first_mismatch=None)",
    ),
    (Counterexample({"n": 4}, 5, 6), "Counterexample(params={'n': 4}, lhs=5, rhs=6)"),
    (
        IdentityReport("demo", 9, 4, Counterexample({"n": 4}, 5, 6)),
        "IdentityReport(name='demo', max_n=9, checked=4, "
        "counterexample=Counterexample(params={'n': 4}, lhs=5, rhs=6))",
    ),
]


class TestRecords:
    @pytest.mark.parametrize(
        "record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
    )
    def test_repr_and_immutability(self, record, text):
        assert repr(record) == text
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_equal_records_hash_equal(self):
        assert CaseSpec(3, a=3, b=1) == CaseSpec(3, a=3, b=1)
        assert hash(CaseSpec(3, a=3, b=1)) == hash(CaseSpec(3, a=3, b=1))
        assert CaseSpec(3, a=3, b=1) != CaseSpec(3, a=3, b=2)
        first, second = build_dfa(CaseSpec(5), 2), build_dfa(CaseSpec(5), 2)
        assert first == second and hash(first) == hash(second)
        # a record also equals the plain tuple of its fields
        assert CaseSpec(3, a=3, b=1) == (3, 3, 1)

    def test_case_spec_pickles(self):
        for spec in GRID_SPECS:
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and type(copy) is CaseSpec


@pytest.mark.parametrize("get, source", ROUTES, ids=[source for _, source in ROUTES])
def test_numpy_m_gives_exact_values(get, source):
    # at m = 5 and N = 40 the values pass 2**63, where a numpy m wraps
    spec = CaseSpec(1, a=3)
    assert get(spec, np.int64(5), 40, source) == get(spec, 5, 40, source)


@pytest.mark.parametrize("get, source", ROUTES)
def test_routes_take_m_by_the_integer_rule(get, source):
    # the route is never reached: the error names the m the caller passed
    with pytest.raises(ValueError, match=r"^m must be an integer, got 1\.5$"):
        get(CaseSpec(2, a=2), 1.5, 4, source)


@pytest.mark.parametrize(
    "func, args, names",
    [
        (cross_check, (CaseSpec(2, a=2), 2, 5, 6), "max_len triangle_n"),
        (adjudicate_case1_leading_term, (4,), "max_n"),
    ],
    ids=["cross_check", "adjudicate_case1_leading_term"],
)
def test_integer_bounds(func, args, names):
    assert_integer_arguments(func, args, names)


@pytest.mark.parametrize("get, source", ROUTES)
def test_routes_take_N_by_the_integer_rule(get, source):
    spec, m = CaseSpec(2, a=2), 2
    with pytest.raises(ValueError, match=r"^N must be an integer, got 2\.5$"):
        get(spec, m, 2.5, source)
    assert get(spec, m, np.int64(6), source) == get(spec, m, 6, source)


def test_adjudication_refuses_max_n_below_one():
    with pytest.raises(ValueError, match="^max_n must be >= 1$"):
        adjudicate_case1_leading_term(0)


def _walk(label, keys, lhs, rhs):
    # the reference: every cell of lhs against rhs in order, one at a time,
    # stopping at the first that differs
    base = 0 if keys.startswith("len") else 1
    checked = 0
    for i, left in enumerate(lhs):
        cells = [(None, left)] if "," not in keys else enumerate(left)
        for j, value in cells:
            if j is None:
                at, other = (i + base,), rhs[i]
            else:
                at, other = (i + base, j + base), rhs[i][j]
            checked += 1
            if value != other:
                witness = dict(zip(keys.split(","), at), lhs=value, rhs=other)
                return Comparison(label, checked, witness)
    return Comparison(label, checked)


@st.composite
def _tables(draw, short=False):
    # (keys, lhs, rhs): rhs repeats lhs, rows or entries padded at the end;
    # either one cell of rhs changed or, when short, the last cell or row
    # of lhs missing from it
    keys = draw(st.sampled_from(["len", "n", "len,marks", "n,k"]))
    cell = st.integers(-2, 2)
    pad = st.lists(cell, max_size=2)
    kind = st.sampled_from([list, tuple])
    if "," not in keys:
        lhs = draw(st.lists(cell, min_size=short, max_size=8))
        rhs = list(lhs) + draw(pad)
        cells = [(i,) for i in range(len(lhs))]
    else:
        row = st.tuples(kind, st.lists(cell, min_size=short, max_size=5))
        lhs = [k(r) for k, r in draw(st.lists(row, min_size=short, max_size=5))]
        rhs = [list(r) + draw(pad) for r in lhs]
        rhs += draw(st.lists(pad, max_size=2))
        cells = [(i, j) for i, r in enumerate(lhs) for j in range(len(r))]
    if short:
        i, *j = cells[-1]
        if j and draw(st.booleans()):
            rhs[i] = rhs[i][: j[0]]
            i += 1
        del rhs[i:]
    elif cells and draw(st.booleans()):
        i, *j = draw(st.sampled_from(cells))
        holder = rhs[i] if j else rhs
        holder[j[0] if j else i] += draw(st.sampled_from([-1, 1]))
    if "," in keys:
        rhs = [draw(kind)(r) for r in rhs]
    return keys, draw(kind)(lhs), draw(kind)(rhs)


@given(_tables())
@settings(max_examples=300)
def test_table_comparison_matches_the_cell_walk(table):
    keys, lhs, rhs = table
    assert verification._compare_table("t", keys, lhs, rhs) == _walk(
        "t", keys, lhs, rhs
    )


@given(_tables(short=True))
@settings(max_examples=100)
def test_short_right_hand_side_still_raises(table):
    keys, lhs, rhs = table
    with pytest.raises(IndexError):
        verification._compare_table("t", keys, lhs, rhs)
