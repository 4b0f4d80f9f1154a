from __future__ import annotations

import pytest
from conftest import assert_integer_arguments, bump_cell

from restricted_words import cases, sequences, words
from restricted_words.identity_checks import (
    IDENTITY_NAMES,
    check_all,
    check_identity,
)


def test_registry_names_are_stable():
    assert IDENTITY_NAMES == (
        "fib-explicit",
        "pell-explicit",
        "jacobsthal-explicit",
        "fib-even",
        "fib-odd",
        "jac-even",
        "jac-odd",
        "pell-even",
        "pell-odd",
        "case3-product",
        "euler-type",
        "mersenne-sum",
        "fib-2n-1-quad",
        "tribonacci-sum",
        "padovan-compositions",
    )


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        check_identity("nope")


def test_bad_range_rejected():
    with pytest.raises(ValueError):
        check_identity("fib-even", 0)


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_each_identity_verifies(name):
    report = check_identity(name, 18)
    assert report.ok, report.describe()
    assert report.checked > 0


def test_check_all_covers_registry():
    reports = check_all(6)
    assert [r.name for r in reports] == list(IDENTITY_NAMES)
    assert all(r.ok for r in reports)


def test_hand_summed_examples():
    # fib-odd at n=3: C(4,2)? no: sum_k C(n+k-2, n-k) = C(2,2)+C(3,1)+C(4,0)
    report = check_identity("fib-odd", 3)
    assert report.ok
    # mersenne-sum at n=3 requires the single surviving (k,i,j) term
    assert check_identity("mersenne-sum", 3).ok
    assert check_identity("padovan-compositions", 6).ok
    assert check_identity("euler-type", 5).ok


@pytest.mark.parametrize("name", ["euler-type", "mersenne-sum"])
def test_no_check_is_refused(name):
    # both start at n = 3: below it they would check nothing at all
    for max_n in (1, 2):
        with pytest.raises(ValueError, match=f"'{name}'.*max_n = {max_n}"):
            check_identity(name, max_n)
    report = check_identity(name, 3)
    assert report.ok and report.checked == 1


def test_counterexamples_surface_lowest_n():
    # corrupt comparison by shrinking the cap: a fake mismatch cannot be
    # produced from the real registry, so check report plumbing directly
    from restricted_words.identity_checks import Counterexample, IdentityReport

    rep = IdentityReport("demo", 9, 4, Counterexample({"n": 4}, 5, 6))
    assert not rep.ok
    assert "n=4" in rep.describe()
    assert "5 != 6" in rep.describe()


def test_quadruple_sum_runs_to_max_n():
    report = check_identity("fib-2n-1-quad", 30)
    assert report.ok
    assert report.checked == 30


def test_case3_product_counts_every_cell():
    report = check_identity("case3-product", 30)
    assert report.ok
    assert report.checked == 930


def test_case3_product_reports_the_broken_cell(monkeypatch):
    # the closed form as the identity calls it, off by one at one cell
    real = cases.c1_case3_repunit_table

    def off_at_7_3_4(b, N):
        rows = real(b, N)
        return bump_cell(rows, 7, 4) if b == 3 else rows

    monkeypatch.setattr(cases, "c1_case3_repunit_table", off_at_7_3_4)
    report = check_identity("case3-product", 12)
    assert not report.ok
    assert report.counterexample.params == {"n": 7, "b": 3, "k": 4}
    # checks run n = 1..6 (2n each), then n = 7 for b = 2, then k = 1..4
    assert report.checked == 42 + 7 + 4
    assert report.counterexample.rhs == report.counterexample.lhs + 2**4


def test_a_substituted_triangle_reaches_case3_product(monkeypatch):
    # the composition triangle is read through sequences at call time: one
    # cell (5, 2) one larger gives the lowest counterexample there, at b = 2
    real = sequences.composition_triangle
    monkeypatch.setattr(
        sequences,
        "composition_triangle",
        lambda f: sequences.Triangle(bump_cell(real(f).rows, 5, 2)),
    )
    report = check_identity("case3-product", 12)
    lhs, rhs = report.counterexample.lhs, report.counterexample.rhs
    assert report.counterexample.params == {"n": 5, "b": 2, "k": 2}
    assert lhs == rhs + 1
    assert report.describe() == (
        f"case3-product: COUNTEREXAMPLE at n=5, b=2, k=2: {lhs} != {rhs}"
    )


@pytest.mark.parametrize("name", ["pell-even", "pell-odd"])
def test_pell_split_builds_only_its_own_parity(name):
    # N = 2n - p for n <= 30: thirty c_2 rows of one parity, not every
    # row up to 2 * 30
    cases._c2_row.cache_clear()
    assert check_identity(name, 30).ok
    assert cases._c2_row.cache_info().currsize == 30


def test_integer_max_n():
    assert_integer_arguments(check_identity, ("mersenne-sum", 20), "max_n")


def _one_larger_at(real, at: int):
    # the route with f_m(at) one larger: fm_explicit takes n and gives one
    # value, fm_sequence and automaton_counts give f_m(1), f_m(2), ...
    def route(spec, m, last):
        values = real(spec, m, last)
        if isinstance(values, int):
            return values + (last == at)
        values = list(values)
        values[at - 1] += 1
        return values

    return route


# (module, route, identity, n, classic number at n) for each f_m-valued identity
SEAMS = [
    (cases, "fm_explicit", "fib-explicit", 5, 5),
    (cases, "fm_explicit", "pell-explicit", 5, 29),
    (cases, "fm_explicit", "jacobsthal-explicit", 5, 11),
    (cases, "fm_explicit", "fib-2n-1-quad", 5, 34),
    (cases, "fm_explicit", "tribonacci-sum", 5, 7),
    (words, "automaton_counts", "euler-type", 7, 32),
    (cases, "fm_sequence", "padovan-compositions", 8, 3),
]


@pytest.mark.parametrize("module, route, name, n, classic", SEAMS, ids=[s[2] for s in SEAMS])
def test_a_substituted_route_reaches_its_identity(monkeypatch, module, route, name, n, classic):
    # each f_m-valued identity reads its route as the route table does: a
    # corrupted route gives the lowest counterexample, the classic number
    # on the left and the route's value on the right
    monkeypatch.setattr(module, route, _one_larger_at(getattr(module, route), n))
    report = check_identity(name, 12)
    assert report.counterexample == ({"n": n}, classic, classic + 1)
    assert report.describe() == f"{name}: COUNTEREXAMPLE at n={n}: {classic} != {classic + 1}"

