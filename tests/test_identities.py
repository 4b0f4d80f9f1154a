from __future__ import annotations

import pytest
from conftest import assert_integer_arguments, bump_cell

from restricted_words import cases, identity_checks
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
    def off_at_7_3_4(b, N):
        rows = cases.c1_case3_repunit_table(b, N)
        return bump_cell(rows, 7, 4) if b == 3 else rows

    monkeypatch.setattr(identity_checks, "c1_case3_repunit_table", off_at_7_3_4)
    report = check_identity("case3-product", 12)
    assert not report.ok
    assert report.counterexample.params == {"n": 7, "b": 3, "k": 4}
    # checks run n = 1..6 (2n each), then n = 7 for b = 2, then k = 1..4
    assert report.checked == 42 + 7 + 4
    assert report.counterexample.rhs == report.counterexample.lhs + 2**4


@pytest.mark.parametrize("name", ["pell-even", "pell-odd"])
def test_pell_split_builds_only_its_own_parity(name):
    # N = 2n - p for n <= 30: thirty c_2 rows of one parity, not every
    # row up to 2 * 30
    cases._c2_row.cache_clear()
    assert check_identity(name, 30).ok
    assert cases._c2_row.cache_info().currsize == 30


def test_integer_max_n():
    assert_integer_arguments(check_identity, ("mersenne-sum", 20), "max_n")
