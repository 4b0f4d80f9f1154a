from __future__ import annotations

import pytest
from conftest import GRID_POINTS, point_id

from restricted_words import cases, words
from restricted_words.cases import CaseSpec
from restricted_words.verification import (
    adjudicate_case1_leading_term,
    cross_check,
    default_grid,
)


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


def test_one_enumeration_per_length(monkeypatch):
    calls = _count_calls(monkeypatch, "marked_histogram", "count_exhaustive")
    max_len = 5
    report = cross_check(CaseSpec(2, a=1), 1, max_len=max_len, triangle_n=6)
    assert calls == {"marked_histogram": max_len + 1, "count_exhaustive": 0}
    assert report.ok, report.describe()


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
    real = cases.c1_explicit

    def corrupt(spec, n, k):
        value = real(spec, n, k)
        return value + 1 if (n, k) == (5, 2) else value

    monkeypatch.setattr(cases, "c1_explicit", corrupt)
    report = cross_check(CaseSpec(4), 1, max_len=5, triangle_n=6)
    assert not report.ok
    bad = [c for c in report.comparisons if not c.ok]
    assert bad[0].witness["n"] == 5
    assert bad[0].witness["k"] == 2
    assert {"lhs", "rhs"} <= set(bad[0].witness)


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


def test_bad_arguments():
    with pytest.raises(ValueError):
        cross_check(CaseSpec(4), 1, max_len=-1)
    with pytest.raises(ValueError):
        cross_check(CaseSpec(4), 1, triangle_n=0)


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
