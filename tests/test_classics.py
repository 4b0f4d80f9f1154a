from __future__ import annotations

import pytest
from conftest import assert_integer_arguments

from restricted_words import cases
from restricted_words.cases import CaseSpec, f0_prefix, fm_sequence
from restricted_words.classics import (
    CLASSIC_NAMES,
    classic,
    fibonacci,
    jacobsthal,
    mersenne,
    padovan,
    pell,
    tribonacci,
)
from restricted_words.sequences import Sequence


def test_frozen_values():
    assert classic("fibonacci", 6) == 8
    assert classic("pell", 5) == 29
    assert classic("mersenne", 4) == 15


def test_prefixes():
    assert [fibonacci(n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert [pell(n) for n in range(1, 7)] == [1, 2, 5, 12, 29, 70]
    assert [jacobsthal(n) for n in range(1, 8)] == [1, 1, 3, 5, 11, 21, 43]
    assert [tribonacci(n) for n in range(1, 8)] == [1, 1, 2, 4, 7, 13, 24]
    assert [padovan(n) for n in range(3, 11)] == [1, 0, 1, 1, 1, 2, 2, 3]


@pytest.mark.parametrize(
    "func",
    [fibonacci, pell, jacobsthal, mersenne, tribonacci, padovan],
    ids=lambda func: func.__name__,
)
def test_integer_n(func):
    # at n = 70 a numpy int64 wraps; mersenne(np.int64(70)) gave -1
    assert_integer_arguments(func, (70,), "n")


def test_domain_errors():
    for name in CLASSIC_NAMES:
        floor = 3 if name == "padovan" else 1
        with pytest.raises(ValueError):
            classic(name, floor - 1)
    with pytest.raises(ValueError):
        classic("lucas", 3)


def test_padovan_does_not_read_family5(monkeypatch):
    monkeypatch.setattr(cases, "f0_prefix", lambda spec, N: Sequence([7] * N))
    assert [padovan(n) for n in range(3, 11)] == [1, 0, 1, 1, 1, 2, 2, 3]
    assert padovan(30) == 816


def test_padovan_is_shifted_family5_base():
    spec = CaseSpec(5)
    pref = f0_prefix(spec, 20)
    for n in range(3, 23):
        assert padovan(n) == pref.at(n - 2)


@pytest.mark.parametrize(
    "name,spec,m",
    [
        ("fibonacci", CaseSpec(2, a=1), 1),
        ("pell", CaseSpec(2, a=1), 2),
        ("jacobsthal", CaseSpec(2, a=2), 1),
        ("tribonacci", CaseSpec(5), 1),
    ],
)
def test_classics_are_family_transforms(name, spec, m):
    seq = fm_sequence(spec, m, 60)
    for n in range(1, 61):
        assert classic(name, n) == seq.at(n)


def test_mersenne_is_case3_base_count():
    pref = f0_prefix(CaseSpec(3, a=3, b=2), 60)
    for n in range(1, 61):
        assert mersenne(n) == pref.at(n)


def test_case3_small_parameter_closed_forms():
    linear = f0_prefix(CaseSpec(3, a=2, b=1), 60)
    everyother = f0_prefix(CaseSpec(3, a=3, b=1), 60)
    for n in range(1, 61):
        assert linear.at(n) == n
        assert everyother.at(n) == fibonacci(2 * n)
