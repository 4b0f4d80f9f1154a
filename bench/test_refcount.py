"""Tests of the benchmark's reference counter against hand counts and
against brute force over every word of small lengths."""

from __future__ import annotations

import itertools

import refcount

# (family, a, b) points covering every rule and both sides of a == b + 1
POINTS = [
    (1, 1, None),
    (1, 3, None),
    (2, 1, None),
    (2, 2, None),
    (3, 2, 1),
    (3, 4, 2),
    (3, 4, 3),
    (4, None, None),
    (5, None, None),
]


def test_hand_counts():
    # f_1 of family 2 with a = 1 is Fibonacci; family 5 at m = 0 is a
    # shifted Padovan sequence
    assert refcount.counts(2, 1, None, 1, 7) == [1, 1, 2, 3, 5, 8, 13, 21]
    assert refcount.counts(5, None, None, 0, 5) == [1, 0, 1, 1, 1, 2]


def test_hand_row():
    # length-4 words over {0, 1}, 0-runs even, 1 marked: 0000 | 0011,
    # 0110, 1100 | 1111
    assert refcount.mark_rows(2, 1, None, 1, 4)[4] == [1, 0, 3, 0, 1]


def test_hand_predicate():
    assert refcount.is_valid(4, None, None, 1, (1, 0, 0, 2, 1, 0))
    assert not refcount.is_valid(4, None, None, 1, (1, 2, 0))
    assert refcount.is_valid(5, None, None, 0, (0, 0, 1, 1, 1))
    assert not refcount.is_valid(5, None, None, 0, (0, 0, 0))
    assert not refcount.is_valid(3, 3, 1, 0, (2, 0, 1))
    assert refcount.is_valid(3, 3, 1, 0, (2, 0, 2))
    assert not refcount.is_valid(1, 2, None, 1, (2, 1, 1))


def test_dynamic_program_matches_brute_force():
    for (case, a, b), m in itertools.product(POINTS, (0, 1, 2)):
        exact = refcount.counts(case, a, b, m, 5)
        modular = refcount.counts(case, a, b, m, 5, modulus=7)
        for length in range(6):
            row = refcount.brute_rows(case, a, b, m, length)
            assert exact[length] == sum(row), (case, a, b, m, length)
            assert modular[length] == sum(row) % 7
            if m >= 1:
                assert refcount.mark_rows(case, a, b, m, 5)[length] == row


def test_modular_rows_and_mark_cap():
    rows = refcount.mark_rows(5, None, None, 2, 30)
    capped = refcount.mark_rows(5, None, None, 2, 30, modulus=97, max_marks=4)
    for full, short in zip(rows, capped):
        assert short == [v % 97 for v in full[:5]]


def test_large_alphabet_length_two():
    # family 1, a = 1, m = 130: 131 letters, only "00" is excluded, and
    # the marked letter is 130
    assert refcount.counts(1, 1, None, 130, 2)[2] == 17160
    assert refcount.mark_rows(1, 1, None, 130, 2)[2] == [16899, 260, 1]
