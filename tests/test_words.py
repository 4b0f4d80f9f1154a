"""Tests for the word oracle: predicate, enumeration, automata."""

from __future__ import annotations

import itertools
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import GRID_POINTS, GRID_SPECS, point_id, spec_id
from hypothesis import given, settings
from hypothesis import strategies as st

from restricted_words import words
from restricted_words.cases import CaseSpec, f0_prefix, fm_sequence
from restricted_words.sequences import composition_triangle, lift_triangle
from restricted_words.words import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    automaton_counts,
    automaton_histograms,
    build_dfa,
    count_automaton,
    count_exhaustive,
    count_marked_exhaustive,
    is_valid,
    iter_words,
    marked_histogram,
    marked_histograms,
    max_enumerable_length,
)


# parameters outside the grid, where no other test reaches the DFA builders
OFF_GRID_POINTS = [
    (spec, m)
    for spec in [CaseSpec(c, a=a) for c in (1, 2) for a in (4, 5)]
    + [CaseSpec(3, a=a, b=b) for a, b in ((5, 3), (5, 4), (6, 1))]
    for m in range(4)
]


class TestIsValid:
    def test_frozen_examples(self):
        assert is_valid(CaseSpec(4), 0, "100")
        assert not is_valid(CaseSpec(4), 0, "010")
        assert not is_valid(CaseSpec(1, a=2), 1, "001")
        assert is_valid(CaseSpec(5), 0, "00111")

    def test_empty_word_valid_everywhere(self):
        for spec, m in GRID_POINTS:
            assert is_valid(spec, m, "")

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            is_valid(CaseSpec(4), 0, "120")

    def test_case2_maximal_run_semantics(self):
        spec = CaseSpec(2, a=1)
        # a run of length 4 is one maximal run, not two pairs
        assert is_valid(spec, 1, "0000")
        assert not is_valid(spec, 1, "000")
        assert is_valid(spec, 1, "00100")
        assert not is_valid(spec, 1, "010")

    def test_case3_forbidden_successors(self):
        spec = CaseSpec(3, a=4, b=2)
        assert not is_valid(spec, 0, "01")
        assert not is_valid(spec, 0, "302")
        assert is_valid(spec, 0, "03")
        assert is_valid(spec, 0, "00")

    def test_case4_block_structure(self):
        spec = CaseSpec(4)
        assert is_valid(spec, 1, "2102")
        assert is_valid(spec, 0, "10010")
        assert not is_valid(spec, 1, "120")
        assert not is_valid(spec, 0, "1001")
        assert not is_valid(spec, 1, "20")

    def test_case5_run_lengths(self):
        spec = CaseSpec(5)
        assert is_valid(spec, 0, "111001110000")
        assert not is_valid(spec, 0, "11")
        assert not is_valid(spec, 1, "0012")
        assert is_valid(spec, 1, "2222")

    def test_accepts_int_iterables(self):
        assert is_valid(CaseSpec(4), 0, [1, 0, 0])
        assert is_valid(CaseSpec(4), 0, (1, 0))

    def test_letters_by_the_integer_rule(self):
        # floats are refused, not truncated, and a string must be digits;
        # other integer types are read as ints, by the DFA as well
        spec, m = CaseSpec(1, a=2), 0
        not_int = r"^letter must be an integer, got 1\.5$"
        not_digits = "^a word given as a string must be digits, got '1 1'$"
        for check in (lambda w: is_valid(spec, m, w), build_dfa(spec, m).accepts):
            with pytest.raises(ValueError, match=not_int):
                check([1.5, 1.2])
            with pytest.raises(ValueError, match=not_digits):
                check("1 1")
            assert check([np.int64(1), np.uint8(0), True]) is True
            assert check(np.array([1, 1])) is False


class TestCountExhaustive:
    def test_frozen_examples(self):
        assert count_exhaustive(CaseSpec(2, a=1), 1, 4) == 5
        assert count_exhaustive(CaseSpec(5), 1, 4) == 7

    @pytest.mark.parametrize("point", GRID_POINTS[:6], ids=point_id)
    def test_length_zero(self, point):
        spec, m = point
        assert count_exhaustive(spec, m, 0) == 1

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_matches_recurrence_small(self, point):
        spec, m = point
        seq = fm_sequence(spec, m, 8)
        for length in range(7):
            assert count_exhaustive(spec, m, length) == seq.at(length + 1), (
                spec,
                m,
                length,
            )

    def test_matches_brute_filter(self):
        spec, m = CaseSpec(3, a=3, b=1), 1
        for length in range(5):
            brute = sum(
                1
                for w in itertools.product(range(4), repeat=length)
                if is_valid(spec, m, w)
            )
            assert count_exhaustive(spec, m, length) == brute

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded) as exc:
            count_exhaustive(CaseSpec(4), 2, 30, budget=1000)
        assert exc.value.required == 4**30
        assert exc.value.budget == 1000

    @pytest.mark.parametrize(
        "length, budget, required, count",
        [
            (64, DEFAULT_BUDGET, 3**64, str(3**64)),
            (65, DEFAULT_BUDGET, None, "3**65"),
            (65, 2**100, 3**65, "3**65"),
            (10**8, DEFAULT_BUDGET, None, "3**100000000"),
        ],
    )
    @pytest.mark.parametrize("listing", [False, True])
    def test_budget_refusal_of_long_words(
        self, length, budget, required, count, listing
    ):
        # beyond 64 letters the message writes the count as a power, and a
        # count certainly over the budget is never formed
        spec = CaseSpec(1, a=3)
        with pytest.raises(BudgetExceeded) as exc:
            if listing:
                next(iter_words(spec, 0, length, budget))
            else:
                count_exhaustive(spec, 0, length, budget)
        assert exc.value.required == required
        assert str(exc.value) == (
            f"enumerating {count} words exceeds the budget of {budget}"
        )

    def test_one_letter_alphabet_charged_as_two_letters(self):
        # one word per length, but enumerating it takes a step per letter
        spec = CaseSpec(2, a=1)
        assert count_exhaustive(spec, 0, 20) == 1
        for enumerate_words in (count_exhaustive, iter_words):
            with pytest.raises(BudgetExceeded) as exc:
                enumerate_words(spec, 0, 21)
            assert exc.value.required == 2**21
            assert str(exc.value) == (
                "enumerating the one word of length 21, charged as 2097152 "
                "words, exceeds the budget of 2000000"
            )


class TestIntegerArguments:
    SPEC = CaseSpec(1, a=2)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda spec: marked_histogram(spec, 1, 2.0), "length"),
            (lambda spec: marked_histograms(spec, 1.5, 3), "m"),
            (lambda spec: max_enumerable_length(spec, 0, budget=1e6), "budget"),
            (lambda spec: count_exhaustive(spec, 0, 3, budget=1e6), "budget"),
            (lambda spec: count_marked_exhaustive(spec, 1, 3, 1.0), "marks"),
            (lambda spec: iter_words(spec, 0, Fraction(2)), "length"),
            (lambda spec: is_valid(spec, 0.0, "10"), "m"),
            (lambda spec: build_dfa(spec, "1"), "m"),
            (lambda spec: count_automaton(spec, 1, 3, Fraction(1)), "marks"),
            (lambda spec: automaton_counts(spec, 1, 3.0), "length"),
            (lambda spec: automaton_histograms(spec, 1, "3"), "length"),
        ],
    )
    def test_non_integers_refused(self, call, name):
        # refused as CaseSpec refuses its parameters, naming the argument
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(self.SPEC)

    def test_other_integral_values_taken_as_ints(self):
        spec = self.SPEC
        assert marked_histogram(
            spec, np.int64(1), np.int8(2), budget=np.uint32(100)
        ) == marked_histogram(spec, 1, 2, budget=100) == [2, 4, 1]
        assert count_marked_exhaustive(spec, True, 3, np.int16(1)) == 8
        assert max_enumerable_length(spec, 0, budget=np.int64(1000)) == 9


class TestMarkedCounts:
    def test_frozen_examples(self):
        assert count_marked_exhaustive(CaseSpec(2, a=1), 1, 4, 0) == 1
        assert count_marked_exhaustive(CaseSpec(1, a=1), 1, 2, 1) == 2
        for spec, m in [(CaseSpec(1, a=2), 1), (CaseSpec(4), 3)]:
            assert count_marked_exhaustive(spec, m, 5, 5) == 1

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            count_marked_exhaustive(CaseSpec(4), 0, 3, 1)

    def test_marks_beyond_length(self):
        assert count_marked_exhaustive(CaseSpec(4), 1, 3, 4) == 0

    def test_histogram_sums_to_total(self):
        for spec, m in [(CaseSpec(2, a=2), 1), (CaseSpec(3, a=3, b=2), 2)]:
            for length in range(6):
                hist = marked_histogram(spec, m, length)
                assert sum(hist) == count_exhaustive(spec, m, length)

    @pytest.mark.parametrize("point", [p for p in GRID_POINTS if p[1] >= 1], ids=point_id)
    def test_matches_triangle_cells(self, point):
        spec, m = point
        length = 5
        t = lift_triangle(composition_triangle(f0_prefix(spec, length + 1)), m)
        hist = marked_histogram(spec, m, length)
        for marks in range(length + 1):
            assert hist[marks] == t.at(length + 1, marks + 1), (spec, m, marks)


# points for the block tests: every family, one-letter alphabets, and
# alphabets larger than a four-row block
BLOCK_POINTS = [
    (CaseSpec(1, a=1), 0),
    (CaseSpec(1, a=1), 1),
    (CaseSpec(1, a=2), 3),
    (CaseSpec(2, a=1), 0),
    (CaseSpec(2, a=1), 2),
    (CaseSpec(2, a=2), 1),
    (CaseSpec(3, a=3, b=1), 1),
    (CaseSpec(3, a=4, b=2), 2),
    (CaseSpec(4), 0),
    (CaseSpec(4), 1),
    (CaseSpec(4), 3),
    (CaseSpec(5), 1),
    (CaseSpec(5), 2),
]


def _reference_histogram(spec, m, length):
    s = spec.alphabet_size(m)
    if m >= 1:
        return [count_automaton(spec, m, length, k) for k in range(length + 1)]
    # no marked letter at m = 0: bucket the predicate's words by the top letter
    hist = [0] * (length + 1)
    for w in itertools.product(range(s), repeat=length):
        if is_valid(spec, m, w):
            hist[w.count(s - 1)] += 1
    return hist


# the run-length families 2 and 5 and the pair-rule families 1, 3 and 4
MASK_POINTS = [
    (spec, m)
    for spec in (
        [CaseSpec(c, a=a) for c in (1, 2) for a in (1, 2, 3)]
        + [CaseSpec(3, a=3, b=1), CaseSpec(3, a=4, b=2), CaseSpec(4), CaseSpec(5)]
    )
    for m in range(4)
]


def _index(word, s):
    # a word's index in itertools.product's order over s letters
    index = 0
    for letter in word:
        index = index * s + letter
    return index


def _level_of(spec, m, length, front):
    # every word of the given length, open at the front (a tail) or at the
    # back (a head), as _levels grows it, with the end rule it grew by
    s = spec.alphabet_size(m)
    rule = words._end_rule(spec, s, 2)
    *_, level = words._levels(spec, s, length, front, rule)
    return level, rule


def _runs_of(spec, m, letter, count, dtype):
    # a side whose row `letter` holds count words, open-end runs of 1 to
    # count letters, in the counters' dtype; every other rule holds
    s = spec.alphabet_size(m)
    run = np.ones((s, count), dtype=dtype)
    run[letter] = np.arange(1, count + 1)
    return words._Side(np.ones((s, count), dtype=bool), run)


class TestRunLengthMask:
    def test_matches_predicate(self):
        # every tail of up to 6 letters, at most 1296 words a level, its
        # front closed, against the predicate in itertools.product's order
        for spec, m in MASK_POINTS:
            s = spec.alphabet_size(m)
            rule = words._end_rule(spec, s, 2)
            top = max(l for l in range(1, 7) if s**l <= 1296)
            for l, tails in enumerate(words._levels(spec, s, top, True, rule), 1):
                closed = words._closed(spec, tails, rule).ravel().tolist()
                every = itertools.product(range(s), repeat=l)
                assert closed == [is_valid(spec, m, w) for w in every], (spec, m, l)

    @pytest.mark.parametrize(
        "point", [p for p in MASK_POINTS if p[0].case_id in (1, 3, 4)], ids=point_id
    )
    def test_pair_table_matches_rule(self, point):
        # y may follow x exactly where the pair stands in some valid word,
        # with a letter or none on each side; families 1 and 3 rule nothing
        # at the ends, so there the table is the rule on the pair itself
        spec, m = point
        s = spec.alphabet_size(m)
        allow = words._end_rule(spec, s, 2).tolist()
        sides = [()] + [(letter,) for letter in range(s)]
        for x, y in itertools.product(range(s), repeat=2):
            inside = any(
                words._rule(spec, p + (x, y) + q)
                for p, q in itertools.product(sides, repeat=2)
            )
            assert allow[x][y] == inside, (x, y)
            if spec.case_id != 4:
                assert allow[x][y] == words._rule(spec, (x, y)), (x, y)

    @pytest.mark.parametrize(
        "point", [p for p in MASK_POINTS if p[0].case_id in (2, 5)], ids=point_id
    )
    def test_divisor_rule_matches_predicate(self, point):
        # a run of r copies of any letter, r up to 300, closes exactly when
        # the predicate accepts it
        spec, m = point
        s = spec.alphabet_size(m)
        rule = words._end_rule(spec, s, 300)
        for letter in range(s):
            side = _runs_of(spec, m, letter, 300, np.min_scalar_type(300))
            closed = words._run_closed(side, rule)[letter].tolist()
            assert closed == [
                is_valid(spec, m, [letter] * r) for r in range(1, 301)
            ], letter

    @pytest.mark.parametrize(
        "spec, letter, run",
        [
            (CaseSpec(5), 1, 255),
            (CaseSpec(5), 1, 256),
            (CaseSpec(5), 1, 257),
            (CaseSpec(5), 1, 258),
            (CaseSpec(2, a=1), 0, 256),
            (CaseSpec(2, a=1), 0, 257),
        ],
    )
    def test_long_runs(self, spec, letter, run):
        # runs of 1 to about 256 letters in the counters' type for words of
        # that many letters, where an 8-bit counter would wrap
        period = 3 if letter == 1 else 2
        unrestricted = spec.alphabet_size(1) - 1
        side = _runs_of(spec, 1, letter, run, np.min_scalar_type(run))
        rule = words._end_rule(spec, spec.alphabet_size(1), run)
        closed = words._run_closed(side, rule)[letter].tolist()
        assert closed == [r % period == 0 for r in range(1, run + 1)]
        for word in ([letter] * run, [letter] * run + [unrestricted]):
            assert is_valid(spec, 1, word) == (run % period == 0)


def _join_of(spec, m, heads, tails):
    # every head joined with every tail as _histograms joins them: each side
    # grown as a whole level, and the heads joined one at a time, each the
    # one valid head of its level and counted with no marks
    s = spec.alphabet_size(m)
    head_level, rule = _level_of(spec, m, len(heads[0]), False)
    tail_level, _ = _level_of(spec, m, len(tails[0]), True)
    no_marks = np.zeros(head_level.ok.size, dtype=np.uint8)
    rows = []
    for head in heads:
        i = _index(head[::-1], s)
        ok = np.zeros_like(head_level.ok)
        ok.flat[i] = head_level.ok.flat[i]
        alone = (words._Side(ok, head_level.run), no_marks)
        [(_, acc)] = words._joins([alone], tail_level, rule, 1)
        counts = acc[0].ravel()
        rows.append([int(counts[_index(tail, s)]) for tail in tails])
    return rows


def _each_joined(spec, m, heads, tails):
    return [[int(is_valid(spec, m, h + t)) for t in tails] for h in heads]


class TestHeadTailJoin:
    def test_matches_predicate(self):
        # every head of 1 to 3 letters joined with every tail of 1 to 3,
        # at most 1296 words: a join has a letter on each side of its
        # boundary
        for spec, m in MASK_POINTS:
            s = spec.alphabet_size(m)
            for h, t in itertools.product(range(1, 4), repeat=2):
                if s ** (h + t) <= 1296:
                    heads = [w[::-1] for w in itertools.product(range(s), repeat=h)]
                    tails = list(itertools.product(range(s), repeat=t))
                    assert _join_of(spec, m, heads, tails) == _each_joined(
                        spec, m, heads, tails
                    ), (spec, m, h, t)

    @pytest.mark.parametrize("point", MASK_POINTS, ids=point_id)
    def test_runs_across_the_boundary(self, point):
        # a run of 1 to 7 letters ends every head and starts every tail,
        # next to another letter: of the same letter, 2 to 14 letters cross
        # the boundary; of another, a run ends on each side of it
        spec, m = point
        s = spec.alphabet_size(m)
        heads, tails = [], []
        for x in range(s):
            y = (x + 1) % s
            heads += [(y,) * (7 - i) + (x,) * i for i in range(1, 8)]
            tails += [
                (first,) * j + (second,) * (7 - j)
                for first, second in ((x, y), (y, x))
                for j in range(1, 8)
            ]
        assert _join_of(spec, m, heads, tails) == _each_joined(spec, m, heads, tails)

    @pytest.mark.parametrize(
        "spec, letter, run",
        [
            (CaseSpec(5), 1, 255),
            (CaseSpec(5), 1, 256),
            (CaseSpec(5), 1, 257),
            (CaseSpec(5), 1, 258),
            (CaseSpec(2, a=1), 0, 256),
            (CaseSpec(2, a=1), 0, 257),
        ],
    )
    def test_long_run_across_the_boundary(self, spec, letter, run):
        # 200 letters of the run end the head and the rest start the tail:
        # each side alone in its block, with the ok bit and run that its
        # level gives it, each run in an 8-bit counter; the run across the
        # boundary would wrap one
        period = 3 if letter == 1 else 2
        s = spec.alphabet_size(1)
        rule = words._end_rule(spec, s, 2)
        rest = run - 200
        head, tail = _runs_of(spec, 1, letter, 200, np.uint8), _runs_of(
            spec, 1, letter, rest, np.uint8
        )
        head.ok[:] = False
        head.ok[letter, -1] = True
        tail.ok[:] = False
        tail.ok[letter, -1] = True
        # the tail's closed bits, made as its level makes them
        tail = words._run_side(tail.ok, tail.run, rule)
        heads = [(head, np.zeros(head.ok.size, dtype=np.uint8))]
        [(_, acc)] = words._joins(heads, tail, rule, 1)
        assert acc.sum() == acc[0, letter, -1] == (run % period == 0)
        unrestricted = s - 1
        for tails in ([[letter] * rest], [[letter] * rest + [unrestricted]]):
            assert _each_joined(spec, 1, [[letter] * 200], tails) == [
                [run % period == 0]
            ]

    def test_each_level_grown_once(self, monkeypatch):
        # 16-word levels: tails of 2 of the 3 letters, then heads of up to
        # 6; the first level of each is its letters alone, grown from none
        monkeypatch.setattr(words, "_CHUNK_ROWS", 16)
        grown = {True: [], False: []}
        grow = words._grow

        def counted(side, rule, front):
            level = grow(side, rule, front)
            grown[front].append(level.ok.size)
            return level

        monkeypatch.setattr(words, "_grow", counted)
        spec, m = CaseSpec(4), 1
        assert marked_histograms(spec, m, 8) == automaton_histograms(spec, m, 8)
        assert grown == {True: [9], False: [9, 27, 81, 243, 729]}


# block sizes of 1, 4 and 16 rows, so that heads run from one letter to
# four and more; the 4-row cases keep the point's own id
BLOCK_SIZES = [
    pytest.param(
        point, rows, id=point_id(point) + ("" if rows == 4 else f"-{rows}rows")
    )
    for rows in (4, 1, 16)
    for point in BLOCK_POINTS
]


class TestEnumerationBlocks:
    @pytest.mark.parametrize("point, rows", BLOCK_SIZES)
    def test_many_blocks_match_reference(self, point, rows, monkeypatch):
        # small blocks: most lengths join many heads with one tail table,
        # and alphabets larger than a block get tails of one letter
        monkeypatch.setattr(words, "_CHUNK_ROWS", rows)
        spec, m = point
        for length in range(max_enumerable_length(spec, m, budget=1500) + 1):
            assert marked_histogram(spec, m, length) == _reference_histogram(
                spec, m, length
            ), (spec, m, length)

    @pytest.mark.parametrize(
        "spec",
        [CaseSpec(1, a=1000), CaseSpec(2, a=700), CaseSpec(3, a=1400, b=3)],
        ids=spec_id,
    )
    def test_large_alphabets_at_length_two(self, spec):
        # 10**6 to 2 * 10**6 words, one head of one letter per letter: the
        # pair table or the divisors are formed once, not per head
        start = time.perf_counter()
        count = count_exhaustive(spec, 0, 2)
        assert time.perf_counter() - start < 2
        assert count == count_automaton(spec, 0, 2)

    def test_alphabet_larger_than_a_block(self):
        # 1,248,579 letters: the block holds one letter column of them all,
        # not one word each
        spec, m = CaseSpec(4), 1_248_576
        start = time.perf_counter()
        hist = marked_histogram(spec, m, 1)
        assert time.perf_counter() - start < 2
        # a word of one letter is valid unless it is 0 or 1
        assert hist == [spec.alphabet_size(m) - 3, 1]


class TestEveryLengthFromOneEnumeration:
    @staticmethod
    def _assert_per_length(spec, m, length, budget=DEFAULT_BUDGET):
        hists = marked_histograms(spec, m, length, budget)
        assert hists == [
            marked_histogram(spec, m, l, budget) for l in range(length + 1)
        ], (spec, m, length)

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_grid_points(self, point):
        spec, m = point
        self._assert_per_length(spec, m, min(8, max_enumerable_length(spec, m)))

    @pytest.mark.parametrize("point, rows", BLOCK_SIZES)
    def test_four_row_blocks(self, point, rows, monkeypatch):
        monkeypatch.setattr(words, "_CHUNK_ROWS", rows)
        spec, m = point
        self._assert_per_length(spec, m, max_enumerable_length(spec, m, budget=1500))

    def test_many_real_blocks(self):
        # 5**9 words: 25 heads of two letters joined with 5**7 tails
        assert words._CHUNK_ROWS < 5**9
        self._assert_per_length(CaseSpec(5), 3, 9, budget=10**7)

    def test_hundreds_of_heads_per_tail(self, monkeypatch):
        # tails of one letter: 448 heads of six letters, none marked, join
        # each tail row, more than an 8-bit counter holds
        monkeypatch.setattr(words, "_CHUNK_ROWS", 4)
        spec, m = CaseSpec(1, a=1), 3
        assert marked_histograms(spec, m, 7) == automaton_histograms(spec, m, 7)

    def test_one_letter_alphabet(self):
        # the single letter pads shorter words and is also the top letter
        self._assert_per_length(CaseSpec(1, a=1), 0, 12)
        hists = marked_histograms(CaseSpec(1, a=1), 0, 3)
        assert hists == [[1], [0, 1], [0, 0, 0], [0, 0, 0, 0]]

    @pytest.mark.parametrize("point", BLOCK_POINTS, ids=point_id)
    def test_length_zero(self, point):
        spec, m = point
        assert marked_histograms(spec, m, 0) == [[1]]

    @pytest.mark.parametrize(
        "length, budget",
        [(-1, DEFAULT_BUDGET), (30, 1000), (65, DEFAULT_BUDGET), (2, 0)],
    )
    def test_errors_match_top_length(self, length, budget):
        spec, m = CaseSpec(1, a=3), 0
        with pytest.raises((ValueError, BudgetExceeded)) as every:
            marked_histograms(spec, m, length, budget)
        with pytest.raises((ValueError, BudgetExceeded)) as one:
            marked_histogram(spec, m, length, budget)
        assert type(every.value) is type(one.value)
        assert str(every.value) == str(one.value)


    @pytest.mark.parametrize("length", [255, 256, 257, 258])
    def test_long_one_letter_words(self, length):
        # one run about 256 letters long grown through the levels
        # themselves, where an 8-bit counter would wrap; its one letter is
        # also the top letter
        spec = CaseSpec(2, a=1)
        hist = marked_histogram(spec, 0, length, budget=2**300)
        assert hist == [0] * length + [count_automaton(spec, 0, length)]

    @pytest.mark.parametrize("point", OFF_GRID_POINTS, ids=point_id)
    def test_off_grid_points(self, point):
        spec, m = point
        length = max_enumerable_length(spec, m, budget=20_000)
        hists = marked_histograms(spec, m, length, budget=20_000)
        if m >= 1:
            assert hists == automaton_histograms(spec, m, length)
        else:
            # no marked letter at m = 0: the counts alone
            assert [sum(h) for h in hists] == automaton_counts(spec, m, length)


def _int64_fold(acc, s):
    # the reference fold: every step in int64, whatever the number of
    # words it counts
    marked = s - 1
    while acc.shape[1] > 1:
        cube = acc.reshape(len(acc), s, -1)
        acc = np.zeros((len(cube) + 1, cube.shape[2]), dtype=np.int64)
        cube[:, :marked].sum(axis=1, dtype=np.int64, out=acc[:-1])
        acc[1:] += cube[:, marked]
    return acc[:, 0]


class TestFold:
    @settings(max_examples=60, deadline=None)
    @given(
        s=st.integers(2, 6),
        h=st.integers(0, 5),
        t=st.integers(1, 6),
        full=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_int64_fold(self, s, h, t, full, seed):
        # h + 1 rows of head marks by s**t tails, each count at most the
        # s**h heads, in the type the joins count them in; full puts every
        # count at that bound, otherwise one count reaches it
        bound = s**h
        rng = np.random.default_rng(seed)
        shape = (h + 1, s**t)
        if full:
            acc = np.full(shape, bound)
        else:
            acc = rng.integers(0, bound + 1, size=shape)
            acc.flat[rng.integers(acc.size)] = bound
        acc = acc.astype(np.min_scalar_type(bound))
        folded = words._fold(acc, s, bound)
        assert folded.tolist() == _int64_fold(acc.astype(np.int64), s).tolist()
        assert folded.dtype == np.min_scalar_type(bound * s**t)

    def test_counts_past_8_and_16_bits(self, monkeypatch):
        # tails of two of the 7 letters, so the last fold at each length
        # gives its histogram: past 2^8 from 4 letters, past 2^16 at 7
        monkeypatch.setattr(words, "_CHUNK_ROWS", 49)
        spec, m = CaseSpec(1, a=1), 6
        hists = marked_histograms(spec, m, 7)
        assert hists == automaton_histograms(spec, m, 7)
        assert 2**8 < max(hists[4]) < 2**16 < max(hists[7])


def _runs(word):
    return [len(list(g)) for _, g in itertools.groupby(word)]


class TestLevels:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("spec", [CaseSpec(1, a=1), CaseSpec(2, a=1)], ids=spec_id)
    def test_lexicographic_order(self, spec, m):
        # every tail of l letters in itertools.product's order, which _fold
        # relies on, row y holding those whose first letter is y: its marks,
        # the run at its open front and its validity
        s = spec.alphabet_size(m)
        rule = words._end_rule(spec, s, 4)
        levels = zip(words._levels(spec, s, 4, True, rule), words._marks(s, 4))
        for l, (level, marks) in enumerate(levels, 1):
            every = list(itertools.product(range(s), repeat=l))
            assert level.ok.shape == (s, s ** (l - 1))
            assert marks.tolist() == [w.count(s - 1) for w in every]
            assert words._closed(spec, level, rule).ravel().tolist() == [
                is_valid(spec, m, w) for w in every
            ]
            if spec.case_id == 2:
                assert level.run.ravel().tolist() == [_runs(w)[0] for w in every]
            else:
                assert level.run is None

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("spec", [CaseSpec(1, a=1), CaseSpec(2, a=1)], ids=spec_id)
    def test_heads_open_at_the_back(self, spec, m):
        # every head of l letters, each letter put after every shorter head,
        # row y holding those whose last letter is y: its marks and the run
        # at its open back; its validity leaves out the last run, which a
        # join may go on
        s = spec.alphabet_size(m)
        rule = words._end_rule(spec, s, 4)
        levels = zip(words._levels(spec, s, 4, False, rule), words._marks(s, 4))
        for l, (level, marks) in enumerate(levels, 1):
            every = [w[::-1] for w in itertools.product(range(s), repeat=l)]
            assert level.ok.shape == (s, s ** (l - 1))
            assert marks.tolist() == [w.count(s - 1) for w in every]
            checked = [
                w[: -_runs(w)[-1]] if spec.case_id == 2 else w for w in every
            ]
            assert level.ok.ravel().tolist() == [
                is_valid(spec, m, w) for w in checked
            ]
            if spec.case_id == 2:
                assert level.run.ravel().tolist() == [_runs(w)[-1] for w in every]
            else:
                assert level.run is None

    def test_run_counters_hold_top(self):
        # the one letter of family 2 at a = 1, m = 0 in a run of every length
        # up to 258: the counters' type holds the top level's run
        spec = CaseSpec(2, a=1)
        rule = words._end_rule(spec, 1, 258)
        for l, level in enumerate(words._levels(spec, 1, 258, True, rule), 1):
            assert level.run.tolist() == [[l]]
            assert level.ok.tolist() == [[True]]
            assert words._closed(spec, level, rule).tolist() == [[l % 2 == 0]]


class TestIterWords:
    def test_lists_exactly_the_valid_words(self):
        spec, m = CaseSpec(4), 1
        got = list(iter_words(spec, m, 3))
        expect = [
            w
            for w in itertools.product(range(3), repeat=3)
            if is_valid(spec, m, w)
        ]
        assert got == expect
        assert len(got) == count_exhaustive(spec, m, 3)

    @pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
    def test_filters_the_product_by_the_predicate(self, spec):
        for m in range(4):
            s = spec.alphabet_size(m)
            for length in range(6):
                expect = [
                    w
                    for w in itertools.product(range(s), repeat=length)
                    if is_valid(spec, m, w)
                ]
                assert list(iter_words(spec, m, length)) == expect, (m, length)

    def test_budget_applies(self):
        with pytest.raises(BudgetExceeded):
            list(iter_words(CaseSpec(4), 0, 40, budget=100))

    def test_checks_on_the_call(self):
        # no word is asked for: the call itself must raise
        with pytest.raises(ValueError, match="length must be >= 0"):
            iter_words(CaseSpec(4), 0, -1)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            iter_words(CaseSpec(4), 1, 2, budget=0)


class TestDfa:
    def test_state_counts(self):
        assert build_dfa(CaseSpec(3, a=4, b=2), 1).state_count == 2
        assert build_dfa(CaseSpec(1, a=3), 0).state_count == 4
        assert build_dfa(CaseSpec(2, a=2), 1).state_count == 5
        assert build_dfa(CaseSpec(4), 2).state_count == 3
        assert build_dfa(CaseSpec(5), 0).state_count == 6

    def test_case5_accepting_states(self):
        dfa = build_dfa(CaseSpec(5), 1)
        assert dfa.accepting == (True, False, True, False, False, True)

    def test_letters_outside_the_alphabet_refused(self):
        # as is_valid refuses them, even after a rejecting prefix (0, 0)
        spec, m = CaseSpec(1, a=2), 1
        for word in ([-1], [3], [0, 0, -1]):
            for check in (build_dfa(spec, m).accepts, lambda w: is_valid(spec, m, w)):
                with pytest.raises(ValueError, match=r"^letters must lie in 0\.\.2$"):
                    check(word)

    def test_reads_words_as_is_valid_does(self):
        spec, m = CaseSpec(1, a=2), 1
        for word in ("01", "00", "", (0, 2, 2)):
            assert build_dfa(spec, m).accepts(word) == is_valid(spec, m, word)

    def test_oversized_table_refused(self):
        # family 1 at a = 2000 has 2001 states; every counting route builds
        # the m = 1 table, 2001 x 2001 moves, over the budget's 2000000,
        # and refuses it at every level
        spec = CaseSpec(1, a=2000)
        calls = [
            lambda: build_dfa(spec, 1),
            lambda: count_automaton(spec, 0, 3),
            lambda: count_automaton(spec, 5, 3),
            lambda: count_automaton(spec, 1, 3, 1),
            lambda: automaton_counts(spec, 0, 3),
            lambda: automaton_histograms(spec, 1, 3),
        ]
        for call in calls:
            with pytest.raises(BudgetExceeded) as exc:
                call()
            assert exc.value.budget == DEFAULT_BUDGET
            assert exc.value.required == 2001 * 2001
            assert str(exc.value) == (
                "tabulating the automaton's 2001 states x 2001 letters = 4004001 "
                f"moves exceeds the budget of {DEFAULT_BUDGET}"
            )
        with pytest.raises(BudgetExceeded, match="2001 states x 2000 letters"):
            build_dfa(spec, 0)

    @pytest.mark.parametrize(
        "spec",
        sorted({spec for spec, _ in GRID_POINTS + OFF_GRID_POINTS}, key=spec_id),
        ids=spec_id,
    )
    def test_free_letters_move_alike(self, spec):
        # the one quotient of the m = 1 table serves every level because
        # every level's table is that one with its free column (the last)
        # dropped at m = 0 or repeated m times
        one = build_dfa(spec, 1)
        for m in range(7):
            dfa = build_dfa(spec, m)
            assert (dfa.start, dfa.accepting) == (one.start, one.accepting)
            assert dfa.transitions == tuple(
                row[:-1] + row[-1:] * m for row in one.transitions
            ), m

    @pytest.mark.parametrize("point", GRID_POINTS + OFF_GRID_POINTS, ids=point_id)
    def test_language_equals_predicate(self, point):
        spec, m = point
        dfa = build_dfa(spec, m)
        s = spec.alphabet_size(m)
        max_len = 8 if s <= 3 else 5
        for length in range(max_len + 1):
            for w in itertools.product(range(s), repeat=length):
                assert dfa.accepts(w) == is_valid(spec, m, w), (spec, m, w)

    @given(st.data())
    @settings(max_examples=200)
    def test_language_equals_predicate_random(self, data):
        spec, m = data.draw(st.sampled_from(GRID_POINTS))
        s = spec.alphabet_size(m)
        w = data.draw(
            st.lists(st.integers(min_value=0, max_value=s - 1), max_size=30)
        )
        assert build_dfa(spec, m).accepts(w) == is_valid(spec, m, w)


class TestCountAutomaton:
    def test_frozen_examples(self):
        assert count_automaton(CaseSpec(2, a=1), 2, 4) == 29
        assert count_automaton(CaseSpec(3, a=3, b=2), 0, 4) == 31
        assert count_automaton(CaseSpec(1, a=2), 0, 0) == 1

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_matches_exhaustive(self, point):
        spec, m = point
        for length in range(7):
            assert count_automaton(spec, m, length) == count_exhaustive(
                spec, m, length
            )

    def test_marked_matches_exhaustive(self):
        for spec, m in [(CaseSpec(1, a=2), 2), (CaseSpec(5), 1)]:
            for length in range(6):
                for marks in range(length + 1):
                    assert count_automaton(
                        spec, m, length, marks
                    ) == count_marked_exhaustive(spec, m, length, marks)

    def test_scales_past_enumeration(self):
        spec = CaseSpec(2, a=2)
        expect = fm_sequence(spec, 1, 202).at(201)
        assert count_automaton(spec, 1, 200) == expect

    def test_marked_level_zero_rejected(self):
        with pytest.raises(ValueError):
            count_automaton(CaseSpec(4), 0, 3, 1)

    @pytest.mark.parametrize(
        "spec", [CaseSpec(1, a=2), CaseSpec(4), CaseSpec(5)], ids=spec_id
    )
    def test_huge_level(self, spec):
        # a table at m = 10**6 would hold millions of moves; the quotient
        # of the m = 1 table weighs its free letter by m instead
        m = 10**6
        start = time.perf_counter()
        got = [count_automaton(spec, m, length) for length in range(6)]
        assert time.perf_counter() - start < 1
        assert got == list(fm_sequence(spec, m, 6))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_large_alphabet_histogram_matches(self, data):
        # alphabets past 128 letters overflow int8 letter columns
        case_id = data.draw(st.sampled_from((1, 2, 3, 4, 5)))
        s = data.draw(st.integers(min_value=120, max_value=300))
        if case_id in (1, 2):
            spec = CaseSpec(case_id, a=data.draw(st.integers(1, s - 1)))
        elif case_id == 3:
            a = data.draw(st.integers(2, s - 1))
            spec = CaseSpec(3, a=a, b=data.draw(st.integers(1, a - 1)))
        else:
            spec = CaseSpec(case_id)
        m = s - spec.base_alphabet
        for length in range(3):
            assert marked_histogram(spec, m, length) == [
                count_automaton(spec, m, length, marks)
                for marks in range(length + 1)
            ], (spec, m, length)


class TestAutomatonOnePass:
    @pytest.mark.parametrize("point", BLOCK_POINTS, ids=point_id)
    def test_counts_match_per_length(self, point):
        spec, m = point
        assert automaton_counts(spec, m, 60) == [
            count_automaton(spec, m, length) for length in range(61)
        ]

    @pytest.mark.parametrize(
        "point", [p for p in BLOCK_POINTS if p[1] >= 1], ids=point_id
    )
    def test_histograms_match_per_cell(self, point):
        spec, m = point
        rows = automaton_histograms(spec, m, 9)
        assert rows == [
            [count_automaton(spec, m, length, k) for k in range(length + 1)]
            for length in range(10)
        ]
        assert [sum(row) for row in rows] == automaton_counts(spec, m, 9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="length must be >= 0"):
            automaton_counts(CaseSpec(4), 1, -1)
        with pytest.raises(ValueError, match="length must be >= 0"):
            automaton_histograms(CaseSpec(4), 1, -1)
        with pytest.raises(ValueError) as one_pass:
            automaton_histograms(CaseSpec(4), 0, 3)
        with pytest.raises(ValueError) as per_cell:
            count_automaton(CaseSpec(4), 0, 3, 1)
        assert str(one_pass.value) == str(per_cell.value)


def _full_dfa_rows(dfa, length, cap, marked):
    # the reference: the DP over every state of the DFA, not its blocks.
    # After 0, 1, ..., length letters, the accepted words by number of
    # marked letters 0..cap, the marked letter being the top one when
    # marked; words with more than cap marks are dropped
    mark = dfa.alphabet_size - 1 if marked else -1
    moves = [
        Counter((to, int(x == mark)) for x, to in enumerate(row) if to >= 0)
        for row in dfa.transitions
    ]
    occ = [[0] * (cap + 1) for _ in moves]
    occ[dfa.start][0] = 1
    rows = []
    for step in range(length + 1):
        if step:
            nxt = [[0] * (cap + 1) for _ in moves]
            for layers, out in zip(occ, moves):
                for (to, shift), k in out.items():
                    for j in range(cap + 1 - shift):
                        nxt[to][j + shift] += k * layers[j]
            occ = nxt
        accepted = [layers for layers, acc in zip(occ, dfa.accepting) if acc]
        rows.append([sum(col) for col in zip(*accepted)])
    return rows


@pytest.fixture
def fresh_quotients():
    # the quotients are cached per spec; a test that
    # substitutes build_dfa must not read or leave a stale one
    words._lumped.cache_clear()
    yield
    words._lumped.cache_clear()


# a DFA in which the marked letter (1) splits the accepting block: states
# 0 and 1 both send one letter to each block, but state 0's marked letter
# leads to the rejecting state 2 and state 1's to the accepting state 1
MARK_SPLIT_DFA = words.Dfa(0, ((1, 2), (2, 1), (0, 0)), (True, True, False))


class TestLumpedAutomaton:
    @pytest.mark.parametrize("point", BLOCK_POINTS, ids=point_id)
    def test_counts_match_full_dfa(self, point):
        spec, m = point
        rows = _full_dfa_rows(build_dfa(spec, m), 200, 0, False)
        assert automaton_counts(spec, m, 200) == [row[0] for row in rows]
        assert [count_automaton(spec, m, length) for length in range(31)] == [
            row[0] for row in rows[:31]
        ]

    @pytest.mark.parametrize(
        "point", [p for p in BLOCK_POINTS if p[1] >= 1], ids=point_id
    )
    def test_histograms_match_full_dfa(self, point):
        spec, m = point
        rows = _full_dfa_rows(build_dfa(spec, m), 200, 200, True)
        assert automaton_histograms(spec, m, 200) == [
            row[: length + 1] for length, row in enumerate(rows)
        ]
        # every marks count, one past the length included
        for length in range(31):
            assert [
                count_automaton(spec, m, length, marks) for marks in range(length + 2)
            ] == rows[length][: length + 2], length

    @pytest.mark.parametrize("point", GRID_POINTS, ids=point_id)
    def test_block_counts(self, point):
        # every level of a family steps the family's one quotient
        spec = point[0]
        blocks = 2 if spec.case_id <= 3 else 3
        start, T0, U, accepting = words._lumped(spec)
        assert len(accepting) == blocks
        assert [len(row) for row in T0 + U] == [blocks] * (2 * blocks)

    def test_marked_letter_splits_blocks(self, monkeypatch, fresh_quotients):
        # a substitute whose free letter (1) repeats with m, as build_dfa's
        # does
        def split_dfa(spec, m):
            return MARK_SPLIT_DFA._replace(transitions=tuple(
                row[:1] + row[1:] * m for row in MARK_SPLIT_DFA.transitions
            ))

        monkeypatch.setattr(words, "build_dfa", split_dfa)
        spec = CaseSpec(1, a=1)
        # with the letters not told apart, states 0 and 1 would be one block
        # of 2 at m = 1, though not at m = 2; the free letter apart, 3
        alike = [0, 0, 1]
        sent = [Counter(alike[to] for to in row) for row in MARK_SPLIT_DFA.transitions]
        assert sent[0] == sent[1]
        assert len(words._lumped(spec)[3]) == 3
        assert _full_dfa_rows(split_dfa(spec, 1), 2, 2, True)[2] == [0, 2, 1]
        for m in range(4):
            dfa = split_dfa(spec, m)
            plain = _full_dfa_rows(dfa, 40, 0, False)
            assert automaton_counts(spec, m, 40) == [row[0] for row in plain], m
            if m >= 1:
                rows = _full_dfa_rows(dfa, 40, 40, True)
                assert automaton_histograms(spec, m, 40) == [
                    row[: length + 1] for length, row in enumerate(rows)
                ], m


class TestMaxEnumerableLength:
    def test_values(self):
        assert max_enumerable_length(CaseSpec(4), 0, budget=2_000_000) == 20
        assert max_enumerable_length(CaseSpec(1, a=3), 0, budget=1000) == 6
        # one-letter alphabet capped as if binary
        assert max_enumerable_length(CaseSpec(1, a=1), 0, budget=1000) == 9

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            max_enumerable_length(CaseSpec(4), 0, budget=0)
