"""Ground truth by direct counting.

Three independent routes to the same numbers:

* ``is_valid``: a pure per-word predicate, the most literal reading of
  each family's constraint (maximal-run semantics spelled out).
* ``count_exhaustive`` / ``marked_histogram``: enumerate every word of a
  given length in blocks.  A block fixes a leading prefix of letters and
  runs through every tail of ``t`` letters, where ``s**t`` is the largest
  power of the alphabet size that fits one block; the tail columns are
  built once with ``np.repeat``/``np.tile`` and every prefix in
  lexicographic order reuses them.  The constraint is applied with
  vectorized scans over contiguous letter columns; for the run-length
  families 2 and 5 the scan keeps each word's current run length in a
  counter and checks every run as it closes.  Refuses to enumerate
  more than ``budget`` words; optional process-level parallelism
  partitions by first letter.
* ``count_automaton``: a hand-built DFA per family driven by a
  transfer-matrix DP over arbitrary-precision ints, usable far beyond
  enumeration range (length 500 and up).  The DP reaches every shorter
  length on its way, so ``automaton_counts`` (counts at lengths 0..N)
  and ``automaton_histograms`` (counts by number of marked letters at
  lengths 0..N) read a whole sequence or triangle off one pass instead
  of recounting each prefix.

f_m(n) counts valid words of length n-1, so counts at word length L line
up with sequence index L+1.  The marked letter is always the largest
letter of the extended alphabet and exists only for m >= 1; a word with
k-1 marks at length L corresponds to the triangle cell c_m(L+1, k).
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence as SequenceABC

import numpy as np

from .cases import CaseSpec

DEFAULT_BUDGET = 2_000_000

_CHUNK_ROWS = 1 << 20


class BudgetExceeded(RuntimeError):
    """Raised instead of silently truncating an over-budget enumeration."""

    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"enumerating {required} words exceeds the budget of {budget}"
        )
        self.required = required
        self.budget = budget


def _as_letters(word) -> tuple[int, ...]:
    if isinstance(word, str):
        return tuple(int(ch) for ch in word)
    return tuple(int(x) for x in word)


def is_valid(spec: CaseSpec, m: int, word) -> bool:
    """Whether a word satisfies the family's constraint.

    Accepts a string of digits or an iterable of ints; every letter must
    be below the extended alphabet size.
    """
    letters = _as_letters(word)
    s = spec.alphabet_size(m)
    if any(not 0 <= x < s for x in letters):
        raise ValueError(f"letters must lie in 0..{s - 1}")
    a = spec.base_alphabet
    cid = spec.case_id
    if cid == 1:
        return not any(
            x == y and x < a for x, y in zip(letters, letters[1:])
        )
    if cid == 3:
        b = spec.b
        return not any(
            x == 0 and 1 <= y <= b for x, y in zip(letters, letters[1:])
        )
    runs = [(letter, len(list(g))) for letter, g in itertools.groupby(letters)]
    if cid == 2:
        return all(length % 2 == 0 for letter, length in runs if letter < a)
    if cid == 4:
        for i, (letter, length) in enumerate(runs):
            if letter == 1:
                if length != 1:
                    return False
                if i + 1 >= len(runs) or runs[i + 1][0] != 0:
                    return False
            elif letter == 0:
                if i == 0 or runs[i - 1][0] != 1:
                    return False
        return True
    for letter, length in runs:
        if letter == 0 and length % 2 != 0:
            return False
        if letter == 1 and length % 3 != 0:
            return False
    return True


def iter_words(
    spec: CaseSpec, m: int, length: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """All valid words of the given length, in lexicographic order."""
    if length < 0:
        raise ValueError("length must be >= 0")
    s = spec.alphabet_size(m)
    required = s**length
    if required > budget:
        raise BudgetExceeded(required, budget)
    for word in itertools.product(range(s), repeat=length):
        if is_valid(spec, m, word):
            yield word


def max_enumerable_length(
    spec: CaseSpec, m: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Largest length whose full enumeration fits the budget.

    A one-letter alphabet has a single word per length; the cap 2^L <=
    budget is applied there so scans still terminate.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    s = max(spec.alphabet_size(m), 2)
    length = 0
    while s ** (length + 1) <= budget:
        length += 1
    return length


def _valid_mask(spec: CaseSpec, m: int, block: np.ndarray) -> np.ndarray:
    a = spec.base_alphabet
    cid = spec.case_id
    n_rows, length = block.shape
    if cid == 1:
        ok = np.ones(n_rows, dtype=bool)
        for i in range(length - 1):
            ok &= ~((block[:, i] == block[:, i + 1]) & (block[:, i] < a))
        return ok
    if cid == 3:
        b = spec.b
        ok = np.ones(n_rows, dtype=bool)
        for i in range(length - 1):
            nxt = block[:, i + 1]
            ok &= ~((block[:, i] == 0) & (nxt >= 1) & (nxt <= b))
        return ok
    if cid == 4:
        # all constraints are local: runs of 1 have length 1, a 1 is
        # followed by a 0, a 0 is preceded by a 0 or a 1-run start
        ok = np.ones(n_rows, dtype=bool)
        if length == 0:
            return ok
        ok &= block[:, 0] != 0
        ok &= block[:, -1] != 1
        for i in range(length - 1):
            cur, nxt = block[:, i], block[:, i + 1]
            ok &= ~((cur == 1) & (nxt != 0))
            ok &= ~((cur > 1) & (nxt == 0))
        return ok
    # families 2 and 5: count the length of the current maximal run; where
    # the letter changes, the run that just closed must be allowed
    ok = np.ones(n_rows, dtype=bool)
    if length == 0:
        return ok

    def run_ok(letters: np.ndarray, runs: np.ndarray) -> np.ndarray:
        if cid == 2:
            return (letters >= a) | _divisible(runs, 2)
        return ((letters != 0) | _divisible(runs, 2)) & (
            (letters != 1) | _divisible(runs, 3)
        )

    # a run is at most `length` letters long, so the counter never wraps
    run = np.ones(n_rows, dtype=np.min_scalar_type(length))
    same = np.empty(n_rows, dtype=bool)
    prev = block[:, 0]
    for i in range(1, length):
        col = block[:, i]
        np.equal(col, prev, out=same)
        ok &= same | run_ok(prev, run)
        run *= same
        run += 1
        prev = col
    ok &= run_ok(prev, run)
    return ok


def _divisible(runs: np.ndarray, d: int) -> np.ndarray:
    # numpy's integer remainder is several times slower than its floor
    # division by a scalar, so test divisibility without `%`
    return runs // d * d == runs


def _histogram_block(
    spec: CaseSpec, m: int, length: int, first: int | None
) -> list[int]:
    # counts of valid words by number of marked letters, over all words
    # (optionally fixed first letter)
    s = spec.alphabet_size(m)
    marked = s - 1
    hist = np.zeros(length + 1, dtype=np.int64)
    if length == 0:
        hist[0] = 1
        return hist.tolist()
    lead = [] if first is None else [first]
    free = length - len(lead)
    tail = 0
    while tail < free and s ** (tail + 1) <= _CHUNK_ROWS:
        tail += 1
    # letters take the smallest signed type that holds 0..s-1; one row per
    # letter position, so each column of the word block is contiguous
    letters = np.arange(s, dtype=np.min_scalar_type(-s))
    cols = np.empty((length, s**tail), dtype=letters.dtype)
    tail_marks = np.zeros(s**tail, dtype=np.min_scalar_type(length))
    for i, row in enumerate(cols[length - tail :]):
        row[:] = np.tile(np.repeat(letters, s ** (tail - 1 - i)), s**i)
        tail_marks += row == marked
    for prefix in itertools.product(range(s), repeat=free - tail):
        fixed = (*lead, *prefix)
        for row, letter in zip(cols, fixed):
            row.fill(letter)
        mask = _valid_mask(spec, m, cols.T)
        # a word's marks are its fixed prefix's plus its tail's
        shift = fixed.count(marked)
        hist[shift : shift + tail + 1] += np.bincount(
            tail_marks[mask], minlength=tail + 1
        )
    return hist.tolist()


def marked_histogram(
    spec: CaseSpec,
    m: int,
    length: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[int]:
    """Counts of valid words of the given length, bucketed by how many
    times the marked letter (the alphabet maximum) occurs.

    With ``jobs > 1`` the words are split by first letter over a pool of
    at most ``min(jobs, s, os.cpu_count())`` worker processes."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    s = spec.alphabet_size(m)
    required = s**length
    if required > budget:
        raise BudgetExceeded(required, budget)
    workers = min(jobs, s, os.cpu_count() or 1)
    if workers == 1 or length == 0:
        return _histogram_block(spec, m, length, None)
    hist = [0] * (length + 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _histogram_block, *zip(*[(spec, m, length, first) for first in range(s)])
        )
        for part in parts:
            for i, v in enumerate(part):
                hist[i] += v
    return hist


def count_exhaustive(
    spec: CaseSpec,
    m: int,
    length: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> int:
    """Number of valid words of the given length, by enumeration."""
    return sum(marked_histogram(spec, m, length, budget=budget, jobs=jobs))


def count_marked_exhaustive(
    spec: CaseSpec,
    m: int,
    length: int,
    marks: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> int:
    """Number of valid words with exactly ``marks`` marked letters;
    equals the triangle cell c_m(length+1, marks+1)."""
    _check_marked(m)
    if marks < 0:
        raise ValueError("marks must be >= 0")
    if marks > length:
        return 0
    return marked_histogram(spec, m, length, budget=budget, jobs=jobs)[marks]


@dataclass(frozen=True)
class Dfa:
    """Total DFA with an implicit reject sink: transitions[state][letter]
    is the next state, or -1 for rejection."""

    start: int
    transitions: tuple[tuple[int, ...], ...]
    accepting: tuple[bool, ...]

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @property
    def alphabet_size(self) -> int:
        return len(self.transitions[0])

    def accepts(self, word: Iterable[int]) -> bool:
        state = self.start
        for letter in word:
            state = self.transitions[state][letter]
            if state < 0:
                return False
        return self.accepting[state]


def build_dfa(spec: CaseSpec, m: int) -> Dfa:
    """Hand-built automaton recognizing exactly the valid words."""
    s = spec.alphabet_size(m)
    a = spec.base_alphabet
    cid = spec.case_id
    if cid == 1:
        # state 0: last letter unrestricted or none; state c+1: last
        # restricted letter was c
        trans = []
        for state in range(a + 1):
            row = []
            for letter in range(s):
                if letter >= a:
                    row.append(0)
                elif state == letter + 1:
                    row.append(-1)
                else:
                    row.append(letter + 1)
            trans.append(tuple(row))
        accepting = (True,) * (a + 1)
        return Dfa(0, tuple(trans), accepting)
    if cid == 2:
        # state 0: between runs; states 1+2c / 2+2c: open run of c with
        # odd / even length
        def odd(c: int) -> int:
            return 1 + 2 * c

        def even(c: int) -> int:
            return 2 + 2 * c

        trans = [tuple(odd(c) if c < a else 0 for c in range(s))]
        for c in range(a):
            row_odd = []
            row_even = []
            for letter in range(s):
                if letter == c:
                    row_odd.append(even(c))
                    row_even.append(odd(c))
                elif letter < a:
                    row_odd.append(-1)
                    row_even.append(odd(letter))
                else:
                    row_odd.append(-1)
                    row_even.append(0)
            trans.append(tuple(row_odd))
            trans.append(tuple(row_even))
        accepting = tuple(st == 0 or st % 2 == 0 for st in range(2 * a + 1))
        return Dfa(0, tuple(trans), accepting)
    if cid == 3:
        # only "was the previous letter 0" matters
        b = spec.b
        row_after_other = tuple(1 if x == 0 else 0 for x in range(s))
        row_after_zero = tuple(
            1 if x == 0 else (-1 if x <= b else 0) for x in range(s)
        )
        return Dfa(0, (row_after_other, row_after_zero), (True, True))
    if cid == 4:
        # state 0: neutral; state 1: after the single 1, a 0 is owed;
        # state 2: inside a 0-run
        def step(state: int, letter: int) -> int:
            if letter > 1:
                return -1 if state == 1 else 0
            if letter == 1:
                return -1 if state == 1 else 1
            return 2 if state in (1, 2) else -1

        trans = tuple(
            tuple(step(st, letter) for letter in range(s)) for st in range(3)
        )
        return Dfa(0, trans, (True, False, True))
    # family 5: 0-run length mod 2 and 1-run length mod 3
    # states: 0 neutral; 1/2: 0-run odd/even; 3/4/5: 1-run mod 1/2/0
    def step5(state: int, letter: int) -> int:
        if letter > 1:
            return 0 if state in (0, 2, 5) else -1
        if letter == 0:
            if state in (0, 5):
                return 1
            if state == 1:
                return 2
            if state == 2:
                return 1
            return -1
        if state in (0, 2):
            return 3
        if state == 3:
            return 4
        if state == 4:
            return 5
        if state == 5:
            return 3
        return -1

    trans = tuple(tuple(step5(st, letter) for letter in range(s)) for st in range(6))
    return Dfa(0, trans, (True, False, True, False, False, True))


def _live_moves(dfa: Dfa, letters: range) -> list[list[tuple[int, int]]]:
    # per state, each target the given letters reach, with how many of them
    # lead there; moves into the reject sink are dropped
    return [
        list(Counter(row[x] for x in letters if row[x] >= 0).items())
        for row in dfa.transitions
    ]


def _occupancies(dfa: Dfa, length: int) -> Iterator[list[int]]:
    # number of words reaching each state after 0, 1, ..., length letters
    moves = _live_moves(dfa, range(dfa.alphabet_size))
    occ = [0] * dfa.state_count
    occ[dfa.start] = 1
    yield occ
    for _ in range(length):
        nxt = [0] * dfa.state_count
        for st, weight in enumerate(occ):
            if weight == 0:
                continue
            for to, k in moves[st]:
                nxt[to] += k * weight
        occ = nxt
        yield occ


def _marked_occupancies(
    dfa: Dfa, length: int, cap: int
) -> Iterator[list[list[int]]]:
    # occupancy layered by number of marked letters seen, after 0, 1, ...,
    # length letters; words with more than cap marks are dropped
    marked = dfa.alphabet_size - 1
    moves = _live_moves(dfa, range(marked))
    occ = [[0] * (cap + 1) for _ in range(dfa.state_count)]
    occ[dfa.start][0] = 1
    yield occ
    for _ in range(length):
        nxt = [[0] * (cap + 1) for _ in range(dfa.state_count)]
        for st, layers in enumerate(occ):
            to_marked = dfa.transitions[st][marked]
            for j, weight in enumerate(layers):
                if weight == 0:
                    continue
                for to, k in moves[st]:
                    nxt[to][j] += k * weight
                if to_marked >= 0 and j < cap:
                    nxt[to_marked][j + 1] += weight
        occ = nxt
        yield occ


def _last(steps: Iterator):
    # the final step, holding no earlier one
    return deque(steps, maxlen=1)[0]


def _accepted(dfa: Dfa, occ: list) -> list:
    return [w for st, w in enumerate(occ) if dfa.accepting[st]]


def _check_marked(m: int) -> None:
    if m < 1:
        raise ValueError("marked counting needs m >= 1 (no marked letter exists)")


def count_automaton(
    spec: CaseSpec, m: int, length: int, marks: int | None = None
) -> int:
    """Number of valid words of the given length by transfer-matrix DP;
    with ``marks``, only words with that many marked letters count."""
    if length < 0:
        raise ValueError("length must be >= 0")
    dfa = build_dfa(spec, m)
    if marks is None:
        return sum(_accepted(dfa, _last(_occupancies(dfa, length))))
    _check_marked(m)
    if marks < 0:
        raise ValueError("marks must be >= 0")
    if marks > length:
        return 0
    occ = _last(_marked_occupancies(dfa, length, marks))
    return sum(layers[marks] for layers in _accepted(dfa, occ))


def automaton_counts(spec: CaseSpec, m: int, length: int) -> list[int]:
    """Numbers of valid words at every length 0..``length``, from one
    transfer-matrix DP pass."""
    if length < 0:
        raise ValueError("length must be >= 0")
    dfa = build_dfa(spec, m)
    return [sum(_accepted(dfa, occ)) for occ in _occupancies(dfa, length)]


def automaton_histograms(spec: CaseSpec, m: int, length: int) -> list[list[int]]:
    """For every length L in 0..``length``, the L+1 numbers of valid words
    with 0..L marked letters, from one marked DP pass."""
    if length < 0:
        raise ValueError("length must be >= 0")
    _check_marked(m)
    dfa = build_dfa(spec, m)
    return [
        [sum(col) for col in zip(*_accepted(dfa, occ))][: L + 1]
        for L, occ in enumerate(_marked_occupancies(dfa, length, length))
    ]
