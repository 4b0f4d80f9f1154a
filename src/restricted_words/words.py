"""Ground truth by direct counting.

Three independent routes to the same numbers:

* ``is_valid``: a pure per-word predicate, the most literal reading of
  each family's constraint (maximal-run semantics spelled out).  It
  checks its arguments and letters, then applies the family's rule;
  ``iter_words`` checks its arguments once per call and filters
  ``itertools.product`` through that same rule, so listing the words of
  a length pays no check per word.
* ``count_exhaustive`` / ``marked_histogram``: enumerate every word of a
  given length as a head joined with a tail, the split-and-join of
  Horowitz and Sahni, each side grown one letter at a time at its one
  open end.  Tails of l + 1 letters, in lexicographic order, are the
  tails of l letters with every letter put in front of them; heads of
  l + 1 letters are the heads of l letters with every letter put after
  them.  In this block layout the letter at the open end is the most
  significant digit of a word's index, so block y of a level holds the
  words whose open end is y, and a side keeps only each word's validity
  bit and, for the run families 2 and 5, the run at its open end; its
  far end is closed at its first letter (family 4 ends no tail on the 1
  that owes a 0 and starts no head on a 0).  The rule at the open end is
  stated once per alphabet: for families 1, 3 and 4 a table of the s x s
  letter pairs, built only once some word has two letters, ANDed with
  the shorter level block by block; for families 2 and 5 a divisor per
  letter of every run's length, a new letter unlike y closing the run of
  y and the same letter carrying it on.  Tails of l letters, their front
  closed, give the words of length l.  Longer words join tails of ``t``
  letters, ``s**t`` the largest power of the alphabet size within 2^17
  words but ``t`` at least 1 (2^20-word levels overflow a 2 MB L2
  cache), with heads of 1 to L - t letters.  A valid head with last
  letter x adds the tails' validity bytes into its counters in one call
  and takes back the blocks of tails whose first letter is barred after
  x; for the run families it adds every tail with its front run closed
  if its own last run is allowed, or else block x alone, where the two
  runs are one.  So every (head, tail) word gets exactly one counter
  update, from the head's own last letter and run and the tail's own
  bit, with no automaton and no product of counts.  The counters are
  kept per tail and number of head marks, and the tails' letters are
  folded in once per length, each fold counting in the narrowest
  unsigned type that holds the number of words it counts.
  ``marked_histograms`` reads every shorter length off the same levels.
  Refuses to enumerate more than ``budget`` words, charging a one-letter
  alphabet as two letters.
* ``count_automaton``: a hand-built DFA per family driven by a
  transfer-matrix DP over arbitrary-precision ints, usable far beyond
  enumeration range (length 500 and up).  Each family is written once,
  as its m = 1 table, and level m's table repeats that table's one free
  column m times.  One loop steps the counting quotient of the m = 1
  DFA, 2 blocks for families 1-3 and 3 for 4-5, whose states count
  alike at every length (Kemeny and Snell's lumpability).  The m free
  letters of level m move as the m = 1 DFA's one does, so one quotient
  per family serves every level: m - 1 free letters add no mark and the
  marked one adds one, and plain level-m words are the level-(m + 1)
  words with no mark.  It reaches every shorter length on its way, so
  ``automaton_counts`` (counts at lengths 0..N) and
  ``automaton_histograms`` (counts by number of marked letters at
  lengths 0..N) read a whole sequence or triangle off one pass instead
  of recounting each prefix.  An m = 1 DFA whose table
  would hold more than ``DEFAULT_BUDGET`` moves (states times letters;
  family 1 at a = 2000 has 2001 x 2001) raises ``BudgetExceeded``
  before any move is tabulated.

numpy is imported by the first enumeration, not with this module, so
importing the package (and every CLI call that enumerates nothing)
starts without it.

f_m(n) counts valid words of length n-1, so counts at word length L line
up with sequence index L+1.  The marked letter is always the largest
letter of the extended alphabet and exists only for m >= 1; a word with
k-1 marks at length L corresponds to the triangle cell c_m(L+1, k).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .cases import CaseSpec
from .sequences import _as_param

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 2_000_000

_CHUNK_ROWS = 1 << 17


class BudgetExceeded(RuntimeError):
    """Raised instead of silently truncating an over-budget enumeration,
    or instead of tabulating an automaton of more than ``DEFAULT_BUDGET``
    moves.

    ``required`` is the number of words the enumeration is charged for,
    ``s**length`` with a one-letter alphabet charged as two letters, or
    None where it was not computed: for words longer than 64 letters,
    when the budget has fewer bits than the word has letters, so the
    charge is certainly over it.  For an automaton it is the number of
    moves, states times letters.  ``work`` is how the message names
    what would be done."""

    def __init__(self, required: int | None, budget: int, work: str) -> None:
        super().__init__(f"{work} exceeds the budget of {budget}")
        self.required = required
        self.budget = budget


def _as_letters(word) -> tuple[int, ...]:
    # a string's letters are its digits; any other word's are integers by
    # the rule for arguments
    if isinstance(word, str):
        if not all("0" <= ch <= "9" for ch in word):
            raise ValueError(
                f"a word given as a string must be digits, got {word!r}"
            )
        return tuple(map(int, word))
    return tuple(_as_param("letter", x) for x in word)


def _checked_letters(letters: tuple[int, ...], s: int) -> tuple[int, ...]:
    if any(not 0 <= x < s for x in letters):
        raise ValueError(f"letters must lie in 0..{s - 1}")
    return letters


def is_valid(spec: CaseSpec, m: int, word) -> bool:
    """Whether a word satisfies the family's constraint.

    Accepts a string of digits or an iterable of integers; every letter
    must be below the extended alphabet size.
    """
    s = spec.alphabet_size(m)
    return _rule(spec, _checked_letters(_as_letters(word), s))


def _rule(spec: CaseSpec, letters: tuple[int, ...]) -> bool:
    # the family's constraint on letters already checked to lie in the
    # alphabet; the rules use the base alphabet only, not the level
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


def _charged_letters(s: int) -> int:
    # a one-letter alphabet has one word per length but costs a step per
    # letter, so it is charged as two letters: the budget bounds its length
    return max(s, 2)


def _enumerable_alphabet(spec: CaseSpec, m: int, length: int, budget: int) -> int:
    # the alphabet size, once the budget and m are valid and the charge for
    # the words of the given length fits the budget
    budget = _as_param("budget", budget, 1)
    s = spec.alphabet_size(m)
    charged = _charged_letters(s)
    # at least 2**length, so certainly over a budget of fewer bits; the
    # charge is then formed only when short enough to print
    over = length > budget.bit_length()
    required = None if over and length > 64 else charged**length
    if over or required > budget:
        count = str(required) if length <= 64 else f"{charged}**{length}"
        words = (
            f"{count} words"
            if s > 1
            else f"the one word of length {length}, charged as {count} words,"
        )
        raise BudgetExceeded(required, budget, f"enumerating {words}")
    return s


def iter_words(
    spec: CaseSpec, m: int, length: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """All valid words of the given length, in lexicographic order.

    The arguments and the budget are checked once, on the call, before
    the first word is asked for; the words of ``itertools.product`` are
    then filtered through the family's rule alone, the one ``is_valid``
    applies after its checks, with no check repeated per word."""
    m, length = _as_param("m", m), _as_param("length", length, 0)
    s = _enumerable_alphabet(spec, m, length, budget)
    return filter(partial(_rule, spec), itertools.product(range(s), repeat=length))


def max_enumerable_length(
    spec: CaseSpec, m: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Largest length whose full enumeration fits the budget.

    A one-letter alphabet has a single word per length but is charged
    as two letters, so the cap there is 2^L <= budget.
    """
    m, budget = _as_param("m", m), _as_param("budget", budget, 1)
    s = _charged_letters(spec.alphabet_size(m))
    length = 0
    while s ** (length + 1) <= budget:
        length += 1
    return length


class _Side(NamedTuple):
    # every word of some number of letters with one end left open, the
    # front of a tail or the back of a head, in block layout: the letter at
    # the open end is the most significant digit of a word's index, so row
    # y of each array holds the words whose open end is y.  ok where every
    # rule holds but those at the open end; for the run families 2 and 5,
    # the length of the run there, and ok with that run closed too, as it
    # must be allowed (``_run_closed``): made once per level by
    # ``_run_side``, read by the level's histogram, by the next level and by
    # the joins.
    ok: np.ndarray
    run: np.ndarray | None
    closed: np.ndarray | None = None


def _end_rule(spec: CaseSpec, s: int, length: int) -> np.ndarray | None:
    # the rule at an open end, for words of up to `length` letters.  Families
    # 1, 3 and 4 forbid some pairs of adjacent letters: allow[x, y] says
    # whether y may follow x, built only when some word has two letters, so
    # that s**2 <= s**length is within the budget.  The run families 2 and 5
    # restrict the runs of their first letters, div[x] dividing the length
    # of every run of x: family 2's letters below a by 2, family 5's 0 by 2
    # and 1 by 3.  Every later letter's divisor is 1: its runs are free.
    import numpy as np

    a = spec.base_alphabet
    cid = spec.case_id
    if cid == 2:
        return np.full(a, 2, dtype=np.uint8)
    if cid == 5:
        return np.array([2, 3], dtype=np.uint8)
    if length < 2:
        return None
    cur = np.arange(s, dtype=np.min_scalar_type(s))[:, None]
    nxt = cur.T
    if cid == 1:
        bad = (cur == nxt) & (cur < a)
    elif cid == 3:
        bad = (cur == 0) & ((nxt >= 1) & (nxt <= spec.b))
    else:
        # runs of 1 have length 1, a 1 is followed by a 0, a 0 is preceded
        # by a 0 or a 1-run start
        bad = ((cur == 1) & (nxt != 0)) | ((cur > 1) & (nxt == 0))
    return ~bad


def _residue(runs: np.ndarray, div: np.ndarray) -> np.ndarray:
    # the run lengths of the restricted letters, rows 0..len(div) - 1 of
    # runs in rows by letter, each modulo its letter's divisor.  numpy's
    # integer `%` is several times slower than floor division, which is
    # fast along a row, by one divisor
    runs = runs[: len(div)]
    d = div[:, None]
    return runs - runs // d * d


def _run_closed(side: _Side, div: np.ndarray) -> np.ndarray:
    # side.ok with the run at the open end closed too, as it must be allowed
    closed = side.ok.copy()
    closed[: len(div)] &= _residue(side.run, div) == 0
    return closed


def _run_side(ok: np.ndarray, run: np.ndarray, div: np.ndarray) -> _Side:
    # a run-family level with its closed bits
    side = _Side(ok, run)
    return side._replace(closed=_run_closed(side, div))


def _grow(side: _Side, rule: np.ndarray, front: bool) -> _Side:
    # every letter z added at the open end of every word, the front of a
    # tail or the back of a head: row z of the result holds s blocks, block
    # y the words whose open end was y
    import numpy as np

    s = len(side.ok)
    if side.run is None:
        # the pair rule on the new adjacent pair, (z, y) or (y, z)
        allow = rule if front else rule.T
        return _Side((allow[:, :, None] & side.ok).reshape(s, -1), None)
    # z unlike y closes the run of y, which must be allowed; z = y carries
    # the run on
    grown = np.empty((s,) + side.ok.shape, dtype=bool)
    grown[...] = side.closed
    run = np.ones(grown.shape, dtype=side.run.dtype)
    diagonal = np.arange(s)
    grown[diagonal, diagonal] = side.ok
    run[diagonal, diagonal] = side.run + 1
    return _run_side(grown.reshape(s, -1), run.reshape(s, -1), rule)


def _levels(
    spec: CaseSpec, s: int, top: int, front: bool, rule: np.ndarray | None
) -> Iterator[_Side]:
    # for l = 1, ..., top: every word of l letters, open at the front
    # (tails, in lexicographic order) or at the back (heads).  Level l + 1
    # is every letter added at the open end of level l.
    import numpy as np

    # each letter alone, its far end closed: family 4 ends no tail on the 1
    # that owes a 0 and starts no head on a 0
    ok = np.ones((s, 1), dtype=bool)
    if spec.case_id == 4:
        ok[1 if front else 0] = False
    if spec.case_id in (2, 5):
        level = _run_side(ok, np.ones((s, 1), dtype=np.min_scalar_type(top)), rule)
    else:
        level = _Side(ok, None)
    for l in range(top):
        if l:
            level = _grow(level, rule, front)
        yield level


def _marks(s: int, top: int) -> Iterator[np.ndarray]:
    # for l = 1, ..., top: the number of marked letters (s - 1) of every
    # word of a level of l letters, in the levels' block layout
    import numpy as np

    counts = np.min_scalar_type(top)
    marked = (np.arange(s) == s - 1).astype(counts)[:, None]
    marks = np.zeros(1, dtype=counts)
    for _ in range(top):
        marks = (marked + marks).ravel()
        yield marks


def _closed(spec: CaseSpec, tails: _Side, rule: np.ndarray | None) -> np.ndarray:
    # the validity of the tails' words with their front closed too: the run
    # there must be allowed, and family 4 starts no word on a 0
    if tails.run is not None:
        return tails.closed
    if spec.case_id == 4:
        ok = tails.ok.copy()
        ok[0] = False
        return ok
    return tails.ok


def _barred(allow: np.ndarray) -> dict[int, list[tuple[int, int]]]:
    # for each letter x, the spans lo..hi - 1 of consecutive letters that
    # may not follow x
    import numpy as np

    cells = np.flatnonzero(~allow)
    x, y = np.divmod(cells, len(allow))
    # a span starts at a row's first letter or after an allowed one
    starts = np.ones(len(cells), dtype=bool)
    starts[1:] = (cells[1:] != cells[:-1] + 1) | (y[1:] == 0)
    first = np.flatnonzero(starts)
    last = np.append(first[1:], len(cells)) - 1
    spans: dict[int, list[tuple[int, int]]] = {}
    for row, lo, hi in zip(x[first].tolist(), y[first].tolist(), (y[last] + 1).tolist()):
        spans.setdefault(row, []).append((lo, hi))
    return spans


def _joins(
    heads: Iterable[tuple[_Side, np.ndarray]], tails: _Side, rule: np.ndarray, first: int
) -> Iterator[tuple[int, np.ndarray]]:
    # for h = first, first + 1, ...: every valid head of h letters, with its
    # marks, joined with every tail.  acc[j, y] counts, by tail in block y,
    # the valid words whose head holds j marked letters.  A head adds its
    # words in one call, and takes back in one call each span of letters
    # barred after it, so every word gets one counter update, from the
    # head's own last letter x (and last run) and the tail's own bit.  Each
    # side has its far end closed already.
    import numpy as np

    if tails.run is None:
        ok = tails.ok.view(np.uint8)
        spans = _barred(rule)
    else:
        # a head's last run of r letters x closes when the divisor d of x
        # divides r: every tail then joins with its own front run closed.
        # Otherwise only block x joins, as one run of r + q letters with the
        # tail's first q, which d divides exactly when it divides r mod d + q
        closed = tails.closed.view(np.uint8)
        rest = _residue(tails.run, rule)
        bits = [closed] + [
            (tails.ok[: len(rule)] & (_residue(rest + r, rule) == 0)).view(np.uint8)
            for r in range(1, int(rule.max()))
        ]
    for h, (head, marks) in enumerate(heads, 1):
        if h < first:
            continue
        # the narrowest type that counts all s**h heads joining a tail
        acc = np.zeros((h + 1,) + tails.ok.shape, dtype=np.min_scalar_type(head.ok.size))
        valid = np.flatnonzero(head.ok)
        ends = (valid // head.ok.shape[1]).tolist()
        counts = marks[valid].tolist()
        if head.run is None:
            for x, j in zip(ends, counts):
                row = acc[j]
                row += ok
                for lo, hi in spans.get(x, ()):
                    row[lo:hi] -= ok[lo:hi]
        else:
            rests = np.zeros(head.ok.shape, dtype=head.run.dtype)
            rests[: len(rule)] = _residue(head.run, rule)
            rests = rests.ravel()[valid].tolist()
            for x, j, r in zip(ends, counts, rests):
                if r:
                    acc[j, x] += bits[r][x]
                else:
                    acc[j] += bits[0]
        yield h, acc


def _fold(acc: np.ndarray, s: int, bound: int) -> np.ndarray:
    # acc[j] counts, for every tail, the valid words whose head holds j
    # marked letters, each count at most bound; fold the tail's letters in,
    # first to last: a word whose letter is the marked one moves from j to
    # j + 1.  A cell after a fold sums s cells before it, so each step
    # counts in the narrowest type that holds s times the last bound; the
    # last, s**L, is within the budget
    import numpy as np

    marked = s - 1
    while acc.shape[1] > 1:
        bound *= s
        dtype = np.min_scalar_type(bound)
        cube = acc.reshape(len(acc), s, -1)
        acc = np.zeros((len(cube) + 1, cube.shape[2]), dtype=dtype)
        cube[:, :marked].sum(axis=1, dtype=dtype, out=acc[:-1])
        acc[1:] += cube[:, marked]
    return acc[:, 0]


def _histograms(
    spec: CaseSpec, m: int, length: int, shortest: int
) -> list[list[int]]:
    # counts of valid words by number of marked letters at each length l in
    # shortest..length: the empty word alone at 0, a length 1 <= l <= t off
    # the tails' level l with its front closed, a longer one from the joins
    # of every head of l - t letters with every tail, of t letters
    import numpy as np

    s = spec.alphabet_size(m)
    t = min(length, 1)
    while t < length and s ** (t + 1) <= _CHUNK_ROWS:
        t += 1
    rule = _end_rule(spec, s, length)
    hists = [[1]] if shortest == 0 else []
    levels = zip(_levels(spec, s, t, True, rule), _marks(s, t))
    for l, (tails, marks) in enumerate(levels, 1):
        if l >= shortest:
            closed = _closed(spec, tails, rule).ravel()
            hists.append(np.bincount(marks[closed], minlength=l + 1).tolist())
    if length > t:
        heads = zip(_levels(spec, s, length - t, False, rule), _marks(s, length - t))
        for h, acc in _joins(heads, tails, rule, shortest - t):
            hists.append(_fold(acc.reshape(h + 1, -1), s, s**h).tolist())
    return hists


def marked_histogram(
    spec: CaseSpec, m: int, length: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Counts of valid words of the given length, bucketed by how many
    times the marked letter (the alphabet maximum) occurs."""
    m, length = _as_param("m", m), _as_param("length", length, 0)
    _enumerable_alphabet(spec, m, length, budget)
    return _histograms(spec, m, length, length)[0]


def marked_histograms(
    spec: CaseSpec, m: int, length: int, budget: int = DEFAULT_BUDGET
) -> list[list[int]]:
    """For every length L in 0..``length``, the L+1 numbers of valid words
    with 0..L marked letters, as ``marked_histogram`` gives them, from one
    enumeration of the words of the given length: each shorter word is
    read off the scan at its row padded with 0s."""
    m, length = _as_param("m", m), _as_param("length", length, 0)
    _enumerable_alphabet(spec, m, length, budget)
    return _histograms(spec, m, length, 0)


def count_exhaustive(
    spec: CaseSpec, m: int, length: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of valid words of the given length, by enumeration."""
    return sum(marked_histogram(spec, m, length, budget=budget))


def count_marked_exhaustive(
    spec: CaseSpec, m: int, length: int, marks: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of valid words with exactly ``marks`` marked letters;
    equals the triangle cell c_m(length+1, marks+1)."""
    # the marks check first; marked_histogram bounds length and budget
    m, length = _as_param("m", m), _as_param("length", length)
    marks, budget = _as_param("marks", marks), _as_param("budget", budget)
    _check_marks(m, marks)
    hist = marked_histogram(spec, m, length, budget=budget)
    return hist[marks] if marks <= length else 0


class Dfa(NamedTuple):
    """Total DFA with an implicit reject sink: transitions[state][letter]
    is the next state, or -1 for rejection.

    An immutable named tuple, so it also equals the plain tuple
    ``(start, transitions, accepting)``."""

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
        """Whether it accepts the word, read as :func:`is_valid` reads it:
        a string of digits or an iterable of ints, every letter below the
        alphabet size."""
        state = self.start
        for letter in _checked_letters(_as_letters(word), self.alphabet_size):
            state = self.transitions[state][letter]
            if state < 0:
                return False
        return self.accepting[state]


def build_dfa(spec: CaseSpec, m: int) -> Dfa:
    """Hand-built automaton recognizing exactly the valid words.

    Each family is written once, as its m = 1 table: ``accepting`` and a
    row per state giving the next state, or -1, for each base letter and
    then for the one free letter.  Level m's table is that one with its
    free column repeated m times (dropped at m = 0), so the m free letters
    move alike.  A table of more than ``DEFAULT_BUDGET`` moves raises
    :class:`BudgetExceeded` before any row is built."""
    s = spec.alphabet_size(m)
    a = spec.base_alphabet
    cid = spec.case_id
    if cid == 1:
        # state 0: last letter unrestricted or none; state c+1: last
        # restricted letter was c
        accepting = (True,) * (a + 1)

        def row(state: int) -> tuple[int, ...]:
            return (*(-1 if state == c else c for c in range(1, a + 1)), 0)

    elif cid == 2:
        # state 0: between runs; states 1+2c / 2+2c: open run of c with
        # odd / even length.  An odd run must go on with its own letter
        accepting = tuple(st % 2 == 0 for st in range(2 * a + 1))

        def row(state: int) -> tuple[int, ...]:
            if state % 2:
                return (*(state + 1 if c == state // 2 else -1 for c in range(a)), -1)
            return (*range(1, 2 * a, 2), 0)

    elif cid == 3:
        # only "was the previous letter 0" matters; the free letter is
        # above b
        accepting = (True, True)

        def row(state: int) -> tuple[int, ...]:
            return (1, *(-1 if state and x <= spec.b else 0 for x in range(1, a)), 0)

    elif cid == 4:
        # columns 0, 1, free.  State 0: neutral; state 1: after the single
        # 1, a 0 is owed; state 2: inside a 0-run
        accepting = (True, False, True)
        row = ((-1, 1, 0), (2, -1, -1), (2, 1, 0)).__getitem__
    else:
        # columns 0, 1, free.  State 0: neutral; 1/2: 0-run odd/even;
        # 3/4/5: 1-run length mod 3 is 1/2/0
        accepting = (True, False, True, False, False, True)
        row = (
            (1, 3, 0), (2, -1, -1), (1, 3, 0), (-1, 4, -1), (-1, 5, -1), (1, 3, 0)
        ).__getitem__
    states = len(accepting)
    moves = states * s
    if moves > DEFAULT_BUDGET:
        raise BudgetExceeded(
            moves,
            DEFAULT_BUDGET,
            f"tabulating the automaton's {states} states x {s} letters = {moves} moves",
        )
    trans = tuple(r[:-1] + r[-1:] * m for r in map(row, range(states)))
    return Dfa(0, trans, accepting)


@lru_cache(maxsize=None)
def _lumped(spec: CaseSpec) -> tuple:
    """The counting quotient of the m = 1 table, one for every level: the
    start block, ``T0`` and ``U``, and each block's acceptance.
    ``T0[b][c]`` counts the base letters and ``U[b][c]`` the free letter
    taking block b into block c.  A block splits until its states send
    equally many base letters, and the free letter, to each block; the m
    free letters of level m all move as that one does."""
    dfa = build_dfa(spec, 1)
    free = spec.base_alphabet
    block = [0] * dfa.state_count
    while True:
        keys = [
            (block[st], accepts, frozenset(Counter(
                (block[to], x == free) for x, to in enumerate(row) if to >= 0
            ).items()))
            for st, (row, accepts) in enumerate(zip(dfa.transitions, dfa.accepting))
        ]
        ids: dict = {}
        refined = [ids.setdefault(key, len(ids)) for key in keys]
        if refined == block:
            break
        block = refined
    _, accepting, moves = zip(*ids)
    blocks = range(len(ids))
    T0, U = (
        tuple(tuple(dict(out).get((c, is_free), 0) for c in blocks) for out in moves)
        for is_free in (False, True)
    )
    return block[dfa.start], T0, U, accepting


def _accepted_counts(
    spec: CaseSpec, m: int, length: int, cap: int
) -> Iterator[list[int]]:
    # for each length 0..length, the level-m words with 0..cap marks.  Cell
    # j * blocks + b counts the words taking block b to acceptance with j
    # marks; a letter put in front sends each count back along each move:
    # the base letters and m - 1 free letters add no mark, the marked one
    # adds one
    start, T0, U, accepting = _lumped(spec)
    blocks = len(accepting)
    back = [[] for _ in range(blocks * (cap + 1))]
    for b, (base, free) in enumerate(zip(T0, U)):
        for to in range(blocks):
            for shift, k in enumerate((base[to] + (m - 1) * free[to], free[to])):
                if k:
                    for j in range(cap + 1 - shift):
                        back[j * blocks + to].append(((j + shift) * blocks + b, k))
    occ = [int(accepts) for accepts in accepting] + [0] * (blocks * cap)
    for step in range(length + 1):
        if step:
            nxt = [0] * len(occ)
            for weight, out in zip(occ, back):
                if weight:
                    for to, k in out:
                        nxt[to] += k * weight
            occ = nxt
        yield occ[start::blocks]


def _plain_counts(spec: CaseSpec, m: int, length: int) -> Iterator[list[int]]:
    # the level-m words are the level-(m + 1) words with no mark
    return _accepted_counts(spec, _as_param("m", m, 0) + 1, length, 0)


def _last(steps: Iterator):
    # the final step, holding no earlier one
    return deque(steps, maxlen=1)[0]


def _check_marks(m: int, marks: int = 0) -> None:
    if m < 1:
        raise ValueError("marked counting needs m >= 1 (no marked letter exists)")
    if marks < 0:
        raise ValueError("marks must be >= 0")


def count_automaton(
    spec: CaseSpec, m: int, length: int, marks: int | None = None
) -> int:
    """Number of valid words of the given length by transfer-matrix DP;
    with ``marks``, only words with that many marked letters count."""
    m, length = _as_param("m", m), _as_param("length", length, 0)
    if marks is None:
        return _last(_plain_counts(spec, m, length))[0]
    marks = _as_param("marks", marks)
    _check_marks(m, marks)
    if marks > length:
        return 0
    return _last(_accepted_counts(spec, m, length, marks))[marks]


def automaton_counts(spec: CaseSpec, m: int, length: int) -> list[int]:
    """Numbers of valid words at every length 0..``length``, from one
    transfer-matrix DP pass."""
    m, length = _as_param("m", m), _as_param("length", length, 0)
    return [row[0] for row in _plain_counts(spec, m, length)]


def automaton_histograms(spec: CaseSpec, m: int, length: int) -> list[list[int]]:
    """For every length L in 0..``length``, the L+1 numbers of valid words
    with 0..L marked letters, from one marked DP pass."""
    m, length = _as_param("m", m), _as_param("length", length, 0)
    _check_marks(m)
    rows = _accepted_counts(spec, m, length, length)
    return [row[: L + 1] for L, row in enumerate(rows)]
