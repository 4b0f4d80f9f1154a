"""Reference word counts, written from each family's rule alone.

The benchmark checks the program's outputs against this module, so it
shares no code with ``restricted_words``: no ``build_dfa``, no
recurrence, no ground sequence.  Each family's rule (the README table)
is read as a small automaton over letter *classes* -- a class is a set
of letters that behave alike, so a transition carries a multiplicity
instead of one edge per letter.  The extra letters ``base..s-1`` are
free of any rule; the marked letter is the largest of them, ``s - 1``,
so every free-letter transition splits into ``free - 1`` unmarked
letters and one marked letter.

``counts`` and ``mark_rows`` run the class automaton as a dynamic
program, exactly (``modulus=None``) or modulo a prime for long lengths.
``is_valid`` tests one word against the rule directly; the tests in
this directory tie the two together by brute force.
"""

from __future__ import annotations

import itertools
import re

# 2^61 - 1, a Mersenne prime: long counts are compared modulo it
PRIME = (1 << 61) - 1


def base_size(case: int, a: int | None) -> int:
    return a if case in (1, 2, 3) else 2


def alphabet(case: int, a: int | None, m: int) -> int:
    return base_size(case, a) + m


def _rules(case: int, a: int | None, b: int | None, m: int):
    """(start, accepting states, [(from, to, plain letters, free letters)]).

    ``plain`` letters are rule-bound ones (never the marked letter);
    ``free`` counts letters taken from the m extra letters.
    """
    if case == 1:
        # last letter was free (or none) / last letter was restricted
        return "free", {"free", "cold"}, [
            ("free", "free", 0, m),
            ("free", "cold", a, 0),
            ("cold", "free", 0, m),
            ("cold", "cold", a - 1, 0),  # any restricted letter but the last
        ]
    if case == 2:
        # outside a restricted run / inside one of odd / of even length
        return "out", {"out", "even"}, [
            ("out", "out", 0, m),
            ("out", "odd", a, 0),
            ("odd", "even", 1, 0),  # only the same letter may follow
            ("even", "odd", a, 0),  # the same letter again, or a new run
            ("even", "out", 0, m),
        ]
    if case == 3:
        # last letter was 0 / anything else; 0 must not precede 1..b
        return "other", {"other", "zero"}, [
            ("other", "zero", 1, 0),
            ("other", "other", a - 1, m),
            ("zero", "zero", 1, 0),
            ("zero", "other", a - 1 - b, m),
        ]
    if case == 4:
        # blocks 1 0^j (j >= 1): outside a block / owing a 0 / in the 0s
        return "out", {"out", "zeros"}, [
            ("out", "out", 0, m),
            ("out", "owe", 1, 0),
            ("owe", "zeros", 1, 0),
            ("zeros", "zeros", 1, 0),
            ("zeros", "owe", 1, 0),
            ("zeros", "out", 0, m),
        ]
    if case == 5:
        # 0-runs even, 1-runs a multiple of 3; states name the open run
        # and its length modulo 2 or 3
        return "out", {"out", "z2", "o3"}, [
            ("out", "out", 0, m),
            ("out", "z1", 1, 0),
            ("out", "o1", 1, 0),
            ("z1", "z2", 1, 0),
            ("z2", "z1", 1, 0),
            ("z2", "o1", 1, 0),
            ("z2", "out", 0, m),
            ("o1", "o2", 1, 0),
            ("o2", "o3", 1, 0),
            ("o3", "o1", 1, 0),
            ("o3", "z1", 1, 0),
            ("o3", "out", 0, m),
        ]
    raise ValueError(f"unknown family {case}")


def _check_params(case: int, a: int | None, b: int | None, m: int) -> None:
    if m < 0:
        raise ValueError("m must be >= 0")
    if case in (1, 2) and (a is None or a < 1 or b is not None):
        raise ValueError(f"family {case} takes a >= 1 and no b")
    if case == 3 and not (a is not None and b is not None and a > b >= 1):
        raise ValueError("family 3 needs a > b >= 1")
    if case in (4, 5) and (a is not None or b is not None):
        raise ValueError(f"family {case} takes no parameters")


def counts(
    case: int,
    a: int | None,
    b: int | None,
    m: int,
    max_len: int,
    modulus: int | None = None,
) -> list[int]:
    """Number of valid words at each length 0..max_len (f_m(1..max_len+1))."""
    _check_params(case, a, b, m)
    start, accepting, edges = _rules(case, a, b, m)
    edges = [(src, dst, plain + free) for src, dst, plain, free in edges if plain + free]
    weight = {start: 1}
    out = []
    for length in range(max_len + 1):
        out.append(sum(w for st, w in weight.items() if st in accepting))
        if length == max_len:
            break
        nxt: dict[str, int] = {}
        for src, dst, mult in edges:
            w = weight.get(src)
            if w:
                nxt[dst] = nxt.get(dst, 0) + mult * w
        if modulus is not None:
            nxt = {st: w % modulus for st, w in nxt.items()}
        weight = nxt
    if modulus is not None:
        out = [v % modulus for v in out]
    return out


def mark_rows(
    case: int,
    a: int | None,
    b: int | None,
    m: int,
    max_len: int,
    modulus: int | None = None,
    max_marks: int | None = None,
) -> list[list[int]]:
    """Row L (L = 0..max_len) counts valid words of length L by number of
    marked letters, 0..min(L, max_marks); it is the triangle row
    c_m(L+1, 1..L+1) when ``max_marks`` is None."""
    _check_params(case, a, b, m)
    if m < 1:
        raise ValueError("marked counting needs m >= 1")
    top = max_len if max_marks is None else max_marks
    start, accepting, edges = _rules(case, a, b, m)
    # per state, a polynomial in the mark variable, truncated at degree top
    weight = {start: [1]}
    rows = []
    for length in range(max_len + 1):
        row = [0] * (min(length, top) + 1)
        for st, poly in weight.items():
            if st in accepting:
                for j, w in enumerate(poly):
                    row[j] += w
        rows.append(row if modulus is None else [v % modulus for v in row])
        if length == max_len:
            break
        nxt: dict[str, list[int]] = {}
        for src, dst, plain, free in edges:
            poly = weight.get(src)
            if poly is None:
                continue
            acc = nxt.setdefault(dst, [0] * min(length + 2, top + 1))
            unmarked = plain + free - (1 if free else 0)
            for j, w in enumerate(poly):
                if not w:
                    continue
                acc[j] += unmarked * w
                if free and j + 1 <= top:
                    acc[j + 1] += w
        if modulus is not None:
            nxt = {st: [w % modulus for w in poly] for st, poly in nxt.items()}
        weight = nxt
    return rows


_FAMILY_4 = re.compile(r"(x|10+)*")
_FAMILY_5 = re.compile(r"(x|(00)+|(111)+)*")


def is_valid(case: int, a: int | None, b: int | None, m: int, word) -> bool:
    """Whether one word (a sequence of letters) obeys the family's rule."""
    s = alphabet(case, a, m)
    if any(not 0 <= x < s for x in word):
        raise ValueError(f"letters must lie in 0..{s - 1}")
    pairs = list(zip(word, word[1:]))
    if case == 1:
        return all(not (x == y < a) for x, y in pairs)
    if case == 2:
        return all(
            len(list(run)) % 2 == 0
            for letter, run in itertools.groupby(word)
            if letter < a
        )
    if case == 3:
        return all(not (x == 0 and 1 <= y <= b) for x, y in pairs)
    text = "".join("01"[x] if x < 2 else "x" for x in word)
    pattern = _FAMILY_4 if case == 4 else _FAMILY_5
    return pattern.fullmatch(text) is not None


def brute_rows(case: int, a: int | None, b: int | None, m: int, length: int) -> list[int]:
    """Mark histogram at one length by testing every word (tiny lengths)."""
    s = alphabet(case, a, m)
    marked = s - 1
    row = [0] * (length + 1)
    for word in itertools.product(range(s), repeat=length):
        if is_valid(case, a, b, m, word):
            row[word.count(marked) if m >= 1 else 0] += 1
    return row
