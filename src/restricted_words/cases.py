"""The five restricted-word families.

Each family restricts words over an alphabet {0, ..., s-1}; f_m(n) counts
the valid words of length n-1 when m extra unrestricted letters extend
the base alphabet (s = m+a for families 1-3, s = m+2 for 4-5):

1. no two adjacent letters from {0..a-1} are equal,
2. every maximal run of a letter from {0..a-1} has even length,
3. the subwords 01, 02, ..., 0b never occur (parameters a > b >= 1),
4. the letters 0 and 1 occur only inside blocks of the form
   "1 followed by one or more 0s",
5. every maximal 0-run has even length and every maximal 1-run has
   length divisible by 3.

This module defines the base counts f_0, the linear recurrences for f_m,
and the closed forms for triangle entries c_1(n,k), c_2(n,k), c_m(n,k)
and for f_m(n) itself, each of which must agree with the convolution
triangle built from f_0 (the test suite and the verification harness
enforce this cell by cell).

Each family's recurrence is written once, as a table row of coefficients
and seeds (``_recurrence``); ``fm_sequence`` iterates it at any m, and
``f0_prefix`` at m = 0 for families 3-5 (families 1 and 2 compute their
closed-form f_0 inline).  The closed forms cover every family at every
level: c_m(n,k), m >= 1, lifts one closed-form c_1 row through the
single ``_lifted_row`` sum (family 2's c_2 has a closed form of its
own), and f_m(n), m >= 0, weights that row by m^(i-1), the lift summed
over k.

Each closed form is evaluated one row per (parameters, m, n):
``_c1_row`` keyed by (family, a, b, n), ``_c2_row`` by (a, n),
``_repunit_row`` by (b, n) and ``_lifted_row`` by (family, a, b, m, n)
are cached, and each computes every cell k of its row as that cell's own
closed-form sum.  The subterms are computed once and shared across the
cells: the powers of a, a-1 and b, family 3's Lucas values, the
binomials C(x, y) for x <= n (cached per x across all rows), and for
families 4 and 5 the inner j-sum of the double sum, which depends only
on i and d = n-k and is cached per d across rows.  The lifted row sums
the cached c_1 row; no row is derived from a triangle or a recurrence:
the repunit row does not read the family-3 row and the c_2 row is no
lift, so every closed form stays a route of its own.

Each closed form is read a table at a time: ``c1_explicit_table``,
``c1_case3_repunit_table``, ``c2_explicit_case2_table``,
``cm_explicit_case1_table``, ``cm_explicit_case1_alt_table`` and
``triangle_formula_table`` check their arguments once and return rows
1..N, the cached row tuples themselves, row n the cells k = 1..n; a
caller that wants one cell indexes its row.  The m-power variant adds
its leading-term difference to the lifted row, uncached.  ``fm_explicit``
is the one closed form served a value at a time.

The six ``lru_cache``s are unbounded, and each grows by one row per
distinct key:

- ``_binomials`` is keyed by x and holds C(x, 0..x), x+1 ints;
- ``_inner_j_sums`` is keyed by (family 4 or 5, d) and holds d//2 ints;
- ``_c1_row``, ``_repunit_row``, ``_c2_row`` and ``_lifted_row`` are
  keyed by their parameters and n, and hold n ints (at m = 1,
  ``_lifted_row`` holds the c_1 row itself).

The caches have no bound because rows up to N cost O(N^2) ints, the
size of one N-row triangle, which is what a call up to N computes
anyway.  A bound below that would only evict rows that come back:
``_pascal(n)`` reads x = 0..n in order for every row, which is the
worst case for an LRU smaller than n.  A CLI call is one process, and the caches die with
it; a long-lived caller can empty them with each function's
``cache_clear()``, as the tests do.

Family 3's closed form sums powers of the reciprocal roots u, v of
b*x^2 - a*x + 1.  Since u + v = a and u*v = b, the sum is an integer
combination of the Lucas sequence V(t) = u^t + v^t, so it is evaluated
in plain ints without ever forming the irrational roots.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .sequences import Sequence, _as_param

CASE_IDS = (1, 2, 3, 4, 5)


class _CaseFields(NamedTuple):
    case_id: int
    a: int | None = None
    b: int | None = None


class CaseSpec(_CaseFields):
    """One of the five families plus its parameters.

    Families 1 and 2 take the restricted-alphabet size ``a``; family 3
    takes ``a`` and the forbidden-successor count ``b`` with a > b >= 1;
    families 4 and 5 are parameter-free (base alphabet {0, 1}).

    Each parameter is stored as a plain ``int``: exact ints unchanged,
    any other ``numbers.Integral`` through ``int()``; anything else,
    integral-valued floats and fractions included, raises
    ``ValueError``.  A spec is an immutable named tuple, so it also
    equals (and hashes as) the plain tuple ``(case_id, a, b)``.
    """

    __slots__ = ()

    def __new__(cls, case_id: int, a: int | None = None, b: int | None = None):
        case_id = _as_param("case_id", case_id)
        a = _as_param("a", a)
        b = _as_param("b", b)
        if case_id not in CASE_IDS:
            raise ValueError(f"case_id must be one of {CASE_IDS}, got {case_id}")
        if case_id in (1, 2):
            if a is None or a < 1:
                raise ValueError(f"case {case_id} needs a >= 1")
            if b is not None:
                raise ValueError(f"case {case_id} takes no b parameter")
        elif case_id == 3:
            if a is None or b is None:
                raise ValueError("case 3 needs both a and b")
            if not a > b >= 1:
                raise ValueError(f"case 3 needs a > b >= 1, got a={a}, b={b}")
        else:
            if a is not None or b is not None:
                raise ValueError(f"case {case_id} takes no parameters")
        return super().__new__(cls, case_id, a, b)

    @classmethod
    def _make(cls, iterable) -> CaseSpec:
        # _replace builds through _make: check its fields as __new__ does
        return cls(*iterable)

    @property
    def base_alphabet(self) -> int:
        """Size of the restricted alphabet (a, or 2 for families 4-5)."""
        return self.a if self.case_id in (1, 2, 3) else 2

    def alphabet_size(self, m: int) -> int:
        """Full alphabet size once m unrestricted letters are added."""
        m = _as_param("m", m)
        if m < 0:
            raise ValueError("m must be >= 0")
        return self.base_alphabet + m

    @property
    def seed_count(self) -> int:
        return len(_recurrence(self, 0)[1])


def _recurrence(spec: CaseSpec, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(coefficients, seeds) of f_m's recurrence: coefficients (r_1, r_2[, r_3])
    of f(n) = r_1 f(n-1) + r_2 f(n-2) [+ r_3 f(n-3)], seeds f(1), f(2)[, f(3)]."""
    a = spec.a
    if spec.case_id == 1:
        return (m + a - 1, m), (1, m + a)
    if spec.case_id == 2:
        return (m, a), (1, m)
    if spec.case_id == 3:
        return (a + m, -spec.b), (1, m + a)
    if spec.case_id == 4:
        return (m + 1, 1 - m), (1, m)
    return (m, 1, 1), (1, m, m * m + 1)


def _iterate(coefficients: tuple[int, ...], seeds: tuple[int, ...], N: int) -> list[int]:
    """The first N terms of the recurrence, truncating the seeds if N is
    below their count."""
    # every order is 2 or 3: pad to 3 with a zero coefficient and keep
    # f(n-3), f(n-2), f(n-1) in locals
    r1, r2, r3 = (*coefficients, 0)[:3]
    z, y, x = (0, 0, *seeds)[-3:]
    vals = list(seeds[:N])
    while len(vals) < N:
        z, y, x = y, x, r1 * x + r2 * y + r3 * z
        vals.append(x)
    return vals


def f0_prefix(spec: CaseSpec, N: int) -> Sequence:
    """The prefix f_0(1..N): valid words of length n-1 over the base
    alphabet, from the closed form for families 1 and 2 and from the
    recurrence at m = 0 for families 3-5."""
    N = _as_param("N", N)
    if N < 1:
        raise ValueError("N must be >= 1")
    a = spec.a
    if spec.case_id == 1:
        return Sequence([1] + [a * (a - 1) ** (n - 2) for n in range(2, N + 1)])
    if spec.case_id == 2:
        return Sequence(a ** (n // 2) if n % 2 else 0 for n in range(1, N + 1))
    return Sequence(_iterate(*_recurrence(spec, 0), N))


def fm_sequence(spec: CaseSpec, m: int, N: int) -> Sequence:
    """f_m(1..N) from the family's linear recurrence (``_recurrence``)."""
    m, N = _as_param("m", m), _as_param("N", N)
    if m < 0:
        raise ValueError("m must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    return Sequence(_iterate(*_recurrence(spec, m), N))


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


@lru_cache(maxsize=None)
def _binomials(x: int) -> tuple[int, ...]:
    """C(x, 0), ..., C(x, x)."""
    return tuple(comb(x, y) for y in range(x + 1))


def _pascal(top: int) -> list[tuple[int, ...]]:
    # C[x][y] = C(x, y) for 0 <= y <= x <= top; every sum below runs only
    # over the indices where its binomials are nonzero, so no index it
    # reads is negative or past the end of a row
    return [_binomials(x) for x in range(top + 1)]


@lru_cache(maxsize=None)
def _inner_j_sums(case_id: int, d: int) -> tuple[int, ...]:
    # families 4 and 5 write c_1(n,k) as [d == 0] + sum_i C(k,i) S(i,d)
    # with d = n-k; entry i-1 is the inner sum S(i,d), zero for i > d//2:
    # family 4: S = sum_{j=i}^{d//2} C(j-1,i-1) C(d-j-1,j-1)
    # family 5: S = sum_j C(j-1,i-1) C(j,d-2j) over j >= i, 0 <= d-2j <= j
    C = _pascal(d)
    low = 0 if case_id == 4 else -(-d // 3)
    return tuple(
        sum(
            C[j - 1][i - 1] * (C[d - j - 1][j - 1] if case_id == 4 else C[j][d - 2 * j])
            for j in range(max(i, low), d // 2 + 1)
        )
        for i in range(1, d // 2 + 1)
    )


@lru_cache(maxsize=None)
def _c1_row(case_id: int, a: int | None, b: int | None, n: int) -> tuple[int, ...]:
    """c_1(n,1), ..., c_1(n,n), each cell the family's closed-form sum."""
    C = _pascal(n)
    if case_id == 1:
        # sum_i C(k,i) C(n-k-1,k-i-1) a^(k-i) (a-1)^(n-2k+i) off the
        # diagonal, over the i where both binomials are nonzero
        pa, pa1 = [a**e for e in range(n)], [(a - 1) ** e for e in range(n)]
        return tuple(
            sum(
                C[k][i] * C[n - k - 1][k - i - 1] * pa[k - i] * pa1[n - 2 * k + i]
                for i in range(max(0, 2 * k - n), k)
            )
            for k in range(1, n)
        ) + (1,)
    if case_id == 2:
        pa = [a**e for e in range(n // 2 + 1)]
        return tuple(
            0 if (n - k) % 2 else pa[(n - k) // 2] * C[(n + k) // 2 - 1][k - 1]
            for k in range(1, n + 1)
        )
    if case_id == 3:
        # c1 = sum_{j=0}^{d} w_j u^j v^(d-j) with d = n-k; the weight w_j is
        # symmetric under j <-> d-j and u*v = b, so pairing j with d-j gives
        # w_j b^j V(d-2j), the unpaired middle term (2j = d) being w_j b^j
        lucas = [2, a]
        while len(lucas) < n:
            lucas.append(a * lucas[-1] - b * lucas[-2])
        pb = [b**e for e in range(n // 2 + 1)]
        return tuple(
            sum(
                C[n - j - 1][k - 1]
                * C[k + j - 1][k - 1]
                * pb[j]
                * (lucas[n - k - 2 * j] if 2 * j < n - k else 1)
                for j in range((n - k) // 2 + 1)
            )
            for k in range(1, n + 1)
        )
    # families 4 and 5
    return tuple(
        (1 if k == n else 0)
        + sum(
            C[k][i] * inner
            for i, inner in enumerate(_inner_j_sums(case_id, n - k)[:k], start=1)
        )
        for k in range(1, n + 1)
    )


def c1_explicit_table(spec: CaseSpec, N: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..N of the closed form for c_1(n,k), the weight of
    compositions of n into k parts under f_0."""
    N = _as_param("N", N)
    _check_positive("N", N)
    return tuple(_c1_row(spec.case_id, spec.a, spec.b, n) for n in range(1, N + 1))


@lru_cache(maxsize=None)
def _repunit_row(b: int, n: int) -> tuple[int, ...]:
    # sum_{i=0}^{n-k} b^(n-k-i) C(n-i-1,k-1) C(k+i-1,k-1)
    C = _pascal(n)
    pb = [b**e for e in range(n)]
    return tuple(
        sum(
            pb[n - k - i] * C[n - i - 1][k - 1] * C[k + i - 1][k - 1]
            for i in range(n - k + 1)
        )
        for k in range(1, n + 1)
    )


def c1_case3_repunit_table(b: int, N: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..N of family 3's c_1 at a = b+1, where the roots are 1 and
    1/b and the Lucas-sequence sum collapses to plain powers of b."""
    b, N = _as_param("b", b), _as_param("N", N)
    _check_positive("b", b)
    _check_positive("N", N)
    return tuple(_repunit_row(b, n) for n in range(1, N + 1))


@lru_cache(maxsize=None)
def _c2_row(a: int, n: int) -> tuple[int, ...]:
    # n = 2*half - p; odd rows (p = 1) shift both binomials down by one
    p = n % 2
    half = (n + p) // 2
    C = _pascal(n)
    pa = [a**e for e in range(half + 1)]
    return tuple(
        sum(
            pa[half - j] * C[2 * j - 1 - p][k - 1] * C[half + j - 1 - p][half - j]
            for j in range(-(-(k + p) // 2), half + 1)
        )
        for k in range(1, n + 1)
    )


def c2_explicit_case2_table(a: int, N: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..N of the closed form for family 2's level-2 triangle
    c_2(n,k), each row dispatched by the parity of n."""
    a, N = _as_param("a", a), _as_param("N", N)
    _check_positive("a", a)
    _check_positive("N", N)
    return tuple(_c2_row(a, n) for n in range(1, N + 1))


@lru_cache(maxsize=None)
def _lifted_row(
    case_id: int, a: int | None, b: int | None, m: int, n: int
) -> tuple[int, ...]:
    # c_m(n,k) = sum_{i=k}^{n} (m-1)^(i-k) C(i-1,k-1) c_1(n,i) for k = 1..n;
    # at m = 1 every term but i = k has the factor 0^(i-k) = 0, so the lift
    # is the c_1 row itself.  The weight (m-1)^d C(k-1+d, d) steps from d
    # to d + 1 by (m-1)(k+d)/(d+1), exactly, since
    # C(k-1+d, d) (k+d) = C(k+d, d+1) (d+1)
    row = _c1_row(case_id, a, b, n)
    if m == 1:
        return row
    lifted = []
    for k in range(1, n + 1):
        total = 0
        weight = 1
        for d in range(n - k + 1):
            total += weight * row[k - 1 + d]
            weight = weight * (m - 1) * (k + d) // (d + 1)
        lifted.append(total)
    return tuple(lifted)


def _variant_row(a: int, m: int, n: int) -> tuple[int, ...]:
    # the family-1 lifted row with each leading term (m-1)^(n-k) C(n-1,k-1)
    # replaced by m^(n-k) C(n-1,k-1)
    C = _binomials(n - 1)
    return tuple(
        cell + (m ** (n - k) - (m - 1) ** (n - k)) * C[k - 1]
        for k, cell in enumerate(_lifted_row(1, a, None, m, n), start=1)
    )


def cm_explicit_case1_table(a: int, m: int, N: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..N of the expanded closed form for family 1's c_m(n,k),
    m >= 1: the closed-form c_1 rows lifted to level m.

    The leading (i = n) term is (m-1)^(n-k) * C(n-1,k-1); summed over k
    it gives m^(n-1) by the binomial theorem.
    """
    a, m, N = _as_param("a", a), _as_param("m", m), _as_param("N", N)
    _check_positive("m", m)
    _check_positive("a", a)
    _check_positive("N", N)
    return tuple(_lifted_row(1, a, None, m, n) for n in range(1, N + 1))


def cm_explicit_case1_alt_table(a: int, m: int, N: int) -> tuple[tuple[int, ...], ...]:
    """Variant of :func:`cm_explicit_case1_table` whose leading term is
    m^(n-k) * C(n-1,k-1) instead of (m-1)^(n-k) * C(n-1,k-1).

    Disagrees with the triangle lift already at (a,m,n,k) = (1,2,2,1)
    (value 3 where the lift gives 2).  Kept so the verification harness
    can demonstrate the disagreement; not part of any computing path.
    """
    a, m, N = _as_param("a", a), _as_param("m", m), _as_param("N", N)
    _check_positive("m", m)
    _check_positive("a", a)
    _check_positive("N", N)
    return tuple(_variant_row(a, m, n) for n in range(1, N + 1))


def fm_explicit(spec: CaseSpec, m: int, n: int) -> int:
    """Closed form for f_m(n), m >= 0, for every family: the closed-form
    c_1 row lifted to level m and summed over k.

    By the binomial theorem the lift's weights (m-1)^(i-k) C(i-1,k-1)
    sum over k to m^(i-1), so this is the single sum over i of
    m^(i-1) c_1(n,i).  For family 1 the i = n term is the leading
    m^(n-1); for family 2 the nonzero cells i = n-2j give the terms
    m^(n-2j-1) a^j C(n-1-j, j); at m = 0 the sum collapses to the single
    cell c_1(n,1) = f_0(n).
    """
    m, n = _as_param("m", m), _as_param("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    row = _c1_row(spec.case_id, spec.a, spec.b, n)
    return sum(m**i * cell for i, cell in enumerate(row))


def triangle_formula_available(spec: CaseSpec, m: int) -> bool:
    """Whether the closed forms cover the level-m triangle: at every
    level m >= 1, for every family."""
    return _as_param("m", m) >= 1


def _formula_row(spec: CaseSpec, m: int, n: int) -> tuple[int, ...]:
    # family 2 at m = 2 reads the paper's own c_2; every other point lifts
    # the c_1 row
    if spec.case_id == 2 and m == 2:
        return _c2_row(spec.a, n)
    return _lifted_row(spec.case_id, spec.a, spec.b, m, n)


def triangle_formula_table(
    spec: CaseSpec, m: int, N: int
) -> tuple[tuple[int, ...], ...]:
    """Rows 1..N of the level-m triangle c_m(n,k), m >= 1, from the
    closed forms: family 2's own c_2 at m = 2, else the lifted c_1."""
    m, N = _as_param("m", m), _as_param("N", N)
    _check_positive("m", m)
    _check_positive("N", N)
    return tuple(_formula_row(spec, m, n) for n in range(1, N + 1))
