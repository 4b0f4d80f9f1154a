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
``f0_prefix`` at m = 0 for families 3-5 (families 1 and 2 keep their
closed-form f_0).  The closed form for c_m(n,k) lifts one closed-form
c_1 row through the single ``_lift`` sum; the one for f_m(n) weights
that row by m^(i-1), the lift summed over k.

Family 3's closed form sums powers of the reciprocal roots u, v of
b*x^2 - a*x + 1.  Since u + v = a and u*v = b, the sum is an integer
combination of the Lucas sequence V(t) = u^t + v^t, so it is evaluated
in plain ints without ever forming the irrational roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .sequences import Sequence, binom

CASE_IDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class CaseSpec:
    """One of the five families plus its parameters.

    Families 1 and 2 take the restricted-alphabet size ``a``; family 3
    takes ``a`` and the forbidden-successor count ``b`` with a > b >= 1;
    families 4 and 5 are parameter-free (base alphabet {0, 1}).
    """

    case_id: int
    a: int | None = None
    b: int | None = None

    def __post_init__(self) -> None:
        if self.case_id not in CASE_IDS:
            raise ValueError(f"case_id must be one of {CASE_IDS}, got {self.case_id}")
        if self.case_id in (1, 2):
            if self.a is None or self.a < 1:
                raise ValueError(f"case {self.case_id} needs a >= 1")
            if self.b is not None:
                raise ValueError(f"case {self.case_id} takes no b parameter")
        elif self.case_id == 3:
            if self.a is None or self.b is None:
                raise ValueError("case 3 needs both a and b")
            if not self.a > self.b >= 1:
                raise ValueError(f"case 3 needs a > b >= 1, got a={self.a}, b={self.b}")
        else:
            if self.a is not None or self.b is not None:
                raise ValueError(f"case {self.case_id} takes no parameters")

    @property
    def base_alphabet(self) -> int:
        """Size of the restricted alphabet (a, or 2 for families 4-5)."""
        return self.a if self.case_id in (1, 2, 3) else 2

    def alphabet_size(self, m: int) -> int:
        """Full alphabet size once m unrestricted letters are added."""
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


def f0_value(spec: CaseSpec, n: int) -> int:
    """Base count f_0(n): valid words of length n-1 over the base alphabet."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = spec.a
    if spec.case_id == 1:
        return 1 if n == 1 else a * (a - 1) ** (n - 2)
    if spec.case_id == 2:
        return 0 if n % 2 == 0 else a ** ((n - 1) // 2)
    return f0_prefix(spec, n).at(n)


def f0_prefix(spec: CaseSpec, N: int) -> Sequence:
    """The prefix f_0(1..N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if spec.case_id in (1, 2):
        return Sequence(f0_value(spec, n) for n in range(1, N + 1))
    return Sequence(_iterate(*_recurrence(spec, 0), N))


def fm_sequence(spec: CaseSpec, m: int, N: int) -> Sequence:
    """f_m(1..N) from the family's linear recurrence (``_recurrence``);
    N must be large enough to hold the seeds."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coefficients, seeds = _recurrence(spec, m)
    if N < len(seeds):
        raise ValueError(f"N must be >= {len(seeds)} for case {spec.case_id}")
    return Sequence(_iterate(coefficients, seeds, N))


def _check_cell(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")


@lru_cache(maxsize=None)
def _c1_case1(a: int, n: int, k: int) -> int:
    # sum_{i=0}^{k-1} C(k,i) C(n-k-1,k-i-1) a^(k-i) (a-1)^(n-2k+i) off the
    # diagonal; when both binomials are nonzero the (a-1)-exponent is >= 0
    if n == k:
        return 1
    total = 0
    for i in range(k):
        w = binom(k, i) * binom(n - k - 1, k - i - 1)
        if w == 0:
            continue
        total += w * a ** (k - i) * (a - 1) ** (n - 2 * k + i)
    return total


@lru_cache(maxsize=None)
def _c1_case3(a: int, b: int, n: int, k: int) -> int:
    # c1 = sum_{j=0}^{d} w_j u^j v^(d-j) with d = n-k; the weight w_j is
    # symmetric under j <-> d-j and u*v = b, so pairing j with d-j gives
    # w_j b^j V(d-2j), the unpaired middle term (2j = d) being w_j b^j
    d = n - k
    lucas = [2, a]
    while len(lucas) <= d:
        lucas.append(a * lucas[-1] - b * lucas[-2])
    total = 0
    for j in range(d // 2 + 1):
        w = binom(n - j - 1, k - 1) * binom(k + j - 1, k - 1)
        total += w * b**j * (lucas[d - 2 * j] if 2 * j < d else 1)
    return total


def c1_explicit(spec: CaseSpec, n: int, k: int) -> int:
    """Closed form for c_1(n,k), the weight of compositions of n into k
    parts under f_0; equals the convolution-triangle entry."""
    _check_cell(n, k)
    a = spec.a
    if spec.case_id == 1:
        return _c1_case1(a, n, k)
    if spec.case_id == 2:
        if (n - k) % 2 == 1:
            return 0
        return a ** ((n - k) // 2) * binom((n + k) // 2 - 1, k - 1)
    if spec.case_id == 3:
        return _c1_case3(a, spec.b, n, k)
    if spec.case_id == 4:
        if n == k:
            return 1
        total = 0
        for i in range(1, k + 1):
            ci = binom(k, i)
            for j in range(i, (n - k) // 2 + 1):
                w = binom(j - 1, i - 1) * binom(n - k - j - 1, j - 1)
                total += ci * w
        return total
    # family 5; the i = 0 term of the expansion is the indicator [n == k]
    total = 1 if n == k else 0
    for i in range(1, k + 1):
        ci = binom(k, i)
        for j in range(i, n - k + 1):
            w = binom(j - 1, i - 1) * binom(j, n - k - 2 * j)
            total += ci * w
    return total


def c1_case3_repunit(b: int, n: int, k: int) -> int:
    """Family-3 closed form specialized to a = b+1, where the roots are
    1 and 1/b and the Lucas-sequence sum collapses to plain powers of b."""
    if b < 1:
        raise ValueError("b must be >= 1")
    _check_cell(n, k)
    return sum(
        b ** (n - k - i) * binom(n - i - 1, k - 1) * binom(k + i - 1, k - 1)
        for i in range(n - k + 1)
    )


def c2_explicit_case2(a: int, n: int, k: int) -> int:
    """Closed form for the family-2 level-2 triangle c_2(n,k); n is the
    row index, dispatched by parity."""
    if a < 1:
        raise ValueError("a must be >= 1")
    _check_cell(n, k)
    # n = 2*half - p; odd rows (p = 1) shift both binomials down by one
    p = n % 2
    half = (n + p) // 2
    return sum(
        a ** (half - j) * binom(2 * j - 1 - p, k - 1) * binom(half + j - 1 - p, half - j)
        for j in range(-(-(k + p) // 2), half + 1)
    )


def _lift(cells: list[int], m: int, k: int) -> int:
    # c_m(n,k) = sum_{i=k}^{n} (m-1)^(i-k) C(i-1,k-1) c_1(n,i), with
    # cells = c_1(n,k), c_1(n,k+1), ..., c_1(n,n)
    total = 0
    for d, cell in enumerate(cells):
        total += (m - 1) ** d * binom(k - 1 + d, k - 1) * cell
    return total


def cm_explicit_case1(a: int, m: int, n: int, k: int) -> int:
    """Expanded closed form for the family-1 triangle c_m(n,k), m >= 1:
    the closed-form c_1 row lifted to level m.

    The leading (i = n) term is (m-1)^(n-k) * C(n-1,k-1); summed over k
    it gives m^(n-1) by the binomial theorem.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")
    _check_cell(n, k)
    return _lift([_c1_case1(a, n, i) for i in range(k, n + 1)], m, k)


def cm_explicit_case1_alt(a: int, m: int, n: int, k: int) -> int:
    """Variant of :func:`cm_explicit_case1` whose leading term is
    m^(n-k) * C(n-1,k-1) instead of (m-1)^(n-k) * C(n-1,k-1).

    Disagrees with the triangle lift already at (a,m,n,k) = (1,2,2,1)
    (value 3 where the lift gives 2).  Kept so the verification harness
    can demonstrate the disagreement; not part of any computing path.
    """
    corrected = cm_explicit_case1(a, m, n, k)
    return corrected + (m ** (n - k) - (m - 1) ** (n - k)) * binom(n - 1, k - 1)


def fm_explicit(spec: CaseSpec, m: int, n: int) -> int:
    """Closed form for f_m(n).

    Family 2 (m >= 0): sum over j of m^(n-2j-1) a^j C(n-1-j, j).
    Families 1 (m >= 1) and 3-5 (m >= 0): the closed-form c_1 row lifted
    to level m and summed over k.  By the binomial theorem the lift's
    weights (m-1)^(i-k) C(i-1,k-1) sum over k to m^(i-1), so this is
    the single sum over i of m^(i-1) c_1(n,i).  For family 1 the i = n
    term is the leading m^(n-1); at m = 0 the sum collapses to the
    single cell c_1(n,1) = f_0(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not fm_formula_available(spec, m):
        raise ValueError("family 1 closed form needs m >= 1")
    if spec.case_id == 2:
        return sum(
            m ** (n - 2 * j - 1) * spec.a**j * binom(n - 1 - j, j)
            for j in range((n - 1) // 2 + 1)
        )
    if m == 0:
        return c1_explicit(spec, n, 1)
    return sum(m ** (i - 1) * c1_explicit(spec, n, i) for i in range(1, n + 1))


def fm_formula_available(spec: CaseSpec, m: int) -> bool:
    """Whether :func:`fm_explicit` covers f_m at level m >= 0: every
    family at every level except family 1 at m = 0."""
    return not (spec.case_id == 1 and m == 0)


def triangle_formula_available(spec: CaseSpec, m: int) -> bool:
    """Whether a closed form covers the whole level-m triangle."""
    if m < 1:
        return False
    if spec.case_id == 1:
        return True
    if spec.case_id == 2:
        return m in (1, 2)
    return m == 1


def triangle_formula_value(spec: CaseSpec, m: int, n: int, k: int) -> int:
    """Level-m triangle entry from the closed forms, where one exists."""
    if not triangle_formula_available(spec, m):
        raise ValueError(
            f"no closed form for case {spec.case_id} triangle at m={m}"
        )
    if spec.case_id == 1:
        return cm_explicit_case1(spec.a, m, n, k)
    if m == 1:
        return c1_explicit(spec, n, k)
    return c2_explicit_case2(spec.a, n, k)
