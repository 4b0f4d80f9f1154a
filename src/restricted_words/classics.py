"""Classic integer sequences under the conventions used throughout.

Conventions worth flagging: fibonacci, pell, jacobsthal, mersenne, and
tribonacci are all indexed from 1 (F1 = F2 = 1, P1 = 1, P2 = 2,
J1 = J2 = 1, T1 = T2 = 1, T3 = 2, mersenne(n) = 2^n - 1).  padovan is
defined for n >= 3 by P(n) = P(n-2) + P(n-3) from P(3), P(4), P(5) =
1, 0, 1, giving 1, 0, 1, 1, 1, 2, 2, 3, ... from n = 3: the family-5 base
count shifted by two (padovan(n) = f0(n-2)); other sources index the
Padovan numbers differently.

Each sequence is computed here from its own recurrence (or 2^n - 1) and
nothing is imported from ``cases``, so comparisons against the family
counts stay independent.
"""

from __future__ import annotations

CLASSIC_NAMES = (
    "fibonacci",
    "pell",
    "jacobsthal",
    "mersenne",
    "padovan",
    "tribonacci",
)


def _two_term(n: int, s1: int, s2: int, c1: int, c2: int) -> int:
    # x(n+2) = c1*x(n+1) + c2*x(n) from seeds s1, s2
    if n == 1:
        return s1
    prev, cur = s1, s2
    for _ in range(n - 2):
        prev, cur = cur, c1 * cur + c2 * prev
    return cur


def fibonacci(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _fibonacci0(n)


def _fibonacci0(n: int) -> int:
    # F(0) = 0 admitted internally; the family-4 base count is F(n-2)
    if n == 0:
        return 0
    return _two_term(n, 1, 1, 1, 1)


def pell(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _two_term(n, 1, 2, 2, 1)


def jacobsthal(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _two_term(n, 1, 1, 1, 2)


def mersenne(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2**n - 1


def tribonacci(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 3:
        return (1, 1, 2)[n - 1]
    a, b, c = 1, 1, 2
    for _ in range(n - 3):
        a, b, c = b, c, a + b + c
    return c


def padovan(n: int) -> int:
    if n < 3:
        raise ValueError("padovan is defined for n >= 3 here")
    a, b, c = 1, 0, 1
    for _ in range(n - 3):
        a, b, c = b, c, a + b
    return a


_DISPATCH = {
    "fibonacci": fibonacci,
    "pell": pell,
    "jacobsthal": jacobsthal,
    "mersenne": mersenne,
    "padovan": padovan,
    "tribonacci": tribonacci,
}


def classic(name: str, n: int) -> int:
    """Value of a classic sequence by registry name."""
    try:
        fn = _DISPATCH[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; known: {', '.join(CLASSIC_NAMES)}"
        ) from None
    return fn(n)
