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
counts stay independent.  n is taken by the package's integer rule
(``sequences._as_param``): a float raises ``ValueError``, a numpy
integer is used as an exact int, and an n below the first index (1, or 3
for padovan) raises ``ValueError``.
"""

from __future__ import annotations

from .sequences import _as_param


def _linear(n: int, seeds: tuple[int, ...], coefficients: tuple[int, ...]) -> int:
    # x(n) for n >= 1, where x(1), x(2), ... start with the seeds and then
    # x(j) = sum(c * x(j - d) for d, c in enumerate(coefficients, 1))
    window = list(seeds)
    for _ in range(n - len(seeds)):
        window.append(sum(c * x for c, x in zip(coefficients, reversed(window))))
        del window[0]
    return window[min(n, len(seeds)) - 1]


def fibonacci(n: int) -> int:
    return _linear(_as_param("n", n, 1), (1, 1), (1, 1))


def pell(n: int) -> int:
    return _linear(_as_param("n", n, 1), (1, 2), (2, 1))


def jacobsthal(n: int) -> int:
    return _linear(_as_param("n", n, 1), (1, 1), (1, 2))


def mersenne(n: int) -> int:
    return 2 ** _as_param("n", n, 1) - 1


def tribonacci(n: int) -> int:
    return _linear(_as_param("n", n, 1), (1, 1, 2), (1, 1, 1))


def padovan(n: int) -> int:
    # P(3), P(4), P(5) = 1, 0, 1 and P(n) = P(n-2) + P(n-3)
    return _linear(_as_param("n", n, 3) - 2, (1, 0, 1), (0, 1, 1))


_DISPATCH = {
    "fibonacci": fibonacci,
    "pell": pell,
    "jacobsthal": jacobsthal,
    "mersenne": mersenne,
    "padovan": padovan,
    "tribonacci": tribonacci,
}

CLASSIC_NAMES: tuple[str, ...] = tuple(_DISPATCH)


def classic(name: str, n: int) -> int:
    """Value of a classic sequence by registry name."""
    try:
        fn = _DISPATCH[name]
    except KeyError:
        raise ValueError(
            f"unknown sequence {name!r}; known: {', '.join(CLASSIC_NAMES)}"
        ) from None
    return fn(n)
