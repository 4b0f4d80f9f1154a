"""A named, machine-checkable registry of binomial-sum identities.

Each entry pins one closed-form identity relating a classic sequence to
the triangle and transform machinery (explicit single sums, the even/odd
index-split sums, the composition product, the counting identities).
``check_identity`` evaluates both sides exactly over a range of n and
reports either verified or the lowest counterexample with both values.

The quadruple-sum identity for F_{2n-1} is capped at n = 20 internally:
its cost grows like n^4 and the identity is index-wise identical beyond
the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .cases import (
    CaseSpec,
    c1_explicit,
    c2_explicit_case2,
    f0_value,
    fm_explicit,
)
from .classics import fibonacci, jacobsthal, pell, tribonacci
from .sequences import Sequence, binom, composition_triangle
from .words import automaton_counts

Checkpoint = tuple[dict[str, int], int, int]


@dataclass(frozen=True)
class Counterexample:
    params: dict[str, int]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityReport:
    name: str
    max_n: int
    checked: int
    counterexample: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def describe(self) -> str:
        if self.ok:
            return (
                f"{self.name}: verified ({self.checked} checks, n <= {self.max_n})"
            )
        c = self.counterexample
        where = ", ".join(f"{k}={v}" for k, v in c.params.items())
        return f"{self.name}: COUNTEREXAMPLE at {where}: {c.lhs} != {c.rhs}"


def _explicit_transform(a: int, m: int, classic_fn) -> Callable[[int], Iterator[Checkpoint]]:
    spec = CaseSpec(2, a=a)

    def run(max_n: int) -> Iterator[Checkpoint]:
        for n in range(1, max_n + 1):
            yield {"n": n}, classic_fn(n), fm_explicit(spec, m, n)

    return run


def _fib_even(max_n: int) -> Iterator[Checkpoint]:
    for n in range(1, max_n + 1):
        rhs = sum(binom(n + k - 1, n - k) for k in range(1, n + 1))
        yield {"n": n}, fibonacci(2 * n), rhs


def _fib_odd(max_n: int) -> Iterator[Checkpoint]:
    for n in range(1, max_n + 1):
        rhs = sum(binom(n + k - 2, n - k) for k in range(1, n + 1))
        yield {"n": n}, fibonacci(2 * n - 1), rhs


def _jac_even(max_n: int) -> Iterator[Checkpoint]:
    for n in range(1, max_n + 1):
        rhs = sum(2 ** (n - k) * binom(n + k - 1, n - k) for k in range(1, n + 1))
        yield {"n": n}, jacobsthal(2 * n), rhs


def _jac_odd(max_n: int) -> Iterator[Checkpoint]:
    for n in range(1, max_n + 1):
        rhs = sum(2 ** (n - k) * binom(n + k - 2, n - k) for k in range(1, n + 1))
        yield {"n": n}, jacobsthal(2 * n - 1), rhs


def _pell_even(max_n: int) -> Iterator[Checkpoint]:
    for n in range(1, max_n + 1):
        rhs = sum(c2_explicit_case2(1, 2 * n, k) for k in range(1, 2 * n + 1))
        yield {"n": n}, pell(2 * n), rhs


def _pell_odd(max_n: int) -> Iterator[Checkpoint]:
    for n in range(1, max_n + 1):
        rhs = sum(c2_explicit_case2(1, 2 * n - 1, k) for k in range(1, 2 * n))
        yield {"n": n}, pell(2 * n - 1), rhs


def _case3_product(max_n: int) -> Iterator[Checkpoint]:
    # sum over compositions of n into k parts of prod (b^i - 1), against
    # the closed form (b-1)^k * sum_i b^(n-k-i) C(n-i-1,k-1) C(k+i-1,k-1)
    for n in range(1, max_n + 1):
        for b in (2, 3):
            weights = Sequence(b**i - 1 for i in range(1, n + 1))
            triangle = composition_triangle(weights)
            for k in range(1, n + 1):
                rhs = sum(
                    b ** (n - k - i)
                    * (b - 1) ** k
                    * binom(n - i - 1, k - 1)
                    * binom(k + i - 1, k - 1)
                    for i in range(n - k + 1)
                    if binom(n - i - 1, k - 1) * binom(k + i - 1, k - 1) != 0
                )
                yield {"n": n, "b": b, "k": k}, triangle.at(n, k), rhs


def _euler_type(max_n: int) -> Iterator[Checkpoint]:
    # binary words of length n-2 vs family-4 ternary words of length n-1
    counts = automaton_counts(CaseSpec(4), 1, max_n - 1)
    for n in range(3, max_n + 1):
        yield {"n": n}, 2 ** (n - 2), counts[n - 1]


def _mersenne_sum(max_n: int) -> Iterator[Checkpoint]:
    for n in range(3, max_n + 1):
        rhs = 0
        for k in range(1, n + 1):
            for i in range(1, k + 1):
                ci = binom(k, i)
                for j in range(i, (n - k) // 2 + 1):
                    rhs += ci * binom(j - 1, i - 1) * binom(n - k - j - 1, j - 1)
        yield {"n": n}, 2 ** (n - 2) - 1, rhs


_QUAD_CAP = 20


def _fib_quad(max_n: int) -> Iterator[Checkpoint]:
    # the t = 0 layer of the inner double sum is the indicator [i == n],
    # the same convention as the family-5 closed form
    for n in range(1, min(max_n, _QUAD_CAP) + 1):
        rhs = 0
        for k in range(1, n + 1):
            for i in range(k, n + 1):
                w = binom(i - 1, k - 1)
                if w == 0:
                    continue
                inner = 1 if i == n else 0
                for t in range(1, i + 1):
                    ct = binom(i, t)
                    for j in range(t, (n - i) // 2 + 1):
                        inner += (
                            ct * binom(j - 1, t - 1) * binom(n - i - j - 1, j - 1)
                        )
                rhs += w * inner
        yield {"n": n}, fibonacci(2 * n - 1), rhs


def _tribonacci_sum(max_n: int) -> Iterator[Checkpoint]:
    spec = CaseSpec(5)
    for n in range(1, max_n + 1):
        rhs = sum(c1_explicit(spec, n, k) for k in range(1, n + 1))
        yield {"n": n}, tribonacci(n), rhs


def _padovan_compositions(max_n: int) -> Iterator[Checkpoint]:
    # r(L): compositions of L into parts 2 and 3, by direct DP
    r = [1, 0, 1]
    while len(r) < max_n:
        r.append(r[-2] + r[-3])
    for n in range(1, max_n + 1):
        yield {"n": n}, f0_value(CaseSpec(5), n), r[n - 1]


_REGISTRY: dict[str, Callable[[int], Iterator[Checkpoint]]] = {
    "fib-explicit": _explicit_transform(1, 1, fibonacci),
    "pell-explicit": _explicit_transform(1, 2, pell),
    "jacobsthal-explicit": _explicit_transform(2, 1, jacobsthal),
    "fib-even": _fib_even,
    "fib-odd": _fib_odd,
    "jac-even": _jac_even,
    "jac-odd": _jac_odd,
    "pell-even": _pell_even,
    "pell-odd": _pell_odd,
    "case3-product": _case3_product,
    "euler-type": _euler_type,
    "mersenne-sum": _mersenne_sum,
    "fib-2n-1-quad": _fib_quad,
    "tribonacci-sum": _tribonacci_sum,
    "padovan-compositions": _padovan_compositions,
}

IDENTITY_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def check_identity(name: str, max_n: int = 30) -> IdentityReport:
    """Verify one registered identity for all n up to max_n.

    Checks run in ascending n, so a failing report always carries the
    lowest counterexample.
    """
    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}"
        ) from None
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    checked = 0
    for params, lhs, rhs in runner(max_n):
        checked += 1
        if lhs != rhs:
            return IdentityReport(name, max_n, checked, Counterexample(params, lhs, rhs))
    return IdentityReport(name, max_n, checked, None)


def check_all(max_n: int = 30) -> list[IdentityReport]:
    return [check_identity(name, max_n) for name in IDENTITY_NAMES]
