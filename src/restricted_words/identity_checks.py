"""A named, machine-checkable registry of binomial-sum identities.

Each entry pins one closed-form identity relating a classic sequence to
the triangle and transform machinery (explicit single sums, the even/odd
index-split sums, the composition product, the counting identities).
``check_identity`` evaluates both sides exactly over a range of n and
reports either verified or the lowest counterexample with both values.

Where a right-hand side is one of the paper's closed forms, it calls that
closed form in ``cases``; the classic sequences it is compared with come
from ``classics``, which computes them independently.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from . import cases
from .cases import CaseSpec, c1_case3_repunit_table, f0_prefix, fm_explicit
from .classics import fibonacci, jacobsthal, mersenne, padovan, pell, tribonacci
from .sequences import Sequence, _as_param, binom, composition_triangle
from .words import automaton_counts

Checkpoint = tuple[dict[str, int], int, int]


class Counterexample(NamedTuple):
    """The lowest failing checkpoint of an identity with both sides.

    An immutable named tuple, so it also equals the plain tuple
    ``(params, lhs, rhs)``."""

    params: dict[str, int]
    lhs: int
    rhs: int


class IdentityReport(NamedTuple):
    """What ``check_identity`` checked, and its counterexample if any.

    An immutable named tuple, so it also equals the plain tuple
    ``(name, max_n, checked, counterexample)``."""

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


def _index_split(a: int, parity: int, classic_fn) -> Callable[[int], Iterator[Checkpoint]]:
    # F(2n-p) (a = 1) or J(2n-p) (a = 2) as sum_k a^(n-k) C(n+k-1-p, n-k),
    # p = 0 for the even and 1 for the odd index
    def run(max_n: int) -> Iterator[Checkpoint]:
        for n in range(1, max_n + 1):
            rhs = sum(
                a ** (n - k) * binom(n + k - 1 - parity, n - k) for k in range(1, n + 1)
            )
            yield {"n": n}, classic_fn(2 * n - parity), rhs

    return run


def _pell_split(parity: int) -> Callable[[int], Iterator[Checkpoint]]:
    # P(N) as the row sum of the family-2 (a = 1) level-2 triangle,
    # N = 2n-p: only the rows of this parity are built
    def run(max_n: int) -> Iterator[Checkpoint]:
        for n in range(1, max_n + 1):
            N = 2 * n - parity
            yield {"n": n}, pell(N), sum(cases._c2_row(1, N))

    return run


def _case3_product(max_n: int) -> Iterator[Checkpoint]:
    # sum over compositions of n into k parts of prod (b^i - 1), against
    # (b-1)^k times the family-3 closed form at a = b+1; row n of a
    # triangle reads only the weights up to n, so one per b serves every n
    tables = {
        b: (
            composition_triangle(Sequence(b**i - 1 for i in range(1, max_n + 1))),
            c1_case3_repunit_table(b, max_n),
        )
        for b in (2, 3)
    }
    for n in range(1, max_n + 1):
        for b, (triangle, closed) in tables.items():
            for k in range(1, n + 1):
                rhs = (b - 1) ** k * closed[n - 1][k - 1]
                yield {"n": n, "b": b, "k": k}, triangle.at(n, k), rhs


def _euler_type(max_n: int) -> Iterator[Checkpoint]:
    # binary words of length n-2, 2^(n-2) = M(n-2) + 1, vs family-4 ternary
    # words of length n-1
    counts = automaton_counts(CaseSpec(4), 1, max_n - 1)
    for n in range(3, max_n + 1):
        yield {"n": n}, mersenne(n - 2) + 1, counts[n - 1]


def _mersenne_sum(max_n: int) -> Iterator[Checkpoint]:
    # the family-4 row sum f_1(n) = 2^(n-2), less its diagonal c_1(n,n) = 1
    rows = cases.triangle_formula_table(CaseSpec(4), 1, max_n)
    for n in range(3, max_n + 1):
        yield {"n": n}, mersenne(n - 2), sum(rows[n - 1][:-1])


def _fib_quad(max_n: int) -> Iterator[Checkpoint]:
    # the quadruple sum is the family-4 c_1 row lifted to level 2, summed
    spec = CaseSpec(4)
    for n in range(1, max_n + 1):
        yield {"n": n}, fibonacci(2 * n - 1), fm_explicit(spec, 2, n)


def _tribonacci_sum(max_n: int) -> Iterator[Checkpoint]:
    rows = cases.triangle_formula_table(CaseSpec(5), 1, max_n)
    for n in range(1, max_n + 1):
        yield {"n": n}, tribonacci(n), sum(rows[n - 1])


def _padovan_compositions(max_n: int) -> Iterator[Checkpoint]:
    # compositions of n - 1 into parts 2 and 3, Padovan's P(n + 2)
    for n, value in enumerate(f0_prefix(CaseSpec(5), max_n), start=1):
        yield {"n": n}, value, padovan(n + 2)


_REGISTRY: dict[str, Callable[[int], Iterator[Checkpoint]]] = {
    "fib-explicit": _explicit_transform(1, 1, fibonacci),
    "pell-explicit": _explicit_transform(1, 2, pell),
    "jacobsthal-explicit": _explicit_transform(2, 1, jacobsthal),
    "fib-even": _index_split(1, 0, fibonacci),
    "fib-odd": _index_split(1, 1, fibonacci),
    "jac-even": _index_split(2, 0, jacobsthal),
    "jac-odd": _index_split(2, 1, jacobsthal),
    "pell-even": _pell_split(0),
    "pell-odd": _pell_split(1),
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
    lowest counterexample.  A max_n below the identity's first n, where it
    would check nothing, raises ``ValueError``.
    """
    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}"
        ) from None
    max_n = _as_param("max_n", max_n)
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    checked = 0
    for params, lhs, rhs in runner(max_n):
        checked += 1
        if lhs != rhs:
            return IdentityReport(name, max_n, checked, Counterexample(params, lhs, rhs))
    if not checked:
        raise ValueError(f"identity {name!r} makes no check at max_n = {max_n}")
    return IdentityReport(name, max_n, checked, None)


def check_all(max_n: int = 30) -> list[IdentityReport]:
    return [check_identity(name, max_n) for name in IDENTITY_NAMES]
