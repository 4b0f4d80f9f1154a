"""Exact arithmetic on 1-indexed integer sequences and composition triangles.

The two central objects are the invert transform

    b(n) = f(n) + sum_{i=1}^{n-1} f(i) * b(n-i)

(equivalently B = A/(1-A) on ordinary generating functions with
A(x) = sum_{i>=1} f(i) x^i) and the weighted-composition triangle

    c(n,k) = sum over i_1+...+i_k = n (all parts positive) of f(i_1)...f(i_k),

whose column k holds the coefficients of A(x)^k.  Row sums of the triangle
of f recover the invert transform of f, and the m-fold transform's triangle
is obtained from the 1-fold one by the lift

    c_m(n,k) = sum_{i=k}^{n} (m-1)^(i-k) * C(i-1,k-1) * c_1(n,i).

Both the m-fold transform B = A/(1-mA) and the lift hold for every
integer m: a negative m undoes the transform, A = B/(1+mB).

Everything here is pure and exact: values are Python ints of arbitrary
precision, sequences are immutable, and all indices are 1-based (f(1) is
the first entry; there is no entry at index 0).  The convention 0**0 = 1
is relied on throughout, matching Python's own ``pow``.

``Sequence`` and ``Triangle`` check every value they are given.  A plain
``int`` is stored unchanged; any other ``numbers.Integral`` (``bool``,
numpy integers, ``int`` subclasses such as ``IntEnum`` members) is stored
as ``int(value)``; anything else, floats, fractions and decimals with an
integral value included, raises ``TypeError``.  So every stored value is
exactly of type ``int``.  ``numbers`` is imported by the first value that
is not an exact int, not with this module, so a call that stores only
ints starts without it.

Integer arguments, here and in the other modules, go through the same
rule in ``_as_param``, which raises ``ValueError`` naming the argument.
It holds each argument's least value too: f_m, c_m, f_0 and the classic
numbers are defined only from some least index, and an int below it
raises ``ValueError`` naming the argument and that least value.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 whenever k < 0 or k > n.

    Formula sums whose exponents could go negative evaluate the binomial
    factors first and skip a term as soon as one of them is zero; this is
    what keeps vanishing terms from ever raising (a-1)**negative.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _as_int(value) -> int:
    # the exact type test is the fast path: nearly every value is already
    # a plain int, and an ABC isinstance check costs many times as much
    if type(value) is int:
        return value
    from numbers import Integral

    if isinstance(value, Integral):
        return int(value)
    raise TypeError(f"sequence values must be integers, got {value!r}")


def _as_param(name: str, value, least: int | None = None):
    # the same rule for an argument: exact ints (and None) kept, any other
    # Integral through int(), anything else a ValueError naming it; with
    # least, an int below it is a ValueError naming the bound
    if type(value) is not int and value is not None:
        from numbers import Integral

        if not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


class Sequence:
    """Finite prefix f(1..N) of an integer sequence, indexed from 1.

    Stores each value as a plain ``int``: exact ints unchanged, any other
    ``numbers.Integral`` through ``int()``; any other value raises
    ``TypeError`` and an empty input raises ``ValueError``.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]) -> None:
        vals = tuple(map(_as_int, values))
        if not vals:
            raise ValueError("a sequence needs at least one value")
        self._values = vals

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    def at(self, n: int) -> int:
        """Value f(n); n runs from 1 to len(self)."""
        if not 1 <= n <= len(self._values):
            raise IndexError(f"index {n} outside 1..{len(self._values)}")
        return self._values[n - 1]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Sequence({list(self._values)!r})"


def as_sequence(f: Sequence | Iterable[int]) -> Sequence:
    return f if isinstance(f, Sequence) else Sequence(f)


class Triangle:
    """Lower-triangular table c(n,k) for 1 <= k <= n <= N.

    Row n must hold exactly n values.  Each value is stored as a plain
    ``int`` under the same rule as :class:`Sequence`: exact ints
    unchanged, any other ``numbers.Integral`` through ``int()``, anything
    else ``TypeError``.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        built = tuple(tuple(map(_as_int, row)) for row in rows)
        if not built:
            raise ValueError("a triangle needs at least one row")
        for n, row in enumerate(built, start=1):
            if len(row) != n:
                raise ValueError(f"row {n} must have {n} entries, got {len(row)}")
        self._rows = built

    @property
    def size(self) -> int:
        return len(self._rows)

    def at(self, n: int, k: int) -> int:
        """Entry c(n,k); defined exactly for 1 <= k <= n <= size."""
        if not 1 <= n <= len(self._rows):
            raise IndexError(f"row {n} outside 1..{len(self._rows)}")
        if not 1 <= k <= n:
            raise IndexError(f"column {k} outside 1..{n}")
        return self._rows[n - 1][k - 1]

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= len(self._rows):
            raise IndexError(f"row {n} outside 1..{len(self._rows)}")
        return self._rows[n - 1]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Triangle):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Triangle(size={len(self._rows)})"


def invert(f: Sequence | Iterable[int]) -> Sequence:
    """Invert transform: b(n) = f(n) + sum_{i=1}^{n-1} f(i) * b(n-i)."""
    vals = as_sequence(f).values
    out: list[int] = []
    for fn in vals:
        # f(1) * b(n-1) + ... + f(n-1) * b(1); map stops at the shorter
        out.append(fn + sum(map(operator.mul, vals, reversed(out))))
    return Sequence(out)


def invert_power(f: Sequence | Iterable[int], m: int) -> Sequence:
    """m-th invert transform, computed directly as B = A / (1 - m*A).

    Coefficient-wise: b(n) = f(n) + m * sum_{i=1}^{n-1} f(i) * b(n-i).
    Equals m successive applications of :func:`invert`; m = 0 returns the
    input unchanged, and a negative m undoes -m of them.
    """
    f = as_sequence(f)
    m = _as_param("m", m)
    if m == 0:
        return f
    vals = f.values
    out: list[int] = []
    for fn in vals:
        out.append(fn + m * sum(map(operator.mul, vals, reversed(out))))
    return Sequence(out)


def composition_triangle(f: Sequence | Iterable[int]) -> Triangle:
    """Triangle c(n,k) of weighted compositions of n into k positive parts.

    Computed by the dynamic program c(n,k) = sum_{i=1}^{n-k+1} f(i)*c(n-i,k-1)
    with c(n,1) = f(n); column k equals the degree-n coefficients of the k-th
    power of the generating polynomial of f.
    """
    vals = as_sequence(f).values
    size = len(vals)
    # columns[k-1][u] = c(k+u, k), column k read down from its diagonal
    # cell; column k is column k-1 convolved with f
    columns = [list(vals)]
    for k in range(2, size + 1):
        prev = columns[-1]
        columns.append(
            [
                sum(map(operator.mul, vals, reversed(prev[: u + 1])))
                for u in range(size - k + 1)
            ]
        )
    return Triangle(
        [columns[k - 1][n - k] for k in range(1, n + 1)] for n in range(1, size + 1)
    )


def row_sums(t: Triangle) -> Sequence:
    """Sequence of row sums: entry n is sum_{k=1}^{n} c(n,k)."""
    return Sequence(sum(row) for row in t.rows)


def lift_triangle(c1: Triangle, m: int) -> Triangle:
    """Lift the m = 1 triangle to level m.

    c_m(n,k) = sum_{i=k}^{n} (m-1)^(i-k) * C(i-1,k-1) * c1(n,i).  For m = 1
    only the i = k term survives (0**0 = 1), so the input itself is
    returned, as ``invert_power`` returns its input at m = 0.  The sum
    holds for every integer m: lifting the triangle of f gives the
    triangle of ``invert_power(f, m - 1)``.
    """
    m = _as_param("m", m)
    if m == 1:
        return c1
    size = c1.size
    # weights[k-1][d] = W(k, d) = (m-1)^d * C(k-1+d, d) for 0 <= d <= size-k,
    # by Pascal's rule W(k, d) = W(k-1, d) + (m-1) W(k, d-1), with W(k, 0) = 1
    # and W(0, d) = 0 for d >= 1
    weights = []
    prev = [0] * size
    for k in range(1, size + 1):
        row = [1]
        for d in range(1, size - k + 1):
            row.append(prev[d] + (m - 1) * row[-1])
        weights.append(row)
        prev = row
    return Triangle(
        [
            sum(map(operator.mul, weights[k - 1], row[k - 1 :]))
            for k in range(1, n + 1)
        ]
        for n, row in enumerate(c1.rows, start=1)
    )
