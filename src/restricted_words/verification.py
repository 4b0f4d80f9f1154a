"""The route table and the cross-checks tying every route to every other.

:data:`SEQUENCE_ROUTES` and :data:`TRIANGLE_ROUTES` hold the one
implementation of each sequence and triangle route.  Every route covers
every family: the sequence routes at every level m >= 0 and the triangle
routes at every m >= 1, the closed forms ``explicit`` and ``formula``
included.  The CLI's ``--source``, :func:`cross_check` and the f_m-valued
identities reach them through :func:`sequence_values` and :func:`triangle_rows`;
:func:`cross_check` gets ``eq3`` by lifting the level-1 ``convolution``
triangle, f_0's own.  The closed forms are read a whole table at a
time, each checking its arguments once: ``cases.triangle_formula_table``
serves both the closed-form c_1 (at m = 1) and the ``formula`` route.

For one family and extension level this harness compares, cell by cell
and entry by entry: exhaustive counts, automaton counts, recurrence
values, invert-transform values, triangle row sums, marked-word counts
against triangle cells, each closed form against the convolution
triangle, and, at m >= 2, the triangle lift against the directly-built
triangle of the transformed base sequence.  Every comparison is reported
with the number of agreeing checks or the first mismatch witness.  One
walk, :func:`_compare_table`, makes every comparison: it compares each
row in one ``==`` and walks only the first row that differs for its
first witness, so the count and the witness are those of a cell walk.

The harness also adjudicates the two candidate leading terms of the
family-1 expanded c_m formula: the implemented (m-1)-power form, the
family-1 ``triangle_formula_table``, agrees with the triangle lift
everywhere, while the m-power variant already fails at
(a, m, n, k) = (1, 2, 2, 1).  Both tables are compared with the ``eq3``
c_1 of each a, built once and lifted to m = 1, 2 and 3.

Routes and formulas call through module attributes
(``cases.triangle_formula_table``, ``words.automaton_counts`` and
friends) at call time, so a test can substitute a corrupted one and
watch the harness catch it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cases, words
from .cases import CaseSpec
from .sequences import (
    Triangle,
    _as_param,
    composition_triangle,
    invert_power,
    lift_triangle,
    row_sums,
)
from .words import DEFAULT_BUDGET


# name -> (spec, m, N) -> f_m(1..N); every route gives the same integers
SEQUENCE_ROUTES = {
    "recurrence": lambda spec, m, N: list(cases.fm_sequence(spec, m, N)),
    "invert": lambda spec, m, N: list(invert_power(cases.f0_prefix(spec, N), m)),
    "explicit": lambda spec, m, N: [
        cases.fm_explicit(spec, m, n) for n in range(1, N + 1)
    ],
    "automaton": lambda spec, m, N: words.automaton_counts(spec, m, N - 1),
}
# name -> (spec, m, N) -> the triangle c_m(n,k), 1 <= k <= n <= N
TRIANGLE_ROUTES = {
    "convolution": lambda spec, m, N: composition_triangle(
        invert_power(cases.f0_prefix(spec, N), m - 1)
    ),
    "formula": lambda spec, m, N: Triangle(cases.triangle_formula_table(spec, m, N)),
    "eq3": lambda spec, m, N: lift_triangle(
        composition_triangle(cases.f0_prefix(spec, N)), m
    ),
}


def _from_route(routes: dict, kind: str, spec: CaseSpec, m: int, N: int, source: str):
    # the one home of both tables' checks, in this order
    if source not in routes:
        raise ValueError(
            f"unknown {kind} source {source!r}; choose from " + ", ".join(routes)
        )
    m = _as_param("m", m)
    if kind == "triangle" and m < 1:
        raise ValueError("triangles need --m >= 1")
    # every sequence route refuses it alike; invert_power itself would
    # undo -m transforms
    if m < 0:
        raise ValueError("m must be >= 0")
    N = _as_param("N", N)
    if N < 1:
        raise ValueError("--n must be >= 1")
    return routes[source](spec, m, N)


def sequence_values(spec: CaseSpec, m: int, N: int, source: str) -> list[int]:
    """f_m(1..N) from one of the sequence routes; identical across them."""
    return _from_route(SEQUENCE_ROUTES, "sequence", spec, m, N, source)


def triangle_rows(spec: CaseSpec, m: int, N: int, source: str) -> Triangle:
    """The level-m triangle c_m(n,k), 1 <= k <= n <= N, from one of the
    triangle routes."""
    return _from_route(TRIANGLE_ROUTES, "triangle", spec, m, N, source)


def grid_levels(spec: CaseSpec) -> tuple[int, ...]:
    """The extension levels m checked for one family by default."""
    return (0, 1, 2, 3) if spec.case_id == 4 else (0, 1, 2)


def default_grid() -> list[tuple[CaseSpec, int]]:
    """Every (family, parameters, level) point the suite exercises."""
    specs = (
        [CaseSpec(1, a=a) for a in (1, 2, 3)]
        + [CaseSpec(2, a=a) for a in (1, 2, 3)]
        + [CaseSpec(3, a=a, b=b) for a, b in ((2, 1), (3, 1), (3, 2), (4, 2))]
        + [CaseSpec(4), CaseSpec(5)]
    )
    return [(spec, m) for spec in specs for m in grid_levels(spec)]


class Comparison(NamedTuple):
    """One comparison: how many checks agreed, or the first mismatch.

    An immutable named tuple, so it also equals the plain tuple
    ``(label, checked, witness)``."""

    label: str
    checked: int
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def describe(self) -> str:
        if self.ok:
            return f"{self.label}: agree ({self.checked} checks)"
        where = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"{self.label}: MISMATCH at {where}"


class CrossCheckReport(NamedTuple):
    """Every comparison run at one (family, level) point.

    An immutable named tuple, so it also equals the plain tuple
    ``(spec, m, comparisons, enumerated_to)``."""

    spec: CaseSpec
    m: int
    comparisons: tuple[Comparison, ...]
    # the longest word length enumerated: max_len unless the budget stops it
    enumerated_to: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def describe(self) -> str:
        tag = f"case {self.spec.case_id}"
        if self.spec.a is not None:
            tag += f", a={self.spec.a}"
        if self.spec.b is not None:
            tag += f", b={self.spec.b}"
        head = f"cross-check: {tag}, m={self.m}"
        return "\n".join([head] + ["  " + c.describe() for c in self.comparisons])


def _compare_table(label: str, keys: str, lhs, rhs) -> Comparison:
    """Walk ``lhs`` against ``rhs`` to the first cell that differs, named
    in the witness by the comma-separated ``keys``: word lengths and mark
    counts (``len``) count from 0, indices (``n``) from 1.  A one-key table
    is one row, a two-key one a list of rows.  Each row is compared in one
    ``==`` with the same-length prefix of its ``rhs`` row, and only a row
    that differs is walked, so ``checked`` and the witness are the cell
    walk's; a shorter ``rhs`` raises ``IndexError``."""
    names = keys.split(",")
    base = 0 if keys.startswith("len") else 1
    if len(names) == 1:
        lhs, rhs = [lhs], [rhs]
    checked = 0
    for i, left in enumerate(lhs):
        right = rhs[i]
        if tuple(left) != tuple(right[: len(left)]):
            j = next(j for j, value in enumerate(left) if value != right[j])
            at = (j + base,) if len(names) == 1 else (i + base, j + base)
            witness = dict(zip(names, at), lhs=left[j], rhs=right[j])
            return Comparison(label, checked + j + 1, witness)
        checked += len(left)
    return Comparison(label, checked)


def cross_check(
    spec: CaseSpec,
    m: int,
    max_len: int = 10,
    triangle_n: int = 12,
    budget: int = DEFAULT_BUDGET,
) -> CrossCheckReport:
    """Run every applicable comparison for one (family, level) point.

    ``max_len`` bounds word lengths (enumeration is additionally capped
    by the budget); ``triangle_n`` bounds triangle and sequence indices
    for the formula comparisons.
    """
    max_len = _as_param("max_len", max_len, 0)
    triangle_n = _as_param("triangle_n", triangle_n, 1)
    N = max(triangle_n, max_len + 2)
    fm = sequence_values(spec, m, N, "recurrence")
    enum_len = min(max_len, words.max_enumerable_length(spec, m, budget))
    # one enumeration serves every length, plain and marked checks alike
    hists = words.marked_histograms(spec, m, enum_len, budget=budget)
    # one DP pass serves both plain automaton comparisons; fm reaches
    # index max_len + 1 because N >= max_len + 2
    counts = sequence_values(spec, m, max_len + 1, "automaton")
    invert = sequence_values(spec, m, N, "invert")
    rows = [
        ("exhaustive-vs-automaton", "len", [sum(h) for h in hists], counts),
        ("automaton-vs-recurrence", "len", counts, fm),
        ("recurrence-vs-invert-transform", "n", fm, invert),
    ]
    c1 = triangle_rows(spec, 1, N, "convolution")
    if m >= 1:
        cm = lift_triangle(c1, m)
        rows.append(("recurrence-vs-triangle-row-sums", "n", fm, row_sums(cm).values))
        # at m = 1 the lift is c_1 itself, so there is nothing to compare
        if m >= 2:
            direct = triangle_rows(spec, m, N, "convolution").rows
            rows.append(("lift-vs-transformed-convolution", "n,k", cm.rows, direct))
        marked_rows = words.automaton_histograms(spec, m, max_len)
        rows += [
            ("marked-exhaustive-vs-triangle", "len,marks", hists, cm.rows),
            ("marked-automaton-vs-triangle", "len,marks", marked_rows, cm.rows),
        ]
    explicit_c1 = cases.triangle_formula_table(spec, 1, triangle_n)
    rows.append(("explicit-c1-vs-convolution", "n,k", explicit_c1, c1.rows))
    if spec.case_id == 3 and spec.a == spec.b + 1:
        repunit = cases.c1_case3_repunit_table(spec.b, triangle_n)
        rows.append(
            ("repunit-specialization-vs-field-form", "n,k", repunit, explicit_c1)
        )
    explicit = sequence_values(spec, m, triangle_n, "explicit")
    rows.append(("explicit-fm-vs-recurrence", "n", explicit, fm))
    if m >= 1:
        formula = triangle_rows(spec, m, triangle_n, "formula").rows
        rows.append(("explicit-triangle-vs-lift", "n,k", formula, cm.rows))
    comparisons = tuple(
        _compare_table(label, keys, lhs, rhs) for label, keys, lhs, rhs in rows
    )
    return CrossCheckReport(spec, m, comparisons, enum_len)


class AdjudicationReport(NamedTuple):
    """Outcome of comparing the two family-1 leading-term candidates.

    An immutable named tuple, so it also equals the plain tuple of its
    six fields in order."""

    witness_cell: dict
    printed_value: int
    corrected_value: int
    lift_value: int
    corrected_agreement: Comparison
    variant_first_mismatch: dict | None

    @property
    def ok(self) -> bool:
        # the adjudication succeeds when the corrected form agrees
        # everywhere and the printed variant demonstrably does not
        return (
            self.corrected_agreement.ok
            and self.printed_value != self.lift_value
            and self.corrected_value == self.lift_value
            and self.variant_first_mismatch is not None
        )

    def describe(self) -> str:
        cell = ", ".join(f"{k}={v}" for k, v in self.witness_cell.items())
        lines = [
            "leading-term adjudication for the family-1 expanded c_m formula",
            f"  witness cell ({cell}): lift={self.lift_value}, "
            f"corrected={self.corrected_value}, m-power variant={self.printed_value}",
            "  " + self.corrected_agreement.describe(),
        ]
        if self.variant_first_mismatch is None:
            lines.append("  m-power variant: no mismatch found (unexpected)")
        else:
            where = ", ".join(
                f"{k}={v}" for k, v in self.variant_first_mismatch.items()
            )
            lines.append(f"  m-power variant: first mismatch at {where}")
        lines.append("  verdict: " + ("corrected form confirmed" if self.ok else "INCONCLUSIVE"))
        return "\n".join(lines)


def adjudicate_case1_leading_term(max_n: int = 12) -> AdjudicationReport:
    """Demonstrate which family-1 c_m leading term matches the lift."""
    max_n = _as_param("max_n", max_n, 1)
    witness = {"a": 1, "m": 2, "n": 2, "k": 1}
    lift_at = triangle_rows(CaseSpec(1, a=1), 2, 2, "eq3").at(2, 1)
    printed = cases.cm_explicit_case1_alt_table(1, 2, 2)[1][0]
    corrected = cases.triangle_formula_table(CaseSpec(1, a=1), 2, 2)[1][0]

    # one eq3 c_1 per a, lifted to each m
    c1s = {a: triangle_rows(CaseSpec(1, a=a), 1, max_n, "eq3") for a in (1, 2, 3)}
    lifts = {(a, m): lift_triangle(c1s[a], m).rows for a in (1, 2, 3) for m in (1, 2, 3)}

    def against_lift(label, form):
        # the (a, m) tables in order, one count and one witness across them
        checked = 0
        for (a, m), lift in lifts.items():
            table = _compare_table(label, "n,k", form(a, m, max_n), lift)
            checked += table.checked
            if not table.ok:
                return Comparison(label, checked, {"a": a, "m": m, **table.witness})
        return Comparison(label, checked)

    agreement = against_lift(
        "corrected-vs-lift",
        lambda a, m, N: cases.triangle_formula_table(CaseSpec(1, a=a), m, N),
    )
    variant = against_lift("m-power-vs-lift", cases.cm_explicit_case1_alt_table)
    return AdjudicationReport(
        witness, printed, corrected, lift_at, agreement, variant.witness
    )
