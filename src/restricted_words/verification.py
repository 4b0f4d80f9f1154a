"""The route table and the cross-checks tying every route to every other.

:data:`SEQUENCE_ROUTES` and :data:`TRIANGLE_ROUTES` hold the one
implementation of each sequence and triangle route.  The CLI's
``--source`` and :func:`cross_check` both reach them through
:func:`sequence_values` and :func:`triangle_rows`.

For one family and extension level this harness compares, cell by cell
and entry by entry: exhaustive counts, automaton counts, recurrence
values, invert-transform values, triangle row sums, marked-word counts
against triangle cells, each closed form against the convolution
triangle, and the triangle lift against the directly-built triangle of
the transformed base sequence.  Every comparison is reported with the
number of agreeing checks or the first mismatch witness.

The harness also adjudicates the two candidate leading terms of the
family-1 expanded c_m formula: the implemented (m-1)-power form agrees
with the triangle lift everywhere, while the m-power variant already
fails at (a, m, n, k) = (1, 2, 2, 1).

Routes and formulas call through module attributes
(``cases.c1_explicit``, ``words.automaton_counts`` and friends) at call
time, so a test can substitute a corrupted one and watch the harness
catch it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cases, words
from .cases import CaseSpec
from .sequences import (
    Triangle,
    composition_triangle,
    invert_power,
    lift_triangle,
    row_sums,
)
from .words import DEFAULT_BUDGET


def _recurrence(spec: CaseSpec, m: int, N: int) -> list[int]:
    seq = cases.fm_sequence(spec, m, max(N, spec.seed_count))
    return [seq.at(n) for n in range(1, N + 1)]


def _explicit(spec: CaseSpec, m: int, N: int) -> list[int]:
    if spec.case_id == 1 and m == 0:
        raise ValueError(
            "no closed form for case 1 at m=0; available sources: "
            + ", ".join(s for s in SEQUENCE_ROUTES if s != "explicit")
        )
    return [cases.fm_explicit(spec, m, n) for n in range(1, N + 1)]


def _formula(spec: CaseSpec, m: int, N: int) -> Triangle:
    if not cases.triangle_formula_available(spec, m):
        raise ValueError(
            f"no closed form for case {spec.case_id} triangle at m={m}; "
            "available sources: "
            + ", ".join(s for s in TRIANGLE_ROUTES if s != "formula")
        )
    return Triangle(
        [
            [cases.triangle_formula_value(spec, m, n, k) for k in range(1, n + 1)]
            for n in range(1, N + 1)
        ]
    )


# name -> (spec, m, N) -> f_m(1..N); every route gives the same integers
SEQUENCE_ROUTES = {
    "recurrence": _recurrence,
    "invert": lambda spec, m, N: list(invert_power(cases.f0_prefix(spec, N), m)),
    "explicit": _explicit,
    "automaton": lambda spec, m, N: words.automaton_counts(spec, m, N - 1),
}
# name -> (spec, m, N) -> the triangle c_m(n,k), 1 <= k <= n <= N
TRIANGLE_ROUTES = {
    "convolution": lambda spec, m, N: composition_triangle(
        invert_power(cases.f0_prefix(spec, N), m - 1)
    ),
    "formula": _formula,
    "eq3": lambda spec, m, N: lift_triangle(
        composition_triangle(cases.f0_prefix(spec, N)), m
    ),
}


def sequence_values(spec: CaseSpec, m: int, N: int, source: str) -> list[int]:
    """f_m(1..N) from one of the sequence routes; identical across them."""
    if N < 1:
        raise ValueError("--n must be >= 1")
    if source not in SEQUENCE_ROUTES:
        raise ValueError(f"unknown source {source!r}")
    return SEQUENCE_ROUTES[source](spec, m, N)


def triangle_rows(spec: CaseSpec, m: int, N: int, source: str) -> Triangle:
    """The level-m triangle c_m(n,k), 1 <= k <= n <= N, from one of the
    triangle routes."""
    if m < 1:
        raise ValueError("triangles need --m >= 1")
    if N < 1:
        raise ValueError("--n must be >= 1")
    if source not in TRIANGLE_ROUTES:
        raise ValueError(f"unknown source {source!r}")
    return TRIANGLE_ROUTES[source](spec, m, N)


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


@dataclass(frozen=True)
class Comparison:
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


@dataclass(frozen=True)
class CrossCheckReport:
    spec: CaseSpec
    m: int
    comparisons: tuple[Comparison, ...]

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


def _compare(label: str, keys: str, pairs) -> Comparison:
    """Check ``(at, lhs, rhs)`` triples in order; the comma-separated
    ``keys`` name the coordinates of ``at`` in a mismatch witness."""
    checked = 0
    for at, lhs, rhs in pairs:
        checked += 1
        if lhs != rhs:
            witness = dict(zip(keys.split(","), at))
            witness["lhs"] = lhs
            witness["rhs"] = rhs
            return Comparison(label, checked, witness)
    return Comparison(label, checked)


def _aligned(keys: str, lhs, rhs):
    """``(at, lhs entry, rhs entry)`` over every entry of ``lhs``, a list
    of values for one key and a list of rows for two.  Word lengths and
    mark counts (``len``) count from 0, indices (``n``) from 1; ``rhs``
    covers at least every position of ``lhs``."""
    base = 0 if keys.startswith("len") else 1
    for i, left in enumerate(lhs):
        if "," not in keys:
            yield (i + base,), left, rhs[i]
        else:
            for j, value in enumerate(left):
                yield (i + base, j + base), value, rhs[i][j]


def cross_check(
    spec: CaseSpec,
    m: int,
    max_len: int = 10,
    triangle_n: int = 12,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> CrossCheckReport:
    """Run every applicable comparison for one (family, level) point.

    ``max_len`` bounds word lengths (enumeration is additionally capped
    by the budget); ``triangle_n`` bounds triangle and sequence indices
    for the formula comparisons.
    """
    if max_len < 0 or triangle_n < 1:
        raise ValueError("max_len must be >= 0 and triangle_n >= 1")
    N = max(triangle_n, max_len + 2, spec.seed_count)
    fm = sequence_values(spec, m, N, "recurrence")
    enum_len = min(max_len, words.max_enumerable_length(spec, m, budget))
    # one enumeration per length serves both the plain and the marked checks
    hists = [
        words.marked_histogram(spec, m, L, budget=budget, jobs=jobs)
        for L in range(enum_len + 1)
    ]
    # one DP pass serves both plain automaton comparisons; fm reaches
    # index max_len + 1 because N >= max_len + 2
    counts = sequence_values(spec, m, max_len + 1, "automaton")
    invert = sequence_values(spec, m, N, "invert")
    rows = [
        ("exhaustive-vs-automaton", "len", [sum(h) for h in hists], counts),
        ("automaton-vs-recurrence", "len", counts, fm),
        ("recurrence-vs-invert-transform", "n", fm, invert),
    ]
    if m >= 1:
        cm = triangle_rows(spec, m, N, "eq3")
        direct = triangle_rows(spec, m, N, "convolution").rows
        marked_rows = words.automaton_histograms(spec, m, max_len)
        rows += [
            ("recurrence-vs-triangle-row-sums", "n", fm, row_sums(cm).values),
            ("lift-vs-transformed-convolution", "n,k", cm.rows, direct),
            ("marked-exhaustive-vs-triangle", "len,marks", hists, cm.rows),
            ("marked-automaton-vs-triangle", "len,marks", marked_rows, cm.rows),
        ]
    c1 = triangle_rows(spec, 1, N, "convolution").rows
    explicit_c1 = [
        [cases.c1_explicit(spec, n, k) for k in range(1, n + 1)]
        for n in range(1, triangle_n + 1)
    ]
    rows.append(("explicit-c1-vs-convolution", "n,k", explicit_c1, c1))
    if spec.case_id == 3 and spec.a == spec.b + 1:
        repunit = [
            [cases.c1_case3_repunit(spec.b, n, k) for k in range(1, n + 1)]
            for n in range(1, triangle_n + 1)
        ]
        rows.append(
            ("repunit-specialization-vs-field-form", "n,k", repunit, explicit_c1)
        )
    if not (spec.case_id == 1 and m == 0):
        explicit = sequence_values(spec, m, triangle_n, "explicit")
        rows.append(("explicit-fm-vs-recurrence", "n", explicit, fm))
    if cases.triangle_formula_available(spec, m):
        formula = triangle_rows(spec, m, triangle_n, "formula").rows
        rows.append(("explicit-triangle-vs-lift", "n,k", formula, cm.rows))
    comparisons = tuple(
        _compare(label, keys, _aligned(keys, lhs, rhs))
        for label, keys, lhs, rhs in rows
    )
    return CrossCheckReport(spec, m, comparisons)


@dataclass(frozen=True)
class AdjudicationReport:
    """Outcome of comparing the two family-1 leading-term candidates."""

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
    witness = {"a": 1, "m": 2, "n": 2, "k": 1}
    lift_at = triangle_rows(CaseSpec(1, a=1), 2, 2, "eq3").at(2, 1)
    printed = cases.cm_explicit_case1_alt(1, 2, 2, 1)
    corrected = cases.cm_explicit_case1(1, 2, 2, 1)

    def against_lift(form):
        for a in (1, 2, 3):
            for m in (1, 2, 3):
                lift = triangle_rows(CaseSpec(1, a=a), m, max_n, "eq3")
                for n in range(1, max_n + 1):
                    for k in range(1, n + 1):
                        yield (a, m, n, k), form(a, m, n, k), lift.at(n, k)

    agreement = _compare(
        "corrected-vs-lift", "a,m,n,k", against_lift(cases.cm_explicit_case1)
    )
    variant = _compare(
        "m-power-vs-lift", "a,m,n,k", against_lift(cases.cm_explicit_case1_alt)
    )
    return AdjudicationReport(
        witness, printed, corrected, lift_at, agreement, variant.witness
    )
