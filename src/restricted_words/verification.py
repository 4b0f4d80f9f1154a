"""Cross-checks tying every computing route to every other.

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

Formula calls go through module attributes (``cases.c1_explicit`` and
friends), so a test can substitute a corrupted formula and watch the
harness catch it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cases, words
from .cases import CaseSpec
from .sequences import composition_triangle, invert_power, lift_triangle, row_sums
from .words import DEFAULT_BUDGET


def default_grid() -> list[tuple[CaseSpec, int]]:
    """Every (family, parameters, level) point the suite exercises."""
    specs = (
        [CaseSpec(1, a=a) for a in (1, 2, 3)]
        + [CaseSpec(2, a=a) for a in (1, 2, 3)]
        + [CaseSpec(3, a=a, b=b) for a, b in ((2, 1), (3, 1), (3, 2), (4, 2))]
        + [CaseSpec(4), CaseSpec(5)]
    )
    return [
        (spec, m)
        for spec in specs
        for m in ((0, 1, 2, 3) if spec.case_id == 4 else (0, 1, 2))
    ]


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


def _compare_pairs(label: str, pairs) -> Comparison:
    checked = 0
    for params, lhs, rhs in pairs:
        checked += 1
        if lhs != rhs:
            witness = dict(params)
            witness["lhs"] = lhs
            witness["rhs"] = rhs
            return Comparison(label, checked, witness)
    return Comparison(label, checked)


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
    f0 = cases.f0_prefix(spec, N)
    fm = cases.fm_sequence(spec, m, N)
    c1 = composition_triangle(f0)
    cm = lift_triangle(c1, m) if m >= 1 else None
    enum_len = min(max_len, words.max_enumerable_length(spec, m, budget))
    # one enumeration per length serves both the plain and the marked checks
    hists = [
        words.marked_histogram(spec, m, L, budget=budget, jobs=jobs)
        for L in range(enum_len + 1)
    ]
    # one DP pass each serves all three automaton comparisons; fm reaches
    # index max_len + 1 because N >= max_len + 2
    counts = words.automaton_counts(spec, m, max_len)
    marked_rows = (
        words.automaton_histograms(spec, m, max_len) if m >= 1 else None
    )
    comparisons: list[Comparison] = []

    comparisons.append(
        _compare_pairs(
            "exhaustive-vs-automaton",
            (
                ({"len": L}, sum(hist), counts[L])
                for L, hist in enumerate(hists)
            ),
        )
    )
    comparisons.append(
        _compare_pairs(
            "automaton-vs-recurrence",
            (
                ({"len": L}, count, fm.at(L + 1))
                for L, count in enumerate(counts)
            ),
        )
    )
    comparisons.append(
        _compare_pairs(
            "recurrence-vs-invert-transform",
            (
                ({"n": n}, fm.at(n), inverted.at(n))
                for inverted in [invert_power(f0, m)]
                for n in range(1, N + 1)
            ),
        )
    )
    if cm is not None:
        comparisons.append(
            _compare_pairs(
                "recurrence-vs-triangle-row-sums",
                (
                    ({"n": n}, fm.at(n), sums.at(n))
                    for sums in [row_sums(cm)]
                    for n in range(1, N + 1)
                ),
            )
        )
        comparisons.append(
            _compare_pairs(
                "lift-vs-transformed-convolution",
                (
                    ({"n": n, "k": k}, cm.at(n, k), direct.at(n, k))
                    for direct in [composition_triangle(invert_power(f0, m - 1))]
                    for n in range(1, N + 1)
                    for k in range(1, n + 1)
                ),
            )
        )
        comparisons.append(
            _compare_pairs(
                "marked-exhaustive-vs-triangle",
                (
                    (
                        {"len": L, "marks": marks},
                        hist[marks],
                        cm.at(L + 1, marks + 1),
                    )
                    for L, hist in enumerate(hists)
                    for marks in range(L + 1)
                ),
            )
        )
        comparisons.append(
            _compare_pairs(
                "marked-automaton-vs-triangle",
                (
                    (
                        {"len": L, "marks": marks},
                        row[marks],
                        cm.at(L + 1, marks + 1),
                    )
                    for L, row in enumerate(marked_rows)
                    for marks in range(L + 1)
                ),
            )
        )
    comparisons.append(
        _compare_pairs(
            "explicit-c1-vs-convolution",
            (
                ({"n": n, "k": k}, cases.c1_explicit(spec, n, k), c1.at(n, k))
                for n in range(1, triangle_n + 1)
                for k in range(1, n + 1)
            ),
        )
    )
    if spec.case_id == 3 and spec.a == spec.b + 1:
        comparisons.append(
            _compare_pairs(
                "repunit-specialization-vs-field-form",
                (
                    (
                        {"n": n, "k": k},
                        cases.c1_case3_repunit(spec.b, n, k),
                        cases.c1_explicit(spec, n, k),
                    )
                    for n in range(1, triangle_n + 1)
                    for k in range(1, n + 1)
                ),
            )
        )
    if not (spec.case_id == 1 and m == 0):
        comparisons.append(
            _compare_pairs(
                "explicit-fm-vs-recurrence",
                (
                    ({"n": n}, cases.fm_explicit(spec, m, n), fm.at(n))
                    for n in range(1, triangle_n + 1)
                ),
            )
        )
    if cases.triangle_formula_available(spec, m):
        comparisons.append(
            _compare_pairs(
                "explicit-triangle-vs-lift",
                (
                    (
                        {"n": n, "k": k},
                        cases.triangle_formula_value(spec, m, n, k),
                        cm.at(n, k),
                    )
                    for n in range(1, triangle_n + 1)
                    for k in range(1, n + 1)
                ),
            )
        )
    return CrossCheckReport(spec, m, tuple(comparisons))


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
    lift_at = lift_triangle(
        composition_triangle(cases.f0_prefix(CaseSpec(1, a=1), 2)), 2
    ).at(2, 1)
    printed = cases.cm_explicit_case1_alt(1, 2, 2, 1)
    corrected = cases.cm_explicit_case1(1, 2, 2, 1)

    def sweep():
        for a in (1, 2, 3):
            f0 = cases.f0_prefix(CaseSpec(1, a=a), max_n)
            c1 = composition_triangle(f0)
            for m in (1, 2, 3):
                cm = lift_triangle(c1, m)
                for n in range(1, max_n + 1):
                    for k in range(1, n + 1):
                        yield a, m, n, k, cm.at(n, k)

    agreement = _compare_pairs(
        "corrected-vs-lift",
        (
            ({"a": a, "m": m, "n": n, "k": k}, cases.cm_explicit_case1(a, m, n, k), lift)
            for a, m, n, k, lift in sweep()
        ),
    )
    variant_mismatch = None
    for a, m, n, k, lift in sweep():
        got = cases.cm_explicit_case1_alt(a, m, n, k)
        if got != lift:
            variant_mismatch = {"a": a, "m": m, "n": n, "k": k, "lhs": got, "rhs": lift}
            break
    return AdjudicationReport(
        witness, printed, corrected, lift_at, agreement, variant_mismatch
    )
