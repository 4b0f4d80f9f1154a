"""Exact enumeration of five families of restricted words.

Sequence machinery (invert transforms, composition triangles), the five
case families with their recurrences and closed forms, exhaustive and
automaton-based word counting, classic-sequence identities, and a
cross-verification harness tying them together.
"""

from .cases import (
    CaseSpec,
    c1_case3_repunit_table,
    c1_explicit_table,
    c2_explicit_case2_table,
    cm_explicit_case1_alt_table,
    cm_explicit_case1_table,
    f0_prefix,
    fm_explicit,
    fm_sequence,
    triangle_formula_available,
    triangle_formula_table,
)
from .classics import CLASSIC_NAMES, classic
from .identity_checks import (
    IDENTITY_NAMES,
    IdentityReport,
    check_all,
    check_identity,
)
from .sequences import (
    Sequence,
    Triangle,
    as_sequence,
    binom,
    composition_triangle,
    invert,
    invert_power,
    lift_triangle,
    row_sums,
)
from .verification import (
    AdjudicationReport,
    CrossCheckReport,
    adjudicate_case1_leading_term,
    cross_check,
    default_grid,
)
from .words import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Dfa,
    automaton_counts,
    automaton_histograms,
    build_dfa,
    count_automaton,
    count_exhaustive,
    count_marked_exhaustive,
    is_valid,
    iter_words,
    marked_histogram,
    marked_histograms,
    max_enumerable_length,
)

__all__ = [
    "BudgetExceeded",
    "CLASSIC_NAMES",
    "CaseSpec",
    "AdjudicationReport",
    "CrossCheckReport",
    "DEFAULT_BUDGET",
    "Dfa",
    "IDENTITY_NAMES",
    "IdentityReport",
    "Sequence",
    "Triangle",
    "adjudicate_case1_leading_term",
    "as_sequence",
    "automaton_counts",
    "automaton_histograms",
    "binom",
    "build_dfa",
    "c1_case3_repunit_table",
    "c1_explicit_table",
    "c2_explicit_case2_table",
    "check_all",
    "check_identity",
    "classic",
    "cm_explicit_case1_alt_table",
    "cm_explicit_case1_table",
    "composition_triangle",
    "count_automaton",
    "count_exhaustive",
    "count_marked_exhaustive",
    "cross_check",
    "default_grid",
    "f0_prefix",
    "fm_explicit",
    "fm_sequence",
    "invert",
    "invert_power",
    "is_valid",
    "iter_words",
    "lift_triangle",
    "marked_histogram",
    "marked_histograms",
    "max_enumerable_length",
    "row_sums",
    "triangle_formula_available",
    "triangle_formula_table",
]
