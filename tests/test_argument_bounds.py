"""Every bounded integer argument of the public functions, refused one
below its least value with the message naming it and accepted at it."""

from __future__ import annotations

import pytest

from restricted_words import classics
from restricted_words.cases import (
    CaseSpec,
    c1_case3_repunit_table,
    cm_explicit_case1_alt_table,
    f0_prefix,
    fm_explicit,
    fm_sequence,
    triangle_formula_table,
)
from restricted_words.identity_checks import check_all, check_identity
from restricted_words.verification import (
    adjudicate_case1_leading_term,
    cross_check,
    sequence_values,
)
from restricted_words.words import (
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

SPEC = CaseSpec(1, a=2)

# function-argument id -> (call taking the argument's value, its name, its
# least value); every other argument of the call is valid.  Not here: the
# checks worded otherwise, CaseSpec's "case N needs a >= 1", the marked
# counts' "marked counting needs m >= 1", and triangle_rows' and
# sequence_values' "triangles need --m >= 1" and "--n must be >= 1"
BOUNDS = {
    "alphabet_size-m": (SPEC.alphabet_size, "m", 0),
    "f0_prefix-N": (lambda v: f0_prefix(SPEC, v), "N", 1),
    "fm_sequence-m": (lambda v: fm_sequence(SPEC, v, 3), "m", 0),
    "fm_sequence-N": (lambda v: fm_sequence(SPEC, 1, v), "N", 1),
    "fm_explicit-m": (lambda v: fm_explicit(SPEC, v, 3), "m", 0),
    "fm_explicit-n": (lambda v: fm_explicit(SPEC, 1, v), "n", 1),
    "c1_case3_repunit_table-b": (lambda v: c1_case3_repunit_table(v, 3), "b", 1),
    "c1_case3_repunit_table-N": (lambda v: c1_case3_repunit_table(2, v), "N", 1),
    "cm_explicit_case1_alt_table-a": (
        lambda v: cm_explicit_case1_alt_table(v, 2, 3), "a", 1
    ),
    "cm_explicit_case1_alt_table-m": (
        lambda v: cm_explicit_case1_alt_table(2, v, 3), "m", 1
    ),
    "cm_explicit_case1_alt_table-N": (
        lambda v: cm_explicit_case1_alt_table(2, 2, v), "N", 1
    ),
    "triangle_formula_table-m": (lambda v: triangle_formula_table(SPEC, v, 3), "m", 1),
    "triangle_formula_table-N": (lambda v: triangle_formula_table(SPEC, 2, v), "N", 1),
    "is_valid-m": (lambda v: is_valid(SPEC, v, "01"), "m", 0),
    "iter_words-m": (lambda v: list(iter_words(SPEC, v, 2)), "m", 0),
    "iter_words-length": (lambda v: list(iter_words(SPEC, 1, v)), "length", 0),
    "iter_words-budget": (lambda v: list(iter_words(SPEC, 1, 0, budget=v)), "budget", 1),
    "max_enumerable_length-m": (lambda v: max_enumerable_length(SPEC, v), "m", 0),
    "max_enumerable_length-budget": (
        lambda v: max_enumerable_length(SPEC, 1, budget=v), "budget", 1
    ),
    "marked_histogram-m": (lambda v: marked_histogram(SPEC, v, 2), "m", 0),
    "marked_histogram-length": (lambda v: marked_histogram(SPEC, 1, v), "length", 0),
    "marked_histogram-budget": (
        lambda v: marked_histogram(SPEC, 1, 0, budget=v), "budget", 1
    ),
    "marked_histograms-m": (lambda v: marked_histograms(SPEC, v, 2), "m", 0),
    "marked_histograms-length": (lambda v: marked_histograms(SPEC, 1, v), "length", 0),
    "marked_histograms-budget": (
        lambda v: marked_histograms(SPEC, 1, 0, budget=v), "budget", 1
    ),
    "count_exhaustive-m": (lambda v: count_exhaustive(SPEC, v, 2), "m", 0),
    "count_exhaustive-length": (lambda v: count_exhaustive(SPEC, 1, v), "length", 0),
    "count_exhaustive-budget": (
        lambda v: count_exhaustive(SPEC, 1, 0, budget=v), "budget", 1
    ),
    "count_marked_exhaustive-length": (
        lambda v: count_marked_exhaustive(SPEC, 1, v, 0), "length", 0
    ),
    "count_marked_exhaustive-marks": (
        lambda v: count_marked_exhaustive(SPEC, 1, 2, v), "marks", 0
    ),
    "count_marked_exhaustive-budget": (
        lambda v: count_marked_exhaustive(SPEC, 1, 0, 0, budget=v), "budget", 1
    ),
    "build_dfa-m": (lambda v: build_dfa(SPEC, v), "m", 0),
    "count_automaton-m": (lambda v: count_automaton(SPEC, v, 2), "m", 0),
    "count_automaton-length": (lambda v: count_automaton(SPEC, 1, v), "length", 0),
    "count_automaton-marks": (lambda v: count_automaton(SPEC, 1, 2, v), "marks", 0),
    "automaton_counts-m": (lambda v: automaton_counts(SPEC, v, 2), "m", 0),
    "automaton_counts-length": (lambda v: automaton_counts(SPEC, 1, v), "length", 0),
    "automaton_histograms-length": (
        lambda v: automaton_histograms(SPEC, 1, v), "length", 0
    ),
    **{
        f"{name}-n": (getattr(classics, name), "n", 3 if name == "padovan" else 1)
        for name in classics.CLASSIC_NAMES
    },
    "classic-n": (lambda v: classics.classic("padovan", v), "n", 3),
    "check_identity-max_n": (lambda v: check_identity("fib-explicit", v), "max_n", 1),
    "adjudicate_case1_leading_term-max_n": (
        adjudicate_case1_leading_term, "max_n", 1
    ),
    "cross_check-max_len": (lambda v: cross_check(SPEC, 1, max_len=v), "max_len", 0),
    "cross_check-triangle_n": (
        lambda v: cross_check(SPEC, 1, triangle_n=v), "triangle_n", 1
    ),
    "sequence_values-m": (
        lambda v: sequence_values(SPEC, v, 3, "recurrence"), "m", 0
    ),
}


@pytest.mark.parametrize("call, name, least", BOUNDS.values(), ids=list(BOUNDS))
def test_refused_below_the_bound(call, name, least):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}$"):
        call(least - 1)


@pytest.mark.parametrize("call, name, least", BOUNDS.values(), ids=list(BOUNDS))
def test_accepted_at_the_bound(call, name, least):
    call(least)


def test_check_all_refuses_max_n_below_one():
    # at max_n = 1 two identities make no check, so only the refusal is
    # checked here; check_identity's row covers the bound itself
    with pytest.raises(ValueError, match="^max_n must be >= 1$"):
        check_all(0)
