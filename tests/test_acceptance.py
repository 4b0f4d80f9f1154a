"""Acceptance gate: eight exact cross-checks with time budgets.

Each criterion is one test that prints a single pass/fail line straight
to the terminal (capture bypassed), so any pytest invocation shows the
eight verdicts.  All equalities are exact integer equalities.
"""

from __future__ import annotations

import time

from restricted_words.cases import (
    CaseSpec,
    c1_case3_repunit_table,
    f0_prefix,
    fm_explicit,
    fm_sequence,
    triangle_formula_table,
)
from restricted_words.classics import classic
from restricted_words.identity_checks import check_all
from restricted_words.sequences import (
    composition_triangle,
    invert_power,
    lift_triangle,
    row_sums,
)
from restricted_words.verification import adjudicate_case1_leading_term
from restricted_words.words import (
    count_automaton,
    count_exhaustive,
    marked_histogram,
    max_enumerable_length,
)

from conftest import GRID_POINTS, GRID_SPECS, levels_for, point_id, spec_id

ENUM_BUDGET = 2_000_000


def emit(capsys, number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {verdict} ({detail})")


def test_criterion_1_grid_cross_verification(capsys):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for spec, m in GRID_POINTS:
        top = max_enumerable_length(spec, m, budget=ENUM_BUDGET)
        seq = fm_sequence(spec, m, top + 1)
        inv = invert_power(f0_prefix(spec, top + 1), m)
        sums = None
        if m >= 1:
            # the triangle over f_{m-1} weights; its row sums are f_m
            sums = row_sums(
                composition_triangle(invert_power(f0_prefix(spec, top + 1), m - 1))
            )
        for length in range(top + 1):
            n = length + 1
            got = [
                count_exhaustive(spec, m, length, budget=ENUM_BUDGET),
                count_automaton(spec, m, length),
                seq.at(n),
                inv.at(n),
            ]
            if sums is not None:
                got.append(sums.at(n))
            checked += 1
            if len(set(got)) != 1:
                failures.append((point_id((spec, m)), length, got))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    emit(
        capsys, 1, ok,
        f"{checked} point-lengths, {len(failures)} mismatches, {elapsed:.1f}s < 60s",
    )
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_criterion_2_marked_counts(capsys):
    failures = []
    checked = 0
    for spec, m in GRID_POINTS:
        if m < 1:
            continue
        top = max_enumerable_length(spec, m, budget=ENUM_BUDGET)
        tri = composition_triangle(invert_power(f0_prefix(spec, top + 1), m - 1))
        seq = fm_sequence(spec, m, top + 1)
        for length in range(top + 1):
            n = length + 1
            hist = marked_histogram(spec, m, length, budget=ENUM_BUDGET)
            checked += 1
            if tuple(hist) != tri.row(n):
                failures.append((point_id((spec, m)), length, hist))
            if sum(hist) != seq.at(n):
                failures.append((point_id((spec, m)), length, "sum", sum(hist)))
    ok = not failures
    emit(capsys, 2, ok, f"{checked} histograms, {len(failures)} mismatches")
    assert not failures, failures[:3]


def test_criterion_3_explicit_formula_equivalence(capsys):
    N = 40
    t0 = time.perf_counter()
    failures = []
    checked = 0

    def compare(label, got, want):
        nonlocal checked
        checked += 1
        if got != want:
            failures.append((label, got, want))

    def compare_table(label, rows, triangle):
        # every cell of rows 1..N, each one comparison
        for n in range(1, N + 1):
            for k in range(1, n + 1):
                compare((*label, n, k), rows[n - 1][k - 1], triangle.at(n, k))

    for spec in GRID_SPECS:
        sid = spec_id(spec)
        c1 = composition_triangle(f0_prefix(spec, N))
        compare_table((sid, "c1"), triangle_formula_table(spec, 1, N), c1)
        if spec.case_id == 3 and spec.a == spec.b + 1:
            compare_table((sid, "repunit"), c1_case3_repunit_table(spec.b, N), c1)
        if spec.case_id == 2:
            c2 = composition_triangle(invert_power(f0_prefix(spec, N), 1))
            compare_table((sid, "c2"), triangle_formula_table(spec, 2, N), c2)
        if spec.case_id == 1:
            for m in (1, 2):
                cm = composition_triangle(invert_power(f0_prefix(spec, N), m - 1))
                compare_table((sid, "cm", m), triangle_formula_table(spec, m, N), cm)
                sums = row_sums(cm)
                for n in range(1, N + 1):
                    compare((sid, "fm", m, n), fm_explicit(spec, m, n), sums.at(n))
        else:
            for m in levels_for(spec):
                if m == 0:
                    values = [c1.at(n, 1) for n in range(1, N + 1)]
                else:
                    values = list(
                        row_sums(
                            composition_triangle(
                                invert_power(f0_prefix(spec, N), m - 1)
                            )
                        )
                    )
                for n in range(1, N + 1):
                    compare(
                        (sid, "fm", m, n), fm_explicit(spec, m, n), values[n - 1]
                    )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    emit(
        capsys, 3, ok,
        f"{checked} formula cells, {len(failures)} mismatches, {elapsed:.1f}s < 10s",
    )
    assert not failures, failures[:3]
    assert elapsed < 10.0


def test_criterion_4_named_sequence_reproductions(capsys):
    N = 60
    failures = []
    checked = 0

    def compare(label, produced, expected):
        nonlocal checked
        for n, (got, want) in enumerate(zip(produced, expected), start=1):
            checked += 1
            if got != want:
                failures.append((label, n, got, want))

    compare(
        "case2 a=1 m=1 fibonacci",
        fm_sequence(CaseSpec(2, a=1), 1, N),
        [classic("fibonacci", n) for n in range(1, N + 1)],
    )
    compare(
        "case2 a=1 m=2 pell",
        fm_sequence(CaseSpec(2, a=1), 2, N),
        [classic("pell", n) for n in range(1, N + 1)],
    )
    compare(
        "case2 a=2 m=1 jacobsthal",
        fm_sequence(CaseSpec(2, a=2), 1, N),
        [classic("jacobsthal", n) for n in range(1, N + 1)],
    )
    compare(
        "case3 (2,1) naturals",
        f0_prefix(CaseSpec(3, a=2, b=1), N),
        list(range(1, N + 1)),
    )
    compare(
        "case3 (3,1) even-indexed fibonacci",
        f0_prefix(CaseSpec(3, a=3, b=1), N),
        [classic("fibonacci", 2 * n) for n in range(1, N + 1)],
    )
    compare(
        "case3 (3,2) mersenne",
        f0_prefix(CaseSpec(3, a=3, b=2), N),
        [2**n - 1 for n in range(1, N + 1)],
    )
    compare(
        "case4 m=1 powers of two",
        list(fm_sequence(CaseSpec(4), 1, N))[2:],
        [2 ** (n - 2) for n in range(3, N + 1)],
    )
    compare(
        "case4 m=2 odd-indexed fibonacci",
        fm_sequence(CaseSpec(4), 2, N),
        [classic("fibonacci", 2 * n - 1) for n in range(1, N + 1)],
    )
    compare(
        "case5 m=0 padovan shift",
        f0_prefix(CaseSpec(5), N),
        [classic("padovan", n + 2) for n in range(1, N + 1)],
    )
    compare(
        "case5 m=1 tribonacci",
        fm_sequence(CaseSpec(5), 1, N),
        [classic("tribonacci", n) for n in range(1, N + 1)],
    )
    ok = not failures
    emit(capsys, 4, ok, f"{checked} terms across 10 reproductions, {len(failures)} mismatches")
    assert not failures, failures[:3]


def test_criterion_5_identity_suite(capsys):
    t0 = time.perf_counter()
    reports = check_all(max_n=30)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in reports if not r.ok]
    ok = not failed and len(reports) == 15 and elapsed < 30.0
    emit(
        capsys, 5, ok,
        f"{len(reports)} identities, {len(failed)} failed, {elapsed:.1f}s < 30s",
    )
    assert not failed, failed
    assert len(reports) == 15
    assert elapsed < 30.0


def test_criterion_6_lift_consistency(capsys):
    N = 40
    failures = []
    checked = 0
    for spec in GRID_SPECS:
        base = f0_prefix(spec, N)
        c1 = composition_triangle(base)
        for m in (1, 2, 3):
            lifted = lift_triangle(c1, m)
            direct = composition_triangle(invert_power(base, m - 1))
            checked += 1
            if lifted != direct:
                cells = [
                    (n, k)
                    for n in range(1, N + 1)
                    for k in range(1, n + 1)
                    if lifted.at(n, k) != direct.at(n, k)
                ]
                failures.append((spec_id(spec), m, cells[:3]))
    ok = not failures
    emit(capsys, 6, ok, f"{checked} triangle pairs at N={N}, {len(failures)} mismatches")
    assert not failures, failures[:3]


def test_criterion_7_automaton_scale(capsys):
    N = 500
    failures = []
    slow = []
    for spec, m in GRID_POINTS:
        t0 = time.perf_counter()
        seq = fm_sequence(spec, m, N)
        for n in range(1, N + 1):
            if count_automaton(spec, m, n - 1) != seq.at(n):
                failures.append((point_id((spec, m)), n))
                break
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            slow.append((point_id((spec, m)), round(elapsed, 2)))
    ok = not failures and not slow
    emit(
        capsys, 7, ok,
        f"{len(GRID_POINTS)} grid points to n={N}, {len(failures)} mismatches, "
        f"slowest {'over budget: ' + str(slow) if slow else 'under 1s each'}",
    )
    assert not failures, failures[:3]
    assert not slow, slow


def test_criterion_8_leading_term_adjudication(capsys):
    report = adjudicate_case1_leading_term()
    cell = report.witness_cell
    ok = (
        report.ok
        and cell == {"a": 1, "m": 2, "n": 2, "k": 1}
        and report.printed_value == 3
        and report.corrected_value == 2
        and report.lift_value == 2
    )
    emit(
        capsys, 8, ok,
        f"witness {cell}: printed {report.printed_value} vs correct "
        f"{report.lift_value}; corrected agrees on "
        f"{report.corrected_agreement.checked} cells",
    )
    assert report.ok
    assert report.printed_value == 3
    assert report.corrected_value == 2
    assert report.lift_value == 2
