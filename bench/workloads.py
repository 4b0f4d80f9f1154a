"""The three workloads: their operations, built from a seed, and the
checks of every output against the reference counter in ``refcount``.

A point is ``(family, a, b, m)``.  An operation's ``run`` calls the
library or ``cli.main`` through a module attribute, so a traced pass
sees the wrappers ``tracing.install`` put there.  Checks run after the
whole pass, untimed, and may read other operations' outputs from the
pass's ``results`` to test properties that tie several routes together.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import restricted_words as rw
from restricted_words import cli, formats

import refcount

P = refcount.PRIME


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # a fault the program is known to have: a wrong output counts as a
    # failed operation instead of making the run incorrect
    known_fault: bool = False


def _spec(point):
    case, a, b, _ = point
    return rw.CaseSpec(case, a=a, b=b)


def _tag(point) -> str:
    case, a, b, m = point
    return f"case{case}" + (f" a={a}" if a is not None else "") + (
        f" b={b}" if b is not None else ""
    ) + f" m={m}"


def _mismatch(what: str, got, want) -> str | None:
    if got == want:
        return None
    return f"{what}: got {str(got)[:120]}, reference {str(want)[:120]}"


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def _enum_length(s: int, budget: int, cap: int) -> int:
    """Longest length whose s**length words fit the budget, at most cap."""
    s = max(s, 2)
    length = 0
    while length < cap and s ** (length + 1) <= budget:
        length += 1
    return length


# ---------------------------------------------------------------- verify-grid

VERIFY_MAX_LEN = 10  # cross_check's default
CHECK_N = 12
# adjudicate_case1_leading_term sweeps a, m in 1..3 over the cells of
# rows 1..12
ADJUDICATED_CELLS = 3 * 3 * (12 * 13 // 2)


def _check_cross(report, point) -> str | None:
    case, a, b, m = point
    if not report.ok:
        return "cross-check mismatch: " + report.describe().replace("\n", " | ")
    checked = {c.label: c.checked for c in report.comparisons}
    enum_len = _enum_length(refcount.alphabet(case, a, m), rw.DEFAULT_BUDGET, VERIFY_MAX_LEN)
    problem = _mismatch(
        "exhaustive lengths checked", checked.get("exhaustive-vs-automaton"), enum_len + 1
    )
    if m >= 1:
        cells = (enum_len + 1) * (enum_len + 2) // 2
        problem = problem or _mismatch(
            "marked cells checked", checked.get("marked-exhaustive-vs-triangle"), cells
        )
    if problem:
        return problem
    # the routes agree with each other; tie the agreed values to the
    # reference through the cheapest route, untimed
    spec = _spec(point)
    fm = list(rw.fm_sequence(spec, m, CHECK_N))
    want = refcount.counts(case, a, b, m, CHECK_N - 1)
    problem = _mismatch("f_m", fm, want)
    if m >= 1 and not problem:
        tri = rw.lift_triangle(rw.composition_triangle(rw.f0_prefix(spec, CHECK_N)), m)
        rows = refcount.mark_rows(case, a, b, m, CHECK_N - 1)
        problem = _mismatch("triangle rows", [list(r) for r in tri.rows], rows)
        # histograms sum to f_m
        problem = problem or _mismatch("row sums", [sum(r) for r in tri.rows], fm)
    return problem


def _check_adjudication(report) -> str | None:
    lift = refcount.mark_rows(1, 1, None, 2, 1)[1][0]  # c_2(2, 1) of a = 1
    return _first(
        None if report.ok else "adjudication inconclusive",
        _mismatch("witness lift", report.lift_value, lift),
        _mismatch("corrected value", report.corrected_value, lift),
        None if report.printed_value != lift else "m-power variant agrees",
        _mismatch("cells compared", report.corrected_agreement.checked, ADJUDICATED_CELLS),
    )


def verify_grid(seed: int):
    """cross_check at its defaults over default_grid(), then the
    adjudication; the grid is fixed, so the seed is unused."""
    del seed
    ops = []
    for spec, m in rw.default_grid():
        point = (spec.case_id, spec.a, spec.b, m)
        ops.append(
            Op(
                f"cross_check {_tag(point)}",
                lambda spec=spec, m=m: rw.cross_check(spec, m),
                lambda rep, point=point: _check_cross(rep, point),
            )
        )
    ops.append(Op("adjudicate", lambda: rw.adjudicate_case1_leading_term(), _check_adjudication))
    return ops, {}


# ------------------------------------------------------------- deep-sequences
# Runs by hand only: its large-integer arithmetic swings too much with
# the host's load for the bounds in BENCHMARK.json (see the README).

DEEP_LEN = 20_000
MARKED_LEN = 300
MARKED_MARKS = 150
# candidates whose length-20000 count costs about the same (within 15%
# on a 2-core machine), so the seed moves the operation median little;
# m >= 1 so the marked count exists.  Family 4 has no other parameter
# and m = 3 already costs 40% more, so it has one candidate.
DEEP_POINTS = {
    1: [(1, 1, None, 3), (1, 2, None, 2)],
    2: [(2, 1, None, 3), (2, 2, None, 1)],
    3: [(3, 2, 1, 2), (3, 3, 1, 1), (3, 5, 2, 1)],
    4: [(4, None, None, 2)],
    5: [(5, None, None, 1), (5, None, None, 2)],
}
# the transforms and closed forms run on one fixed point: their cost
# grows with the size of f_0's terms, which differs several-fold
# between parameter points
TRANSFORM_POINT = (3, 3, 1)
INVERT_N = 2000
INVERT_M = 3
TRIANGLE_N = 200
TRIANGLE_M = 3
EXPLICIT_M = 2
EXPLICIT_N = 60
IDENTITY_N = 60


def _mod(values) -> list[int]:
    return [v % P for v in values]


def deep_sequences(seed: int):
    rng = random.Random(seed)
    ops: list[Op] = []
    results: dict[str, object] = {}
    for family, candidates in DEEP_POINTS.items():
        point = rng.choice(candidates)
        case, a, b, m = point
        spec = _spec(point)
        plain = refcount.counts(case, a, b, m, DEEP_LEN, modulus=P)[-1]
        ops.append(
            Op(
                f"count_automaton {_tag(point)} len={DEEP_LEN}",
                lambda spec=spec, m=m: rw.count_automaton(spec, m, DEEP_LEN),
                lambda v, want=plain: _mismatch("count mod p", v % P, want),
            )
        )
        ops.append(
            Op(
                f"count_automaton {_tag(point)} len={MARKED_LEN} marks={MARKED_MARKS}",
                lambda spec=spec, m=m: rw.count_automaton(spec, m, MARKED_LEN, MARKED_MARKS),
                lambda v, point=point: _mismatch(
                    "marked count mod p",
                    v % P,
                    refcount.mark_rows(
                        *point, MARKED_LEN, modulus=P, max_marks=MARKED_MARKS
                    )[MARKED_LEN][MARKED_MARKS],
                ),
            )
        )
    case, a, b = TRANSFORM_POINT
    spec = rw.CaseSpec(case, a=a, b=b)

    invert_label = f"invert_power N={INVERT_N} m={INVERT_M}"
    lift_label = f"lift_triangle N={TRIANGLE_N} m={TRIANGLE_M}"

    def composition():
        results["c1"] = rw.composition_triangle(rw.f0_prefix(spec, TRIANGLE_N))
        return results["c1"]

    def direct():
        f0 = rw.f0_prefix(spec, TRIANGLE_N)
        return rw.composition_triangle(rw.invert_power(f0, TRIANGLE_M - 1))

    def rows_mod(tri):
        return [_mod(row) for row in tri.rows]

    def check_lift(tri):
        return _first(
            _mismatch(
                "lifted rows mod p",
                rows_mod(tri),
                refcount.mark_rows(case, a, b, TRIANGLE_M, TRIANGLE_N - 1, modulus=P),
            ),
            # histograms sum to f_m, here as computed by invert_power
            _mismatch(
                "row sums vs invert_power",
                [sum(row) for row in tri.rows],
                list(results[invert_label])[:TRIANGLE_N],
            ),
        )

    def check_identities(reports):
        return _first(
            _mismatch("identities", len(reports), len(rw.IDENTITY_NAMES)),
            *(
                None
                if r.ok and r.checked > 0 and r.max_n == IDENTITY_N
                else "identity failed: " + r.describe()
                for r in reports
            ),
        )

    ops += [
        Op(
            invert_label,
            lambda: rw.invert_power(rw.f0_prefix(spec, INVERT_N), INVERT_M),
            lambda seq: _mismatch(
                "f_m mod p",
                _mod(seq),
                refcount.counts(case, a, b, INVERT_M, INVERT_N - 1, modulus=P),
            ),
        ),
        Op(
            f"composition_triangle N={TRIANGLE_N}",
            composition,
            lambda tri: _mismatch(
                "triangle rows mod p",
                rows_mod(tri),
                refcount.mark_rows(case, a, b, 1, TRIANGLE_N - 1, modulus=P),
            ),
        ),
        Op(lift_label, lambda: rw.lift_triangle(results["c1"], TRIANGLE_M), check_lift),
        Op(
            f"composition_triangle(invert_power) N={TRIANGLE_N} m={TRIANGLE_M}",
            direct,
            lambda tri: None
            if tri == results[lift_label]
            else "lift differs from the transformed convolution",
        ),
        Op(
            f"fm_explicit m={EXPLICIT_M} n<={EXPLICIT_N}",
            lambda: [rw.fm_explicit(spec, EXPLICIT_M, n) for n in range(1, EXPLICIT_N + 1)],
            lambda vals: _mismatch(
                "f_m", vals, refcount.counts(case, a, b, EXPLICIT_M, EXPLICIT_N - 1)
            ),
        ),
        Op(f"check_all max_n={IDENTITY_N}", lambda: rw.check_all(IDENTITY_N), check_identities),
    ]
    return ops, results


# -------------------------------------------------------------------- cli-mix

CLI_ROUNDS = 3
# per family, candidates with distinct (a, b): the closed forms cache
# per (a, b), so two rounds on one (a, b) would make a seed-dependent
# share of calls cheap.  Family 3's closed form dominates a round; its
# candidates cost about the same.
CLI_POINTS = {
    1: [(1, 1, None, 2), (1, 2, None, 1), (1, 3, None, 1), (1, 4, None, 1)],
    2: [(2, 1, None, 2), (2, 2, None, 1), (2, 3, None, 1), (2, 1, None, 3)],
    3: [(3, 3, 1, 1), (3, 3, 2, 2), (3, 4, 2, 2), (3, 4, 3, 1), (3, 5, 4, 2)],
    4: [(4, None, None, 1), (4, None, None, 2), (4, None, None, 3)],
    5: [(5, None, None, 1), (5, None, None, 2), (5, None, None, 3)],
}
# the long sequences run on fixed points: the automaton's O(N^2) recount
# costs from 0.15 to 0.55 s across the candidates above
LONG_SEQ_POINTS = [
    (1, 2, None, 1),
    (2, 2, None, 1),
    (3, 3, 1, 1),
    (4, None, None, 2),
    (5, None, None, 2),
]
SEQ_N = 24
LONG_SEQ_N = 400
TRIANGLE_ROWS = 12
WORDS_CAP = 30_000  # words per count enumeration
LIST_CAP = 400  # words per --list enumeration
VERIFY_CAP = 50_000  # words per verify enumeration length
PARALLEL_POINTS = [
    (1, 2, None, 3),
    (2, 2, None, 3),
    (3, 3, 1, 2),
    (4, None, None, 3),
    (5, None, None, 3),
]
PARALLEL_LEN = 8
# alphabets of 131 to 300 letters at length 2; the marked letter (and,
# for families 1 and 4, the plain count) comes out wrong while letters
# are stored as int8; the inputs do not depend on the seed
LARGE_ALPHABET_CALLS = [
    ((1, 1, None, 130), None),
    ((1, 1, None, 130), 1),
    ((2, 2, None, 170), 1),
    ((3, 3, 1, 210), 1),
    ((4, None, None, 250), 1),
    ((5, None, None, 298), 2),
]


def _family_args(point) -> list[str]:
    case, a, b, _ = point
    args = ["--case", str(case)]
    if a is not None:
        args += ["--a", str(a)]
    if b is not None:
        args += ["--b", str(b)]
    return args


def _call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _exit_status(result) -> str | None:
    rc, _, err = result
    return f"exit {rc}: {err.strip()[:120]}" if rc != 0 else None


def _printed(result, want: str) -> str | None:
    return _exit_status(result) or _mismatch("output", result[1], want)


def _lines(rows) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


class _CliMix:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.results: dict[str, object] = {}

    def add(self, argv, check, known_fault=False) -> str:
        label = " ".join(argv)
        if label in self.results:
            label += f" #{len(self.ops)}"
        self.results[label] = None
        self.ops.append(Op(label, lambda: _call(argv), check, known_fault))
        return label

    def seq_group(self, point, n, sources) -> str:
        case, a, b, m = point
        want = _lines([refcount.counts(case, a, b, m, n - 1)])
        labels = []
        for source in sources:
            argv = ["seq", *_family_args(point), "--m", str(m), "--n", str(n), "--source", source]
            labels.append(self.add(argv, lambda r: _printed(r, want)))
        self.same_output(labels)
        return labels[0]

    def same_output(self, labels) -> None:
        """The sources print byte-identical output."""
        last = self.ops[-1]

        def check(result, own=last.check):
            return own(result) or next(
                (
                    f"differs from {label}"
                    for label in labels
                    if self.results[label][1] != result[1]
                ),
                None,
            )

        last.check = check

    def triangle_group(self, point, n) -> tuple[int, list[list[int]]]:
        case, a, b, m = point
        if not rw.triangle_formula_available(_spec(point), m):
            m = 1
        rows = refcount.mark_rows(case, a, b, m, n - 1)
        f_m = refcount.counts(case, a, b, m, n - 1)
        want = _lines(rows)

        def check(result):
            # histograms sum to f_m
            sums = [sum(int(v) for v in line.split()) for line in result[1].splitlines()]
            return _printed(result, want) or _mismatch("row sums", sums, f_m)

        labels = []
        for source in ("convolution", "formula", "eq3"):
            argv = ["triangle", *_family_args(point), "--m", str(m), "--n", str(n), "--source", source]
            labels.append(self.add(argv, check))
        self.same_output(labels)
        return m, rows

    def words_ops(self, point) -> None:
        case, a, b, m = point
        s = refcount.alphabet(case, a, m)
        fam = [*_family_args(point), "--m", str(m)]
        length = _enum_length(s, WORDS_CAP, 64)
        row = refcount.mark_rows(case, a, b, m, length)[length]
        self.add(["words", *fam, "--len", str(length)], lambda r: _printed(r, f"{sum(row)}\n"))
        marks = self.rng.randint(0, length)
        self.add(
            ["words", *fam, "--len", str(length), "--marks", str(marks)],
            lambda r: _printed(r, f"{row[marks]}\n"),
        )
        short = _enum_length(s, LIST_CAP, 64)
        self.add(
            ["words", *fam, "--len", str(short), "--list"],
            lambda r: self._check_list(r, point, short),
        )

    @staticmethod
    def _check_list(result, point, length) -> str | None:
        if _exit_status(result):
            return _exit_status(result)
        out = result[1]
        case, a, b, m = point
        s = refcount.alphabet(case, a, m)
        words = [
            tuple(int(c) for c in (line if s <= 10 else line.split()))
            for line in out.splitlines()
        ]
        want = refcount.counts(case, a, b, m, length)[length]
        return _first(
            _mismatch("words listed", len(words), want),
            next(
                (
                    f"invalid word {w}"
                    for w in words
                    if len(w) != length or not refcount.is_valid(case, a, b, m, w)
                ),
                None,
            ),
            None
            if all(u < v for u, v in zip(words, words[1:]))
            else "words not in increasing order",
        )

    def export_ops(self, point, n, seq_label, tri_m, tri_rows) -> None:
        case, a, b, m = point
        fam = _family_args(point)
        values = refcount.counts(case, a, b, m, n - 1)
        params = {k: v for k, v in (("a", a), ("b", b)) if v is not None}
        source = self.rng.choice(("recurrence", "invert", "automaton"))
        parsers = {
            "json": lambda text: formats.parse_json(text)["values"],
            "csv": formats.parse_sequence_csv,
            "bfile": formats.parse_bfile,
        }

        def check_seq(result, fmt):
            if _exit_status(result):
                return _exit_status(result)
            out = result[1]
            parsed = list(parsers[fmt](out))
            # exports parse back to the values the seq call printed
            printed = [int(v) for v in self.results[seq_label][1].split()]
            meta = None
            if fmt == "json":
                doc = formats.parse_json(out)
                meta = _mismatch(
                    "json header",
                    (doc["case"], doc["params"], doc["m"], doc["source"]),
                    (case, params, m, source),
                )
            return _first(
                _mismatch("exported values", parsed, values),
                _mismatch("exported vs printed", parsed, printed),
                meta,
            )

        for fmt in ("json", "csv", "bfile"):
            argv = ["export", *fam, "--m", str(m), "--n", str(n), "--source", source,
                    "--format", fmt, "--out", "-"]
            self.add(argv, lambda r, fmt=fmt: check_seq(r, fmt))

        def check_tri(result, fmt):
            if _exit_status(result):
                return _exit_status(result)
            if fmt == "json":
                parsed = formats.parse_json(result[1])["values"]
            else:
                parsed = formats.parse_triangle_csv(result[1])
            return _mismatch("exported rows", [list(r) for r in parsed.rows], tri_rows)

        for fmt in ("json", "csv"):
            argv = ["export", *fam, "--m", str(tri_m), "--n", str(len(tri_rows)),
                    "--triangle", "--format", fmt, "--out", "-"]
            self.add(argv, lambda r, fmt=fmt: check_tri(r, fmt))

    def verify_op(self, point) -> None:
        case, a, b, m = point
        s = refcount.alphabet(case, a, m)
        max_len = _enum_length(s, VERIFY_CAP, 64)

        def check(result):
            rc, out, err = result
            if rc != 0:
                return f"exit {rc}: {out.strip()[-200:]} {err.strip()[:120]}"
            lines = out.splitlines()
            want = f"  exhaustive-vs-automaton: agree ({max_len + 1} checks)"
            return _first(
                None if lines and lines[0].startswith("cross-check: case") else "no header",
                None if want in lines else f"missing line {want.strip()!r}",
                next((f"not agreed: {ln.strip()}" for ln in lines[1:] if ": agree (" not in ln), None),
            )

        self.add(
            ["verify", *_family_args(point), "--m", str(m), "--max-len", str(max_len)], check
        )

    def build(self):
        points = {f: self.rng.sample(c, CLI_ROUNDS) for f, c in CLI_POINTS.items()}
        for r in range(CLI_ROUNDS):
            for family in CLI_POINTS:
                point = points[family][r]
                seq_label = self.seq_group(point, SEQ_N, ("recurrence", "invert", "explicit", "automaton"))
                tri_m, tri_rows = self.triangle_group(point, TRIANGLE_ROWS)
                self.words_ops(point)
                self.export_ops(point, SEQ_N, seq_label, tri_m, tri_rows)
                self.verify_op(point)
        for point in LONG_SEQ_POINTS:
            # the O(N^2) prefix recount behind --source automaton; the
            # closed form is O(N^3) and stays at SEQ_N
            self.seq_group(point, LONG_SEQ_N, ("recurrence", "invert", "automaton"))
        for name in rw.IDENTITY_NAMES:
            self.add(
                ["identity", "--name", name],
                lambda r, name=name: _exit_status(r)
                or (None if r[1].startswith(f"{name}: verified (") else f"not verified: {r[1][:120]}"),
            )
        for point, marks in zip(self.rng.sample(PARALLEL_POINTS, 2), (None, self.rng.randint(0, PARALLEL_LEN))):
            case, a, b, m = point
            row = refcount.mark_rows(case, a, b, m, PARALLEL_LEN)[PARALLEL_LEN]
            argv = ["words", *_family_args(point), "--m", str(m), "--len", str(PARALLEL_LEN), "--jobs", "2"]
            if marks is None:
                self.add(argv, lambda r, row=row: _printed(r, f"{sum(row)}\n"))
            else:
                self.add(argv + ["--marks", str(marks)], lambda r, v=row[marks]: _printed(r, f"{v}\n"))
        for point, marks in LARGE_ALPHABET_CALLS:
            case, a, b, m = point
            row = refcount.mark_rows(case, a, b, m, 2)[2]
            argv = ["words", *_family_args(point), "--m", str(m), "--len", "2"]
            if marks is None:
                self.add(argv, lambda r, v=sum(row): _printed(r, f"{v}\n"), known_fault=True)
            else:
                self.add(
                    argv + ["--marks", str(marks)],
                    lambda r, v=row[marks]: _printed(r, f"{v}\n"),
                    known_fault=True,
                )
        self.rng.shuffle(self.ops)
        return self.ops, self.results


def cli_mix(seed: int):
    return _CliMix(seed).build()


WORKLOADS = {
    "verify-grid": verify_grid,
    "deep-sequences": deep_sequences,
    "cli-mix": cli_mix,
}
