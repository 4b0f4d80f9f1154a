"""Command-line front end.

Subcommands: ``seq`` (a family sequence from any source), ``triangle``
(a level-m triangle from any source), ``verify`` (the cross-check
matrix), ``identity`` (the named-identity registry), ``words`` (list or
count valid words), and ``export`` (write json/csv/bfile files).  The
sources are the keys of the route tables in
:mod:`restricted_words.verification`, the same routes ``verify`` checks.

Exit codes: 0 success or verified, 1 verification counterexample,
2 usage or parameter error, 3 I/O error.  All output is exact decimal
integers.  Sequence indices are passed with ``--n`` and word lengths
with ``--len``; the two differ by one and are never conflated.
"""

from __future__ import annotations

import argparse
import sys

from .cases import CaseSpec
from .formats import (
    render_bfile,
    render_json,
    render_sequence_csv,
    render_triangle_csv,
)
from .identity_checks import IDENTITY_NAMES, check_all, check_identity
from .sequences import Sequence, Triangle
from .verification import (
    SEQUENCE_ROUTES,
    TRIANGLE_ROUTES,
    adjudicate_case1_leading_term,
    cross_check,
    default_grid,
    grid_levels,
    sequence_values,
    triangle_rows,
)
from .words import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    count_exhaustive,
    count_marked_exhaustive,
    iter_words,
)

EXPORT_FORMATS = ("json", "csv", "bfile")


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--case", type=int, required=True, choices=range(1, 6), help="family 1..5"
    )
    parser.add_argument("--a", type=int, default=None, help="alphabet parameter a")
    parser.add_argument("--b", type=int, default=None, help="alphabet parameter b")


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="maximum number of words an enumeration may touch",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for enumeration"
    )


def _spec_from(args: argparse.Namespace) -> CaseSpec:
    return CaseSpec(args.case, a=args.a, b=args.b)


def cmd_seq(args: argparse.Namespace) -> int:
    values = sequence_values(_spec_from(args), args.m, args.n, args.source)
    print(" ".join(str(v) for v in values))
    return 0


def cmd_triangle(args: argparse.Namespace) -> int:
    t = triangle_rows(_spec_from(args), args.m, args.n, args.source)
    for row in t.rows:
        print(" ".join(str(v) for v in row))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.adjudicate:
        report = adjudicate_case1_leading_term()
        print(report.describe())
        return 0 if report.ok else 1
    if args.all:
        points = default_grid()
    else:
        if args.case is None:
            raise ValueError("verify needs --case, --all, or --adjudicate")
        spec = _spec_from(args)
        levels = grid_levels(spec) if args.m is None else (args.m,)
        points = [(spec, m) for m in levels]
    failed = False
    for spec, m in points:
        report = cross_check(
            spec,
            m,
            max_len=args.max_len,
            triangle_n=args.triangle_n,
            budget=args.budget,
            jobs=args.jobs,
        )
        print(report.describe())
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_identity(args: argparse.Namespace) -> int:
    if args.all:
        reports = check_all(max_n=args.max_n)
    elif args.name is not None:
        reports = [check_identity(args.name, max_n=args.max_n)]
    else:
        raise ValueError("identity needs --name or --all")
    failed = False
    for report in reports:
        print(report.describe())
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_words(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    s = spec.alphabet_size(args.m)
    if args.list:
        words = iter_words(spec, args.m, args.len, budget=args.budget)
        if args.marks is not None:
            if args.m < 1:
                raise ValueError("--marks needs --m >= 1")
            if args.marks < 0:
                raise ValueError("marks must be >= 0")
            words = (w for w in words if w.count(s - 1) == args.marks)
        if args.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for word in words:
            if s <= 10:
                print("".join(str(c) for c in word))
            else:
                print(" ".join(str(c) for c in word))
        return 0
    if args.marks is not None:
        count = count_marked_exhaustive(
            spec, args.m, args.len, args.marks, budget=args.budget, jobs=args.jobs
        )
    else:
        count = count_exhaustive(
            spec, args.m, args.len, budget=args.budget, jobs=args.jobs
        )
    print(count)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    if args.triangle:
        source = args.source or "convolution"
        if source not in TRIANGLE_ROUTES:
            raise ValueError(
                f"unknown triangle source {source!r}; choose from "
                + ", ".join(TRIANGLE_ROUTES)
            )
        if args.format == "bfile":
            raise ValueError("bfile format holds sequences only, not triangles")
        payload: Sequence | Triangle = triangle_rows(spec, args.m, args.n, source)
        if args.format == "csv":
            text = render_triangle_csv(payload)
        else:
            text = render_json(spec, args.m, source, payload)
    else:
        source = args.source or "recurrence"
        if source not in SEQUENCE_ROUTES:
            raise ValueError(
                f"unknown sequence source {source!r}; choose from "
                + ", ".join(SEQUENCE_ROUTES)
            )
        payload = Sequence(sequence_values(spec, args.m, args.n, source))
        if args.format == "bfile":
            text = render_bfile(payload)
        elif args.format == "csv":
            text = render_sequence_csv(payload)
        else:
            text = render_json(spec, args.m, source, payload)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restricted-words",
        description="Sequences, triangles, and word counts for five "
        "families of restricted words over marked alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print f_m(1..N)")
    _add_family_arguments(p)
    p.add_argument("--m", type=int, default=0, help="number of marked letters")
    p.add_argument("--n", type=int, required=True, help="how many terms")
    p.add_argument("--source", choices=SEQUENCE_ROUTES, default="recurrence")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("triangle", help="print the level-m triangle")
    _add_family_arguments(p)
    p.add_argument("--m", type=int, default=1, help="level, at least 1")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--source", choices=TRIANGLE_ROUTES, default="convolution")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("verify", help="run the cross-check matrix")
    p.add_argument("--case", type=int, choices=range(1, 6), default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="one level; default all")
    p.add_argument("--all", action="store_true", help="whole parameter grid")
    p.add_argument(
        "--adjudicate",
        action="store_true",
        help="compare the two printed leading terms of the level-m "
        "closed form for family 1",
    )
    p.add_argument("--max-len", type=int, default=8, dest="max_len")
    p.add_argument("--triangle-n", type=int, default=10, dest="triangle_n")
    _add_budget_arguments(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identity", help="check named identities")
    p.add_argument("--name", choices=IDENTITY_NAMES, default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-n", type=int, default=30, dest="max_n")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("words", help="list or count valid words")
    _add_family_arguments(p)
    p.add_argument("--m", type=int, default=0, help="number of marked letters")
    p.add_argument("--len", type=int, required=True, help="word length")
    p.add_argument("--marks", type=int, default=None, help="exact marked-letter count")
    p.add_argument("--list", action="store_true", help="print the words themselves")
    _add_budget_arguments(p)
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("export", help="write a sequence or triangle to a file")
    _add_family_arguments(p)
    p.add_argument("--m", type=int, default=0, help="number of marked letters")
    p.add_argument("--n", type=int, required=True, help="terms or rows")
    p.add_argument("--triangle", action="store_true", help="export a triangle")
    p.add_argument("--source", default=None, help="value source; defaults per kind")
    p.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    p.add_argument("--out", required=True, help="destination path, - for stdout")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
