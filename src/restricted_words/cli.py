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

``main(argv)`` may be called many times in one process: it builds the
parser on its first call and reuses it on every later one.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable

from .cases import CaseSpec
from .formats import (
    _any_digits,
    render_bfile,
    render_json,
    render_sequence_csv,
    render_triangle_csv,
)
from .identity_checks import IDENTITY_NAMES, check_all, check_identity
from .sequences import Sequence, Triangle, _as_param
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
    _check_marks,
    count_exhaustive,
    count_marked_exhaustive,
    iter_words,
)

EXPORT_FORMATS = ("json", "csv", "bfile")


def _add_family_arguments(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument(
        "--case", type=int, required=required, choices=range(1, 6), help="family 1..5"
    )
    parser.add_argument("--a", type=int, default=None, help="alphabet parameter a")
    parser.add_argument("--b", type=int, default=None, help="alphabet parameter b")


def _add_budget_argument(
    parser: argparse.ArgumentParser, default: int | None = DEFAULT_BUDGET
) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=default,
        help="maximum number of words an enumeration may touch",
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


def _print_reports(reports: Iterable) -> int:
    # every report is printed, even after a failed one
    failed = False
    for report in reports:
        print(report.describe())
        failed = failed or not report.ok
    return 1 if failed else 0


def _refuse(command: str, given: list[str]) -> None:
    # a selector the command would ignore is an error, not a no-op
    if given:
        raise ValueError(f"{command} cannot be combined with {', '.join(given)}")


# verify's bounds on cross_check; the parser leaves them None so that
# --adjudicate, which runs no cross_check, can refuse a bound it was given
_VERIFY_BOUNDS = {"max_len": 8, "triangle_n": 10, "budget": DEFAULT_BUDGET}


def cmd_verify(args: argparse.Namespace) -> int:
    point = [
        f"--{name}"
        for name in ("case", "a", "b", "m")
        if getattr(args, name) is not None
    ]
    bounds = {name: getattr(args, name) for name in _VERIFY_BOUNDS}
    if args.adjudicate:
        given = [
            "--" + name.replace("_", "-")
            for name, value in bounds.items()
            if value is not None
        ]
        _refuse(
            "verify --adjudicate", (["--all"] if args.all else []) + point + given
        )
        return _print_reports([adjudicate_case1_leading_term()])
    if args.all:
        _refuse("verify --all", point)
        points = default_grid()
    else:
        if args.case is None:
            raise ValueError("verify needs --case, --all, or --adjudicate")
        spec = _spec_from(args)
        levels = grid_levels(spec) if args.m is None else (args.m,)
        points = [(spec, m) for m in levels]
    for name, default in _VERIFY_BOUNDS.items():
        if bounds[name] is None:
            bounds[name] = default
    return _print_reports(cross_check(spec, m, **bounds) for spec, m in points)


def cmd_identity(args: argparse.Namespace) -> int:
    if args.all:
        _refuse("identity --all", ["--name"] if args.name is not None else [])
        reports = check_all(max_n=args.max_n)
    elif args.name is not None:
        reports = [check_identity(args.name, max_n=args.max_n)]
    else:
        raise ValueError("identity needs --name or --all")
    return _print_reports(reports)


def cmd_words(args: argparse.Namespace) -> int:
    # --jobs is accepted and checked but has no effect
    _as_param("jobs", args.jobs, 1)
    spec = _spec_from(args)
    s = spec.alphabet_size(args.m)
    if args.list:
        # the count's checks, in the count's order, before the first word;
        # iter_words makes the rest on the call
        marks = args.marks
        if marks is not None:
            _check_marks(args.m, marks)
        listed = iter_words(spec, args.m, args.len, budget=args.budget)
        if marks is not None:
            listed = (w for w in listed if w.count(s - 1) == marks)
        # letters are digits up to ten of them, space-separated beyond; the
        # table holds one string per letter, the alphabet product already
        # holds one int per letter
        names = list(map(str, range(s))).__getitem__
        sep = "" if s <= 10 else " "
        sys.stdout.writelines(sep.join(map(names, w)) + "\n" for w in listed)
        return 0
    if args.marks is not None:
        count = count_marked_exhaustive(
            spec, args.m, args.len, args.marks, budget=args.budget
        )
    else:
        count = count_exhaustive(spec, args.m, args.len, budget=args.budget)
    print(count)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    if args.triangle:
        source = args.source or "convolution"
        if args.format == "bfile":
            raise ValueError("bfile format holds sequences only, not triangles")
        payload: Sequence | Triangle = triangle_rows(spec, args.m, args.n, source)
        if args.format == "csv":
            text = render_triangle_csv(payload)
        else:
            text = render_json(spec, args.m, source, payload)
    else:
        source = args.source or "recurrence"
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
    _add_family_arguments(p, required=False)
    p.add_argument("--m", type=int, default=None, help="one level; default all")
    p.add_argument("--all", action="store_true", help="whole parameter grid")
    p.add_argument(
        "--adjudicate",
        action="store_true",
        help="compare the two printed leading terms of the level-m "
        "closed form for family 1",
    )
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--triangle-n", type=int, default=None, dest="triangle_n")
    _add_budget_argument(p, default=None)
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
    _add_budget_argument(p)
    p.add_argument(
        "--jobs", type=int, default=1, help="no effect; enumeration runs in one process"
    )
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


# built on the first call to main, not at import; argparse looks up
# sys.stdout, sys.stderr and the terminal width when it prints, so one
# parser serves every later call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact integers of any length print; the caller's limit comes back
    # on return
    try:
        with _any_digits():
            return args.func(args)
    except (BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
