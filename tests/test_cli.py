"""End-to-end command-line behavior, driven in process through main()."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import restricted_words
from restricted_words import cases, cli
from restricted_words.cases import CaseSpec, fm_sequence
from restricted_words.cli import build_parser, main
from restricted_words.formats import parse_bfile, parse_json, parse_triangle_csv
from restricted_words.sequences import composition_triangle, invert_power
from restricted_words.verification import SEQUENCE_ROUTES, TRIANGLE_ROUTES
from restricted_words.words import DEFAULT_BUDGET, count_automaton, is_valid

from conftest import GRID_SPECS, bump_cell, levels_for, point_id, spec_id


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spec_flags(spec: CaseSpec) -> list[str]:
    flags = ["--case", str(spec.case_id)]
    if spec.a is not None:
        flags += ["--a", str(spec.a)]
    if spec.b is not None:
        flags += ["--b", str(spec.b)]
    return flags


def test_seq_fibonacci_line(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--case", "2", "--a", "1", "--m", "1", "--n", "6",
        "--source", "recurrence",
    )
    assert code == 0
    assert out == "1 1 2 3 5 8\n"


def test_seq_padovan_line(capsys):
    code, out, _ = run_cli(capsys, "seq", "--case", "5", "--m", "0", "--n", "6")
    assert code == 0
    assert out == "1 0 1 1 1 2\n"


def test_seq_one_letter_alphabet_dies_out(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--case", "1", "--a", "1", "--m", "0", "--n", "4"
    )
    assert code == 0
    assert out == "1 1 0 0\n"


@pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
def test_seq_sources_byte_identical(capsys, spec):
    for m in levels_for(spec):
        outputs = {}
        for source in ("recurrence", "invert", "explicit", "automaton"):
            if source == "explicit" and spec.case_id == 1 and m == 0:
                continue
            code, out, _ = run_cli(
                capsys, "seq", *spec_flags(spec), "--m", str(m), "--n", "9",
                "--source", source,
            )
            assert code == 0
            outputs[source] = out
        assert len(set(outputs.values())) == 1


# one point per family, the long sequences of the benchmark's cli-mix
@pytest.mark.parametrize(
    "point",
    [
        (CaseSpec(1, a=2), 1),
        (CaseSpec(2, a=2), 1),
        (CaseSpec(3, a=3, b=1), 1),
        (CaseSpec(4), 2),
        (CaseSpec(5), 2),
    ],
    ids=point_id,
)
def test_long_seq_automaton_matches_recurrence(capsys, point):
    spec, m = point
    outputs = [
        run_cli(
            capsys, "seq", *spec_flags(spec), "--m", str(m), "--n", "400",
            "--source", source,
        )
        for source in ("automaton", "recurrence")
    ]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_seq_prints_integers_past_the_default_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, "seq", "--case", "1", "--a", "3", "--m", "3", "--n", "7000"
    )
    assert (code, err) == (0, "")
    # the caller's limit is back; lift it here only to read the answer
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        last = int(out.split()[-1])
    finally:
        sys.set_int_max_str_digits(limit)
    assert last == fm_sequence(CaseSpec(1, a=3), 3, 7000).at(7000)


def test_seq_short_prefix_still_works(capsys):
    # one term is fewer than the recurrence seeds; output is truncated
    code, out, _ = run_cli(capsys, "seq", "--case", "5", "--m", "2", "--n", "1")
    assert code == 0
    assert out == "1\n"


def test_seq_missing_alphabet_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "seq", "--case", "1", "--m", "1", "--n", "4")
    assert code == 2
    assert "error" in err


def test_seq_case3_needs_a_greater_than_b(capsys):
    code, _, err = run_cli(
        capsys, "seq", "--case", "3", "--a", "2", "--b", "2", "--m", "0", "--n", "4"
    )
    assert code == 2


def test_seq_case1_explicit_level_zero_matches_recurrence(capsys):
    family = ("--case", "1", "--a", "2", "--m", "0", "--n", "6")
    explicit = run_cli(capsys, "seq", *family, "--source", "explicit")
    assert explicit == run_cli(capsys, "seq", *family, "--source", "recurrence")
    assert explicit == (0, "1 2 2 2 2 2\n", "")


def test_triangle_aerated_row(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--case", "2", "--a", "1", "--m", "1", "--n", "5",
        "--source", "convolution",
    )
    assert code == 0
    assert out.splitlines()[-1] == "1 0 3 0 1"


def test_triangle_diagonal_is_ones(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--case", "3", "--a", "3", "--b", "2", "--m", "1",
        "--n", "6",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert all(row[-1] == "1" for row in rows)
    assert rows[2][1] == "6"


def test_triangle_sources_agree(capsys):
    texts = set()
    for source in ("convolution", "formula", "eq3"):
        code, out, _ = run_cli(
            capsys, "triangle", "--case", "1", "--a", "2", "--m", "2", "--n", "7",
            "--source", source,
        )
        assert code == 0
        texts.add(out)
    assert len(texts) == 1


def test_triangle_level_zero_exits_2(capsys):
    code, _, err = run_cli(capsys, "triangle", "--case", "4", "--m", "0", "--n", "4")
    assert code == 2


@pytest.mark.parametrize(
    "family, m",
    [(("--case", "2", "--a", "2"), 3), (("--case", "3", "--a", "4", "--b", "2"), 2),
     (("--case", "4"), 3), (("--case", "5"), 2)],
    ids=["case2-m3", "case3-m2", "case4-m3", "case5-m2"],
)
def test_triangle_formula_covers_every_level(capsys, family, m):
    argv = ("triangle", *family, "--m", str(m), "--n", "7", "--source")
    formula = run_cli(capsys, *argv, "formula")
    assert formula[0] == 0
    assert formula == run_cli(capsys, *argv, "convolution")


def test_verify_single_point_exits_0(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "1", "--a", "2", "--m", "2", "--max-len", "7",
        "--triangle-n", "8",
    )
    assert code == 0
    assert "agree" in out
    assert "MISMATCH" not in out


def test_verify_all_levels_of_one_case(capsys):
    for case, reports in (("5", 3), ("4", 4)):
        code, out, _ = run_cli(
            capsys, "verify", "--case", case, "--max-len", "6", "--triangle-n", "7"
        )
        assert code == 0
        assert out.count("cross-check:") == reports


def test_verify_without_target_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_corrupted_formula_exits_1(capsys, monkeypatch):
    real = cases.triangle_formula_table

    def corrupted(spec, m, N):
        return bump_cell(real(spec, m, N), 6, 2)

    monkeypatch.setattr(cases, "triangle_formula_table", corrupted)
    code, out, _ = run_cli(
        capsys, "verify", "--case", "4", "--m", "1", "--max-len", "6",
        "--triangle-n", "8",
    )
    assert code == 1
    # at m = 1 the table serves both the closed-form c_1 and the formula
    # route, so exactly those two lines fail, at the bumped cell
    bad = [line.strip() for line in out.splitlines() if "MISMATCH" in line]
    assert [line.split(":")[0] for line in bad] == [
        "explicit-c1-vs-convolution",
        "explicit-triangle-vs-lift",
    ]
    assert all("MISMATCH at n=6, k=2," in line for line in bad)


def test_verify_adjudicate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--adjudicate")
    assert code == 0
    assert "corrected form confirmed" in out


def test_verify_fills_in_its_bounds(capsys, monkeypatch):
    # the parser leaves the bounds None; verify supplies its own defaults
    calls = []
    real = cli.cross_check

    def recording(spec, m, **bounds):
        calls.append(bounds)
        return real(spec, m, **bounds)

    monkeypatch.setattr(cli, "cross_check", recording)
    assert run_cli(capsys, "verify", "--case", "4", "--m", "1")[0] == 0
    argv = ("verify", "--case", "4", "--m", "1", "--max-len", "3", "--budget", "7")
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == [
        {"max_len": 8, "triangle_n": 10, "budget": DEFAULT_BUDGET},
        {"max_len": 3, "triangle_n": 10, "budget": 7},
    ]


def test_identity_single(capsys):
    code, out, _ = run_cli(
        capsys, "identity", "--name", "tribonacci-sum", "--max-n", "20"
    )
    assert code == 0
    assert "verified" in out


def test_identity_all(capsys):
    code, out, _ = run_cli(capsys, "identity", "--all", "--max-n", "10")
    assert code == 0
    assert out.count("verified") == 15


@pytest.mark.parametrize(
    "selector", [("--all",), ("--name", "euler-type"), ("--name", "mersenne-sum")]
)
def test_identity_checking_nothing_exits_2(capsys, selector):
    code, out, err = run_cli(capsys, "identity", *selector, "--max-n", "2")
    assert code == 2
    assert out == ""
    assert "makes no check at max_n = 2" in err


def test_identity_unknown_name_exits_2(capsys):
    code, _, _ = run_cli(capsys, "identity", "--name", "nope")
    assert code == 2


def test_identity_without_selector_exits_2(capsys):
    code, _, _ = run_cli(capsys, "identity")
    assert code == 2


@pytest.mark.parametrize(
    "command, given",
    [
        ("verify --all", "--case 4"),
        ("verify --all", "--a 2"),
        ("verify --all", "--b 1"),
        ("verify --all", "--m 0"),
        ("verify --all", "--case 4 --m 1"),
        ("verify --adjudicate", "--all"),
        ("verify --adjudicate", "--case 1"),
        ("verify --adjudicate", "--a 2"),
        ("verify --adjudicate", "--b 1"),
        ("verify --adjudicate", "--m 0"),
        ("verify --adjudicate", "--all --case 3 --a 3 --b 1"),
        ("verify --adjudicate", "--max-len 3"),
        ("verify --adjudicate", "--triangle-n 2"),
        ("verify --adjudicate", "--budget 5"),
        ("verify --adjudicate", "--all --m 1 --max-len 3 --triangle-n 2 --budget 5"),
        ("identity --all", "--name tribonacci-sum"),
    ],
)
def test_ignored_selector_exits_2(capsys, command, given):
    # a selector the command would not use fails instead of being dropped
    flags = ", ".join(word for word in given.split() if word.startswith("--"))
    err = f"error: {command} cannot be combined with {flags}\n"
    assert run_cli(capsys, *command.split(), *given.split()) == (2, "", err)


def test_words_count(capsys):
    code, out, _ = run_cli(
        capsys, "words", "--case", "2", "--a", "1", "--m", "1", "--len", "4"
    )
    assert code == 0
    assert out == "5\n"


def test_words_list(capsys):
    code, out, _ = run_cli(
        capsys, "words", "--case", "2", "--a", "1", "--m", "1", "--len", "4",
        "--list",
    )
    assert code == 0
    assert out.splitlines() == ["0000", "0011", "1001", "1100", "1111"]


def test_words_marks_count_matches_triangle(capsys):
    code, out, _ = run_cli(
        capsys, "words", "--case", "1", "--a", "2", "--m", "1", "--len", "3",
        "--marks", "1",
    )
    assert code == 0
    assert out == "8\n"


def test_words_list_marks_filter(capsys):
    code, out, _ = run_cli(
        capsys, "words", "--case", "4", "--m", "1", "--len", "3", "--marks", "1",
        "--list",
    )
    assert code == 0
    words = out.splitlines()
    assert all(w.count("2") == 1 for w in words)


def _listing(spec, m, length, marks=None):
    # the words of is_valid over the alphabet product, in that order, one
    # line each: digits up to ten letters, space-separated letters beyond
    s = spec.alphabet_size(m)
    sep = "" if s <= 10 else " "
    return "".join(
        sep.join(str(c) for c in w) + "\n"
        for w in itertools.product(range(s), repeat=length)
        if is_valid(spec, m, w) and (marks is None or w.count(s - 1) == marks)
    )


@pytest.mark.parametrize("spec", GRID_SPECS, ids=spec_id)
def test_words_list_prints_the_valid_words_in_order(capsys, spec):
    for m in range(4):
        for length in range(6):
            argv = ["words", *spec_flags(spec), "--m", str(m), "--len", str(length)]
            got = run_cli(capsys, *argv, "--list")
            assert got == (0, _listing(spec, m, length), ""), argv
            for marks in range(length + 1) if m else ():
                got = run_cli(capsys, *argv, "--list", "--marks", str(marks))
                assert got == (0, _listing(spec, m, length, marks), ""), argv


@pytest.mark.parametrize("spec", [CaseSpec(1, a=2), CaseSpec(4)], ids=spec_id)
def test_words_list_separates_letters_past_ten(capsys, spec):
    # m = 9 makes 11 letters: the tenth and eleventh print as 9 and 10
    for length in range(4):
        argv = ["words", *spec_flags(spec), "--m", "9", "--len", str(length), "--list"]
        assert run_cli(capsys, *argv) == (0, _listing(spec, 9, length), "")
        for marks in (0, 1):
            got = run_cli(capsys, *argv, "--marks", str(marks))
            assert got == (0, _listing(spec, 9, length, marks), "")
    _, out, _ = run_cli(
        capsys, "words", *spec_flags(spec), "--m", "9", "--len", "2", "--list"
    )
    assert "10 10\n" in out.splitlines(keepends=True)


def test_words_list_negative_marks_exits_2(capsys):
    argv = ["words", "--case", "4", "--m", "1", "--len", "3", "--marks", "-1"]
    for extra in ([], ["--list"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert "marks must be >= 0" in err


def test_words_list_rejects_zero_jobs(capsys):
    argv = ["words", "--case", "4", "--m", "1", "--len", "2", "--jobs", "0"]
    for extra in ([], ["--list"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert err == "error: jobs must be >= 1\n"


def test_words_jobs_changes_no_output(capsys):
    # --jobs is checked but has no effect
    argv = ["words", "--case", "5", "--m", "2", "--len", "5"]
    for extra in ([], ["--marks", "2"], ["--list"]):
        alone = run_cli(capsys, *argv, *extra)
        assert alone[0] == 0 and alone[1]
        assert run_cli(capsys, *argv, *extra, "--jobs", "2") == alone


def test_words_list_fails_like_the_count(capsys):
    # the same checks in the same order, with or without --list
    for m, length, marks, jobs, budget in itertools.product(
        ("-1", "0", "1"), ("-1", "2", "40"), (None, "-1", "0"), (None, "0"),
        (None, "0"),
    ):
        argv = ["words", "--case", "4", "--m", m, "--len", length]
        for flag, value in (("--marks", marks), ("--jobs", jobs), ("--budget", budget)):
            if value is not None:
                argv += [flag, value]
        code, _, err = run_cli(capsys, *argv)
        listed, _, listed_err = run_cli(capsys, *argv, "--list")
        assert listed == code, argv
        if code == 2:
            assert listed_err == err, argv


def test_words_budget_refusal_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "words", "--case", "1", "--a", "3", "--m", "0", "--len", "20",
        "--budget", "1000",
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("length", ["100000", "100000000"])
@pytest.mark.parametrize("extra", [[], ["--list"]])
def test_words_refuses_very_long_words_quickly(capsys, length, extra):
    start = time.perf_counter()
    argv = ["words", "--case", "1", "--a", "3", "--len", length, *extra]
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    err = f"error: enumerating 3**{length} words exceeds the budget of 2000000\n"
    assert result == (2, "", err)


@pytest.mark.parametrize("extra", [[], ["--list"]])
def test_words_refuses_very_long_one_letter_words_quickly(capsys, extra):
    # a one-letter alphabet is charged as two letters
    start = time.perf_counter()
    argv = ["words", "--case", "2", "--a", "1", "--len", "100000000", *extra]
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    err = (
        "error: enumerating the one word of length 100000000, charged as "
        "2**100000000 words, exceeds the budget of 2000000\n"
    )
    assert result == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--m", "0", "--n", "3", "--source", "automaton"],
        ["verify", "--m", "0"],
    ],
    ids=["seq", "verify"],
)
def test_oversized_automaton_refused_quickly(capsys, argv):
    # family 1 at a = 2000 has 2001 states; the automaton route builds the
    # m = 1 table of 2001 letters, which is refused before it is built
    start = time.perf_counter()
    result = run_cli(capsys, *argv, "--case", "1", "--a", "2000")
    assert time.perf_counter() - start < 5
    err = (
        "error: tabulating the automaton's 2001 states x 2001 letters = "
        "4004001 moves exceeds the budget of 2000000\n"
    )
    assert result == (2, "", err)


def test_words_marks_without_marked_letter_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "words", "--case", "4", "--m", "0", "--len", "3", "--marks", "1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "args, err",
    [
        (["--len", "-1"], "error: length must be >= 0\n"),
        (["--len", "2", "--jobs", "0"], "error: jobs must be >= 1\n"),
        (["--len", "2", "--budget", "0"], "error: budget must be >= 1\n"),
    ],
)
@pytest.mark.parametrize("marks", ["0", "5"])
def test_words_marks_validates_like_the_count(capsys, args, err, marks):
    # marks beyond the length count 0 words, but only for valid arguments
    argv = ["words", "--case", "4", "--m", "1", *args]
    assert run_cli(capsys, *argv) == (2, "", err)
    assert run_cli(capsys, *argv, "--marks", marks) == (2, "", err)


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_words_and_verify_refuse_a_budget_below_one_alike(capsys, budget):
    expected = (2, "", "error: budget must be >= 1\n")
    for argv in (
        ["words", "--case", "4", "--m", "1", "--len", "0"],
        ["words", "--case", "4", "--m", "1", "--len", "0", "--list"],
        ["verify", "--case", "4", "--m", "1"],
    ):
        assert run_cli(capsys, *argv, "--budget", budget) == expected, argv


def test_export_bfile_round_trip(capsys, tmp_path):
    out_path = tmp_path / "seq.bfile"
    code, _, _ = run_cli(
        capsys, "export", "--case", "2", "--a", "1", "--m", "1", "--n", "3",
        "--format", "bfile", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == "1 1\n2 1\n3 2\n"
    assert list(parse_bfile(out_path.read_text())) == [1, 1, 2]


def test_export_json_round_trip(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, _, _ = run_cli(
        capsys, "export", "--case", "3", "--a", "3", "--b", "1", "--m", "2",
        "--n", "6", "--triangle", "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    doc = parse_json(out_path.read_text())
    spec = CaseSpec(3, a=3, b=1)
    expected = composition_triangle(invert_power(cases.f0_prefix(spec, 6), 1))
    assert doc["values"] == expected
    assert doc["params"] == {"a": 3, "b": 1}
    assert doc["source"] == "convolution"


def test_export_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "export", "--case", "4", "--m", "2", "--n", "5", "--triangle",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    t = parse_triangle_csv(out_path.read_text())
    spec = CaseSpec(4)
    assert t == composition_triangle(invert_power(cases.f0_prefix(spec, 5), 1))


def test_export_sequence_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--case", "4", "--m", "1", "--n", "5", "--format",
        "bfile", "--out", "-",
    )
    assert code == 0
    seq = fm_sequence(CaseSpec(4), 1, 5)
    assert list(parse_bfile(out)) == list(seq)


def test_export_bfile_triangle_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "export", "--case", "4", "--m", "1", "--n", "4", "--triangle",
        "--format", "bfile", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "sequences only" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            ["--source", "bogus"],
            "unknown sequence source 'bogus'; "
            "choose from recurrence, invert, explicit, automaton",
        ),
        (
            ["--triangle", "--source", "recurrence"],
            "unknown triangle source 'recurrence'; "
            "choose from convolution, formula, eq3",
        ),
    ],
)
def test_export_unknown_source_exits_2(capsys, extra, message):
    code, out, err = run_cli(
        capsys, "export", "--case", "4", "--m", "1", "--n", "4", "--format",
        "json", "--out", "-", *extra,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, routes", [("seq", SEQUENCE_ROUTES), ("triangle", TRIANGLE_ROUTES)]
)
def test_source_choices_are_the_route_tables(command, routes):
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    source = next(
        action
        for action in subparsers.choices[command]._actions
        if action.dest == "source"
    )
    assert list(source.choices) == list(routes)


@pytest.mark.parametrize(
    "command, extra", [("seq", []), ("export", ["--format", "bfile", "--out", "-"])]
)
def test_negative_level_exits_2_for_every_source(capsys, command, extra):
    # invert_power would undo a transform at m = -1; no source runs there
    for source in SEQUENCE_ROUTES:
        got = run_cli(
            capsys, command, "--case", "1", "--a", "2", "--m", "-1", "--n", "3",
            "--source", source, *extra,
        )
        assert got == (2, "", "error: m must be >= 0\n"), source


def test_export_unwritable_destination_exits_3(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "export", "--case", "4", "--m", "1", "--n", "4", "--format",
        "csv", "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 3


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_repeated_calls_are_independent(capsys):
    # nothing one call parses or prints reaches the next: run twice in one
    # process, every call prints what it printed the first time
    seq = ["seq", "--case", "4", "--n", "6"]
    words = ["words", "--case", "2", "--a", "1", "--m", "1", "--len", "4"]
    calls = [
        ["seq", "--case", "9", "--n", "6"],
        seq,
        ["--help"],
        seq,
        [*seq, "--m", "2"],
        seq,
        [*words, "--list"],
        words,
    ]
    first = {}
    for argv in calls * 2:
        result = run_cli(capsys, *argv)
        assert first.setdefault(tuple(argv), result) == result, argv
    assert first[tuple(calls[0])][:2] == (2, "")
    assert first[("--help",)][0] == 0
    # without --m the m = 0 values, not the m = 2 ones of the call before
    m0 = " ".join(str(v) for v in fm_sequence(CaseSpec(4), 0, 6))
    m2 = " ".join(str(v) for v in fm_sequence(CaseSpec(4), 2, 6))
    assert first[tuple(seq)] == (0, f"{m0}\n", "")
    assert first[(*seq, "--m", "2")] == (0, f"{m2}\n", "")
    assert first[tuple(words)] == (0, "5\n", "")


def test_help_wraps_to_each_calls_terminal_width(capsys, monkeypatch):
    helps = {}
    for columns in ("40", "200", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run_cli(capsys, "seq", "--help")
        assert code == 0
        assert helps.setdefault(columns, out) == out
    assert len(helps["40"].splitlines()) > len(helps["200"].splitlines())


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["seq", "--case", "4", "--m", "1", "--n", "5"]
    warm = run_cli(capsys, *argv)
    built.clear()
    for _ in range(3):
        assert run_cli(capsys, *argv) == warm
    assert built == []
    # build_parser itself still builds a new parser on every call
    assert build_parser() is not build_parser()
    assert built


def test_module_entry_point_runs():
    src = str(Path(restricted_words.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-m", "restricted_words.cli", "seq", "--case", "2",
         "--a", "1", "--m", "1", "--n", "8"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 1 2 3 5 8 13 21\n"


_COLD_START_PROBE = """
import contextlib, io, json, sys
from restricted_words import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()

def loaded():
    heavy = ("numpy", "multiprocessing", "concurrent.futures.process")
    return [name for name in heavy if name in sys.modules]

stages = {"import": loaded()}
cli.build_parser()
stages["build_parser"] = loaded()
run("seq", "--case", "4", "--m", "2", "--n", "12", "--source", "invert")
stages["seq"] = loaded()
run("triangle", "--case", "2", "--a", "1", "--m", "2", "--n", "8", "--source", "eq3")
stages["triangle"] = loaded()
run("identity", "--all", "--max-n", "8")
stages["identity"] = loaded()
run("export", "--case", "5", "--m", "1", "--n", "8", "--triangle",
    "--format", "json", "--out", "-")
stages["export"] = loaded()
counts = [run("words", "--case", "5", "--m", "2", "--len", "7", *jobs)
          for jobs in ([], ["--jobs", "2"])]
stages["words"] = loaded()
print(json.dumps({"stages": stages, "counts": counts}))
"""


def test_cold_start_loads_no_numpy_or_process_pool():
    # only brute enumeration needs numpy, and nothing starts a process
    # pool; every other command leaves numpy unimported, so a fresh CLI
    # call starts without it
    src = str(Path(restricted_words.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    stages = report["stages"]
    for stage in ("import", "build_parser", "seq", "triangle", "identity", "export"):
        assert stages[stage] == [], stage
    assert stages["words"] == ["numpy"]
    expect = count_automaton(CaseSpec(5), 2, 7)
    assert report["counts"] == [f"{expect}\n"] * 2


# imports nothing itself but sys, so every module it reports was loaded
# by the package; the export writes its json to stdout between the lines
_IMPORT_GUARD_PROBE = """
import sys
bare = set(sys.modules)
from restricted_words import cli
cli.build_parser()
print(" ".join(sorted(set(sys.modules) - bare)))
cli.main(["export", "--case", "4", "--m", "1", "--n", "5",
          "--format", "json", "--out", "-"])
print("json" in sys.modules and "json" not in bare)
"""


def test_cold_start_imports_no_heavy_modules():
    # dataclasses pulls in inspect (and ast, dis, tokenize); json and
    # numbers load on first use, numpy with the first enumeration
    src = str(Path(restricted_words.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    added = set(lines[0].split())
    assert "restricted_words.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "numbers", "numpy"}
    assert json.loads("\n".join(lines[1:-1]))["case"] == 4
    assert lines[-1] == "True"
