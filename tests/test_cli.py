"""End-to-end command-line behavior, driven in process through main()."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import restricted_words
from restricted_words import cases
from restricted_words.cases import CaseSpec, fm_sequence
from restricted_words.cli import build_parser, main
from restricted_words.formats import parse_bfile, parse_json, parse_triangle_csv
from restricted_words.sequences import composition_triangle, invert_power
from restricted_words.verification import SEQUENCE_ROUTES, TRIANGLE_ROUTES

from conftest import GRID_SPECS, levels_for, point_id, spec_id


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


def test_seq_case1_explicit_level_zero_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "seq", "--case", "1", "--a", "2", "--m", "0", "--n", "4",
        "--source", "explicit",
    )
    assert code == 2
    assert "available sources" in err


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


def test_triangle_formula_unavailable_names_alternatives(capsys):
    code, _, err = run_cli(
        capsys, "triangle", "--case", "5", "--m", "2", "--n", "4",
        "--source", "formula",
    )
    assert code == 2
    assert "convolution" in err and "eq3" in err


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
    real = cases.c1_explicit

    def corrupted(spec, n, k):
        value = real(spec, n, k)
        if (n, k) == (6, 2):
            return value + 1
        return value

    monkeypatch.setattr(cases, "c1_explicit", corrupted)
    code, out, _ = run_cli(
        capsys, "verify", "--case", "4", "--m", "1", "--max-len", "6",
        "--triangle-n", "8",
    )
    assert code == 1
    assert "MISMATCH" in out
    assert "n=6" in out and "k=2" in out


def test_verify_adjudicate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--adjudicate")
    assert code == 0
    assert "corrected form confirmed" in out


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


def test_identity_unknown_name_exits_2(capsys):
    code, _, _ = run_cli(capsys, "identity", "--name", "nope")
    assert code == 2


def test_identity_without_selector_exits_2(capsys):
    code, _, _ = run_cli(capsys, "identity")
    assert code == 2


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


def test_words_budget_refusal_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "words", "--case", "1", "--a", "3", "--m", "0", "--len", "20",
        "--budget", "1000",
    )
    assert code == 2
    assert "budget" in err


def test_words_marks_without_marked_letter_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "words", "--case", "4", "--m", "0", "--len", "3", "--marks", "1"
    )
    assert code == 2


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
