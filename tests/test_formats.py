"""Render/parse round-trips for bfile, csv, and json outputs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restricted_words.cases import CaseSpec, f0_prefix
from restricted_words.formats import (
    parse_bfile,
    parse_json,
    parse_sequence_csv,
    parse_triangle_csv,
    render_bfile,
    render_json,
    render_sequence_csv,
    render_triangle_csv,
)
from restricted_words.sequences import Sequence, Triangle, composition_triangle

values_lists = st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=20)


def small_triangle(values: list[int]) -> Triangle:
    rows, i, n = [], 0, 1
    while i + n <= len(values):
        rows.append(values[i : i + n])
        i += n
        n += 1
    return Triangle(rows or [values[:1]])


def test_bfile_frozen_example():
    # fibonacci family prefix: three lines, 1-indexed
    seq = Sequence([1, 1, 2])
    assert render_bfile(seq) == "1 1\n2 1\n3 2\n"


def test_bfile_skips_comments_and_blanks():
    text = "# header\n\n1 5\n2 7\n"
    assert list(parse_bfile(text)) == [5, 7]


def test_bfile_rejects_gaps():
    with pytest.raises(ValueError):
        parse_bfile("1 5\n3 7\n")


def test_bfile_rejects_malformed_line():
    with pytest.raises(ValueError):
        parse_bfile("1 5 9\n")


@given(values_lists)
def test_bfile_round_trip(values):
    assert list(parse_bfile(render_bfile(values))) == values


def test_sequence_csv_header():
    text = render_sequence_csv(Sequence([4, 9]))
    assert text.splitlines()[0] == "n,value"
    with pytest.raises(ValueError):
        parse_sequence_csv("value,n\n1,4\n")


@given(values_lists)
def test_sequence_csv_round_trip(values):
    assert list(parse_sequence_csv(render_sequence_csv(values))) == values


def test_triangle_csv_two_rows_has_three_data_lines():
    t = Triangle([[1], [2, 3]])
    lines = render_triangle_csv(t).splitlines()
    assert lines[0] == "n,k,value"
    assert len(lines) == 4


def test_triangle_csv_rejects_out_of_order_cells():
    with pytest.raises(ValueError):
        parse_triangle_csv("n,k,value\n1,1,1\n2,2,3\n")


def test_triangle_csv_rejects_a_row_before_the_first():
    with pytest.raises(ValueError, match=r"^cell \(0,1\) out of order$"):
        parse_triangle_csv("n,k,value\n0,1,5\n")


@given(values_lists)
def test_triangle_csv_round_trip(values):
    t = small_triangle(values)
    assert parse_triangle_csv(render_triangle_csv(t)) == t


def test_json_sequence_round_trip():
    spec = CaseSpec(3, a=3, b=2)
    seq = f0_prefix(spec, 6)
    doc = parse_json(render_json(spec, 0, "recurrence", seq))
    assert doc["case"] == 3
    assert doc["params"] == {"a": 3, "b": 2}
    assert doc["m"] == 0
    assert doc["source"] == "recurrence"
    assert doc["values"] == seq


def test_json_triangle_round_trip():
    spec = CaseSpec(4)
    t = composition_triangle(f0_prefix(spec, 5))
    doc = parse_json(render_json(spec, 1, "eq3", t))
    assert doc["params"] == {}
    assert doc["values"] == t


def test_json_missing_key_rejected():
    with pytest.raises(ValueError):
        parse_json('{"case": 1, "m": 0, "values": []}')


@pytest.mark.parametrize("text", ["5", "null", "[]", '"values"'])
def test_json_non_object_rejected(text):
    with pytest.raises(ValueError, match="^expected a json object, got "):
        parse_json(text)


@pytest.mark.parametrize(
    "values",
    [
        "5",
        '["a"]',
        "[1, [2]]",
        "[[1], 2]",
        "[[1], [2, 3.5]]",
        # json's true and false load as Python bools, which are ints
        "[true, false, 2]",
        "[[1], [2, false]]",
    ],
)
def test_json_values_not_integers_rejected(values):
    text = '{"case": 1, "params": {"a": 2}, "m": 0, "source": "x", "values": %s}'
    with pytest.raises(ValueError, match="^values"):
        parse_json(text % values)
