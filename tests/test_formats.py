"""Render/parse round-trips for bfile, csv, and json outputs."""

from __future__ import annotations

import sys

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
    with pytest.raises(ValueError, match=r"^line 2: cell \(0,1\) out of order$"):
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


# Python's default limit on the digits of an int-text conversion
DEFAULT_DIGITS = 4300
# each value but the last longer than that limit
LONG_VALUES = [3**9100, -(10**4500) - 1, 7]


@pytest.fixture
def default_digit_limit():
    # the default limit for the test, the caller's limit back afterwards
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_DIGITS)
    yield
    assert sys.get_int_max_str_digits() == DEFAULT_DIGITS
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "render, parse",
    [
        (render_bfile, parse_bfile),
        (render_sequence_csv, parse_sequence_csv),
        (
            lambda seq: render_json(CaseSpec(4), 0, "recurrence", seq),
            lambda text: parse_json(text)["values"],
        ),
    ],
    ids=["bfile", "csv", "json"],
)
def test_long_sequence_round_trip(default_digit_limit, render, parse):
    seq = Sequence(LONG_VALUES)
    assert parse(render(seq)) == seq


@pytest.mark.parametrize(
    "render, parse",
    [
        (render_triangle_csv, parse_triangle_csv),
        (
            lambda t: render_json(CaseSpec(4), 1, "convolution", t),
            lambda text: parse_json(text)["values"],
        ),
    ],
    ids=["csv", "json"],
)
def test_long_triangle_round_trip(default_digit_limit, render, parse):
    t = Triangle([LONG_VALUES[:1], LONG_VALUES[1:]])
    assert parse(render(t)) == t


def test_limit_comes_back_after_a_refused_parse(default_digit_limit):
    with pytest.raises(ValueError, match="^line 1: expected 'n value'"):
        parse_bfile("1 5 9\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n,value\n1,5\n2,7,9\n", "line 3: expected 'n,value', got '2,7,9'"),
        ("n,value\n\n1\n", "line 3: expected 'n,value', got '1'"),
    ],
    ids=["too-many", "too-few"],
)
def test_sequence_csv_rejects_wrong_field_count(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_sequence_csv(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n,k,value\n1,1\n", "line 2: expected 'n,k,value', got '1,1'"),
        ("n,k,value\n1,1,1\n\n2,1,0,4\n", "line 4: expected 'n,k,value', got '2,1,0,4'"),
    ],
    ids=["too-few", "too-many"],
)
def test_triangle_csv_rejects_wrong_field_count(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_triangle_csv(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_bfile, "1 5\n2 x\n", "line 2: fields must be integers, got '2 x'"),
        (parse_bfile, "# n value\n1 5\n\n3 7\n", "line 4: expected index 2, got 3"),
        (parse_sequence_csv, "n,value\n1,5\n2,0.5\n", "line 3: fields must be integers, got '2,0.5'"),
        (parse_sequence_csv, "n,value\n1,5\n3,7\n", "line 3: expected index 2, got 3"),
        (parse_triangle_csv, "n,k,value\n1,1,1\n2,2,3\n", r"line 3: cell \(2,2\) out of order"),
        (parse_triangle_csv, "n,k,value\n1,1,1\n2,1,\n", "line 3: fields must be integers, got '2,1,'"),
    ],
    ids=["bfile-field", "bfile-index", "csv-field", "csv-index", "triangle-cell", "triangle-field"],
)
def test_parsers_name_the_line_they_refuse(parse, text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse(text)


JSON_DOC = '{"case": %s, "params": %s, "m": %s, "source": %s, "values": %s}'


@pytest.mark.parametrize(
    "fields, message",
    [
        (("9", '{"z": 1.5}', "-3", '"nope"', "[1]"), "params must be an object"),
        (("true", "[]", "1.5", "7", "[1]"), "params must be an object"),
        (("9", "{}", "0", '"x"', "[1]"), "case_id must be one of"),
        (("true", "{}", "0", '"x"', "[1]"), "case must be an integer, got True"),
        (("1.0", '{"a": 2}', "0", '"x"', "[1]"), "case_id must be an integer"),
        (("4", '{"a": 2}', "0", '"x"', "[1]"), "case 4 takes no parameters"),
        (("1", '{"a": false}', "0", '"x"', "[1]"), "a must be an integer, got False"),
        (("3", '{"a": 2, "b": 2}', "0", '"x"', "[1]"), "case 3 needs a > b >= 1"),
        (("1", '{"a": 2}', "1.5", '"x"', "[1]"), "m must be an integer, got 1.5"),
        (("1", '{"a": 2}', "null", '"x"', "[1]"), "m must be an integer, got None"),
        (("1", '{"a": 2}', "true", '"x"', "[1]"), "m must be an integer, got True"),
        (("1", '{"a": 2}', "-3", '"x"', "[1]"), "m must be >= 0$"),
        (("1", '{"a": 2}', "0", '"x"', "[[1], [2, 3]]"), "m must be >= 1$"),
        (("1", '{"a": 2}', "0", "7", "[1]"), "source must be a string, got 7"),
        (("1", '{"a": 2}', "0", "null", "[1]"), "source must be a string, got None"),
    ],
)
def test_json_header_refused(fields, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        parse_json(JSON_DOC % fields)

