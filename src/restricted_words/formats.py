"""Plain-text renderings of sequences and triangles, and their parsers.

Three formats: b-file (one "n value" pair per line, 1-indexed, sequences
only), csv (header ``n,value`` for sequences, ``n,k,value`` for
triangles), and a json object with keys {case, params, m, source,
values} where values is a flat list for sequences and a list of rows
for triangles.  All numbers render as exact decimal integers.  The
parsers and renderers take integers of any size: each lifts Python's
limit on the digits of an int-text conversion for its own call and
restores the caller's limit on return.

Every parser fails with a ``ValueError``: a b-file or csv parse names
the line it refuses, and a json parse checks the header too: ``case``
and ``params`` through ``CaseSpec``, ``m`` from 0 (1 for a triangle),
``source`` a string, and no ``true`` or ``false`` for an integer.

``json`` is imported by the first json render or parse, not with this
module, so importing the package (and every CLI call that writes no
json) starts without it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterable, Iterator

from .cases import CaseSpec
from .sequences import Sequence, Triangle, _as_param, as_sequence


@contextmanager
def _any_digits():
    # exact integers of any length convert to and from text inside; the
    # caller's limit comes back on exit
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def _records(text: str, header: str | None = None) -> Iterator[tuple[int, list[int]]]:
    # (line number, int fields) of each nonblank line: a csv's after its header,
    # split at commas, a b-file's (no header) at whitespace, '#' comments skipped
    lines = ((no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip())
    if header is not None and next(lines, (0, None))[1] != header:
        raise ValueError(f"expected header {header!r}")
    shape, sep = ("n value", None) if header is None else (header, ",")
    for lineno, line in lines:
        if header is None:
            line = line.strip()
            if line.startswith("#"):
                continue
        fields = line.split(sep)
        if len(fields) != len(shape.split(sep)):
            raise ValueError(f"line {lineno}: expected {shape!r}, got {line!r}")
        try:
            fields = [int(field) for field in fields]
        except ValueError:
            raise ValueError(
                f"line {lineno}: fields must be integers, got {line!r}"
            ) from None
        yield lineno, fields


def _sequence(records: Iterator[tuple[int, list[int]]]) -> Sequence:
    # the values of "n value" records whose indices run 1, 2, 3, ...
    values = []
    for lineno, (n, value) in records:
        if n != len(values) + 1:
            raise ValueError(f"line {lineno}: expected index {len(values) + 1}, got {n}")
        values.append(value)
    return Sequence(values)


@_any_digits()
def render_bfile(values: Sequence | Iterable[int]) -> str:
    seq = as_sequence(values)
    return "".join(f"{n} {seq.at(n)}\n" for n in range(1, len(seq) + 1))


@_any_digits()
def parse_bfile(text: str) -> Sequence:
    return _sequence(_records(text))


@_any_digits()
def render_sequence_csv(values: Sequence | Iterable[int]) -> str:
    seq = as_sequence(values)
    lines = ["n,value"]
    lines += [f"{n},{seq.at(n)}" for n in range(1, len(seq) + 1)]
    return "\n".join(lines) + "\n"


@_any_digits()
def parse_sequence_csv(text: str) -> Sequence:
    return _sequence(_records(text, "n,value"))


@_any_digits()
def render_triangle_csv(t: Triangle) -> str:
    lines = ["n,k,value"]
    for n in range(1, t.size + 1):
        lines += [f"{n},{k},{t.at(n, k)}" for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


@_any_digits()
def parse_triangle_csv(text: str) -> Triangle:
    rows: list[list[int]] = []
    for lineno, (n, k, value) in _records(text, "n,k,value"):
        if n == len(rows) + 1 and k == 1:
            rows.append([])
        if n != len(rows) or not rows or k != len(rows[-1]) + 1:
            raise ValueError(f"line {lineno}: cell ({n},{k}) out of order")
        rows[-1].append(value)
    return Triangle(rows)


@_any_digits()
def render_json(
    spec: CaseSpec, m: int, source: str, payload: Sequence | Triangle
) -> str:
    import json

    params = {}
    if spec.a is not None:
        params["a"] = spec.a
    if spec.b is not None:
        params["b"] = spec.b
    if isinstance(payload, Triangle):
        values = [list(row) for row in payload.rows]
    else:
        values = list(payload)
    doc = {
        "case": spec.case_id,
        "params": params,
        "m": m,
        "source": source,
        "values": values,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@_any_digits()
def parse_json(text: str) -> dict:
    import json

    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a json object, got {type(doc).__name__}")
    missing = {"case", "params", "m", "source", "values"} - set(doc)
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    values = doc["values"]
    if not isinstance(values, list):
        raise ValueError(f"values must be a list, got {type(values).__name__}")
    triangle = bool(values) and isinstance(values[0], list)
    # json's true and false load as bools, which Sequence, CaseSpec and
    # _as_param would take as the integers 1 and 0
    for row in values if triangle else [values]:
        if isinstance(row, list) and any(type(value) is bool for value in row):
            raise ValueError("values: true and false are not integers")
    try:
        if triangle:
            doc["values"] = Triangle(values)
        else:
            doc["values"] = Sequence(values)
    except TypeError as exc:
        # a value that is not an integer, or a row that is not a list
        raise ValueError(f"values: {exc}") from None
    params = doc["params"]
    if not isinstance(params, dict) or not set(params) <= {"a", "b"}:
        raise ValueError(f"params must be an object with keys from a, b; got {params!r}")
    for name, value in {"case": doc["case"], **params, "m": doc["m"]}.items():
        if type(value) is bool or value is None:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    CaseSpec(doc["case"], **params)
    _as_param("m", doc["m"], 1 if triangle else 0)
    if not isinstance(doc["source"], str):
        raise ValueError(f"source must be a string, got {doc['source']!r}")
    return doc
