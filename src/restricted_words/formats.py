"""Plain-text renderings of sequences and triangles, and their parsers.

Three formats: b-file (one "n value" pair per line, 1-indexed, sequences
only), csv (header ``n,value`` for sequences, ``n,k,value`` for
triangles), and a json object with keys {case, params, m, source,
values} where values is a flat list for sequences and a list of rows
for triangles.  All numbers render as exact decimal integers.  The
parsers and renderers take integers of any size: each lifts Python's
limit on the digits of an int-text conversion for its own call and
restores the caller's limit on return.

``json`` is imported by the first json render or parse, not with this
module, so importing the package (and every CLI call that writes no
json) starts without it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterable, Iterator

from .cases import CaseSpec
from .sequences import Sequence, Triangle, as_sequence


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


def _csv_rows(text: str, header: str) -> Iterator[list[str]]:
    # the fields of each nonblank line after the header, as many as it has
    lines = ((no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip())
    if next(lines, (0, None))[1] != header:
        raise ValueError(f"expected header {header!r}")
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != header.count(",") + 1:
            raise ValueError(f"line {lineno}: expected {header!r}, got {line!r}")
        yield fields


@_any_digits()
def render_bfile(values: Sequence | Iterable[int]) -> str:
    seq = as_sequence(values)
    return "".join(f"{n} {seq.at(n)}\n" for n in range(1, len(seq) + 1))


@_any_digits()
def parse_bfile(text: str) -> Sequence:
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'n value', got {line!r}")
        n, value = int(parts[0]), int(parts[1])
        if n != len(values) + 1:
            raise ValueError(f"line {lineno}: expected index {len(values) + 1}, got {n}")
        values.append(value)
    return Sequence(values)


@_any_digits()
def render_sequence_csv(values: Sequence | Iterable[int]) -> str:
    seq = as_sequence(values)
    lines = ["n,value"]
    lines += [f"{n},{seq.at(n)}" for n in range(1, len(seq) + 1)]
    return "\n".join(lines) + "\n"


@_any_digits()
def parse_sequence_csv(text: str) -> Sequence:
    values = []
    for n, value in _csv_rows(text, "n,value"):
        if int(n) != len(values) + 1:
            raise ValueError(f"expected index {len(values) + 1}, got {n}")
        values.append(int(value))
    return Sequence(values)


@_any_digits()
def render_triangle_csv(t: Triangle) -> str:
    lines = ["n,k,value"]
    for n in range(1, t.size + 1):
        lines += [f"{n},{k},{t.at(n, k)}" for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


@_any_digits()
def parse_triangle_csv(text: str) -> Triangle:
    rows: list[list[int]] = []
    for n, k, value in (map(int, row) for row in _csv_rows(text, "n,k,value")):
        if n == len(rows) + 1 and k == 1:
            rows.append([])
        if n != len(rows) or not rows or k != len(rows[-1]) + 1:
            raise ValueError(f"cell ({n},{k}) out of order")
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
    # json's true and false load as bools, which Sequence would take as
    # the integers 1 and 0
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
    return doc
