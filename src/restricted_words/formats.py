"""Plain-text renderings of sequences and triangles, and their parsers.

Three formats: b-file (one "n value" pair per line, 1-indexed, sequences
only), csv (header ``n,value`` for sequences, ``n,k,value`` for
triangles), and a json object with keys {case, params, m, source,
values} where values is a flat list for sequences and a list of rows
for triangles.  All numbers render as exact decimal integers.

``json`` is imported by the first json render or parse, not with this
module, so importing the package (and every CLI call that writes no
json) starts without it.
"""

from __future__ import annotations

from typing import Iterable

from .cases import CaseSpec
from .sequences import Sequence, Triangle, as_sequence


def render_bfile(values: Sequence | Iterable[int]) -> str:
    seq = as_sequence(values)
    return "".join(f"{n} {seq.at(n)}\n" for n in range(1, len(seq) + 1))


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


def render_sequence_csv(values: Sequence | Iterable[int]) -> str:
    seq = as_sequence(values)
    lines = ["n,value"]
    lines += [f"{n},{seq.at(n)}" for n in range(1, len(seq) + 1)]
    return "\n".join(lines) + "\n"


def parse_sequence_csv(text: str) -> Sequence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "n,value":
        raise ValueError("expected header 'n,value'")
    values = []
    for line in lines[1:]:
        n, value = line.split(",")
        if int(n) != len(values) + 1:
            raise ValueError(f"expected index {len(values) + 1}, got {n}")
        values.append(int(value))
    return Sequence(values)


def render_triangle_csv(t: Triangle) -> str:
    lines = ["n,k,value"]
    for n in range(1, t.size + 1):
        lines += [f"{n},{k},{t.at(n, k)}" for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def parse_triangle_csv(text: str) -> Triangle:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "n,k,value":
        raise ValueError("expected header 'n,k,value'")
    rows: list[list[int]] = []
    for line in lines[1:]:
        n, k, value = (int(x) for x in line.split(","))
        if n == len(rows) + 1 and k == 1:
            rows.append([])
        if n != len(rows) or not rows or k != len(rows[-1]) + 1:
            raise ValueError(f"cell ({n},{k}) out of order")
        rows[-1].append(value)
    return Triangle(rows)


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
    try:
        if values and isinstance(values[0], list):
            doc["values"] = Triangle(values)
        else:
            doc["values"] = Sequence(values)
    except TypeError as exc:
        # a value that is not an integer, or a row that is not a list
        raise ValueError(f"values: {exc}") from None
    return doc
