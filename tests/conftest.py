"""Shared parameter grid and pytest ids for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from restricted_words.cases import CaseSpec
from restricted_words.verification import default_grid, grid_levels

# every (family, parameters, level) point exercised by the cross-checks
GRID_POINTS: list[tuple[CaseSpec, int]] = default_grid()
# its (family, parameters) points, in grid order
GRID_SPECS: list[CaseSpec] = list(dict.fromkeys(spec for spec, _ in GRID_POINTS))
levels_for = grid_levels


def spec_id(spec: CaseSpec) -> str:
    tag = f"case{spec.case_id}"
    if spec.a is not None:
        tag += f"-a{spec.a}"
    if spec.b is not None:
        tag += f"-b{spec.b}"
    return tag


def point_id(point: tuple[CaseSpec, int]) -> str:
    spec, m = point
    return f"{spec_id(spec)}-m{m}"


def assert_integer_arguments(func, args: tuple, names: str) -> None:
    """``names`` lists ``func``'s trailing arguments that must be integers.
    Floats there are refused with a ValueError naming the argument, and
    numpy ints give the same result as exact ints."""
    expect = func(*args)
    names = names.split()
    for i, name in enumerate(names, start=len(args) - len(names)):
        for value in (float(args[i]), args[i] + 0.5, np.int64(args[i])):
            call = args[:i] + (value,) + args[i + 1 :]
            if isinstance(value, float):
                with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                    func(*call)
            else:
                got = func(*call)
                assert got == expect and type(got) is type(expect), name


def bump_cell(rows, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The table ``rows`` (row n the cells k = 1..n) with cell (n, k) one
    larger, every other cell as it was."""
    rows = tuple(map(tuple, rows))
    row = rows[n - 1]
    return rows[: n - 1] + (row[: k - 1] + (row[k - 1] + 1,) + row[k:],) + rows[n:]
