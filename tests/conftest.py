"""Shared parameter grid and pytest ids for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from restricted_words.cases import CaseSpec

# every (family, parameters) point exercised by the cross-checks
GRID_SPECS: list[CaseSpec] = (
    [CaseSpec(1, a=a) for a in (1, 2, 3)]
    + [CaseSpec(2, a=a) for a in (1, 2, 3)]
    + [CaseSpec(3, a=a, b=b) for a, b in ((2, 1), (3, 1), (3, 2), (4, 2))]
    + [CaseSpec(4), CaseSpec(5)]
)


def levels_for(spec: CaseSpec) -> tuple[int, ...]:
    return (0, 1, 2, 3) if spec.case_id == 4 else (0, 1, 2)


GRID_POINTS: list[tuple[CaseSpec, int]] = [
    (spec, m) for spec in GRID_SPECS for m in levels_for(spec)
]


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
