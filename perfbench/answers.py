"""Answer checking against a reference computed once per seed.

Served and corrective runs sum floats in a different order than the static
reference (Q5's revenue sums differ in the last bits), so floats compare with
a relative tolerance of :data:`FLOAT_REL_TOL`; every other value compares
exactly.  Columns are matched by attribute name, not position.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Relative (and absolute) tolerance for float columns.
FLOAT_REL_TOL = 1e-9
#: Significant digits floats are rounded to for ordering rows only.
_SORT_DIGITS = 9


def _ordering_key(row: tuple) -> tuple:
    exact = tuple(value for value in row if not isinstance(value, float))
    rounded = tuple(
        float(f"{value:.{_SORT_DIGITS}g}") for value in row if isinstance(value, float)
    )
    return exact, rounded


def canonical_answer(
    rows: Iterable[tuple], names: Sequence[str]
) -> tuple[tuple[str, ...], list[tuple]]:
    """``(sorted names, rows)`` with columns in sorted-name order and rows
    sorted; floats keep all their digits."""
    order = sorted(range(len(names)), key=lambda index: names[index])
    ordered_rows = sorted(
        (tuple(row[index] for index in order) for row in rows), key=_ordering_key
    )
    return tuple(names[index] for index in order), ordered_rows


def _values_match(left: object, right: object) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return False
        return math.isclose(left, right, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_REL_TOL)
    return left == right


def answers_match(
    expected: tuple[tuple[str, ...], list[tuple]],
    actual: tuple[tuple[str, ...], list[tuple]],
) -> bool:
    """True when two canonical answers hold the same multiset of rows."""
    (expected_names, expected_rows), (actual_names, actual_rows) = expected, actual
    if expected_names != actual_names or len(expected_rows) != len(actual_rows):
        return False
    for left, right in zip(expected_rows, actual_rows):
        if len(left) != len(right):
            return False
        if not all(_values_match(a, b) for a, b in zip(left, right)):
            return False
    return True
