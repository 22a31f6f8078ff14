"""Exact linear algebra on integer rows, with no fractions inside.

Every elimination of the package runs through one step here, ``pivot``:
the derivation path's, and the LP oracle's equality pre-reduction and
simplex pivots. Rational input is scaled to integers first, always by
``clear_denominators`` (scaling a row changes neither its row space nor
the sign of what it evaluates to). ``evaluate_rows`` is the one
evaluator of such rows at a rational point. Elimination is fraction-free
in Bareiss's style: each intermediate entry is a minor of the input, so
every division is exact and entries stay bounded by the input's minors.
A step does only the integer work that changes a row: it skips a row with
0 in the pivot column while the common scale stays the same, and only
rescales such a row when the scale changes.
Callers turn results back into ``Fraction`` only at the package's API
boundary.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Sequence


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(ints, d): the least d > 0 making every d * v an integer, and those integers."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def integer_rows(groups: Sequence[Sequence[Sequence]]) -> tuple[list[list[tuple[int, ...]]], int]:
    """Groups of rational rows as integer rows over one least common denominator d > 0."""
    ints, d = clear_denominators([v for rows in groups for row in rows for v in row])
    it = iter(ints)
    return [[tuple(islice(it, len(row))) for row in rows] for rows in groups], d


def evaluate_rows(
    groups: Sequence[Sequence[Sequence[int]]], point: Sequence
) -> tuple[list[list[int]], int]:
    """Groups of integer rows (a..., k) at a rational point x, as numerators over one d > 0.

    Row (a..., k) evaluates to a . x + k = n / d, where d is the point's
    least common denominator.
    """
    xs, d = clear_denominators(point)
    xs.append(d)
    return [[sum(map(mul, row, xs)) for row in rows] for rows in groups], d


def primitive(values: Sequence) -> tuple[int, ...]:
    """Coprime integers with the direction of a rational vector.

    Accepts ints and Fractions; a zero vector stays zero. A row of ints,
    as the derivation passes, skips the search for a common denominator.
    """
    ints = values if all(map(int.__instancecheck__, values)) else clear_denominators(values)[0]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def pivot(rows: list[list[int]], r: int, col: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on entry (r, col), in place.

    ``prev`` is the rows' common scale (1 at the start). Row r is kept and
    every other row becomes (p * row - row[col] * rows[r]) // prev, with
    p = rows[r][col] the new common scale, which is returned.

    Only the integer work that changes a row is done: a row with 0 in
    column col is just rescaled to p * row // prev, and left as it is when
    p == prev; with p == prev a row that changes becomes
    row - row[col] * rows[r] // p, since that quotient is exact too. Rows
    are replaced by new lists, never mutated, so a row left as it is may
    stay shared with another tableau that holds it: the oracle's phase 2
    starts from a shallow copy of its cached phase-1 tableau.
    """
    top = rows[r]
    p = top[col]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if not f:
            if p != prev:
                rows[i] = [p * a // prev for a in row]
        elif p == prev:
            rows[i] = [a - f * b // p if b else a for a, b in zip(row, top)]
        else:
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def rref(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], int, list[int]]:
    """Fraction-free reduced row echelon form (Bareiss-style Gauss-Jordan).

    Returns (reduced, d, pivots): the nonzero rows of d times the reduced
    row echelon form of the integer rows, an integer d > 0, and the pivot
    columns. Only the first ``width`` columns may hold pivots; a row that
    is zero there is dropped. Each column is one ``pivot`` step, so all
    pivot entries end up equal to d.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prev = pivot(work, rank, col, prev)
        pivots.append(col)
    reduced = work[: len(pivots)]
    if prev < 0:
        prev = -prev
        reduced = [[-v for v in row] for row in reduced]
    return reduced, prev, pivots

