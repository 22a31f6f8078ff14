"""Exact linear algebra on integer rows, with no fractions inside.

Every elimination of the package runs through one step here, ``pivot``:
the derivation path's, and the LP oracle's equality pre-reduction and
simplex pivots. Rational input is scaled to integers first, always by
``clear_denominators`` (scaling a row changes neither its row space nor
the sign of what it evaluates to). ``PackedRows`` is the one evaluator of
such rows at an integer point: one big-integer multiply-add per column, each
column packed into one int with a fixed-width lane for every row.
Elimination is fraction-free in Bareiss's style: each intermediate entry
is a minor of the input, so every division is exact and entries stay
bounded by the input's minors.
A step does only the integer work that changes a row: it skips a row with
0 in the pivot column while the common scale stays the same, and only
rescales such a row when the scale changes. While the scale stays the
same, a row it changes is a copy edited only at the pivot row's nonzero
columns.
Callers turn results back into ``Fraction`` only at the package's API
boundary.
"""

from __future__ import annotations

from itertools import accumulate, islice, starmap
from math import gcd, lcm
from operator import itemgetter, mul
from struct import Struct
from sys import byteorder
from typing import Callable, Sequence


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(ints, d): the least d > 0 making every d * v an integer, and those integers."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def integer_rows(groups: Sequence[Sequence[Sequence]]) -> tuple[list[list[tuple[int, ...]]], int]:
    """Groups of rational rows as integer rows over one least common denominator d > 0."""
    ints, d = clear_denominators([v for rows in groups for row in rows for v in row])
    it = iter(ints)
    return [[tuple(islice(it, len(row))) for row in rows] for rows in groups], d


def picker(columns: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """A getter of the given entries of a sequence, in order; a sequence even for one or none."""
    if len(columns) == 1:
        return itemgetter(slice(columns[0], columns[0] + 1))
    return itemgetter(*columns) if columns else itemgetter(slice(0))


class PackedRows:
    """Groups of integer rows, evaluated at integer points in packed lanes.

    Column j is one int holding each row's entry j in that row's w-bit two's-complement lane,
    so sum(x[j] * column j) holds every row's a . x. w is the least multiple of 64 above the bit
    length of an exact bound on every value, max |row|_1 * max(|x[j]|, 1): no lane overflows.
    """

    def __init__(self, groups: Sequence[Sequence[Sequence[int]]]):
        rows = [row for rows in groups for row in rows]
        ends = list(accumulate(map(len, groups), initial=0))
        self._groups, self._columns = list(map(slice, ends, ends[1:])), list(zip(*rows))
        self._norm = max(map(sum, (map(abs, row) for row in rows)), default=0)
        self._lanes: dict[int, tuple] = {}  # _pack(w) by lane width w, packed at first use

    def evaluate(self, xs: Sequence[int]) -> list[tuple[int, ...]]:
        """Each group's rows at the integer point xs: row a as a . xs, exactly."""
        w = 64 * ((self._norm * (max(map(abs, xs), default=0) or 1)).bit_length() // 64 + 1)
        columns, bias, size, read = self._lanes.get(w) or self._pack(w)
        # bias lifts every lane to nonnegative, so no lane borrows; the xor puts each sign back
        values = read((sum(map(mul, xs, columns), bias) ^ bias).to_bytes(size, byteorder))
        return [values[group] for group in self._groups]

    def _pack(self, w: int) -> tuple:
        """(columns, bias, byte count, reader) for w-bit lanes; bias sets every lane's top bit."""
        s, n = w // 8, self._groups[-1].stop if self._groups else 0
        bias = int.from_bytes((1 << (w - 1)).to_bytes(s, byteorder) * n, byteorder)
        if w == 64:  # a native struct: sys.byteorder, 8 bytes a lane
            lanes = Struct(f"{n}q")
            raw, read = starmap(lanes.pack, self._columns), lanes.unpack
        else:
            raw = (b"".join(v.to_bytes(s, byteorder, signed=True) for v in c) for c in self._columns)

            def read(b: bytes) -> tuple[int, ...]:
                return tuple([int.from_bytes(b[k : k + s], byteorder, signed=True)
                              for k in range(0, len(b), s)])
        # raw lanes read unsigned: each negative one borrowed 2**w from the lane above
        columns = [u - ((u & bias) << 1) for u in (int.from_bytes(b, byteorder) for b in raw)]
        if len(self._lanes) > 1:  # keep the narrowest and the newest: w grows with xs's digits
            self._lanes.pop(max(self._lanes), None)
        self._lanes[w] = packed = columns, bias, n * s, read
        return packed


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
    row - row[col] * rows[r] // p, since that quotient is exact too: a copy
    of the row edited only at rows[r]'s nonzero columns, collected once per
    step. Rows are replaced by new lists, never mutated, so a row left as it
    is may stay shared with another tableau that holds it: the oracle's
    phase 2 starts from a shallow copy of its cached phase-1 tableau.
    """
    top = rows[r]
    p = top[col]
    if p == prev:
        nonzero = [(j, b) for j, b in enumerate(top) if b]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if not f:
            if p != prev:
                rows[i] = [p * a // prev for a in row]
        elif p == prev:
            row = rows[i] = list(row)
            for j, b in nonzero:
                row[j] -= f * b // p
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

