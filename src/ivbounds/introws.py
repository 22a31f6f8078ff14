"""Exact linear algebra on integer rows, with no fractions inside.

Every elimination of the package is one fraction-free Gauss-Jordan step in Bareiss's style:
each intermediate entry is a minor of the input, so every division is exact and entries stay
bounded by the input's minors. ``pivot`` takes it on list rows for ``rref`` (the derivation
path, the LP oracle's equality reduction), whose pivot search reads an entry of every row per
column, cheap in a list; ``pivot_packed`` on rows packed one int each in ``Lanes``, for the
oracle's simplex tableau, whose lanes ``Lanes.tableau`` sizes from an exact bound. Rational
input is scaled to integers first, always by ``clear_denominators`` (scaling a row changes
neither its row space nor the sign of what it evaluates to). ``PackedRows`` is the one
evaluator of such rows at an integer point: one big-integer multiply-add per column, each
column one int in Lanes. Results become ``Fraction`` only at the package's API boundary.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import gcd, isqrt, lcm, prod
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


class Lanes:
    """n signed w-bit lanes in one int P = sum(v[j] << w*j), exact while every |v[j]| < 2**(w-1).

    Sums, and quotients exact in every lane, act lane by lane however wide the int grows in
    between: only a lane read must fit. bias sets every lane's top bit, so no lane of P + bias
    borrows: lane j of P is ((P + bias) >> w*j & mask) - half, negative iff its top bit is
    clear, and read(((P + bias) ^ bias).to_bytes(size, sys.byteorder)) is every lane at once."""

    def __init__(self, w: int, n: int):
        s, self._struct = w // 8, Struct(f"{n}q")  # native 64-bit lanes
        self.w, self.half, self.mask, self._s, self.size = w, 1 << (w - 1), (1 << w) - 1, s, n * s
        self.bias = int.from_bytes(self.half.to_bytes(s, byteorder) * n, byteorder)
        self.read = self._struct.unpack if w == 64 else lambda b: tuple(  # or wider ones
            [int.from_bytes(b[k : k + s], byteorder, signed=True) for k in range(0, len(b), s)])

    @staticmethod
    def width(bound: int) -> int:
        """The least multiple of 64 above bound's bit length: its lanes hold every |v| <= bound."""
        return 64 * (bound.bit_length() // 64 + 1)

    @classmethod
    def tableau(cls, rows: Sequence[Sequence[int]], costs: Sequence[int], r: int) -> tuple[Lanes, int]:
        """(lanes, K) for a simplex tableau of integer rows A of rank r and costs c: K bounds every
        lane it holds after every pivot, at its common scale +-det B (B the basis).

        A constraint entry is det B with one column replaced: an r x r minor of A on r rows, as an
        artificial's column is +- a copy of a basic one (a minor holding both is 0), so at most H,
        the product of A's r largest rounded-up column norms (Hadamard). The phase-1 row sums at
        most r of them. A cost entry is +-det [[B, a], [c_B, c]] (an artificial costs 0): along
        its last row, at most r + 1 costs times such minors."""
        squares = (sum(map(mul, col, col)) for col in zip(*rows))
        norms = sorted((isqrt(q - 1) + 1 if q else 0 for q in squares), reverse=True)
        bound = max(r, sum(sorted(map(abs, costs), reverse=True)[: r + 1])) * prod(norms[:r])
        return cls(cls.width(bound), len(costs)), bound

    def pack(self, values: Sequence[int]) -> int:
        """The int whose lane j holds values[j]; a value that does not fit its lane raises."""
        raw = self._struct.pack(*values) if self.w == 64 else b"".join(
            v.to_bytes(self._s, byteorder, signed=True) for v in values)
        u = int.from_bytes(raw, byteorder)  # read unsigned: a negative lane borrowed 2**w
        return u - ((u & self.bias) << 1)

    def lane(self, rows: Sequence[int], j: int) -> list[int]:
        """Lane j of every int in rows: one column of packed rows."""
        bias, k, mask, half = self.bias, self.w * j, self.mask, self.half
        return [((P + bias) >> k & mask) - half for P in rows]


class PackedRows:
    """Groups of integer rows, evaluated at integer points in packed lanes.

    Column j is one int holding each row's entry j in that row's lane, so sum(x[j] * column j)
    holds every row's a . x, in lanes of Lanes.width(max |row|_1 * max(|x[j]|, 1)).
    """

    def __init__(self, groups: Sequence[Sequence[Sequence[int]]]):
        rows = [row for rows in groups for row in rows]
        ends = list(accumulate(map(len, groups), initial=0))
        self._groups, self._columns = list(map(slice, ends, ends[1:])), list(zip(*rows))
        self._norm = max(map(sum, (map(abs, row) for row in rows)), default=0)
        self._lanes: dict[int, tuple] = {}  # _pack(w) by lane width w, packed at first use

    def evaluate(self, xs: Sequence[int]) -> list[tuple[int, ...]]:
        """Each group's rows at the integer point xs: row a as a . xs, exactly."""
        w = Lanes.width(self._norm * (max(map(abs, xs), default=0) or 1))
        columns, bias, size, read = self._lanes.get(w) or self._pack(w)
        values = read((sum(map(mul, xs, columns), bias) ^ bias).to_bytes(size, byteorder))
        return [values[group] for group in self._groups]

    def _pack(self, w: int) -> tuple:
        """(columns, bias, byte count, reader) for w-bit lanes."""
        lanes = Lanes(w, self._groups[-1].stop if self._groups else 0)
        if len(self._lanes) > 1:  # keep the narrowest and the newest: w grows with xs's digits
            self._lanes.pop(max(self._lanes), None)
        self._lanes[w] = packed = list(map(lanes.pack, self._columns)), lanes.bias, lanes.size, lanes.read
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

    ``prev`` is the rows' common scale (1 at the start). Row r is kept and every other row
    becomes (p * row - row[col] * rows[r]) // prev, with p = rows[r][col] the new common scale,
    which is returned. A row with 0 in column col is just rescaled, and left as it is when
    p == prev; with p == prev a row that changes becomes row - row[col] * rows[r] // p, since
    that quotient is exact too: a copy edited only at rows[r]'s nonzero columns."""
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


def pivot_packed(rows: list[int], rhs: list[int], r: int, column: Sequence[int], prev: int) -> int:
    """pivot on rows in Lanes, in place, their right-hand sides rhs apart; column holds every
    row's entry in the pivot column. Each division is of a whole int, exact in every lane."""
    top, t, p = rows[r], rhs[r], column[r]
    if p == prev:
        for i, f in enumerate(column):
            if f and i != r:
                rows[i], rhs[i] = rows[i] - f * top // p, rhs[i] - f * t // p
    else:
        for i, f in enumerate(column):
            if i != r:
                rows[i], rhs[i] = (p * rows[i] - f * top) // prev, (p * rhs[i] - f * t) // prev
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

