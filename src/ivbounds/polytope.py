"""Exact conversion between vertex and facet descriptions of bounded rational polytopes.

The instances this package cares about are tiny (at most a few dozen
generating points in at most 13 coordinates) but highly degenerate: the
points never span the ambient space. facet_enumeration therefore works
affine-hull-first. It computes the hull equalities, projects the points onto
an independent coordinate chart where they are full-dimensional, runs an
incremental double description pass there, adding the rows in lexmin order
(Fukuda & Prodon, 1996; cdd's default), and lifts the resulting facets back.
Points and forms are exact rationals at the API; inside, everything runs on
integer rows (see introws). The VertexSet, AffineHull and HRepresentation
that derivation passes along hold only their rows (and the triangular
equalities); their Fraction fields are views built on first read (hand-built
ones keep their tuples). Rows are reduced modulo the equalities and tested
for membership on ints (reduce_mod_equalities wraps the former).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping, Sequence

from .forms import (
    AffineForm,
    CoordinateSpace,
    IdenticallyFalse,
    LinearConstraint,
    Record,
    Relation,
    canonical_row,
    rows_view,
)
from .introws import PackedRows, clear_denominators, integer_rows, picker, primitive, rref


class DimensionOverflow(ValueError):
    """The vertex set lives in more coordinates than MAX_COORDINATES."""


# facet_enumeration is meant for small exact instances (the largest
# scenario has 13 coordinates), not general-purpose hull computation.
MAX_COORDINATES = 16


class VertexSet(Record):
    """Deduplicated generating points of a polytope, in a fixed label order."""

    space: CoordinateSpace
    vertices: tuple[tuple[Fraction, ...], ...]  # a field; the cached_property below is its view

    def __post_init__(self) -> None:
        # Only hand-built sets get here; scenario_vertex_set's rows fit the space by construction.
        vertices = tuple(map(self.space.vector, self.vertices))
        if not vertices:
            raise ValueError("a vertex set needs at least one point")
        object.__setattr__(self, "vertices", vertices)

    @classmethod
    def from_points(cls, space: CoordinateSpace, points: Iterable[Mapping | Sequence]) -> "VertexSet":
        """The set of the distinct points, first seen first."""
        return cls(space, tuple(dict.fromkeys(map(space.vector, points))))

    def __len__(self) -> int:
        return len(self._rows[0][0])

    @cached_property
    def _rows(self) -> tuple[list[list[tuple[int, ...]]], int]:
        """The vertices as integer rows over their least common denominator d > 0."""
        return integer_rows([self.vertices])

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        (points,), d = self._rows
        return tuple(tuple(Fraction(v, d) for v in p) for p in points)


class AffineHull(Record):
    """Affine hull of a vertex set: equalities, dimension and a coordinate chart.

    The equalities are canonical and triangular: each one has a distinct
    trailing nonzero coordinate that appears in no other equality. pivots
    lists the chart columns; projection onto them is injective on the hull.
    """

    space: CoordinateSpace
    equalities: tuple[LinearConstraint, ...] = rows_view(0, Relation.EQ)
    dimension: int
    pivots: tuple[int, ...]


def affine_hull(vs: VertexSet) -> AffineHull:
    """Compute the affine hull of a vertex set exactly."""
    m = vs.space.dimension
    # One common scale keeps the vertex differences, and so their row space, exact.
    (points,), scale = vs._rows
    base = points[0]
    reduced, d, pivots = rref([[a - b for a, b in zip(v, base)] for v in points[1:]], m)
    pivot_set = set(pivots)
    table = []  # _triangular: (free column, row), the row d * scale there and 0 at the others
    for free in (j for j in range(m) if j not in pivot_set):
        coeffs = [0] * m
        coeffs[free] = d
        for row, piv in zip(reduced, pivots):
            coeffs[piv] = -row[free]
        table.append((free, [c * scale for c in coeffs] + [-sum(map(mul, coeffs, base))]))
    equalities = [canonical_row(primitive(row), Relation.EQ) for _, row in table]
    return AffineHull._unbuilt(space=vs.space, dimension=len(pivots), pivots=tuple(pivots),
                               _rows=([equalities], 1), _triangular=(table, d * scale))


def reduce_mod_equalities(
    form: AffineForm,
    equalities: Sequence[LinearConstraint],
) -> AffineForm:
    """Canonical representative of an affine function modulo equalities.

    The equalities are brought to a triangular system in which each has a
    distinct trailing nonzero coordinate; those coordinates are then
    substituted away. The result is the unique representative of ``form``
    (modulo the span of the equalities) supported off the eliminated
    coordinates, so equal functions on the solution set reduce to equal
    forms.
    """
    if not equalities:
        return form
    if any(c.relation is not Relation.EQ for c in equalities):
        raise ValueError("reduce_mod_equalities expects EQ constraints")
    # A facet-free HRepresentation carries the same integer reducer partition uses.
    h = HRepresentation(form.space, tuple(equalities), (), 0)
    values, scale = clear_denominators(form.coefficients + (form.constant,))
    out = h._reduce(values)
    if out is values:
        return form
    values = [Fraction(a, scale * h._triangular[1]) for a in out]
    return AffineForm(form.space, tuple(values[:-1]), values[-1])


class MembershipReport(Record):
    """Exact slacks of one point against an H-representation."""

    member: bool
    equality_slacks: tuple[Fraction, ...]
    facet_slacks: tuple[Fraction, ...]
    violations: tuple[tuple[str, int, Fraction], ...]


class HRepresentation(Record):
    """Facet description of a bounded polytope inside its affine hull."""

    space: CoordinateSpace
    equalities: tuple[LinearConstraint, ...] = rows_view(0, Relation.EQ)
    facets: tuple[LinearConstraint, ...] = rows_view(1, Relation.GEQ)
    affine_dimension: int

    def __post_init__(self) -> None:
        # Only hand-built ones get here; facet_enumeration's rows are EQ and GEQ by construction.
        if any(c.relation is not Relation.EQ for c in self.equalities):
            raise ValueError("HRepresentation equalities must be = constraints")
        if any(c.relation is not Relation.GEQ for c in self.facets):
            raise ValueError("HRepresentation facets must be >= constraints")

    @cached_property
    def _rows(self) -> tuple[list[list[tuple[int, ...]]], int]:
        """Equality rows and facet rows (a..., k) over one L > 0, each form (a . x + k) / L."""
        groups = (self.equalities, self.facets)
        return integer_rows([[(*c.form.coefficients, c.form.constant) for c in g] for g in groups])

    @cached_property
    def _triangular(self) -> tuple[list[tuple[int, list[int]]], int]:
        """(trailing coordinate, row) per equality, and d: each row is d there, 0 in the rest."""
        (eq, _), _ = self._rows
        m = self.space.dimension
        # Reversed coordinates, so elimination prefers pivots from the right.
        reduced, d, pivots = rref([row[m - 1 :: -1] + row[m:] for row in eq], m + 1)
        if m in pivots:
            raise IdenticallyFalse("equalities are mutually inconsistent")
        return [(m - 1 - p, row[m - 1 :: -1] + row[m:]) for row, p in zip(reduced, pivots)], d

    @cached_property
    def _reduced(self) -> list[tuple[int, ...]]:
        """The facet rows reduced modulo the equalities and primitive: the rows partition reads."""
        return [primitive(self._reduce(row)) for row in self._rows[0][1]]

    def _reduce(self, row: Sequence[int]) -> Sequence[int]:
        """A positive multiple of the integer row (a..., k) reduced modulo the equalities."""
        table, d = self._triangular
        hits = [(row[t], eq) for t, eq in table if row[t]]
        if not hits:
            return row
        out = [d * v for v in row]
        for f, eq in hits:
            out = [a - f * b for a, b in zip(out, eq)]
        return out

    @cached_property
    def _packed(self) -> PackedRows:
        """_rows packed at the first contains."""
        return PackedRows(self._rows[0])

    def contains(self, point: Mapping | Sequence) -> MembershipReport:
        xs, scale = clear_denominators(self.space.vector(point))
        eq, facets = self._packed.evaluate([*xs, scale])
        den = self._rows[1] * scale
        eq_slacks = tuple(Fraction(n, den) for n in eq)
        facet_slacks = tuple(Fraction(n, den) for n in facets)
        # Each slack has its numerator's sign, so the tests stay on ints.
        violations = [("equality", i, eq_slacks[i]) for i, n in enumerate(eq) if n]
        violations += [("facet", i, facet_slacks[i]) for i, n in enumerate(facets) if n < 0]
        return MembershipReport(not violations, eq_slacks, facet_slacks, tuple(violations))

    def to_json_dict(self) -> dict:
        (eq, facets), den = self._rows
        if den != 1:  # name the first constraint whose row is not integer
            i = next(i for i, row in enumerate(eq + facets) if any(v % den for v in row))
            kind, at = ("equality", i) if i < len(eq) else ("facet", i - len(eq))
            c = [*self.equalities, *self.facets][i]
            raise ValueError(f"{kind} {at} has a non-integer coefficient: {c.render()}")
        return {
            "space": self.space.name,
            "labels": list(self.space.labels),
            "equalities": [list(row) for row in eq],
            "facets": [list(row) for row in facets],
            "dim": self.affine_dimension,
        }


def _not_containing(masks: list[int], n: int) -> Callable[[int], int]:
    """The count, for a set of rows (a mask), of the n-row masks that lack one of its rows.

    The complements of the masks are packed into one int, in lanes of n // 8 + 1
    bytes: n rows below a guard bit. A lane of (complement & rows) is nonzero exactly
    when its mask lacks a row of the set, and adding the lane's low bits then carries
    into its guard bit, so one popcount of the guard bits is the count.
    """
    size = n // 8 + 1
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * len(masks), "little")
    notm = int.from_bytes(b"".join([m.to_bytes(size, "little") for m in masks]), "little")
    notm ^= ones * ((1 << n) - 1)
    guard = ones << 8 * size - 1
    low = guard - ones
    return lambda rows: ((notm & rows * ones) + low & guard).bit_count()


def _polar_extreme_rays(cons: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays (b, a) of the cone {(b, a) : (b, a) . c >= 0 for each row c = s * (1, y)}.

    These are exactly the facets a.y + b >= 0 of conv(points y) when the points
    span dim-dimensional space (s > 0 scales each row to integers). Incremental
    double description (Fukuda & Prodon, 1996): start from the first dim + 1
    independent rows (their polar cone is simplicial), then add the rest one at
    a time in the order given (facet_enumeration sorts them: the lexmin order
    that Fukuda & Prodon recommend and cdd uses by default), keeping nonnegative
    rays and combining adjacent positive/negative pairs on each new hyperplane.
    Each ray is one record (mask, ray), where mask holds the rows it is tight on;
    start ray j is tight on every start row but init[j]. An added row is evaluated
    on its nonzero columns only, through one getter. A pair that shares at least
    dim - 1 tight rows is adjacent when no third ray of the step is tight on all of
    them: one packed count (_not_containing) over the step's r rays reads r - 2.
    """
    # One elimination of [C^T | I] picks the start rows (the pivot columns) and
    # leaves d times the transposed inverse of their matrix on the right: the start rays.
    n = len(cons)
    eye = [[int(i == j) for j in range(dim + 1)] for i in range(dim + 1)]
    reduced, _, init = rref([[*col, *e] for col, e in zip(zip(*cons), eye)], n)
    if len(init) <= dim:
        raise ValueError("rows do not span the required rank")
    start = sum(1 << i for i in init)
    rays = [(start & ~(1 << i), primitive(row[n:])) for i, row in zip(init, reduced)]
    need = dim - 1
    for k, con in enumerate(cons):
        if start >> k & 1:
            continue
        get = picker([j for j, c in enumerate(con) if c])
        coeffs, bit_k = get(con), 1 << k
        pos, zero, neg, made = [], [], [], []
        for ray in rays:
            v = sum(map(mul, coeffs, get(ray[1])))
            if v > 0:
                pos.append((v, ray))
            elif v:
                neg.append((v, ray))
            else:
                zero.append((ray[0] | bit_k, ray[1]))
        if pos and neg:
            outside, others = _not_containing([m for m, _ in rays], n), len(rays) - 2
            for v_neg, (m_neg, ray_neg) in neg:
                for v_pos, (m_pos, ray_pos) in pos:
                    shared = m_pos & m_neg
                    if shared.bit_count() < need or outside(shared) != others:
                        continue
                    combo = [v_pos * a - v_neg * b for a, b in zip(ray_neg, ray_pos)]
                    g = gcd(*combo)
                    ray = tuple(combo) if g == 1 else tuple(v // g for v in combo)
                    made.append((shared | bit_k, ray))
        rays = [ray for _, ray in pos] + zero + made
    return [ray for _, ray in rays]


def facet_enumeration(vs: VertexSet) -> HRepresentation:
    """Exact minimal H-representation of the convex hull of a vertex set.

    Raises DimensionOverflow when the ambient space exceeds MAX_COORDINATES.
    """
    if vs.space.dimension > MAX_COORDINATES:
        raise DimensionOverflow(
            f"{vs.space.dimension} coordinates exceeds the cap of {MAX_COORDINATES}"
        )
    hull = affine_hull(vs)
    (points,), scale = vs._rows
    chart = sorted(primitive((scale, *v)) for v in map(picker(hull.pivots), points))
    # A hull of dimension 0 is one point, which has no facets.
    rays = _polar_extreme_rays(chart, hull.dimension) if hull.dimension else []
    if not all(any(ray[1:]) for ray in rays):
        raise RuntimeError("polar ray with no linear part cannot be a facet")
    # lift takes a ray (b, a) padded with a 0 to its row: a at the pivots, 0 elsewhere, then b.
    at = {p: 1 + j for j, p in enumerate(hull.pivots)}
    lift = itemgetter(*(at.get(c, -1) for c in range(vs.space.dimension)), 0)
    # A primitive ray is its facet's canonical row (sorted: by coefficients, then constant). It is
    # 0 on the equalities' trailing coordinates, the non-pivots: reduced, as partition reads it.
    rows = sorted(lift(ray + (0,)) for ray in rays)
    (equalities,), _ = hull._rows
    return HRepresentation._unbuilt(space=vs.space, affine_dimension=hull.dimension, _reduced=rows,
                                    _rows=([equalities, rows], 1), _triangular=hull._triangular)
