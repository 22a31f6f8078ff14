"""Exact conversion between vertex and facet descriptions of bounded rational polytopes.

The instances this package cares about are tiny (at most a few dozen
generating points in at most 13 coordinates) but highly degenerate: the
points never span the ambient space. facet_enumeration therefore works
affine-hull-first. It computes the hull equalities, projects the points
onto an independent coordinate chart where they are full-dimensional, runs
an incremental double description pass there, and lifts the resulting
facets back. Points and forms are exact rationals at the API; inside,
everything runs on integer rows (see introws). The VertexSet, AffineHull and
HRepresentation that derivation passes along hold only their rows; their
Fraction fields are views built on first read (hand-built ones keep their
tuples). Rows are reduced modulo the equalities and tested for membership
on ints (reduce_mod_equalities wraps the former).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence

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
from .introws import clear_denominators, evaluate_rows, integer_rows, primitive, rref


class DimensionOverflow(ValueError):
    """The vertex set lives in more coordinates than MAX_COORDINATES."""


# facet_enumeration is meant for small exact instances (the largest
# scenario has 13 coordinates), not general-purpose hull computation.
MAX_COORDINATES = 16


class VertexSet(Record):
    """Deduplicated generating points of a polytope, in a fixed label order."""

    space: CoordinateSpace
    vertices: tuple[tuple[Fraction, ...], ...]  # a field; the cached_property below is its view

    @classmethod
    def from_points(
        cls,
        space: CoordinateSpace,
        points: Iterable[Mapping | Sequence],
    ) -> "VertexSet":
        rows = tuple(dict.fromkeys(space.vector(p) for p in points))
        if not rows:
            raise ValueError("a vertex set needs at least one point")
        return cls(space, rows)

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
    equalities = []
    for free in (j for j in range(m) if j not in pivot_set):
        coeffs = [0] * m
        coeffs[free] = d
        for row, piv in zip(reduced, pivots):
            coeffs[piv] = -row[free]
        row = [c * scale for c in coeffs] + [-sum(c * b for c, b in zip(coeffs, base))]
        equalities.append(canonical_row(primitive(row), Relation.EQ))
    return AffineHull._unbuilt(
        space=vs.space, dimension=len(pivots), pivots=tuple(pivots), _rows=([equalities], 1)
    )


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

    @cached_property
    def _rows(self) -> tuple[list[list[tuple[int, ...]]], int]:
        """Equality rows and facet rows (a..., k) over one L > 0, each form (a . x + k) / L."""
        groups = (self.equalities, self.facets)
        return integer_rows([[(*c.form.coefficients, c.form.constant) for c in g] for g in groups])

    @cached_property
    def _triangular(self) -> tuple[list[tuple[int, list[int]]], int]:
        """(trailing coordinate, row) per equality, and d: each row is d there, 0 in the rest."""
        # Only given equalities can hold another relation; rows from facet_enumeration are all EQ.
        if any(eq.relation is not Relation.EQ for eq in vars(self).get("equalities", ())):
            raise ValueError("reduce_mod_equalities expects EQ constraints")
        (eq, _), _ = self._rows
        m = self.space.dimension
        # Reversed coordinates, so elimination prefers pivots from the right.
        reduced, d, pivots = rref([row[m - 1 :: -1] + row[m:] for row in eq], m + 1)
        if m in pivots:
            raise IdenticallyFalse("equalities are mutually inconsistent")
        return [(m - 1 - p, row[m - 1 :: -1] + row[m:]) for row, p in zip(reduced, pivots)], d

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

    def contains(self, point: Mapping | Sequence) -> MembershipReport:
        rows, den = self._rows
        (eq, facets), scale = evaluate_rows(rows, self.space.vector(point))
        den *= scale
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


def _polar_extreme_rays(cons: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays (b, a) of the cone {(b, a) : (b, a) . c >= 0 for each row c = s * (1, y)}.

    These are exactly the facets a.y + b >= 0 of conv(points y) when the
    points span dim-dimensional space (s > 0 scales each row to integers).
    Incremental double description (Fukuda & Prodon, 1996): start from the
    first dim + 1 independent rows (their polar cone is simplicial), then add
    the rest one at a time, keeping nonnegative rays and combining adjacent
    positive/negative pairs on each new hyperplane. Rays carry stable ids:
    masks[i] holds the constraints ray i is tight on, tight[c] the ids
    (dead ones too) of the rays tight on constraint c.
    """
    # One elimination of [C^T | I] picks the start rows (the pivot columns) and
    # leaves d times the transposed inverse of their matrix on the right: the start rays.
    n = len(cons)
    eye = [[int(i == j) for j in range(dim + 1)] for i in range(dim + 1)]
    reduced, _, init = rref([[*col, *e] for col, e in zip(zip(*cons), eye)], n)
    if len(init) <= dim:
        raise ValueError("rows do not span the required rank")
    rays = [primitive(row[n:]) for row in reduced]
    ids = list(range(len(rays)))
    next_id = len(rays)
    alive = (1 << next_id) - 1  # the ids of the current rays
    # Ray j of the simplicial start is tight on every initial constraint but the j-th.
    start = sum(1 << i for i in init)
    masks = [start & ~(1 << i) for i in init]
    tight = [sum(1 << j for j, mask in enumerate(masks) if mask >> c & 1) for c in range(len(cons))]
    need = dim - 1
    for k, con in enumerate(cons):
        if start >> k & 1:
            continue
        vals = [sum(map(mul, con, ray)) for ray in rays]
        pos, zero, neg = [], [], []
        for i, v in enumerate(vals):
            (pos if v > 0 else neg if v else zero).append(i)
        new_rays = [rays[i] for i in pos + zero]
        new_masks = [masks[i] for i in pos] + [masks[i] | 1 << k for i in zero]
        new_ids = [ids[i] for i in pos + zero]
        tight[k] = sum(1 << ids[i] for i in zero)
        pos_rays = [(masks[i], 1 << ids[i], vals[i], rays[i]) for i in pos]
        first = next_id
        for im in neg:
            m_neg, bit_neg, v_neg, ray_neg = masks[im], 1 << ids[im], vals[im], rays[im]
            for m_pos, bit_pos, v_pos, ray_pos in pos_rays:
                shared = m_pos & m_neg
                if shared.bit_count() < need:
                    continue
                # Adjacent: dim - 1 common tight constraints that no third live ray shares.
                pair, common, rest = bit_pos | bit_neg, alive, shared
                while rest and common != pair:
                    low = rest & -rest
                    common &= tight[low.bit_length() - 1]
                    rest ^= low
                if common != pair:
                    continue
                combo = [v_pos * a - v_neg * b for a, b in zip(ray_neg, ray_pos)]
                g = gcd(*combo)
                new_rays.append(tuple(combo) if g == 1 else tuple(v // g for v in combo))
                new_masks.append(mask := shared | 1 << k)
                new_ids.append(next_id)
                while mask:
                    low = mask & -mask
                    tight[low.bit_length() - 1] |= 1 << next_id
                    mask ^= low
                next_id += 1
        # The negative rays die; the rays made in this step have ids first .. next_id - 1.
        alive = alive & ~sum(1 << ids[i] for i in neg) | ((1 << next_id) - (1 << first))
        rays, masks, ids = new_rays, new_masks, new_ids
    return rays


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
    chart = [primitive((scale, *(v[p] for p in hull.pivots))) for v in points]
    # A hull of dimension 0 is one point, which has no facets.
    rays = _polar_extreme_rays(chart, hull.dimension) if hull.dimension else []
    # lift takes a ray (b, a) padded with a 0 to its row: a at the pivots, 0 elsewhere, then b.
    at = {p: 1 + j for j, p in enumerate(hull.pivots)}
    lift = itemgetter(*(at.get(c, -1) for c in range(vs.space.dimension)), 0)
    # A primitive ray is its facet's canonical row; sorting the rows orders
    # the facets by coefficient tuple, then constant.
    rows = sorted(lift(ray + (0,)) for ray in rays)
    assert all(any(ray[1:]) for ray in rays), "polar ray with no linear part cannot be a facet"
    (equalities,), _ = hull._rows
    return HRepresentation._unbuilt(
        space=vs.space, affine_dimension=hull.dimension, _rows=([equalities, rows], 1)
    )
