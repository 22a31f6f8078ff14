"""Slow reference versions of the derivation steps, kept to test the fast ones against.

partition is the Fraction path: every facet is reduced modulo the hull
equalities as an AffineForm, then canonicalized, classified and moved to
the observable space as separate steps. polar_extreme_rays is the double
description whose adjacency test scans the tight-constraint mask of every
other ray for each positive/negative pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ivbounds.bounds import BoundSet, TargetUnconstrained
from ivbounds.forms import (
    AffineForm,
    CoordinateSpace,
    IdenticallyFalse,
    LinearConstraint,
    Relation,
    canonicalize,
)
from ivbounds.introws import clear_denominators, independent_rows, primitive, rref, scaled_inverse
from ivbounds.polytope import HRepresentation

_ZERO = Fraction(0)


def reduce_mod_equalities(form: AffineForm, equalities: Sequence[LinearConstraint]) -> AffineForm:
    """Substitute away each equality's trailing coordinate, on Fractions."""
    if not equalities:
        return form
    m = form.space.dimension
    flipped = []
    for eq in equalities:
        if eq.relation is not Relation.EQ:
            raise ValueError("reduce_mod_equalities expects EQ constraints")
        row = primitive(eq.form.coefficients + (eq.form.constant,))
        flipped.append(row[m - 1 :: -1] + row[m:])
    reduced, d, pivots = rref(flipped, m + 1)
    if m in pivots:
        raise IdenticallyFalse("equalities are mutually inconsistent")
    table = [(m - 1 - p, row[m - 1 :: -1] + row[m:]) for row, p in zip(reduced, pivots)]
    values, scale = clear_denominators(form.coefficients + (form.constant,))
    hits = [(values[t], row) for t, row in table if values[t]]
    if not hits:
        return form
    out = [d * v for v in values]
    for f, row in hits:
        out = [a - f * b for a, b in zip(out, row)]
    scale *= d
    values = [Fraction(a, scale) for a in out]
    return AffineForm(form.space, tuple(values[:-1]), values[-1])


def classify(space: CoordinateSpace, equalities: tuple, reduced: list) -> tuple[tuple, tuple]:
    """(nontrivial, trivial) canonical GEQ constraints of forms reduced modulo the equalities."""
    trivial_keys = set()
    for label in space.labels:
        nonneg = reduce_mod_equalities(AffineForm.coordinate(space, label), equalities)
        trivial_keys.add(canonicalize(LinearConstraint(nonneg, Relation.GEQ)).form.key())
    cons = [canonicalize(LinearConstraint(form, Relation.GEQ)) for form in reduced]
    return (
        tuple(c for c in cons if c.form.key() not in trivial_keys),
        tuple(c for c in cons if c.form.key() in trivial_keys),
    )


def partition(h: HRepresentation, target: str | None = None) -> BoundSet:
    """bounds.partition, one Fraction form at a time."""
    ti = None if target is None else h.space.index(target)
    obs_labels = tuple(l for l in h.space.labels if l != target)
    obs_space = CoordinateSpace(f"{h.space.name}-observables", obs_labels)

    def target_coefficient(form: AffineForm) -> Fraction:
        return _ZERO if ti is None else form.coefficients[ti]

    def to_obs(con: LinearConstraint) -> LinearConstraint:
        form = con.form
        assert target_coefficient(form) == 0
        coeffs = form.coefficients
        if ti is not None:
            coeffs = coeffs[:ti] + coeffs[ti + 1 :]
        return LinearConstraint(AffineForm(obs_space, coeffs, form.constant), con.relation)

    def solve_for_target(form: AffineForm) -> AffineForm:
        c = form.coefficients[ti]
        coeffs = tuple(-a / c if a else a for i, a in enumerate(form.coefficients) if i != ti)
        return AffineForm(obs_space, coeffs, -form.constant / c)

    lower: list[AffineForm] = []
    upper: list[AffineForm] = []
    obs_only = []
    for facet in h.facets:
        reduced = reduce_mod_equalities(facet.form, h.equalities)
        c = target_coefficient(reduced)
        if c == 0:
            obs_only.append(reduced)
        else:
            (lower if c > 0 else upper).append(solve_for_target(reduced))

    hull_eqs: list[LinearConstraint] = []
    for eq in h.equalities:
        if target_coefficient(eq.form) == 0:
            hull_eqs.append(canonicalize(to_obs(eq)))
        else:
            solved = solve_for_target(eq.form)
            lower.append(solved)
            upper.append(solved)

    nontrivial, trivial = classify(h.space, h.equalities, obs_only)

    if target is not None and not lower and not upper:
        if target in ("alpha", "beta"):
            lower.append(AffineForm.const(obs_space, -1))
            upper.append(AffineForm.const(obs_space, 1))
        else:
            raise TargetUnconstrained(f"no facet or equality involves {target!r}")

    return BoundSet(
        scenario=h.space.name,
        target=target,
        space=obs_space,
        lower_forms=tuple(lower),
        upper_forms=tuple(upper),
        observable_tests=tuple(to_obs(c) for c in nontrivial),
        trivial_tests=tuple(to_obs(c) for c in trivial),
        hull_equalities=tuple(hull_eqs),
    )


def polar_extreme_rays(points: list[tuple[Fraction, ...]], dim: int) -> list[tuple[int, ...]]:
    """polytope._polar_extreme_rays with the adjacency test scanning every ray's mask."""
    cons = [primitive((1,) + pt) for pt in points]
    init = independent_rows(cons, dim + 1)
    columns, _ = scaled_inverse([cons[i] for i in init])
    rays = [primitive(col) for col in columns]
    start = sum(1 << i for i in init)
    masks = [start & ~(1 << i) for i in init]
    for k, con in enumerate(cons):
        if start >> k & 1:
            continue
        vals = [sum(c * r for c, r in zip(con, ray)) for ray in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [rays[i] for i in pos + zero]
        new_masks = [masks[i] for i in pos] + [masks[i] | 1 << k for i in zero]
        for ip in pos:
            for im in neg:
                shared = masks[ip] & masks[im]
                if shared.bit_count() < dim - 1 or any(
                    shared & mask == shared for io, mask in enumerate(masks) if io != ip and io != im
                ):
                    continue
                combo = [vals[ip] * a - vals[im] * b for a, b in zip(rays[im], rays[ip])]
                new_rays.append(primitive(combo))
                new_masks.append(shared | 1 << k)
        rays, masks = new_rays, new_masks
    return rays
