"""Seeded sampling of latent parameter points, and vertex sets, for the tests.

random_parameter_point draws eta0, eta1, delta1, delta2 and then psi, in
that order, so a seeded generator always yields the same points.
observable_vertex_set projects a scenario's vertex images onto its
observable labels.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ivbounds import ParameterPoint, Scenario, VertexSet, get_scenario, scenario_vertex_set

_ZERO = Fraction(0)


def random_parameter_point(
    rng: random.Random,
    uses_psi: bool = True,
    denominator: int = 1000,
) -> ParameterPoint:
    """A uniformly sampled rational parameter point, exact by construction."""

    def draw() -> Fraction:
        return Fraction(rng.randint(0, denominator), denominator)

    return ParameterPoint(
        eta0=draw(),
        eta1=draw(),
        delta1=draw(),
        delta2=draw(),
        psi=draw() if uses_psi else _ZERO,
    )


def observable_vertex_set(scenario: str | Scenario) -> VertexSet:
    """The distinct images on the observable labels alone, first seen first: the target dropped."""
    s = get_scenario(scenario)
    vertices = scenario_vertex_set(s).vertices
    return VertexSet.from_points(s.observable_space, [dict(zip(s.space.labels, v)) for v in vertices])


def random_mixture(rng: random.Random, vertices: list[tuple], k: int) -> tuple[Fraction, ...]:
    """A convex mixture of k vertices drawn with replacement, weights 1..12 normalized."""
    picks = [rng.choice(vertices) for _ in range(k)]
    raw = [rng.randint(1, 12) for _ in picks]
    total = sum(raw)
    return tuple(sum(Fraction(r, total) * v[i] for r, v in zip(raw, picks)) for i in range(len(picks[0])))


def pushed_outside(
    rng: random.Random, vertices: list[tuple], inside: tuple, coords: list[int]
) -> tuple[Fraction, ...]:
    """v + (v - inside)/4 for a vertex v that is 0 at one of ``coords`` where inside is positive.

    The point keeps every affine equality of the vertices but gives that
    coordinate a negative value, so no mixture of them reaches it.
    """
    v = rng.choice([v for v in vertices if any(v[i] == 0 < inside[i] for i in coords)])
    return tuple(a + (a - b) / 4 for a, b in zip(v, inside))
