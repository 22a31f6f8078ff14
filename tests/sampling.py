"""Seeded sampling of latent parameter points for the tests.

random_parameter_point draws eta0, eta1, delta1, delta2 and then psi, in
that order, so a seeded generator always yields the same points.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ivbounds import ParameterPoint

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
