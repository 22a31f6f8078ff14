"""Built-in binary instrumental-variable scenarios, modelled by their response types.

The model has a binary instrument A (arms 1 and 2), binary treatment B,
binary outcome C and an arbitrary confounder U acting on B and C but not
on A. Conditional on U the model is parameterised by five probabilities
(see ParameterPoint). Each scenario names the observable coordinates that
a study reports, plus optionally a causal target coordinate. A 0/1
parameter point is a response type (Balke & Pearl 1997) that fixes the
outcome C(b) = eta_b, the uptake B(a) = delta_a and the arm taken, 2 iff
psi; every coordinate is an integer event on it, and any other point's
image is the multilinear extension of the types' images. Observed
distributions are mixtures over U of such images, which is what makes the
convex-polytope analysis downstream exact; the distinct type images are
the VertexSet's integer rows, and its Fraction vertices are built only on
first read.

Scenarios are data: a label list and an optional target. parse_coordinate
is the one reader of the label scheme; the events, the observable point
built from data and whether psi enters all follow from its parse, so
adding a scenario means listing labels, not writing new branching code.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .forms import CoordinateSpace, Record, rational
from .polytope import VertexSet

# Entries each cache keyed on a scenario or its labels holds (here, in bounds, oracle and
# data), least recently used out first: room for the registry's five and a sweep's latest.
CACHE_SIZE = 128

_ZERO = Fraction(0)


class UnsupportedCoordinateError(ValueError):
    """A coordinate label that no scenario may use."""


class ParameterPoint(Record):
    """One value of the latent-conditional model parameters, all in [0, 1].

    eta0 and eta1 are the outcome probabilities P(C=1 | B=b, U) for b = 0
    and b = 1; the exclusion restriction makes them the same under either
    instrument arm. delta1 and delta2 are the uptake probabilities
    P(B=1 | A=a, U) for arms a = 1 and a = 2. psi is P(A=2 | U), used only
    by scenarios that model the instrument distribution itself; it
    defaults to 0 and is ignored elsewhere. A point whose parameters are
    all 0 or 1 is a response type; xi_transform maps the others.
    """

    eta0: Fraction
    eta1: Fraction
    delta1: Fraction
    delta2: Fraction
    psi: Fraction = _ZERO

    def __post_init__(self):
        for name in ("eta0", "eta1", "delta1", "delta2", "psi"):
            value = rational(getattr(self, name))
            if not 0 <= value <= 1:
                raise ValueError(f"{name} = {value} is outside [0, 1]")
            object.__setattr__(self, name, value)


class Coordinate(Record):
    """A parsed coordinate label: its kind and the indices it carries.

    kind is the observable table the label reads ("gamma", "theta", "zeta",
    "phi"), "xi" for the joint with the instrument, or "alpha" / "beta" for
    the effect differences. Indices the label does not carry are None.
    """

    kind: str
    c: int | None = None
    b: int | None = None
    a: int | None = None

    @property
    def key(self) -> tuple[int, ...]:
        """The carried indices in (c, b, a) order: the key into the kind's table."""
        return tuple(i for i in (self.c, self.b, self.a) if i is not None)


# kind -> label pattern; the groups are the indices the label carries.
_KINDS: dict[str, re.Pattern] = {
    "gamma": re.compile(r"g(?P<c>[01])(?P<a>[12])"),
    "theta": re.compile(r"t(?P<b>[01])(?P<a>[12])"),
    "zeta": re.compile(r"z(?P<c>[01])(?P<b>[01])\.(?P<a>[12])"),
    "phi": re.compile(r"p(?P<c>[01])(?P<b>[01])"),
    "xi": re.compile(r"x(?P<c>[01])(?P<b>[01])(?P<a>[12])"),
    "alpha": re.compile("alpha"),
    "beta": re.compile("beta"),
}


@lru_cache(maxsize=None)
def parse_coordinate(label: str) -> Coordinate:
    """Parse a coordinate label; the one place that knows the label scheme.

    Label scheme: g{c}{a} is P(C=c | A=a), t{b}{a} is P(B=b | A=a),
    z{c}{b}.{a} is P(C=c, B=b | A=a), p{c}{b} is P(C=c, B=b),
    x{c}{b}{a} is P(C=c, B=b, A=a), and alpha / beta are the treatment and
    assignment effect differences. Labels of shape q{c}{b}, meaning
    P(C=c | B=b), are recognised and rejected: conditioning on the
    confounded treatment does not commute with averaging over U, so an
    observed P(C | B) table is not a convex mixture of its latent
    counterparts and none of the polytope machinery applies to it.
    """
    for kind, pattern in _KINDS.items():
        m = pattern.fullmatch(label)
        if m:
            return Coordinate(kind, **{k: int(v) for k, v in m.groupdict().items()})
    if re.fullmatch(r"q([01])([01])", label):
        raise UnsupportedCoordinateError(
            f"coordinate {label!r} would be P(C|B); outcome-given-treatment tables "
            "are not mixtures over the confounder of their latent counterparts, so "
            "no convex (polytope) analysis applies to them"
        )
    raise UnsupportedCoordinateError(f"unknown coordinate label {label!r}")


class Scenario(Record):
    """A named observable coordinate system (its space has its name) with an optional target."""

    name: str
    space: CoordinateSpace
    causal_target: str | None

    def __post_init__(self):
        if self.space.name != self.name:
            raise ValueError(f"scenario {self.name!r} has a space named {self.space.name!r}")
        if not self.space.labels:
            raise ValueError(f"scenario {self.name!r} has no coordinate labels")
        for label in self.space.labels:
            parse_coordinate(label)
        if self.causal_target is not None and self.causal_target not in self.space:
            raise ValueError(f"target {self.causal_target!r} is not among the labels")

    @property
    def uses_psi(self) -> bool:
        """Whether psi enters: it does only through p and x coordinates."""
        return any(parse_coordinate(l).kind in ("phi", "xi") for l in self.space.labels)

    @property
    def observable_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.space.labels if l != self.causal_target)

    @property
    def observable_space(self) -> CoordinateSpace:
        return CoordinateSpace(f"{self.name}-observables", self.observable_labels)


def make_scenario(name: str, labels: Sequence[str], causal_target: str | None = None) -> Scenario:
    return Scenario(name, CoordinateSpace(name, tuple(labels)), causal_target)


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        make_scenario(
            "fig3",
            ["x001", "x011", "x101", "x111", "x002", "x012", "x102", "x112"],
            causal_target=None,
        ),
        make_scenario(
            "bivariate",
            ["g01", "g11", "g02", "g12", "t01", "t11", "t02", "t12", "alpha"],
            causal_target="alpha",
        ),
        make_scenario(
            "trivariate",
            ["z00.1", "z01.1", "z10.1", "z11.1", "z00.2", "z01.2", "z10.2", "z11.2", "alpha"],
            causal_target="alpha",
        ),
        make_scenario(
            "pairwise3",
            [
                "g01", "g11", "g02", "g12",
                "t01", "t11", "t02", "t12",
                "p00", "p01", "p10", "p11",
                "alpha",
            ],
            causal_target="alpha",
        ),
        make_scenario(
            "beta",
            ["t01", "t11", "t02", "t12", "beta"],
            causal_target="beta",
        ),
    )
}


def get_scenario(name: str | Scenario) -> Scenario:
    if isinstance(name, Scenario):
        return name
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


def _event(coord: Coordinate, r: tuple[int, ...]) -> int:
    """The label's value on the response type r: C(b) = r[b], B(a) = r[a + 1], arm taken 1 + r[4].

    A probability label is the indicator [B(a) = b and C(b) = c], reading b
    as B(a) where it carries no b (gamma), a as the arm taken where it
    carries no a (phi), and adding [A = a] for xi. alpha is C(1) - C(0) and
    beta is C(B(2)) - C(B(1)).
    """
    if coord.kind == "alpha":
        return r[1] - r[0]
    if coord.kind == "beta":
        return r[r[3]] - r[r[2]]
    taken = 1 + r[4]
    a = taken if coord.a is None else coord.a
    b = r[a + 1] if coord.b is None else coord.b
    return int(r[a + 1] == b and coord.c in (None, r[b]) and (coord.kind != "xi" or a == taken))


def _response_types(s: Scenario) -> list[tuple[int, ...]]:
    """The 0/1 types (eta0, eta1, delta1, delta2, psi) in counting order; psi is 0 where unused."""
    return list(itertools.product(*[(0, 1)] * 4, (0, 1) if s.uses_psi else (0,)))


@lru_cache(maxsize=CACHE_SIZE)
def _type_images(s: Scenario) -> tuple[tuple[int, ...], ...]:
    """Each response type's integer image on the labels, in type order, built by column (cached)."""
    types = _response_types(s)
    return tuple(zip(*[[_event(c, r) for r in types] for c in map(parse_coordinate, s.space.labels)]))


def xi_transform(scenario: str | Scenario, p: ParameterPoint) -> dict[str, Fraction]:
    """Image of one parameter point: the multilinear extension of the response types' images.

    Type r weighs the product of x or 1 - x, as r has a 1 or a 0 there, over
    the k free parameters x: an integer over D**k, D their common denominator.
    """
    s = get_scenario(scenario)
    fields = (p.eta0, p.eta1, p.delta1, p.delta2, p.psi)[: 5 if s.uses_psi else 4]
    d = math.lcm(*(x.denominator for x in fields))
    weights = [1]
    for x in fields:
        n = x.numerator * (d // x.denominator)
        weights = [w * y for w in weights for y in (d - n, n)]
    return {
        label: Fraction(sum(w * v for w, v in zip(weights, column) if v), d ** len(fields))
        for label, column in zip(s.space.labels, zip(*_type_images(s)))
    }


def enumerate_parameter_vertices(scenario: str | Scenario) -> tuple[ParameterPoint, ...]:
    """All 0/1 assignments of the scenario's free parameters: its response types."""
    return tuple(ParameterPoint(*r) for r in _response_types(get_scenario(scenario)))


def scenario_vertex_set(scenario: str | Scenario) -> VertexSet:
    """The response types' distinct integer images on all the scenario's labels, first seen first."""
    s = get_scenario(scenario)
    return VertexSet._unbuilt(space=s.space, _rows=([list(dict.fromkeys(_type_images(s)))], 1))
