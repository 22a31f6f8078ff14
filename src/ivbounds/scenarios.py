"""Built-in binary instrumental-variable scenarios and their observable transforms.

The model has a binary instrument A (arms 1 and 2), binary treatment B,
binary outcome C and an arbitrary confounder U acting on B and C but not
on A. Conditional on U the model is parameterised by five probabilities
(see ParameterPoint). Each scenario names the observable coordinates that
a study reports, plus optionally a causal target coordinate; the scenario
transform maps a parameter point to that coordinate vector. Observed
distributions are mixtures over U of transformed parameter points, which
is what makes the convex-polytope analysis downstream exact. Every
parameter vertex is 0/1, so scenario_vertex_set runs the transforms on
ints and hands the distinct int images to the VertexSet as the integer
rows facet_enumeration reads; its Fraction vertices are built only on
first read.

Scenarios are data: a label list and an optional target. parse_coordinate
is the one reader of the label scheme; the transforms, the observable
point built from data and whether psi enters all follow from its parse,
so adding a scenario means listing labels, not writing new branching code.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .forms import CoordinateSpace, Record, rational
from .polytope import VertexSet

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
    defaults to 0 and is ignored elsewhere.
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


def _delta(p: ParameterPoint, a: int) -> Fraction:
    return p.delta1 if a == 1 else p.delta2


def _eta(p: ParameterPoint, b: int) -> Fraction:
    return p.eta1 if b == 1 else p.eta0


def _gamma_star(p: ParameterPoint, c: int, a: int) -> Fraction:
    d = _delta(p, a)
    hit = p.eta0 * (1 - d) + p.eta1 * d
    return hit if c == 1 else 1 - hit


def _theta_star(p: ParameterPoint, b: int, a: int) -> Fraction:
    d = _delta(p, a)
    return d if b == 1 else 1 - d


def _zeta_star(p: ParameterPoint, c: int, b: int, a: int) -> Fraction:
    e = _eta(p, b)
    return _theta_star(p, b, a) * (e if c == 1 else 1 - e)


def _phi_star(p: ParameterPoint, c: int, b: int) -> Fraction:
    return _zeta_star(p, c, b, 1) * (1 - p.psi) + _zeta_star(p, c, b, 2) * p.psi


def _xi_star(p: ParameterPoint, c: int, b: int, a: int) -> Fraction:
    return _zeta_star(p, c, b, a) * (p.psi if a == 2 else 1 - p.psi)


def _alpha_star(p: ParameterPoint) -> Fraction:
    return p.eta1 - p.eta0


def _beta_star(p: ParameterPoint) -> Fraction:
    return _gamma_star(p, 1, 2) - _gamma_star(p, 1, 1)


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


# kind -> (label pattern, transform). A transform takes a parameter point,
# then the indices the label carries in Coordinate.key order.
_KINDS: dict[str, tuple[re.Pattern, Callable[..., Fraction]]] = {
    "gamma": (re.compile(r"g(?P<c>[01])(?P<a>[12])"), _gamma_star),
    "theta": (re.compile(r"t(?P<b>[01])(?P<a>[12])"), _theta_star),
    "zeta": (re.compile(r"z(?P<c>[01])(?P<b>[01])\.(?P<a>[12])"), _zeta_star),
    "phi": (re.compile(r"p(?P<c>[01])(?P<b>[01])"), _phi_star),
    "xi": (re.compile(r"x(?P<c>[01])(?P<b>[01])(?P<a>[12])"), _xi_star),
    "alpha": (re.compile("alpha"), _alpha_star),
    "beta": (re.compile("beta"), _beta_star),
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
    for kind, (pattern, _) in _KINDS.items():
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


@lru_cache(maxsize=None)
def coordinate_function(label: str) -> Callable[[ParameterPoint], Fraction]:
    """Map a coordinate label (see parse_coordinate) to its transform on parameter points."""
    coord = parse_coordinate(label)
    fn, key = _KINDS[coord.kind][1], coord.key
    return (lambda p: fn(p, *key)) if key else fn


class Scenario(Record):
    """A named observable coordinate system with an optional causal target."""

    name: str
    space: CoordinateSpace
    causal_target: str | None

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


def make_scenario(
    name: str,
    labels: Sequence[str],
    causal_target: str | None = None,
) -> Scenario:
    for label in labels:
        parse_coordinate(label)
    if causal_target is not None and causal_target not in labels:
        raise ValueError(f"target {causal_target!r} is not among the labels")
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


def xi_transform(scenario: str | Scenario, p: ParameterPoint) -> dict[str, Fraction]:
    """Image of one parameter point in the scenario's coordinate space."""
    s = get_scenario(scenario)
    return {label: coordinate_function(label)(p) for label in s.space.labels}


# A 0/1 parameter vertex on plain ints, which the transforms read as a ParameterPoint.
_Bits = namedtuple("_Bits", "eta0 eta1 delta1 delta2 psi", defaults=(0,))


def _vertex_bits(s: Scenario) -> list[_Bits]:
    """All 0/1 assignments of the scenario's free parameters; psi stays 0 where unused."""
    return [_Bits(*bits) for bits in itertools.product((0, 1), repeat=5 if s.uses_psi else 4)]


def enumerate_parameter_vertices(scenario: str | Scenario) -> tuple[ParameterPoint, ...]:
    """All 0/1 assignments of the scenario's free parameters."""
    return tuple(ParameterPoint(*bits) for bits in _vertex_bits(get_scenario(scenario)))


@lru_cache(maxsize=None)
def scenario_vertex_set(scenario: str | Scenario, include_target: bool = True) -> VertexSet:
    """Distinct images of the parameter vertices under the scenario transform (cached).

    The images are computed on ints and deduplicated in first-seen order;
    they are the VertexSet's integer rows.
    """
    s = get_scenario(scenario)
    space = s.space if include_target or s.causal_target is None else s.observable_space
    fns = [coordinate_function(label) for label in space.labels]
    images = dict.fromkeys(tuple(f(p) for f in fns) for p in _vertex_bits(s))
    return VertexSet._unbuilt(space=space, _rows=([list(images)], 1))
