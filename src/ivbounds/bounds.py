"""Partition facet systems into model tests and causal-effect bounds, and evaluate them.

A facet of the hull of transformed parameter vertices either constrains
the observables alone (a falsification test of the model) or involves the
causal target, in which case solving for the target turns it into a sharp
lower or upper bound. Every scenario derives to a BoundSet the same way; a
scenario without a target (fig3) simply has no bounds, and all its facets
are model tests. Trivial observable facets (equivalent, modulo the
hull equalities, to a single coordinate being nonnegative) are kept apart
from the informative ones so reports mirror the usual presentation.
At its first evaluation a BoundSet is compiled to integer rows, so that
evaluate_bounds and model_check are integer dot products, still exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .data import DECIMAL_TOLERANCE, ObservedTables, ValidationError, observable_point
from .forms import (
    AffineForm,
    CoordinateSpace,
    LinearConstraint,
    MissingCoordinate,
    RationalLike,
    Relation,
    canonicalize,
    format_rational,
    rational,
)
from .introws import evaluate_rows, integer_rows
from .polytope import HRepresentation, facet_enumeration, reduce_mod_equalities
from .scenarios import get_scenario, scenario_vertex_set

_ZERO = Fraction(0)

# model_check's sections, in report order, and the BoundSet field of each.
_SECTIONS = (("observable", "observable_tests"), ("equality", "hull_equalities"),
             ("trivial", "trivial_tests"))


class TargetUnconstrained(ValueError):
    """No facet or equality involves the requested target coordinate."""


@dataclass(frozen=True)
class BoundSet:
    """Bounds on one target plus the observable constraints beside them.

    lower_forms and upper_forms are affine functions of the observables:
    target >= each lower form and target <= each upper form. A scenario
    without a causal target has target None and no forms. All forms and
    constraints are reduced modulo the hull equalities, so two expressions
    that agree on every model-consistent table compare equal.
    """

    scenario: str
    target: str | None
    space: CoordinateSpace
    lower_forms: tuple[AffineForm, ...]
    upper_forms: tuple[AffineForm, ...]
    observable_tests: tuple[LinearConstraint, ...]
    trivial_tests: tuple[LinearConstraint, ...]
    hull_equalities: tuple[LinearConstraint, ...]

    def to_json_dict(self) -> dict:
        def form_dict(f: AffineForm) -> dict:
            return {
                "coeffs": {lab: format_rational(c) for lab, c in f.as_dict().items()},
                "const": format_rational(f.constant),
            }

        def con_list(cons: Sequence[LinearConstraint]) -> list[dict]:
            return [dict(form_dict(c.form), relation=c.relation.value) for c in cons]

        return {
            "scenario": self.scenario,
            "target": self.target,
            "labels": list(self.space.labels),
            "lower": [form_dict(f) for f in self.lower_forms],
            "upper": [form_dict(f) for f in self.upper_forms],
            "observable_tests": con_list(self.observable_tests),
            "trivial_tests": con_list(self.trivial_tests),
            "hull_equalities": con_list(self.hull_equalities),
        }

    @cached_property
    def _rows(self) -> tuple[dict[str, list[tuple[int, ...]]], int]:
        """Each form list ("lower", "upper", a section) as integer rows over one L > 0.

        The row (a..., k) is the form (a . x + k) / L. Built at first use, not in derive.
        """
        lists = {"lower": self.lower_forms, "upper": self.upper_forms}
        lists.update((s, [c.form for c in getattr(self, f)]) for s, f in _SECTIONS)
        groups = [[(*f.coefficients, f.constant) for f in fs] for fs in lists.values()]
        rows, den = integer_rows(groups)
        return dict(zip(lists, rows)), den


def classify_observable(
    h: HRepresentation,
) -> tuple[tuple[LinearConstraint, ...], tuple[LinearConstraint, ...]]:
    """Split facets with no target involvement into (nontrivial, trivial).

    A facet is trivial when, modulo the hull equalities, it says nothing
    more than "some coordinate is nonnegative".
    """
    reduced = [reduce_mod_equalities(f.form, h.equalities) for f in h.facets]
    return _classify(h.space, h.equalities, reduced)


def _classify(space: CoordinateSpace, equalities: tuple, reduced: list) -> tuple[tuple, tuple]:
    """classify_observable for facet forms already reduced modulo the equalities."""
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
    """Split an H-representation into observable tests and target bounds.

    Facets with positive target coefficient become lower bounds on the
    target, negative ones upper bounds; target-free facets become model
    tests. A hull equality involving the target is solved for it and
    contributes one matched lower/upper pair. If nothing mentions the
    target at all, effect-difference targets (alpha, beta) fall back to
    their trivial range [-1, 1]; any other target raises
    TargetUnconstrained. With no target, every facet is a model test.
    """
    ti = None if target is None else h.space.index(target)
    obs_labels = tuple(l for l in h.space.labels if l != target)
    obs_space = CoordinateSpace(f"{h.space.name}-observables", obs_labels)

    def target_coefficient(form: AffineForm) -> Fraction:
        return _ZERO if ti is None else form.coefficients[ti]

    def to_obs(con: LinearConstraint) -> LinearConstraint:
        # Dropping a coordinate with zero coefficient keeps a canonical
        # constraint canonical.
        form = con.form
        assert target_coefficient(form) == 0
        coeffs = form.coefficients
        if ti is not None:
            coeffs = coeffs[:ti] + coeffs[ti + 1 :]
        return LinearConstraint(AffineForm(obs_space, coeffs, form.constant), con.relation)

    def solve_for_target(form: AffineForm) -> AffineForm:
        # form = 0  <=>  target = -(form - c * target) / c
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

    nontrivial, trivial = _classify(h.space, h.equalities, obs_only)

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


@lru_cache(maxsize=None)
def scenario_hull(name: str, include_target: bool = True) -> HRepresentation:
    """Facet system of a named scenario's vertex images (cached)."""
    scenario = get_scenario(name)
    return facet_enumeration(scenario_vertex_set(scenario, include_target=include_target))


@lru_cache(maxsize=None)
def derive(name: str) -> BoundSet:
    """Full pipeline for a named scenario: vertices, hull, partition (cached).

    Every scenario derives; one without a causal target gets a BoundSet
    with target None, no bound forms and all facets as model tests.
    """
    return partition(scenario_hull(name), get_scenario(name).causal_target)


@dataclass(frozen=True)
class Interval:
    """The bound interval at one data point, with binding-form witnesses."""

    lower: Fraction
    upper: Fraction
    lower_witness: int
    upper_witness: int
    empty: bool


def evaluate_bounds(
    bs: BoundSet, data: ObservedTables | Mapping[str, RationalLike]
) -> Interval:
    """Evaluate all bound forms at a data point and take max/min.

    Ties keep the earliest form in the deterministic derivation order.
    An inverted interval is flagged empty, not raised: emptiness is a
    statement about the data, not a usage error. A BoundSet without a
    target raises TargetUnconstrained.
    """
    if bs.target is None:
        raise TargetUnconstrained(f"scenario {bs.scenario!r} has no causal target to bound")
    (lows, highs), den = _numerators(bs, ("lower", "upper"), data)
    return _interval(lows, highs, den)


def _interval(lows: list, highs: list, den: int = 1) -> Interval:
    """[max(lows), min(highs)], each over den > 0; ties keep the earliest form."""
    lo, hi = max(lows), min(highs)
    return Interval(Fraction(lo, den), Fraction(hi, den), lows.index(lo), highs.index(hi), lo > hi)


def _numerators(
    bs: BoundSet, names: Sequence[str], data: ObservedTables | Mapping[str, RationalLike]
) -> tuple[list[list[int]], int]:
    """Every form of the named lists at the data point, as numerators over one denominator.

    evaluate_rows scales the point to integers once for all of them. Raises what
    evaluating each form in turn would, such as MissingCoordinate for an absent used label.
    """
    labels = bs.space.labels
    point = observable_point(labels, data)
    values, unusable = [], []
    for j, label in enumerate(labels):
        try:
            values.append(rational(point[label]))
        except (KeyError, TypeError, ValueError):
            values.append(_ZERO)
            unusable.append(j)
    rows, den = bs._rows
    for j in (j for name in names for row in rows[name] for j in unusable if row[j]):
        if labels[j] not in point:
            raise MissingCoordinate(labels[j])
        rational(point[labels[j]])  # raises this value's own error
    numerators, scale = evaluate_rows([rows[name] for name in names], values)
    return numerators, den * scale


@dataclass(frozen=True)
class CheckEntry:
    section: str
    index: int
    constraint: LinearConstraint
    slack: Fraction
    passed: bool


@dataclass(frozen=True)
class ConstraintReport:
    scenario: str
    tolerance: Fraction
    entries: tuple[CheckEntry, ...]
    passed: bool

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)


def default_tolerance(data: ObservedTables | Mapping) -> Fraction:
    """Zero for exact input; a half-unit in the fourth decimal for rounded tables."""
    if isinstance(data, ObservedTables) and data.decimal_input:
        return DECIMAL_TOLERANCE
    return _ZERO


def model_check(
    bs: BoundSet,
    data: ObservedTables | Mapping[str, RationalLike],
    tolerance: RationalLike | None = None,
) -> ConstraintReport:
    """Exact falsification check of the observable constraints.

    Every observable test, hull equality and trivial constraint is
    evaluated at the data point; inequalities pass with slack >= -tol,
    equalities with |slack| <= tol.
    """
    tol = default_tolerance(data) if tolerance is None else rational(tolerance)
    slacks, den = _numerators(bs, [name for name, _ in _SECTIONS], data)
    entries: list[CheckEntry] = []
    for (name, field), numerators in zip(_SECTIONS, slacks):
        for i, (con, n) in enumerate(zip(getattr(bs, field), numerators)):
            # slack n / den passes if >= -tol, or if |slack| <= tol for an equality
            shortfall = abs(n) if con.relation is Relation.EQ else -n
            ok = shortfall * tol.denominator <= tol.numerator * den
            entries.append(CheckEntry(name, i, con, Fraction(n, den), ok))
    return ConstraintReport(
        scenario=bs.scenario,
        tolerance=tol,
        entries=tuple(entries),
        passed=all(e.passed for e in entries),
    )


@dataclass(frozen=True)
class InstrumentalReport:
    """Per-treatment-arm sums of the instrumental inequality."""

    b_sums: tuple[Fraction, Fraction]
    maximum: Fraction
    tolerance: Fraction
    passed: bool


def instrumental_inequality(
    data: ObservedTables, tolerance: RationalLike | None = None
) -> InstrumentalReport:
    """max_b sum_c max_a P(C=c, B=b | A=a) <= 1, the classic necessary test."""
    if data.zeta is None:
        raise ValidationError("the instrumental inequality needs a zeta table")
    tol = default_tolerance(data) if tolerance is None else rational(tolerance)
    sums = []
    for b in (0, 1):
        total = _ZERO
        for c in (0, 1):
            total += max(data.zeta[(c, b, 1)], data.zeta[(c, b, 2)])
        sums.append(total)
    maximum = max(sums)
    return InstrumentalReport(
        b_sums=(sums[0], sums[1]),
        maximum=maximum,
        tolerance=tol,
        passed=maximum <= 1 + tol,
    )


def beta_bounds(data: ObservedTables | Mapping[str, RationalLike]) -> Interval:
    """Closed-form sharp bounds on the assignment effect from theta alone.

    max(-t01 - t02, -t11 - t12) <= beta <= min(t01 + t02, t11 + t12).
    """
    point = observable_point(get_scenario("beta").observable_labels, data)
    t01, t11 = point["t01"], point["t11"]
    t02, t12 = point["t02"], point["t12"]
    return _interval([-t01 - t02, -t11 - t12], [t01 + t02, t11 + t12])
