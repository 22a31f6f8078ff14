"""Partition facet systems into model tests and causal-effect bounds, and evaluate them.

A facet of the hull of transformed parameter vertices either constrains
the observables alone (a falsification test of the model) or involves the
causal target, in which case solving for the target turns it into a sharp
lower or upper bound. Every scenario derives to a BoundSet the same way; a
scenario without a target (fig3) simply has no bounds, and all its facets
are model tests. Trivial observable facets (equivalent, modulo the
hull equalities, to a single coordinate being nonnegative) are kept apart
from the informative ones so reports mirror the usual presentation.
partition works on the hull's integer rows: it reduces them modulo the
equalities, recognises trivial facets by their primitive rows, and hands
the BoundSet its bound rows (solved for the target) and test rows on the
observable space. Its forms and constraints are views built on first read
(a hand-built one keeps its tuples and compiles rows at first use), and
evaluate_bounds and model_check are integer dot products, still exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Mapping, Sequence

from .data import ObservedTables, ValidationError, default_tolerance, observable_point
from .forms import (
    AffineForm,
    CoordinateSpace,
    IdenticallyFalse,
    LinearConstraint,
    MissingCoordinate,
    RationalLike,
    Record,
    Relation,
    canonical_row,
    constraint_from_row,
    format_rational,
    rational,
    rows_view,
)
from .introws import evaluate_rows, integer_rows, primitive
from .polytope import HRepresentation, facet_enumeration
from .scenarios import Scenario, get_scenario, scenario_vertex_set

_ZERO = Fraction(0)

# model_check's sections, in report order, and the BoundSet field of each.
_SECTIONS = (("observable", "observable_tests"), ("equality", "hull_equalities"),
             ("trivial", "trivial_tests"))


class TargetUnconstrained(ValueError):
    """No facet or equality involves the requested target coordinate."""


class BoundSet(Record):
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
    lower_forms: tuple[AffineForm, ...] = rows_view("lower")
    upper_forms: tuple[AffineForm, ...] = rows_view("upper")
    observable_tests: tuple[LinearConstraint, ...] = rows_view("observable", Relation.GEQ)
    trivial_tests: tuple[LinearConstraint, ...] = rows_view("trivial", Relation.GEQ)
    hull_equalities: tuple[LinearConstraint, ...] = rows_view("equality", Relation.EQ)

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
    def _checks(self) -> tuple[tuple[str, int, LinearConstraint], ...]:
        """ConstraintReport.entries' plan: (section, index, constraint), in report order."""
        return tuple((s, i, c) for s, f in _SECTIONS for i, c in enumerate(getattr(self, f)))

    @cached_property
    def _equalities(self) -> Sequence[int]:
        """The positions of the equalities among the "checks" (partition hands them over)."""
        return tuple(k for k, (*_, c) in enumerate(self._checks) if c.relation is Relation.EQ)

    @cached_property
    def _rows(self) -> tuple[dict[str, list[tuple[int, ...]]], int]:
        """The "lower" and "upper" forms, each section's tests and all "checks" of _checks, in
        order, as integer rows over one L > 0: the row (a..., k) is the form (a . x + k) / L."""
        forms = {"lower": self.lower_forms, "upper": self.upper_forms}
        forms.update((s, [c.form for c in getattr(self, f)]) for s, f in _SECTIONS)
        groups = [[(*f.coefficients, f.constant) for f in g] for g in forms.values()]
        rows, den = integer_rows(groups)
        rows = dict(zip(forms, rows))
        rows["checks"] = [r for s, _ in _SECTIONS for r in rows[s]]
        return rows, den


def classify_observable(
    h: HRepresentation,
) -> tuple[tuple[LinearConstraint, ...], tuple[LinearConstraint, ...]]:
    """Split facets with no target involvement into (nontrivial, trivial).

    A facet is trivial when, modulo the hull equalities, it says nothing
    more than "some coordinate is nonnegative".
    """
    (_, facets), _ = h._rows
    parts = _classify(h, [primitive(h._reduce(row)) for row in facets])
    return tuple(tuple(constraint_from_row(h.space, r, Relation.GEQ) for r in p) for p in parts)


def _classify(h: HRepresentation, rows: list[tuple[int, ...]]) -> tuple[list, list]:
    """classify_observable on primitive integer facet rows reduced modulo the equalities."""
    m = h.space.dimension
    trivial = {primitive(h._reduce((0,) * j + (1,) + (0,) * (m - j))) for j in range(m)}
    if (0,) * m + (-1,) in trivial:
        raise IdenticallyFalse("inequality reduces to -1 >= 0")
    return [r for r in rows if r not in trivial], [r for r in rows if r in trivial]


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
    keep = [j for j in range(h.space.dimension + 1) if j != ti]
    obs_labels = tuple(l for l in h.space.labels if l != target)
    space = CoordinateSpace(f"{h.space.name}-observables", obs_labels)
    (eq_rows, facet_rows), _ = h._rows

    def drop(row: Sequence[int]) -> tuple[int, ...]:  # the row without the target's column
        return tuple(map(row.__getitem__, keep))

    lower, upper, obs_only, equality = [], [], [], []
    for row in facet_rows:
        row = primitive(h._reduce(row))
        if ti is None or row[ti] == 0:
            obs_only.append(row)
        else:
            (lower if row[ti] > 0 else upper).append(row)
    for row in eq_rows:
        row = primitive(row)
        if ti is None or row[ti] == 0:
            # The target coefficient is zero, so dropping it keeps a primitive row primitive.
            equality.append(canonical_row(drop(row), Relation.EQ))
        else:
            lower.append(row)
            upper.append(row)
    observable, trivial = (
        [canonical_row(drop(r), Relation.GEQ) for r in part] for part in _classify(h, obs_only)
    )

    if target is not None and not lower and not upper:
        if target not in ("alpha", "beta"):
            raise TargetUnconstrained(f"no facet or equality involves {target!r}")
        # target + 1 >= 0 and 1 - target >= 0 solve to the trivial range [-1, 1].
        unit = [int(j == ti) for j in range(h.space.dimension)]
        lower.append(unit + [1])
        upper.append([-v for v in unit] + [1])

    # A primitive row = 0 solves to target = -drop(row) / c, c = row[ti], in lowest terms
    # over |c|. Over den, a multiple of every such |c|, it is drop(row) * (-den // c).
    den = lcm(*(abs(row[ti]) for row in lower + upper))
    rows = {
        name: [tuple(map((-den // row[ti]).__mul__, drop(row))) for row in solved]
        for name, solved in (("lower", lower), ("upper", upper))
    }
    for name, tests in (("observable", observable), ("equality", equality), ("trivial", trivial)):
        rows[name] = tests if den == 1 else [tuple(v * den for v in r) for r in tests]
    rows["checks"] = [r for s, _ in _SECTIONS for r in rows[s]]
    at = len(observable)
    return BoundSet._unbuilt(scenario=h.space.name, target=target, space=space, _rows=(rows, den),
                             _equalities=range(at, at + len(equality)))


@lru_cache(maxsize=None)
def scenario_hull(name: str | Scenario, include_target: bool = True) -> HRepresentation:
    """Facet system of a scenario's vertex images (cached), given by name or as a Scenario."""
    scenario = get_scenario(name)
    return facet_enumeration(scenario_vertex_set(scenario, include_target=include_target))


@lru_cache(maxsize=None)
def derive(name: str | Scenario) -> BoundSet:
    """Full pipeline for a scenario, by name or as a Scenario: vertices, hull, partition (cached).

    Every scenario derives; one without a causal target gets a BoundSet
    with target None, no bound forms and all facets as model tests.
    """
    return partition(scenario_hull(name), get_scenario(name).causal_target)


class Interval(Record):
    """The bound interval at one data point, with binding-form witnesses."""

    lower: Fraction
    upper: Fraction
    lower_witness: int
    upper_witness: int
    empty: bool

    def __init__(self, lower, upper, lower_witness, upper_witness, empty):
        self.__dict__.update(lower=lower, upper=upper, lower_witness=lower_witness,
                             upper_witness=upper_witness, empty=empty)


def evaluate_bounds(
    bs: BoundSet, data: ObservedTables | Mapping[str, RationalLike]
) -> Interval:
    """Evaluate all bound forms at a data point and take max/min.

    Ties keep the earliest form in the deterministic derivation order.
    An inverted interval is flagged empty, not raised: emptiness is a
    statement about the data, not a usage error. A BoundSet without a
    target raises TargetUnconstrained.
    """
    return interval_and_fit(bs, data, ())[0]


def interval_and_fit(
    bs: BoundSet, data: ObservedTables | Mapping, sections: Sequence[str] = ("checks",)
) -> tuple[Interval, bool]:
    """evaluate_bounds and whether model_check passes at tolerance 0, from one numerator pass.

    Raises what evaluate_bounds and then model_check would, in that order.
    oracle.cross_check reads both through it; it stays out of the package API.
    """
    if bs.target is None:
        raise TargetUnconstrained(f"scenario {bs.scenario!r} has no causal target to bound")
    (lows, highs, *slacks), den = _numerators(bs, ("lower", "upper", *sections), data)
    return _interval(lows, highs, den), all(_shortfall(bs, s) == 0 for s in slacks)


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


def _shortfall(bs: BoundSet, slacks: Sequence[int]) -> int:
    """How far the worst of model_check's constraints misses, over the slacks' denominator.

    An inequality with slack n misses by -n and an equality by |n|; 0 when all hold.
    """
    return max(0, -min(slacks, default=0), *(abs(slacks[k]) for k in bs._equalities))


class CheckEntry(Record):
    section: str
    index: int
    constraint: LinearConstraint
    slack: Fraction
    passed: bool

    def __init__(self, section, index, constraint, slack, passed):
        self.__dict__.update(
            section=section, index=index, constraint=constraint, slack=slack, passed=passed
        )


class ConstraintReport(Record):
    """model_check's result. Its entries, one Fraction slack each, are built at first read."""

    scenario: str
    tolerance: Fraction
    entries: tuple[CheckEntry, ...]  # a field; the cached_property below serves lazy reports
    passed: bool

    @cached_property
    def entries(self) -> tuple[CheckEntry, ...]:
        bs, slacks, den = self._slacks
        bar, scale = self.tolerance.numerator * den, self.tolerance.denominator
        eqs = bs._equalities
        # slack n / den passes if >= -tol, or if |slack| <= tol for an equality
        return tuple(
            CheckEntry(name, i, con, Fraction(n, den), (abs(n) if k in eqs else -n) * scale <= bar)
            for k, ((name, i, con), n) in enumerate(zip(bs._checks, slacks))
        )

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)


def model_check(
    bs: BoundSet,
    data: ObservedTables | Mapping[str, RationalLike],
    tolerance: RationalLike | None = None,
) -> ConstraintReport:
    """Exact falsification check of the observable constraints.

    Every observable test, hull equality and trivial constraint is
    evaluated at the data point; inequalities pass with slack >= -tol,
    equalities with |slack| <= tol. passed is decided on integers; the
    report's entries are built only when read.
    """
    tol = default_tolerance(data, tolerance)
    (slacks,), den = _numerators(bs, ("checks",), data)
    passed = _shortfall(bs, slacks) * tol.denominator <= tol.numerator * den
    return ConstraintReport._unbuilt(
        scenario=bs.scenario, tolerance=tol, passed=passed, _slacks=(bs, slacks, den)
    )


class InstrumentalReport(Record):
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
    tol = default_tolerance(data, tolerance)
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
    try:
        t01, t02, t11, t12 = (point[label] for label in ("t01", "t02", "t11", "t12"))
    except KeyError as exc:
        raise MissingCoordinate(exc.args[0]) from None
    return _interval([-t01 - t02, -t11 - t12], [t01 + t02, t11 + t12])
