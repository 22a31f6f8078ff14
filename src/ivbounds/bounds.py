"""Partition facet systems into model tests and causal-effect bounds, and evaluate them.

A facet of the hull of transformed parameter vertices either constrains
the observables alone (a falsification test of the model) or involves the
causal target, in which case solving for the target turns it into a sharp
lower or upper bound; the scenario names its target, which its hull, a
polytope, bounds from both sides. Every scenario derives to a BoundSet the
same way; a scenario without a target (fig3) simply has no bounds, and all
its facets are model tests. Trivial observable facets (equivalent, modulo
the hull equalities, to a single coordinate being nonnegative) are kept
apart from the informative ones so reports mirror the usual presentation.
partition works on the hull's integer rows: it reads the facet rows
reduced modulo the equalities, recognises trivial facets by their primitive
rows, and hands the BoundSet its bound rows (solved for the target) and test
rows on the observable space. Its forms and constraints are views built on
first read. Only partition (and so derive) builds a BoundSet. A test's
relation comes from its section: an observable or trivial test is a >= 0
and a hull equality an = 0 constraint. evaluate_bounds and model_check stay
exact on integers: the rows each reads are packed once per BoundSet
(introws.PackedRows) and evaluated at the point that data.integer_point
reads from the tables' integer cells.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import lcm
from typing import Mapping, Sequence

from .data import ObservedTables, ValidationError, default_tolerance, integer_point
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
    format_ratio,
    render_row,
    rows_view,
)
from .introws import PackedRows, picker, primitive
from .polytope import HRepresentation, facet_enumeration
from .scenarios import CACHE_SIZE, Scenario, get_scenario, scenario_vertex_set

# zeta's labels as instrumental_inequality reads them: for each b, for each c, both arms.
_ZETA_BY_B = tuple(f"z{c}{b}.{a}" for b in (0, 1) for c in (0, 1) for a in (1, 2))

# Each _rows group: the BoundSet field that is its view and the relation to 0 that the group
# fixes for all its rows (None: a bound form). The tests' groups are model_check's sections.
_GROUPS = {"lower": ("lower_forms", None), "upper": ("upper_forms", None),
           "observable": ("observable_tests", Relation.GEQ),
           "equality": ("hull_equalities", Relation.EQ), "trivial": ("trivial_tests", Relation.GEQ)}
_SECTIONS = tuple(_GROUPS)[2:]  # in report order


def _view(group: str):
    """The BoundSet field that views ``group``."""
    return rows_view(group, _GROUPS[group][1])


class TargetUnconstrained(ValueError):
    """A causal effect was asked of a scenario without a causal target."""


class BoundSet(Record):
    """Bounds on one target plus the observable constraints beside them.

    lower_forms and upper_forms are affine functions of the observables:
    target >= each lower form and target <= each upper form. A scenario
    without a causal target has target None and no forms. All forms and
    constraints are reduced modulo the hull equalities, so two expressions
    that agree on every model-consistent table compare equal. partition
    returns it with _rows: each _GROUPS group's rows over one denominator.
    """

    _built_by = ("partition", "derive")

    scenario: str
    target: str | None
    space: CoordinateSpace
    lower_forms: tuple[AffineForm, ...] = _view("lower")
    upper_forms: tuple[AffineForm, ...] = _view("upper")
    observable_tests: tuple[LinearConstraint, ...] = _view("observable")
    trivial_tests: tuple[LinearConstraint, ...] = _view("trivial")
    hull_equalities: tuple[LinearConstraint, ...] = _view("equality")

    def to_json_dict(self) -> dict:
        (rows, den), labels = self._rows, self.space.labels

        def row_dicts(group: str) -> list[dict]:
            r = _GROUPS[group][1]
            return [{"coeffs": {lab: format_ratio(c, den) for lab, c in zip(labels, a) if c},
                     "const": format_ratio(k, den), **({} if r is None else {"relation": r.value})}
                    for *a, k in rows[group]]

        return {
            "scenario": self.scenario,
            "target": self.target,
            "labels": list(labels),
            "lower": row_dicts("lower"),
            "upper": row_dicts("upper"),
            "observable_tests": row_dicts("observable"),
            "trivial_tests": row_dicts("trivial"),
            "hull_equalities": row_dicts("equality"),
        }

    def render(self, group: str) -> list[str]:
        """Each "lower", "upper", "observable", "trivial" or "equality" row as its view renders."""
        rows, den = self._rows
        return [render_row(self.space.labels, row, den, _GROUPS[group][1]) for row in rows[group]]

    @cached_property
    def _packed(self) -> dict[tuple[str, ...], PackedRows]:
        """The groups that each evaluation reads together, packed at its first read."""
        return {}


def classify_observable(
    h: HRepresentation,
) -> tuple[tuple[LinearConstraint, ...], tuple[LinearConstraint, ...]]:
    """Split facets with no target involvement into (nontrivial, trivial).

    A facet is trivial when, modulo the hull equalities, it says nothing
    more than "some coordinate is nonnegative".
    """
    parts = _classify(h, h._rows[0][1])
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
    contributes one matched lower/upper pair. So a target gets both sides:
    h is a polytope, the hull of finitely many points, with no recession
    direction, so a target that no equality involves is bounded by a facet
    on each side. With no target, every facet is a model test. A coordinate
    that the hull fixes below 0 raises IdenticallyFalse. Lifted facet rows
    need no reduction: the chart's pivot columns are the complement of the
    equalities' trailing coordinates.
    """
    ti = None if target is None else h.space.index(target)
    drop = picker([j for j in range(h.space.dimension + 1) if j != ti])  # all but the target
    obs_labels = tuple(l for l in h.space.labels if l != target)
    space = CoordinateSpace(f"{h.space.name}-observables", obs_labels)

    lower, upper, obs_only, equality = [], [], [], []
    for row in h._rows[0][1]:  # the facet rows, reduced
        if ti is None or row[ti] == 0:
            obs_only.append(row)
        else:
            (lower if row[ti] > 0 else upper).append(row)
    for row in h._rows[0][0]:  # the equality rows, each primitive
        if ti is None or row[ti] == 0:
            # The target coefficient is zero, so dropping it keeps a primitive row primitive.
            equality.append(canonical_row(drop(row), Relation.EQ))
        else:
            lower.append(row)
            upper.append(row)
    observable, trivial = ([canonical_row(drop(r), Relation.GEQ) for r in part]
                           for part in _classify(h, obs_only))

    # A primitive row = 0 solves to target = -drop(row) / c, c = row[ti], in lowest terms
    # over |c|. Over den, a multiple of every such |c|, it is drop(row) * (-den // c).
    den = lcm(*(abs(row[ti]) for row in lower + upper))
    rows = {
        name: [tuple(map((-den // row[ti]).__mul__, drop(row))) for row in solved]
        for name, solved in (("lower", lower), ("upper", upper))
    }
    for name, tests in (("observable", observable), ("equality", equality), ("trivial", trivial)):
        rows[name] = tests if den == 1 else [tuple(v * den for v in r) for r in tests]
    return BoundSet._unbuilt(scenario=h.space.name, target=target, space=space, _rows=(rows, den))


def _per_scenario(fn):
    """Cache fn on the resolved Scenario, which fn is given: a name and its Scenario share one entry.
    The cache holds CACHE_SIZE scenarios, least recently used out first; see cache_info()."""
    cached = lru_cache(maxsize=CACHE_SIZE)(fn)
    wrapper = wraps(fn)(lambda scenario, *a, **kw: cached(get_scenario(scenario), *a, **kw))
    wrapper.cache_info = cached.cache_info
    return wrapper


@_per_scenario
def scenario_hull(scenario: str | Scenario) -> HRepresentation:
    """Facets of the hull of scenario_vertex_set (cached), given by name or as a Scenario."""
    return facet_enumeration(scenario_vertex_set(scenario))


@_per_scenario
def derive(scenario: str | Scenario) -> BoundSet:
    """Full pipeline for a scenario, by name or as a Scenario: vertices, hull, partition (cached).

    Every scenario derives; one without a causal target gets a BoundSet
    with target None, no bound forms and all facets as model tests.
    """
    return partition(scenario_hull(scenario), scenario.causal_target)


class Interval(Record):
    """The bound interval at one data point, with binding-form witnesses."""

    lower: Fraction
    upper: Fraction
    lower_witness: int
    upper_witness: int
    empty: bool


def evaluate_bounds(bs: BoundSet, data: ObservedTables | Mapping[str, RationalLike]) -> Interval:
    """Evaluate all bound forms at a data point and take max/min.

    Ties keep the earliest form in the deterministic derivation order.
    An inverted interval is flagged empty, not raised: emptiness is a
    statement about the data, not a usage error. A BoundSet without a
    target raises TargetUnconstrained. Fit is not checked: at data that
    fails a model test the interval may be nonempty yet bound nothing;
    model_check tells.
    """
    return interval_and_fit(bs, data, ())[0]


def interval_and_fit(
    bs: BoundSet, data: ObservedTables | Mapping, sections: Sequence[str] = _SECTIONS,
    tolerance: RationalLike | None = 0,
) -> tuple[Interval, bool, tuple[list[int], int, list[int]]]:
    """evaluate_bounds, whether model_check passes at tolerance (one numerator pass for both;
    True with sections ()) and the point (xs, d, absent) that integer_point read, for cross_check
    (at tolerance 0) and the CLI's bound (at model_check's default, tolerance None).

    Raises what evaluate_bounds and then model_check would, in that order; not package API.
    """
    if bs.target is None:
        raise TargetUnconstrained(f"scenario {bs.scenario!r} has no causal target to bound")
    point = integer_point(bs.space.labels, data)
    (lows, highs, *slacks), den = _numerators(bs, ("lower", "upper", *sections), point)
    miss = _shortfall(slacks)
    if miss:  # decided as model_check decides it
        tol = default_tolerance(data, tolerance)
        miss = miss * tol.denominator > tol.numerator * den
    return _interval(lows, highs, den), not miss, point


def _interval(lows: Sequence[int], highs: Sequence[int], den: int = 1) -> Interval:
    """[max(lows), min(highs)], each over den > 0; ties keep the earliest form."""
    lo, hi = max(lows), min(highs)
    return Interval._unbuilt(lower=Fraction(lo, den), upper=Fraction(hi, den),
                             lower_witness=lows.index(lo), upper_witness=highs.index(hi), empty=lo > hi)


def _numerators(
    bs: BoundSet, names: tuple[str, ...], point: tuple[list[int], int, list[int]]
) -> tuple[list[tuple[int, ...]], int]:
    """Every form of the named lists at integer_point's point, as numerators over one denominator.

    Raises what evaluating each form in turn would, such as MissingCoordinate for an absent
    used label.
    """
    xs, d, absent = point
    if absent:
        rows = bs._rows[0]
        for j in (j for name in names for row in rows[name] for j in absent if row[j]):
            raise MissingCoordinate(bs.space.labels[j])
    packed = bs._packed.get(names) or bs._packed.setdefault(
        names, PackedRows([bs._rows[0][name] for name in names]))
    return packed.evaluate([*xs, d]), bs._rows[1] * d


def _shortfall(slacks: Sequence[Sequence[int]]) -> int:
    """How far the worst of model_check's constraints misses, from each section's slacks (or none)
    over one denominator: an inequality's slack n by -n, an equality's by |n|; 0 if all hold."""
    worst, eq = 0, Relation.EQ
    for name, ns in zip(_SECTIONS, slacks):
        if ns:
            miss = max(map(abs, ns)) if _GROUPS[name][1] is eq else -min(ns)
            worst = miss if miss > worst else worst
    return worst


class CheckEntry(Record):
    section: str
    index: int
    constraint: LinearConstraint  # a field; model_check's entries read it off the checked BoundSet
    slack: Fraction
    passed: bool

    @cached_property
    def constraint(self) -> LinearConstraint:
        return getattr(self._bs, _GROUPS[self.section][0])[self.index]


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
        # slack n / den passes if >= -tol, or if |slack| <= tol for an equality
        return tuple(
            CheckEntry._unbuilt(
                section=name, index=i, slack=Fraction(n, den), _bs=bs,
                passed=(abs(n) if _GROUPS[name][1] is Relation.EQ else -n) * scale <= bar)
            for name, ns in zip(_SECTIONS, slacks) for i, n in enumerate(ns)
        )

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)


def model_check(bs: BoundSet, data: ObservedTables | Mapping[str, RationalLike],
                tolerance: RationalLike | None = None) -> ConstraintReport:
    """Exact falsification check of the observable constraints.

    Every observable test, hull equality and trivial constraint is
    evaluated at the data point; inequalities pass with slack >= -tol,
    equalities with |slack| <= tol. passed is decided on integers; the
    report's entries are built only when read.
    """
    tol = default_tolerance(data, tolerance)
    slacks, den = _numerators(bs, _SECTIONS, integer_point(bs.space.labels, data))
    passed = _shortfall(slacks) * tol.denominator <= tol.numerator * den
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
    data: ObservedTables | Mapping[str, RationalLike], tolerance: RationalLike | None = None
) -> InstrumentalReport:
    """max_b sum_c max_a P(C=c, B=b | A=a) <= 1, the classic necessary test; needs every zeta label."""
    try:
        z, d, absent = integer_point(_ZETA_BY_B, data)
    except ValidationError:  # tables without zeta
        raise ValidationError("the instrumental inequality needs a zeta table") from None
    if absent:
        raise MissingCoordinate(_ZETA_BY_B[absent[0]])
    tol = default_tolerance(data, tolerance)
    sums = [max(z[k], z[k + 1]) + max(z[k + 2], z[k + 3]) for k in (0, 4)]
    top = max(sums)
    return InstrumentalReport(
        b_sums=(Fraction(sums[0], d), Fraction(sums[1], d)),
        maximum=Fraction(top, d),
        tolerance=tol,
        passed=top * tol.denominator <= (tol.denominator + tol.numerator) * d,
    )


def beta_bounds(data: ObservedTables | Mapping[str, RationalLike]) -> Interval:
    """Closed-form sharp bounds on the assignment effect from theta alone.

    max(-t01 - t02, -t11 - t12) <= beta <= min(t01 + t02, t11 + t12).
    """
    labels = ("t01", "t02", "t11", "t12")
    (t01, t02, t11, t12), d, absent = integer_point(labels, data)
    if absent:
        raise MissingCoordinate(labels[absent[0]])
    return _interval([-t01 - t02, -t11 - t12], [t01 + t02, t11 + t12], d)
