"""Partition of facet systems into tests and bounds, and their evaluation.

The fixture lists below are the published bound expressions for the
bivariate and trivariate observable schemes (the trivariate ones agree
with Balke and Pearl 1997). Derived and fixture forms are compared as
sets after reduction modulo the hull equalities, which makes the
comparison independent of which representative of each bound the
derivation happens to print.
"""

import inspect
import json
import random
import tempfile
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivbounds.bounds import (
    BoundSet,
    CheckEntry,
    ConstraintReport,
    Interval,
    TargetUnconstrained,
    beta_bounds,
    classify_observable,
    default_tolerance,
    derive,
    evaluate_bounds,
    instrumental_inequality,
    interval_and_fit,
    model_check,
    partition,
    scenario_hull,
)
from ivbounds.data import (
    ValidationError,
    build_tables,
    derive_marginals,
    integer_point,
    load,
    observable_point,
)
from ivbounds.forms import (
    AffineForm,
    CoordinateSpace,
    LinearConstraint,
    IdenticallyFalse,
    MissingCoordinate,
    Relation,
    canonicalize,
    rational,
)
from ivbounds.introws import integer_rows
from ivbounds.polytope import VertexSet, facet_enumeration, reduce_mod_equalities
from ivbounds.scenarios import SCENARIOS, get_scenario, make_scenario

import reference
from sampling import observable_vertex_set

GOLDEN = Path(__file__).resolve().parent / "golden"

BIVARIATE_LOWER = [
    "2*g01 - g02 + 2*t01 - 3",
    "g01 + t01 - 2",
    "g02 + t02 - 2",
    "-g01 + 2*g02 + 2*t02 - 3",
    "-g01 + g02 - t01 + t02 - 1",
    "-g01 - t01",
    "-g02 - t02",
    "g01 - 2*g02 - 2*t02",
    "-2*g01 + g02 - 2*t01",
    "g01 - g02 + t01 - t02 - 1",
]
BIVARIATE_UPPER = [
    "-2*g01 + g02 + 2*t01 + 1",
    "g01 - 2*g02 + 2*t02 + 1",
    "2*g01 - g02 - 2*t01 + 2",
    "-g01 + 2*g02 - 2*t02 + 2",
    "g01 - g02 - t01 + t02 + 1",
    "-g02 + t02 + 1",
    "g01 - t01 + 1",
    "g02 - t02 + 1",
    "-g01 + t01 + 1",
    "-g01 + g02 + t01 - t02 + 1",
]
BIVARIATE_TESTS = [
    "t01 + t02 - g01 + g02",
    "t01 + t02 + g01 - g02",
    "t11 + t12 - g01 + g02",
    "t11 + t12 + g01 - g02",
]

TRIVARIATE_LOWER = [
    "z00.1 + z11.2 - 1",
    "z11.1 + z00.2 - 1",
    "-z01.1 - z10.1 + z11.1 - z10.2 - z11.2",
    "-z10.1 - z11.1 - z01.2 - z10.2 + z11.2",
    "-z01.1 - z10.1",
    "-z01.2 - z10.2",
    "-z00.1 - z01.1 + z00.2 - z01.2 - z10.2",
    "z00.1 - z01.1 - z10.1 - z00.2 - z01.2",
]
TRIVARIATE_UPPER = [
    "1 - z10.1 - z01.2",
    "1 - z01.1 - z10.2",
    "z00.1 - z01.1 + z11.1 + z00.2 + z01.2",
    "z00.1 + z01.1 - z01.2 + z00.2 + z11.2",
    "z00.1 + z11.1",
    "z00.2 + z11.2",
    "z10.1 + z11.1 + z00.2 + z11.2 - z10.2",
    "z00.1 - z10.1 + z11.1 + z10.2 + z11.2",
]
TRIVARIATE_TESTS = [
    "1 - z00.1 - z10.2",
    "1 - z10.1 - z00.2",
    "1 - z11.1 - z01.2",
    "1 - z01.1 - z11.2",
]


def reduced_form_keys(bs: BoundSet, forms):
    out = set()
    for f in forms:
        red = reduce_mod_equalities(f, bs.hull_equalities)
        out.add(canonicalize(LinearConstraint(red, Relation.GEQ)).form)
    return out


def reduced_string_keys(bs: BoundSet, strings):
    return reduced_form_keys(bs, [reference.form(bs.space, s) for s in strings])


def reduced_constraint_keys(bs: BoundSet, cons):
    return reduced_form_keys(bs, [c.form for c in cons])


_COIN = st.booleans()
_ENTRY = st.integers(-2, 2)


@st.composite
def vertex_sets(draw, with_alpha=False):
    """1-8 points with entries -2..2 over 1-4 coordinates x0, x1, ... (and alpha, at a random
    place, if asked); in about half the sets one coordinate is fixed, maybe below 0."""
    labels = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    if with_alpha:
        labels.insert(draw(st.integers(0, len(labels))), "alpha")
    m = len(labels)
    points = draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=1, max_size=8))
    if draw(_COIN):
        j, x = draw(st.integers(0, m - 1)), draw(_ENTRY)
        for p in points:
            p[j] = x
    return VertexSet.from_points(CoordinateSpace("random", tuple(labels)), points)


def fixed_values(vs):
    """The value of each coordinate that all of the set's vertices share."""
    first = vs.vertices[0]
    return [x for j, x in enumerate(first) if all(v[j] == x for v in vs.vertices)]


class TestDerivedCounts:
    @pytest.mark.parametrize(
        "name,lower,upper,observable,trivial,eqs",
        [
            ("bivariate", 10, 10, 4, 8, 4),
            ("trivariate", 8, 8, 4, 8, 2),
            ("pairwise3", 37, 37, 56, 12, 5),
            ("beta", 2, 2, 0, 4, 2),
        ],
    )
    def test_partition_counts(self, name, lower, upper, observable, trivial, eqs):
        bs = derive(name)
        assert len(bs.lower_forms) == lower
        assert len(bs.upper_forms) == upper
        assert len(bs.observable_tests) == observable
        assert len(bs.trivial_tests) == trivial
        assert len(bs.hull_equalities) == eqs

    def test_hull_dimensions(self):
        assert scenario_hull("fig3").affine_dimension == 7
        assert scenario_hull("bivariate").affine_dimension == 5
        assert facet_enumeration(observable_vertex_set("bivariate")).affine_dimension == 4
        assert scenario_hull("trivariate").affine_dimension == 7
        assert scenario_hull("pairwise3").affine_dimension == 8
        assert scenario_hull("beta").affine_dimension == 3

    def test_fig3_hull_is_a_simplex(self):
        h = scenario_hull("fig3")
        assert len(h.equalities) == 1
        assert len(h.facets) == 8
        nontrivial, trivial = classify_observable(h)
        assert not nontrivial
        assert len(trivial) == 8

    def test_target_solved_out_everywhere(self):
        for name in ("bivariate", "trivariate", "pairwise3", "beta"):
            bs = derive(name)
            assert bs.target not in bs.space
            for f in bs.lower_forms + bs.upper_forms:
                assert f.space is bs.space
            for c in bs.observable_tests + bs.trivial_tests + bs.hull_equalities:
                assert c.form.space.labels == bs.space.labels

    def test_a_name_and_its_scenario_share_one_cached_derivation(self):
        """Both caches were once keyed on the argument as given, so these were two derivations."""
        s = get_scenario("pairwise3")
        twin = make_scenario(s.name, s.space.labels, s.causal_target)
        assert twin is not s
        assert derive("pairwise3") is derive(s) is derive(twin)
        assert scenario_hull("pairwise3") is scenario_hull(s) is scenario_hull(twin)
        assert scenario_hull("bivariate") is scenario_hull(get_scenario("bivariate"))

    def test_the_cached_functions_show_and_take_what_callers_pass(self):
        assert str(inspect.signature(derive)) == "(scenario: 'str | Scenario') -> 'BoundSet'"
        assert str(inspect.signature(scenario_hull)) == "(scenario: 'str | Scenario') -> 'HRepresentation'"
        s = get_scenario("trivariate")
        assert derive(scenario=s) is derive("trivariate")
        assert scenario_hull(scenario="trivariate").facets == scenario_hull(s).facets

    def test_derive_fig3_has_no_target(self):
        bs = derive("fig3")
        assert bs.target is None
        assert bs.lower_forms == bs.upper_forms == ()
        assert bs.observable_tests == ()
        assert len(bs.trivial_tests) == 8
        assert len(bs.hull_equalities) == 1
        assert bs.space.labels == SCENARIOS["fig3"].space.labels
        with pytest.raises(TargetUnconstrained):
            evaluate_bounds(bs, load("lipid"))


class TestPublishedForms:
    def test_bivariate_bound_lists(self):
        bs = derive("bivariate")
        assert reduced_form_keys(bs, bs.lower_forms) == reduced_string_keys(bs, BIVARIATE_LOWER)
        assert reduced_form_keys(bs, bs.upper_forms) == reduced_string_keys(bs, BIVARIATE_UPPER)

    def test_bivariate_observable_tests(self):
        bs = derive("bivariate")
        assert reduced_constraint_keys(bs, bs.observable_tests) == reduced_string_keys(
            bs, BIVARIATE_TESTS
        )

    def test_trivariate_bound_lists(self):
        bs = derive("trivariate")
        assert reduced_form_keys(bs, bs.lower_forms) == reduced_string_keys(bs, TRIVARIATE_LOWER)
        assert reduced_form_keys(bs, bs.upper_forms) == reduced_string_keys(bs, TRIVARIATE_UPPER)

    def test_trivariate_observable_tests(self):
        bs = derive("trivariate")
        assert reduced_constraint_keys(bs, bs.observable_tests) == reduced_string_keys(
            bs, TRIVARIATE_TESTS
        )

    def test_absolute_value_formulation_is_equivalent(self):
        """|g01 - g02| <= t01 + t02 <= 2 - |g01 - g02| as four constraints.

        Same accept/reject behavior as the derived observable tests on any
        point of the equality surface, including violating ones.
        """
        import random

        bs = derive("bivariate")
        rng = random.Random(11)
        for _ in range(200):
            g01 = Fraction(rng.randint(0, 20), 20)
            g02 = Fraction(rng.randint(0, 20), 20)
            t01 = Fraction(rng.randint(0, 20), 20)
            t02 = Fraction(rng.randint(0, 20), 20)
            point = {
                "g01": g01, "g11": 1 - g01, "g02": g02, "g12": 1 - g02,
                "t01": t01, "t11": 1 - t01, "t02": t02, "t12": 1 - t02,
            }
            vec = bs.space.vector(point)
            derived_ok = all(c.form.evaluate_vector(vec) >= 0 for c in bs.observable_tests)
            gap = abs(g01 - g02)
            published_ok = gap <= t01 + t02 <= 2 - gap
            assert derived_ok == published_ok


class TestEvaluate:
    @pytest.mark.parametrize(
        "dataset,scenario,lo,hi",
        [
            ("lipid", "trivariate", Fraction(49, 125), Fraction(39, 50)),
            ("lipid", "bivariate", Fraction(48, 125), Fraction(853, 1000)),
            ("lipid", "pairwise3", Fraction(97, 250), Fraction(851, 1000)),
            ("vitamin-a", "trivariate", Fraction(-973, 5000), Fraction(27, 5000)),
            ("vitamin-a", "bivariate", Fraction(-987, 5000), Fraction(4, 625)),
            ("vitamin-a", "pairwise3", Fraction(-987, 5000), Fraction(59, 10000)),
        ],
    )
    def test_bundled_intervals_exact(self, dataset, scenario, lo, hi):
        iv = evaluate_bounds(derive(scenario), load(dataset))
        assert iv.lower == lo
        assert iv.upper == hi
        assert not iv.empty

    def test_witnesses_actually_bind(self):
        bs = derive("trivariate")
        t = load("lipid")
        iv = evaluate_bounds(bs, t)
        vec = bs.space.vector(observable_point(bs.space.labels, t))
        assert bs.lower_forms[iv.lower_witness].evaluate_vector(vec) == iv.lower
        assert bs.upper_forms[iv.upper_witness].evaluate_vector(vec) == iv.upper

    def test_tie_breaks_to_lowest_index(self):
        # v >= u and v >= -u meet at u = 0
        vs = VertexSet.from_points(CoordinateSpace("toy", ("u", "v")), [(0, 0), (1, 1), (-1, 1)])
        bs = partition(facet_enumeration(vs), "v")
        assert [f.evaluate_vector((0,)) for f in bs.lower_forms] == [0, 0]
        iv = evaluate_bounds(bs, {"u": 0})
        assert iv.lower_witness == 0

    def test_degenerate_bivariate_data(self):
        # C identically 0 and B identically 0 in both arms: the effect of
        # treatment on the untreated is pinned at 0 but nothing is learned
        # about the treated response.
        point = {"g01": 1, "g11": 0, "g02": 1, "g12": 0,
                 "t01": 1, "t11": 0, "t02": 1, "t12": 0}
        iv = evaluate_bounds(derive("bivariate"), point)
        assert (iv.lower, iv.upper) == (0, 1)

    def test_empty_interval_flagged_not_raised(self):
        bad = build_tables(zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]})
        iv = evaluate_bounds(derive("trivariate"), bad)
        assert iv.empty
        assert iv.lower > iv.upper


class TestModelCheck:
    def test_bundled_data_passes_all_scenarios(self):
        for dataset in ("lipid", "vitamin-a"):
            t = load(dataset)
            for name in ("bivariate", "trivariate", "pairwise3", "beta"):
                report = model_check(derive(name), t)
                assert report.passed, (dataset, name, report.failures())

    def test_default_tolerance_follows_input_kind(self):
        t = load("lipid")
        assert model_check(derive("trivariate"), t).tolerance == Fraction(1, 2000)
        exact = build_tables(zeta={
            "a1": ["1/2", "0", "1/2", "0"], "a2": ["1/4", "1/4", "1/4", "1/4"],
        })
        assert model_check(derive("trivariate"), exact).tolerance == 0

    def test_explicit_tolerance_wins(self):
        report = model_check(derive("trivariate"), load("lipid"), "1/10")
        assert report.tolerance == Fraction(1, 10)

    def test_sections_are_separated(self):
        report = model_check(derive("trivariate"), load("lipid"))
        sections = {e.section for e in report.entries}
        assert sections == {"observable", "equality", "trivial"}
        observable = [e for e in report.entries if e.section == "observable"]
        assert len(observable) == 4

    def test_fabricated_bivariate_failure(self):
        # everyone recovers under arm 1, nobody under arm 2, nobody treated:
        # the instrument changes the outcome without touching treatment
        point = {"g01": 1, "g11": 0, "g02": 0, "g12": 1,
                 "t01": 1, "t11": 0, "t02": 1, "t12": 0}
        report = model_check(derive("bivariate"), point, 0)
        assert not report.passed
        failing = report.failures()
        assert failing
        assert all(e.section == "observable" for e in failing)

    def test_near_miss_passes_within_tolerance(self):
        point = {"g01": 1, "g11": 0, "g02": "0.9996", "g12": "0.0004",
                 "t01": 1, "t11": 0, "t02": 1, "t12": 0}
        assert not model_check(derive("bivariate"), point, 0).passed
        assert model_check(derive("bivariate"), point, "1/2000").passed

    def test_accepts_raw_hull(self):
        report = model_check(derive("fig3"), load("lipid"))
        assert report.passed
        assert report.scenario == "fig3"
        assert {e.section for e in report.entries} == {"equality", "trivial"}

    def test_equality_slack_uses_absolute_value(self):
        point = {"g01": "0.6", "g11": "0.5", "g02": "0.5", "g12": "0.5",
                 "t01": "0.5", "t11": "0.5", "t02": "0.5", "t12": "0.5"}
        report = model_check(derive("bivariate"), point, "1/100")
        eq_failures = [e for e in report.failures() if e.section == "equality"]
        assert eq_failures
        assert eq_failures[0].slack == Fraction(1, 10)


class TestInstrumental:
    def test_lipid_values(self):
        rep = instrumental_inequality(load("lipid"))
        assert rep.b_sums == (1, Fraction(153, 250))
        assert rep.maximum == 1
        assert rep.passed

    def test_vitamin_a_values(self):
        rep = instrumental_inequality(load("vitamin-a"))
        assert rep.b_sums == (1, Fraction(4, 5))
        assert rep.passed

    def test_deterministic_contradiction_fails(self):
        # arm 1 shows everyone untreated with C=0, arm 2 everyone untreated
        # with C=1; both cannot come from one confounder distribution
        bad = build_tables(zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]})
        rep = instrumental_inequality(bad)
        assert rep.b_sums == (2, 0)
        assert not rep.passed

    def test_needs_zeta(self):
        from ivbounds.data import ValidationError

        with pytest.raises(ValidationError, match="^the instrumental inequality needs a zeta"):
            instrumental_inequality(build_tables(theta={"a1": ["1", "0"], "a2": ["0", "1"]}))

    def test_a_mapping_without_a_zeta_label_names_the_first_missing(self):
        """Absent labels were once read as 0, so {"z00.1": 1} passed."""
        with pytest.raises(MissingCoordinate) as exc:
            instrumental_inequality({"z00.1": 1})
        assert exc.value.args == ("z00.2",)
        order = ("z00.1", "z00.2", "z10.1", "z10.2", "z01.1", "z01.2", "z11.1", "z11.2")
        point = observable_point(order, load("lipid"))
        assert instrumental_inequality(point, 0) == instrumental_inequality(load("lipid"), 0)
        for k, label in enumerate(order):
            partial = {lab: v for lab, v in point.items() if lab not in order[k::3]}
            assert outcome(instrumental_inequality, partial) == ("MissingCoordinate", label)


class TestBeta:
    def test_closed_form_examples(self):
        lipid = beta_bounds({"t01": 1, "t11": 0, "t02": "0.388", "t12": "0.612"})
        assert (lipid.lower, lipid.upper) == (Fraction(-153, 250), Fraction(153, 250))
        vita = beta_bounds({"t01": 1, "t11": 0, "t02": "0.2", "t12": "0.8"})
        assert (vita.lower, vita.upper) == (Fraction(-4, 5), Fraction(4, 5))
        flat = beta_bounds({"t01": "1/2", "t11": "1/2", "t02": "1/2", "t12": "1/2"})
        assert (flat.lower, flat.upper) == (-1, 1)

    def test_closed_form_equals_polytope_derivation(self):
        import random

        bs = derive("beta")
        rng = random.Random(3)
        for _ in range(100):
            t01 = Fraction(rng.randint(0, 12), 12)
            t02 = Fraction(rng.randint(0, 12), 12)
            point = {"t01": t01, "t11": 1 - t01, "t02": t02, "t12": 1 - t02}
            closed = beta_bounds(point)
            derived = evaluate_bounds(bs, point)
            assert (closed.lower, closed.upper) == (derived.lower, derived.upper)

    def test_accepts_tables(self):
        bb = beta_bounds(load("lipid"))
        assert bb.upper == Fraction(153, 250)

    def test_missing_label_raises_like_the_derived_forms(self):
        # The closed form reads all four labels, the derived forms only t01 and t02;
        # where both raise MissingCoordinate they name the same label.
        from itertools import combinations

        point = {"t01": 1, "t11": 0, "t02": "0.388", "t12": "0.612"}
        for k in range(1, 5):
            for absent in combinations(point, k):
                partial = {lab: v for lab, v in point.items() if lab not in absent}
                first = next(lab for lab in ("t01", "t02", "t11", "t12") if lab in absent)
                assert outcome(beta_bounds, partial) == ("MissingCoordinate", first)
                derived = outcome(evaluate_bounds, derive("beta"), partial)
                assert derived == ("MissingCoordinate", first) or first in ("t11", "t12")


class TestPartitionFallback:
    def test_equality_involving_target_becomes_matched_pair(self):
        # the points lie on alpha = t01, 0 <= t01 <= 1
        h = facet_enumeration(VertexSet.from_points(CoordinateSpace("tied", ("t01", "alpha")),
                                                    [(0, 0), (1, 1)]))
        assert [c.render() for c in h.equalities] == ["t01 - alpha = 0"]
        bs = partition(h, "alpha")
        assert len(bs.lower_forms) == 1 and len(bs.upper_forms) == 1
        assert bs.lower_forms[0] == bs.upper_forms[0]
        iv = evaluate_bounds(bs, {"t01": "1/3"})
        assert iv.lower == iv.upper == Fraction(1, 3)

    def test_every_target_of_a_hull_is_bounded_on_both_sides(self):
        """A polytope has no recession direction, and a hull equality that involves the target
        gives a matched pair, so each target of a hull has lower and upper forms; a hull that
        fixes a coordinate below 0 raises IdenticallyFalse instead. The forms bound the target
        of every vertex at its observable point."""
        counts = Counter()

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(vertex_sets())
        @example(VertexSet.from_points(CoordinateSpace("random", ("x0", "x1", "x2")),
                                       [(-1, 0, 0), (-1, 1, 1), (-1, 0, 1)]))
        def check(vs):
            h, negative = facet_enumeration(vs), any(x < 0 for x in fixed_values(vs))
            for ti, target in enumerate(vs.space.labels):
                if negative:
                    with pytest.raises(IdenticallyFalse, match="^inequality reduces to -1 >= 0$"):
                        partition(h, target)
                    counts["identically false"] += 1
                    continue
                bs = partition(h, target)
                assert bs.lower_forms and bs.upper_forms
                counts["bounded"] += 1
                if any(row[ti] for row in h._rows[0][0]):  # an equality involves the target
                    assert set(bs.lower_forms) & set(bs.upper_forms)
                    counts["matched pair"] += 1
                for v in vs.vertices:
                    iv = evaluate_bounds(bs, dict(zip(bs.space.labels, v[:ti] + v[ti + 1:])))
                    assert iv.lower <= v[ti] <= iv.upper

        check()
        assert counts.keys() == {"identically false", "bounded", "matched pair"}, counts


# Reference evaluation, one Fraction per coefficient per form: what
# evaluate_bounds and model_check computed before they ran on a BoundSet's
# compiled integer rows. Both must agree with it exactly, exceptions included.


def value(form: AffineForm, point) -> Fraction:
    """The form at a label mapping, which may lack the labels the form does not use."""
    unused = {lab: 0 for lab, c in zip(form.space.labels, form.coefficients) if not c}
    return form.evaluate_vector(form.space.vector({**unused, **point}))


def reference_interval(bs: BoundSet, data) -> Interval:
    point = observable_point(bs.space.labels, data)
    lows = [value(f, point) for f in bs.lower_forms]
    highs = [value(f, point) for f in bs.upper_forms]
    lo, hi = max(lows), min(highs)
    return Interval(lo, hi, lows.index(lo), highs.index(hi), lo > hi)


def reference_report(bs: BoundSet, data, tolerance=None) -> ConstraintReport:
    tol = default_tolerance(data) if tolerance is None else rational(tolerance)
    point = observable_point(bs.space.labels, data)
    entries = []
    for section, cons in (
        ("observable", bs.observable_tests),
        ("equality", bs.hull_equalities),
        ("trivial", bs.trivial_tests),
    ):
        for i, con in enumerate(cons):
            s = value(con.form, point)
            ok = abs(s) <= tol if con.relation is Relation.EQ else s >= -tol
            entries.append(CheckEntry(section, i, con, s, ok))
    return ConstraintReport(bs.scenario, tol, tuple(entries), all(e.passed for e in entries))


def outcome(fn, *args):
    """The result, or the exception's type and label/message, for comparison."""
    try:
        return fn(*args)
    except MissingCoordinate as exc:
        return ("MissingCoordinate", exc.label)
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


TARGETED = ("bivariate", "trivariate", "pairwise3", "beta")

_values = st.fractions(min_value=-2, max_value=2, max_denominator=60)


def _point(labels):
    return st.fixed_dictionaries({label: _values for label in labels})


def _assert_compiled_matches_reference(bs, data, tolerance=None):
    assert evaluate_bounds(bs, data) == reference_interval(bs, data)
    assert model_check(bs, data, tolerance) == reference_report(bs, data, tolerance)


class TestCompiledEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(TARGETED), data=st.data())
    def test_random_rational_points(self, name, data):
        bs = derive(name)
        point = data.draw(_point(bs.space.labels))
        _assert_compiled_matches_reference(bs, point)
        # a tolerance equal to some slack's magnitude puts entries exactly at +-tol
        slacks = [e.slack for e in reference_report(bs, point).entries]
        tol = abs(data.draw(st.sampled_from(slacks)))
        _assert_compiled_matches_reference(bs, point, tol)
        if tol:
            with pytest.raises(ValidationError, match="is negative"):
                model_check(bs, point, -tol)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(TARGETED),
        zeta=st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4), min_size=2, max_size=2),
        weight=st.integers(1, 9999),
    )
    @example(name="trivariate", zeta=[[1, 0, 0, 0], [0, 0, 1, 0]], weight=5000)
    def test_decimal_tables(self, name, zeta, weight):
        # four-decimal rows that sum to 1 when their weights allow it
        def decimal(units):
            return f"{units // 10000}.{units % 10000:04d}"

        def row(ws):
            total = sum(ws) or 1
            cells = [w * 10000 // total for w in ws]
            cells[0] += 10000 - sum(cells)
            return [decimal(c) for c in cells]

        tables = derive_marginals(build_tables(
            zeta={"a1": row(zeta[0]), "a2": row(zeta[1])},
            arm_weights=[decimal(weight), decimal(10000 - weight)],
            decimal_input=True,
        ))
        assert tables.decimal_input
        _assert_compiled_matches_reference(derive(name), tables)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(TARGETED), data=st.data())
    def test_absent_labels(self, name, data):
        # an absent label is fine unless a form uses it; then both raise
        # MissingCoordinate with the same label
        bs = derive(name)
        point = data.draw(_point(bs.space.labels))
        for label in data.draw(st.sets(st.sampled_from(bs.space.labels))):
            del point[label]
        assert outcome(evaluate_bounds, bs, point) == outcome(reference_interval, bs, point)
        assert outcome(model_check, bs, point) == outcome(reference_report, bs, point)

    @settings(max_examples=50, deadline=None)
    @given(vs=vertex_sets(), data=st.data())
    def test_fractional_forms_with_ties(self, vs, data):
        # derived registry forms have integer coefficients; a random hull's have denominators
        # where a facet's target coefficient is not +-1, and tie at a vertex's observable
        # point, where several are tight; equalities as well as inequalities, each in its section
        labels = vs.space.labels
        ti = data.draw(st.integers(0, len(labels) - 1))
        try:
            bs = partition(facet_enumeration(vs), labels[ti])
        except IdenticallyFalse:  # a coordinate fixed below 0
            return
        vertices = [dict(zip(bs.space.labels, v[:ti] + v[ti + 1:])) for v in vs.vertices]
        point = data.draw(st.one_of(_point(bs.space.labels), st.sampled_from(vertices)))
        tol = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        _assert_compiled_matches_reference(bs, point, tol)
        assert_prints_like_its_views(bs)

    def test_empty_interval_matches_reference(self):
        bad = derive_marginals(build_tables(
            zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]},
            arm_weights=["1/2", "1/2"],
        ))
        for name in ("bivariate", "trivariate", "pairwise3"):
            assert evaluate_bounds(derive(name), bad).empty
            _assert_compiled_matches_reference(derive(name), bad)

    def test_missing_used_label_is_named(self):
        bs = derive("bivariate")
        point = {"g01": 1, "g11": 0, "g02": 1, "g12": 0, "t01": 1, "t11": 0, "t12": 0}
        with pytest.raises(MissingCoordinate) as exc:
            evaluate_bounds(bs, point)
        assert exc.value.label == "t02"

    def test_partition_hands_over_rows_that_evaluation_keeps(self):
        bs = partition(scenario_hull("trivariate"), "alpha")
        rows = vars(bs)["_rows"]
        evaluate_bounds(bs, load("lipid"))
        model_check(bs, load("vitamin-a"))
        assert vars(bs)["_rows"] is rows


def _check_tables():
    """Exact, decimal, failing and inconsistent tables, with arm weights for every scenario."""
    exact = derive_marginals(build_tables(
        zeta={"a1": ["1/2", "1/8", "1/4", "1/8"], "a2": ["1/3", "1/6", "1/6", "1/3"]},
        arm_weights=["2/5", "3/5"],
    ))
    decimal = derive_marginals(load("lipid"))
    failing = derive_marginals(build_tables(
        zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]},
        arm_weights=["1/2", "1/2"],
    ))
    # a label mapping: exact's values, but gamma, theta and phi contradict zeta, so hull
    # equalities fail (tables that build_tables or load return never do)
    labels = sorted({label for name in TARGETED for label in derive(name).space.labels})
    point = observable_point(labels, exact)
    inconsistent = {**point, "g01": Fraction(1, 2), "g11": Fraction(1, 2),
                    "t01": point["t01"] + Fraction(1, 7), "p00": point["p00"] + Fraction(1, 7)}
    return {"exact": exact, "decimal": decimal, "failing": failing, "inconsistent": inconsistent}


CHECK_TOLERANCES = (None, 0, "1/2000", "1/" + "9" * 100)


class TestLazyReport:
    """model_check decides passed on integers and builds its entries at first read."""

    @pytest.mark.parametrize("tolerance", CHECK_TOLERANCES)
    @pytest.mark.parametrize("name", TARGETED)
    def test_reports_equal_the_reference(self, name, tolerance):
        outcomes = set()
        for tables in _check_tables().values():
            report = model_check(derive(name), tables, tolerance)
            expected = reference_report(derive(name), tables, tolerance)
            assert report.passed == expected.passed
            assert report == expected
            assert report.failures() == expected.failures()
            outcomes.add(report.passed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name", TARGETED)
    def test_checking_a_partitioned_set_builds_no_constraints(self, name):
        # passed and the fit need only the rows partition hands over: each section fixes its relation
        views = {"observable_tests", "hull_equalities", "trivial_tests"}
        for tables in _check_tables().values():
            bs = partition(scenario_hull(name), get_scenario(name).causal_target)
            expected = reference_report(derive(name), tables)
            assert model_check(bs, tables).passed == expected.passed
            assert evaluate_bounds(bs, tables) == reference_interval(derive(name), tables)
            fit = interval_and_fit(bs, tables)[1]
            assert fit == reference_report(derive(name), tables, 0).passed
            assert not views & vars(bs).keys()
        bs = partition(scenario_hull(name), get_scenario(name).causal_target)
        bs.observable_tests  # one view read leaves the others unbuilt
        model_check(bs, tables)
        assert not {"hull_equalities", "trivial_tests"} & vars(bs).keys()

    @pytest.mark.parametrize("case", ["exact", "decimal", "failing", "inconsistent"])
    def test_unread_report_compares_as_the_eager_one(self, case):
        tables, bs = _check_tables()[case], derive("pairwise3")
        read = model_check(bs, tables)
        eager = ConstraintReport(read.scenario, read.tolerance, read.entries, read.passed)
        for compare in (repr, hash, lambda r: r):
            fresh = model_check(bs, tables)
            assert "entries" not in vars(fresh)
            assert compare(fresh) == compare(eager)

    def test_entries_are_built_at_first_read_and_kept(self):
        report = model_check(derive("bivariate"), load("lipid"))
        assert report.passed and "entries" not in vars(report)
        entries = report.entries
        assert vars(report)["entries"] is entries and report.entries is entries
        assert len(entries) == 16 and all(e.passed for e in entries)


@st.composite
def studies(draw):
    """A JSON-shaped study and whether its cells are rounded decimals.

    Exact cells are n/q, decimal ones four places (eight for a phi made from
    zeta and the arm weights). zeta is always given, arm weights and each of
    gamma, theta and phi (from zeta) maybe; the arms may be equal, which the
    model always fits. One cell may then be moved: slightly (a rounding error
    for decimal input), far (a contradiction or a block that does not sum to
    1) or out of [0, 1].
    """
    decimal = draw(st.booleans())
    unit = 10000 if decimal else draw(st.sampled_from([6, 35, 97]))

    def text(n, scale=unit):
        if not decimal:
            return f"{n}/{scale}"
        whole, part = divmod(abs(n), scale)
        return f"{'-' if n < 0 else ''}{whole}.{part:0{len(str(scale)) - 1}d}"

    def row(k):  # k nonnegative counts of unit that sum to unit
        cuts = sorted(draw(st.lists(st.integers(0, unit), min_size=k - 1, max_size=k - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, unit])]

    z1 = row(4)
    z2 = list(z1) if draw(st.booleans()) else row(4)
    cells = {"zeta": {"a1": z1, "a2": z2}}
    weights = row(2) if draw(st.booleans()) else None
    if weights:
        cells["arm_weights"] = weights
    for name in sorted(draw(st.sets(st.sampled_from(["gamma", "theta", "phi"])))):
        if name == "gamma":
            cells[name] = {f"a{a}": [z[0] + z[1], z[2] + z[3]] for a, z in ((1, z1), (2, z2))}
        elif name == "theta":
            cells[name] = {f"a{a}": [z[0] + z[2], z[1] + z[3]] for a, z in ((1, z1), (2, z2))}
        elif weights:
            cells[name] = [z1[k] * weights[0] + z2[k] * weights[1] for k in range(4)]
    raw = {
        name: {arm: [text(n) for n in r] for arm, r in t.items()} if isinstance(t, dict)
        else [text(n, unit * unit if name == "phi" else unit) for n in t]
        for name, t in cells.items()
    }
    move = draw(st.sampled_from([0, 0, 1, -1, unit // 20, -unit]))
    if move:  # onto one cell, and maybe off another of its row, keeping the row's sum
        name = draw(st.sampled_from(sorted(cells)))
        values = raw[name] if isinstance(raw[name], list) else raw[name][draw(st.sampled_from(["a1", "a2"]))]
        scale = unit * unit if name == "phi" else unit
        shifts = [move, -move][: draw(st.integers(1, 2))]
        for k, shift in zip(draw(st.permutations(range(len(values)))), shifts):
            q = rational(values[k])
            values[k] = text(q.numerator * (scale // q.denominator) + shift * (scale // unit), scale)
    return raw, decimal


def _analysis(tables):
    """What the study path answers on the tables, errors included, scenario by scenario."""
    out = [outcome(instrumental_inequality, tables), outcome(beta_bounds, tables)]
    for name in SCENARIOS:
        bs = derive(name)
        out.append(outcome(model_check, bs, tables))
        if bs.target is not None:
            out.append(outcome(evaluate_bounds, bs, tables))
    return out


def _reference_analysis(t, decimal):
    """_analysis on the Fraction path: reference tables, points and forms."""
    tol = Fraction(1, 2000) if decimal else Fraction(0)
    out = [outcome(reference.instrumental, t, tol), outcome(reference.beta_interval, t)]
    for name in SCENARIOS:
        bs = derive(name)
        out.append(outcome(lambda: reference_report(bs, reference.point(bs.space.labels, t), tol)))
        if bs.target is not None:
            out.append(outcome(lambda: reference_interval(bs, reference.point(bs.space.labels, t))))
    return out


_TABLES = ("zeta", "gamma", "theta", "phi", "arm_weights")


class TestIntegerTables:
    """load keeps a study's cells as integers; the study path answers as the Fraction path."""

    @settings(max_examples=80, deadline=None)
    @given(studies())
    def test_loaded_tables_analyse_as_the_fraction_path(self, study):
        raw, decimal = study
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "study.json"
            path.write_text(json.dumps(raw))
            loaded = outcome(load, path)
        expected = outcome(reference.tables, raw, decimal)
        if not isinstance(expected, dict):  # a table the validation refuses
            assert loaded == expected
            return
        assert loaded.decimal_input is decimal
        # Absent tables raise (ValidationError, MissingArmWeights) as the Fraction path does.
        assert _analysis(loaded) == _reference_analysis(expected, decimal)
        derived, filled = derive_marginals(loaded), reference.derive_marginals(expected)
        assert _analysis(derived) == _reference_analysis(filled, decimal)
        # The Fraction views, read last, are the reference's tables.
        for tables, t in ((loaded, expected), (derived, filled)):
            assert {n: getattr(tables, n) for n in _TABLES} == {n: t.get(n) for n in _TABLES}

    @pytest.mark.parametrize("source", ["lipid", "vitamin-a", "lipid-zeta.csv"])
    def test_analysis_builds_no_fraction_table(self, source):
        path = source if "." not in source else GOLDEN / "cli" / source
        loaded = load(path)
        for tables in (loaded, derive_marginals(loaded)):
            _analysis(tables)
            outcome(observable_point, derive("pairwise3").space.labels, tables)
            assert vars(tables).keys() == {"_cells", "decimal_input"}
            zeta = tables.zeta  # a view is built at its first read and kept
            assert vars(tables)["zeta"] is zeta and tables.zeta is zeta
            assert not {"gamma", "theta", "phi", "arm_weights"} & vars(tables).keys()

    @pytest.mark.parametrize("name", ["bivariate", "trivariate", "pairwise3", "beta"])
    def test_evaluation_compiles_only_the_groups_it_reads(self, name):
        """Each evaluation packs (compiles) the groups it reads together, and no others."""
        bs, lipid = derive(name), load("lipid")
        point = integer_point(bs.space.labels, lipid)
        expected = evaluate_bounds(bs, lipid), True, point
        assert model_check(bs, lipid).passed
        assert interval_and_fit(bs, lipid) == expected
        assert bs._packed.keys() == {_GROUPS[:2], _GROUPS[2:], _GROUPS}
        xs = [*point[0], point[1]]
        for names, packed in bs._packed.items():
            groups = [bs._rows[0][name] for name in names]
            assert packed.evaluate(xs) == [tuple(sum(map(mul, r, xs)) for r in g) for g in groups]
            assert 64 in packed._lanes  # lipid's point fits 64-bit lanes

    @pytest.mark.parametrize("name", ["pairwise3", "fig3"])
    def test_exact_weighted_study_evaluates_in_64_bit_lanes(self, name):
        """zeta over about 3 * 10**9, as in the benchmark's exact weighted studies. An implied phi
        (pairwise3) and an x-label, zeta times an arm weight (fig3), once put the point over the
        square of that denominator, which took 128- and 192-bit lanes."""
        unit, rng = 3_188_780_872, random.Random(7)
        zeta = {}
        for arm in ("a1", "a2"):
            cuts = sorted(rng.randint(0, unit) for _ in range(3))
            zeta[arm] = [f"{b - a}/{unit}" for a, b in zip([0, *cuts], [*cuts, unit])]
        raw = {"zeta": zeta, "arm_weights": ["200/401", "201/401"]}
        tables = derive_marginals(build_tables(**raw))
        filled = reference.derive_marginals(reference.tables(raw, False))
        bs = derive.__wrapped__(get_scenario(name))  # a fresh BoundSet: its lanes are packed here
        point = reference.point(bs.space.labels, filled)
        assert model_check(bs, tables) == reference_report(bs, point)
        if bs.target is not None:
            assert evaluate_bounds(bs, tables) == reference_interval(bs, point)
        assert bs._packed and {w for p in bs._packed.values() for w in p._lanes} == {64}


# partition runs on a hull's integer rows; reference.partition is the Fraction
# path it replaced (reduce each facet as an AffineForm, canonicalize, classify,
# then move to the observable space). Both must agree exactly, exceptions included.

@st.composite
def random_hulls(draw):
    """The hull of a random vertex set, its labels maybe with alpha; a target, maybe None or
    a label the hull lacks; and the kinds of the case, for the run to count."""
    vs = draw(vertex_sets(draw(_COIN)))
    h, labels = facet_enumeration(vs), vs.space.labels
    target = draw(st.sampled_from([None, "alpha", *labels]))
    kinds = {"no target" if target is None else "target" if target in labels else "absent target"}
    fixed = fixed_values(vs)
    kinds.add("fixed below 0" if any(x < 0 for x in fixed) else "fixed" if fixed else "free")
    if target in labels and any(row[labels.index(target)] for row in h._rows[0][0]):
        kinds.add("equality involving the target")
    return h, target, kinds


_VIEWS = ("lower_forms", "upper_forms", "observable_tests", "hull_equalities", "trivial_tests")
_GROUPS = ("lower", "upper", "observable", "equality", "trivial")  # the _rows group of each view


def assert_prints_like_its_views(bs):
    """render and to_json_dict, which print the integer rows, print what the views do."""
    unbuilt = set(_VIEWS) - vars(bs).keys()
    printed = {group: bs.render(group) for group in _GROUPS}
    json_dict = bs.to_json_dict()
    assert unbuilt.isdisjoint(vars(bs))  # printing builds no view
    for group, view in zip(_GROUPS, _VIEWS):
        items = getattr(bs, view)
        assert printed[group] == [x.render() for x in items]
        by_hand = reference.render if group in ("lower", "upper") else reference.render_constraint
        assert printed[group] == [by_hand(x) for x in items]
    assert json_dict == reference.bound_set_json(bs)


def assert_matches_the_fraction_path(h, target):
    """partition equals reference.partition, exceptions included. An unread BoundSet
    compares, hashes and prints as the reference's fields do, it serialises as its
    views do, and its rows are the integer rows of its forms once they are built."""
    expected = outcome(reference.partition, h, target)
    if isinstance(expected[0], str):  # raised: (type name, message)
        assert outcome(partition, h, target) == expected
        return
    labels = tuple(label for label in h.space.labels if label != target)
    space = CoordinateSpace(f"{h.space.name}-observables", labels)
    fields = (h.space.name, target, space, *expected)
    text = f"BoundSet({', '.join(f'{n}={v!r}' for n, v in zip(BoundSet._fields, fields))})"
    for compare, want in ((BoundSet._key, fields), (hash, hash(fields)), (repr, text)):
        bs = partition(h, target)
        assert not set(_VIEWS) & vars(bs).keys()
        assert compare(bs) == want
    assert_prints_like_its_views(partition(h, target))
    rows, den = bs._rows
    forms = [bs.lower_forms, bs.upper_forms]
    forms += [[c.form for c in getattr(bs, view)] for view in _VIEWS[2:]]
    groups = integer_rows([[(*f.coefficients, f.constant) for f in g] for g in forms])
    names = ("lower", "upper", "observable", "equality", "trivial")
    assert ([rows[name] for name in names], den) == groups


def _reference_classify(h):
    forms = [reference.reduce_mod_equalities(f.form, h.equalities) for f in h.facets]
    return reference.classify(h.space, h.equalities, forms)


class TestIntegerPartition:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_registry_hulls_match_the_fraction_path(self, name):
        h = scenario_hull(name)
        for target in (get_scenario(name).causal_target, None, "alpha", *h.space.labels):
            assert_matches_the_fraction_path(h, target)
        assert classify_observable(h) == _reference_classify(h)

    def test_hand_built_hulls_match_the_fraction_path(self):
        """On hulls of random vertex sets: facet_enumeration builds every hull there is."""
        kinds = Counter()

        @settings(max_examples=300, deadline=None)
        @given(random_hulls())
        def check(case):
            h, target, drawn = case
            kinds.update(drawn)
            assert_matches_the_fraction_path(h, target)
            assert outcome(classify_observable, h) == outcome(_reference_classify, h)
            for facet in h.facets:
                assert outcome(reduce_mod_equalities, facet.form, h.equalities) == outcome(
                    reference.reduce_mod_equalities, facet.form, h.equalities
                )

        check()
        # Every kind of case is drawn, over the run.
        kinds_drawn = {"no target", "target", "absent target", "fixed below 0", "fixed", "free",
                       "equality involving the target"}
        assert kinds.keys() == kinds_drawn, kinds
