"""Partition of facet systems into tests and bounds, and their evaluation.

The fixture lists below are the published bound expressions for the
bivariate and trivariate observable schemes (the trivariate ones agree
with Balke and Pearl 1997). Derived and fixture forms are compared as
sets after reduction modulo the hull equalities, which makes the
comparison independent of which representative of each bound the
derivation happens to print.
"""

from fractions import Fraction

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
    model_check,
    partition,
    scenario_hull,
)
from ivbounds.data import (
    ObservedTables,
    ValidationError,
    build_tables,
    derive_marginals,
    load,
    observable_point,
)
from ivbounds.forms import (
    AffineForm,
    CoordinateSpace,
    LinearConstraint,
    MissingCoordinate,
    Relation,
    canonicalize,
    rational,
)
from ivbounds.introws import integer_rows
from ivbounds.polytope import HRepresentation, reduce_mod_equalities
from ivbounds.scenarios import SCENARIOS, get_scenario

import reference

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
        out.add(canonicalize(LinearConstraint(red, Relation.GEQ)).form.key())
    return out


def reduced_string_keys(bs: BoundSet, strings):
    return reduced_form_keys(bs, [AffineForm.parse(bs.space, s) for s in strings])


def reduced_constraint_keys(bs: BoundSet, cons):
    return reduced_form_keys(bs, [c.form for c in cons])


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
        assert scenario_hull("bivariate", False).affine_dimension == 4
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
            derived_ok = all(c.slack(point) >= 0 for c in bs.observable_tests)
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
        point = observable_point(bs.space.labels, t)
        assert bs.lower_forms[iv.lower_witness].evaluate(point) == iv.lower
        assert bs.upper_forms[iv.upper_witness].evaluate(point) == iv.upper

    def test_tie_breaks_to_lowest_index(self):
        space = CoordinateSpace("toy", ("u", "v"))
        bs = BoundSet(
            scenario="toy",
            target="v",
            space=CoordinateSpace("toy-observables", ("u",)),
            lower_forms=(
                AffineForm.parse(CoordinateSpace("toy-observables", ("u",)), "u"),
                AffineForm.parse(CoordinateSpace("toy-observables", ("u",)), "2*u"),
            ),
            upper_forms=(AffineForm.const(CoordinateSpace("toy-observables", ("u",)), 1),),
            observable_tests=(),
            trivial_tests=(),
            hull_equalities=(),
        )
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

        with pytest.raises(ValidationError, match="zeta"):
            instrumental_inequality(build_tables(theta={"a1": ["1", "0"], "a2": ["0", "1"]}))


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
    def test_unconstrained_effect_target_gets_trivial_range(self):
        space = CoordinateSpace("loose", ("t01", "alpha"))
        facets = (
            canonicalize(LinearConstraint(AffineForm.parse(space, "t01"), Relation.GEQ)),
            canonicalize(LinearConstraint(AffineForm.parse(space, "1 - t01"), Relation.GEQ)),
        )
        h = HRepresentation(space, (), facets, 2)
        bs = partition(h, "alpha")
        assert [f.render() for f in bs.lower_forms] == ["-1"]
        assert [f.render() for f in bs.upper_forms] == ["1"]

    def test_other_targets_raise(self):
        space = CoordinateSpace("loose", ("t01", "g01"))
        facets = (
            canonicalize(LinearConstraint(AffineForm.parse(space, "t01"), Relation.GEQ)),
        )
        h = HRepresentation(space, (), facets, 2)
        with pytest.raises(TargetUnconstrained):
            partition(h, "g01")

    def test_equality_involving_target_becomes_matched_pair(self):
        space = CoordinateSpace("tied", ("t01", "alpha"))
        eq = canonicalize(
            LinearConstraint(AffineForm.parse(space, "alpha - t01"), Relation.EQ)
        )
        facets = (
            canonicalize(LinearConstraint(AffineForm.parse(space, "t01"), Relation.GEQ)),
            canonicalize(LinearConstraint(AffineForm.parse(space, "1 - t01"), Relation.GEQ)),
        )
        h = HRepresentation(space, (eq,), facets, 1)
        bs = partition(h, "alpha")
        assert len(bs.lower_forms) == 1 and len(bs.upper_forms) == 1
        assert bs.lower_forms[0] == bs.upper_forms[0]
        iv = evaluate_bounds(bs, {"t01": "1/3"})
        assert iv.lower == iv.upper == Fraction(1, 3)


# Reference evaluation, one Fraction per coefficient per form: what
# evaluate_bounds and model_check computed before they ran on a BoundSet's
# compiled integer rows. Both must agree with it exactly, exceptions included.


def reference_interval(bs: BoundSet, data) -> Interval:
    point = observable_point(bs.space.labels, data)
    lows = [f.evaluate(point) for f in bs.lower_forms]
    highs = [f.evaluate(point) for f in bs.upper_forms]
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
            s = con.slack(point)
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
    @given(data=st.data())
    def test_fractional_forms_with_ties(self, data):
        # derived forms have integer coefficients; these have denominators,
        # repeated forms (ties) and equalities as well as inequalities
        space = CoordinateSpace("toy-observables", ("u", "v", "w"))
        coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
        form = st.builds(
            lambda cs, k: AffineForm(space, tuple(cs), k),
            st.lists(coeff, min_size=3, max_size=3), coeff,
        )

        def forms():
            drawn = data.draw(st.lists(form, min_size=1, max_size=4))
            drawn += data.draw(st.lists(st.sampled_from(drawn), max_size=2))
            return tuple(data.draw(st.permutations(drawn)))

        def constraints():
            con = st.builds(LinearConstraint, form, st.sampled_from(Relation))
            return tuple(data.draw(st.lists(con, max_size=4)))

        bs = BoundSet(
            scenario="toy",
            target="t",
            space=space,
            lower_forms=forms(),
            upper_forms=forms(),
            observable_tests=constraints(),
            trivial_tests=constraints(),
            hull_equalities=constraints(),
        )
        point = data.draw(st.one_of(_point(space.labels), st.just({"u": 0, "v": 0, "w": 0})))
        tol = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        _assert_compiled_matches_reference(bs, point, tol)

    def test_empty_interval_matches_reference(self):
        bad = derive_marginals(build_tables(
            zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]},
            arm_weights=["1/2", "1/2"],
        ))
        for name in ("bivariate", "trivariate", "pairwise3"):
            assert evaluate_bounds(derive(name), bad).empty
            _assert_compiled_matches_reference(derive(name), bad)

    def test_hand_built_tables_with_loose_values(self):
        # Tables built without build_tables may hold ints, strings or
        # floats; a value raises only where a form uses its label, as
        # evaluating form by form did.
        lipid = load("lipid")
        for cell in (1, "1/2", "0.5", 0.5, "abc"):
            tables = ObservedTables(
                zeta=lipid.zeta,
                gamma={**lipid.gamma, (1, 1): cell},
                theta=lipid.theta,
                phi=lipid.phi,
                arm_weights=lipid.arm_weights,
                decimal_input=lipid.decimal_input,
            )
            bs = derive("bivariate")
            assert outcome(evaluate_bounds, bs, tables) == outcome(reference_interval, bs, tables)
            assert outcome(model_check, bs, tables) == outcome(reference_report, bs, tables)

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

    def test_hand_built_rows_are_compiled_at_first_evaluation_and_kept(self):
        built = derive("trivariate")
        bs = BoundSet(**{name: getattr(built, name) for name in BoundSet._fields})
        assert "_rows" not in vars(bs)
        evaluate_bounds(bs, load("lipid"))
        rows = vars(bs)["_rows"]
        model_check(bs, load("vitamin-a"))
        assert vars(bs)["_rows"] is rows == built._rows


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
    # hand built: gamma, theta and phi that contradict zeta, so hull equalities fail
    inconsistent = ObservedTables(
        zeta=exact.zeta,
        gamma={**exact.gamma, (0, 1): Fraction(1, 2), (1, 1): Fraction(1, 2)},
        theta={**exact.theta, (0, 1): exact.theta[(0, 1)] + Fraction(1, 7)},
        phi={**exact.phi, (0, 0): exact.phi[(0, 0)] + Fraction(1, 7)},
        arm_weights=exact.arm_weights,
    )
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


# partition runs on a hull's integer rows; reference.partition is the Fraction
# path it replaced (reduce each facet as an AffineForm, canonicalize, classify,
# then move to the observable space). Both must agree exactly, exceptions included.

_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_coefficient = st.one_of(st.just(0), _fraction)


@st.composite
def hand_built_hulls(draw):
    """An HRepresentation over 2-4 coordinates, maybe with alpha, from fractional rows.

    Facets mix arbitrary rows, trivial ones (a positive multiple of one
    coordinate plus a multiple of an equality) and identically false ones.
    """
    labels = [f"x{i}" for i in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        labels.insert(draw(st.integers(0, len(labels))), "alpha")
    space = CoordinateSpace("hand", tuple(labels))
    m = len(labels)
    rows = st.lists(_coefficient, min_size=m + 1, max_size=m + 1)
    dense = st.lists(_fraction, min_size=m + 1, max_size=m + 1)
    equalities = draw(st.lists(st.one_of(rows, dense), max_size=2))

    @st.composite
    def trivial(draw):
        row = [Fraction(0)] * (m + 1)
        scale = draw(st.fractions(min_value=1, max_value=3, max_denominator=2))
        row[draw(st.integers(0, m - 1))] = scale
        for eq in equalities:
            t = draw(_coefficient)
            row = [a + t * b for a, b in zip(row, eq)]
        return row

    facets = draw(st.lists(st.one_of(rows.filter(lambda r: any(r[:-1])), trivial()), max_size=6))
    if draw(st.integers(0, 4)) == 4:
        facets.insert(draw(st.integers(0, len(facets))), [0] * m + [-draw(st.integers(1, 3))])

    def cons(rows, relation):
        return tuple(LinearConstraint(AffineForm(space, r[:-1], r[-1]), relation) for r in rows)

    h = HRepresentation(space, cons(equalities, Relation.EQ), cons(facets, Relation.GEQ), m)
    return h, draw(st.sampled_from([None, "alpha", *labels]))


_VIEWS = ("lower_forms", "upper_forms", "observable_tests", "hull_equalities", "trivial_tests")


def assert_matches_the_fraction_path(h, target):
    """partition equals reference.partition, exceptions included. An unread BoundSet
    compares, hashes, prints and serialises like the reference's, and its rows are the
    integer rows of its forms once they are built."""
    expected = outcome(reference.partition, h, target)
    if not isinstance(expected, BoundSet):
        assert outcome(partition, h, target) == expected
        return
    for compare in (lambda bs: bs, hash, repr, BoundSet.to_json_dict):
        bs = partition(h, target)
        assert not set(_VIEWS) & vars(bs).keys()
        assert compare(bs) == compare(expected)
    rows, den = bs._rows
    forms = [bs.lower_forms, bs.upper_forms]
    forms += [[c.form for c in getattr(bs, view)] for view in _VIEWS[2:]]
    groups = integer_rows([[(*f.coefficients, f.constant) for f in g] for g in forms])
    names = ("lower", "upper", "observable", "equality", "trivial")
    assert ([rows[name] for name in names], den) == groups
    assert rows["checks"] == rows["observable"] + rows["equality"] + rows["trivial"]


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

    @settings(max_examples=300, deadline=None)
    @given(hand_built_hulls())
    def test_hand_built_hulls_match_the_fraction_path(self, case):
        h, target = case
        assert_matches_the_fraction_path(h, target)
        assert outcome(classify_observable, h) == outcome(_reference_classify, h)
        for facet in h.facets:
            assert outcome(reduce_mod_equalities, facet.form, h.equalities) == outcome(
                reference.reduce_mod_equalities, facet.form, h.equalities
            )
