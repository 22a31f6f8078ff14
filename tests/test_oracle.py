"""Exact simplex solver and LP cross-checking of the derived bounds."""

import copy
import random
from fractions import Fraction

import pytest

import ivbounds.oracle as oracle_mod
from ivbounds.bounds import (
    Interval,
    TargetUnconstrained,
    derive,
    evaluate_bounds,
    interval_and_fit,
    model_check,
)
from ivbounds.data import build_tables, derive_marginals, load
from ivbounds.forms import MissingCoordinate
from ivbounds.oracle import (
    CrossCheckReport,
    LPResult,
    MismatchError,
    MixtureLP,
    cross_check,
    oracle_interval,
    solve,
)
from ivbounds.scenarios import (
    coordinate_function,
    get_scenario,
    make_scenario,
    scenario_vertex_set,
)

import reference
from sampling import pushed_outside, random_mixture, random_parameter_point


def F(*args):
    return Fraction(*args)


def lp(columns, rhs, objective):
    wrap = lambda tt: tuple(tuple(F(v) for v in t) for t in tt)
    return MixtureLP(
        columns=wrap(columns),
        rhs=tuple(F(v) for v in rhs),
        objective=tuple(F(v) for v in objective),
    )


# Hand-built LPs as (columns, rhs, objective): the ones TestSolve and
# TestPivotPath solve, plus one whose columns have non-unit denominators.
HAND_BUILT = [
    (((1,), (1,)), (1,), (1, 2)),
    (((1, 1), (1, 1)), (2, 1), (0, 0)),
    (((1,), (1,)), (-1,), (0, 0)),
    (((1,), (-1,)), (0,), (-1, 0)),
    (((1, 2), (1, 2)), (1, 2), (0, 1)),
    (((-1,),), (-2,), (1,)),
    (((0,), (0,)), (0,), (1, 1)),
    (((0,), (0,)), (0,), (-1, 1)),
    (((0,), (0,)), (0,), (-1, -2)),
    (((1,),), (1,), (1,)),
    (((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)), (1, 1, 1), (1, -1, 2, 0)),
    (((-1, 1), (0, 1), (1, 0), (0, 0)), (1, 0), (-1, -2, -2, 1)),
    (
        (("1/2", "2/3", 1), ("3/4", "-1/6", 1), ("-2/5", "1/3", 1), ("1/7", "5/9", 1)),
        ("1/5", "1/4", 1),
        ("1/3", "-2/7", "5/6", "1/10"),
    ),
]


class TestSolve:
    def test_two_point_mixture(self):
        p = lp(columns=((1,), (1,)), rhs=(1,), objective=(1, 2))
        lo = solve(p, "min")
        hi = solve(p, "max")
        assert (lo.status, lo.value, lo.weights) == ("optimal", 1, (1, 0))
        assert (hi.status, hi.value, hi.weights) == ("optimal", 2, (0, 1))

    def test_inconsistent_rows_are_infeasible(self):
        p = lp(columns=((1, 1), (1, 1)), rhs=(2, 1), objective=(0, 0))
        res = solve(p)
        assert res == LPResult(status="infeasible", value=None, weights=None)

    def test_nonnegativity_can_make_infeasible(self):
        # x1 + x2 = -1 has solutions, none with x >= 0
        p = lp(columns=((1,), (1,)), rhs=(-1,), objective=(0, 0))
        assert solve(p).status == "infeasible"

    def test_unbounded_direction(self):
        p = lp(columns=((1,), (-1,)), rhs=(0,), objective=(-1, 0))
        res = solve(p, "min")
        assert res.status == "unbounded"
        assert res.value is None

    def test_redundant_rows_collapse(self):
        p = lp(columns=((1, 2), (1, 2)), rhs=(1, 2), objective=(0, 1))
        res = solve(p, "min")
        assert res.status == "optimal"
        assert res.value == 0
        assert res.weights == (1, 0)

    def test_negative_rhs_row_is_flipped_not_rejected(self):
        p = lp(columns=((-1,),), rhs=(-2,), objective=(1,))
        res = solve(p, "min")
        assert (res.status, res.value, res.weights) == ("optimal", 2, (2,))

    def test_all_zero_system(self):
        p = lp(columns=((0,), (0,)), rhs=(0,), objective=(1, 1))
        res = solve(p, "min")
        assert (res.status, res.value) == ("optimal", 0)
        p2 = lp(columns=((0,), (0,)), rhs=(0,), objective=(-1, 1))
        assert solve(p2, "min").status == "unbounded"
        assert solve(p2, "max").status == "unbounded"
        p3 = lp(columns=((0,), (0,)), rhs=(0,), objective=(-1, -2))
        assert solve(p3, "max") == LPResult("optimal", 0, (0, 0))

    def test_rejects_bad_sense(self):
        p = lp(columns=((1,),), rhs=(1,), objective=(1,))
        with pytest.raises(ValueError, match="sense"):
            solve(p, "best")

    def test_degenerate_vertices_terminate(self):
        # many ties in the ratio test; Bland's rule must not cycle
        p = lp(
            columns=((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
            rhs=(1, 1, 1),
            objective=(1, -1, 2, 0),
        )
        res = solve(p, "min")
        assert res.status == "optimal"
        total = sum(
            w * c for w, c in zip(res.weights, p.objective)
        )
        assert total == res.value


# Full solve() results on the bundled trials: status optimal, value, and the
# nonzero weights as {column: "p/q"}. Bland's rule fixes the pivot path, so
# any change to the tableau arithmetic that alters it shows up here.
PINNED = [
    ("lipid", "bivariate", "min", "48/125", {0: "307/1000", 1: "147/1000", 5: "93/200", 8: "81/1000"}),
    ("lipid", "bivariate", "max", "853/1000", {4: "97/250", 5: "531/1000", 9: "33/500", 13: "3/200"}),
    ("lipid", "trivariate", "min", "49/125", {0: "63/200", 1: "131/1000", 5: "473/1000", 8: "73/1000", 9: "1/125"}),
    ("lipid", "trivariate", "max", "39/50", {1: "131/1000", 4: "63/200", 5: "473/1000", 9: "1/125", 12: "73/1000"}),
    ("lipid", "pairwise3", "min", "97/250", {0: "311/1000", 1: "3/40", 2: "8/125", 7: "237/1000", 8: "29/125", 12: "77/1000", 14: "1/250"}),
    ("lipid", "pairwise3", "max", "851/1000", {2: "8/125", 6: "193/500", 7: "237/1000", 8: "29/125", 14: "1/250", 18: "1/500", 19: "3/40"}),
    ("lipid", "beta", "min", "-153/250", {0: "97/250", 6: "153/250"}),
    ("lipid", "beta", "max", "153/250", {0: "97/250", 4: "153/250"}),
    ("vitamin-a", "bivariate", "min", "-987/5000", {5: "4/625", 8: "1/5", 9: "19/5000", 13: "3949/5000"}),
    ("vitamin-a", "bivariate", "max", "4/625", {4: "19/5000", 5: "13/5000", 12: "981/5000", 13: "3987/5000"}),
    ("vitamin-a", "trivariate", "min", "-973/5000", {0: "7/2500", 5: "9/2500", 8: "493/2500", 9: "1/1000", 13: "3977/5000"}),
    ("vitamin-a", "trivariate", "max", "27/5000", {4: "7/2500", 5: "9/2500", 9: "1/1000", 12: "493/2500", 13: "3977/5000"}),
    ("vitamin-a", "pairwise3", "min", "-987/5000", {7: "23/5000", 8: "9/5000", 12: "1/5", 13: "33/10000", 14: "1/2000", 19: "3849/10000", 20: "4049/10000"}),
    ("vitamin-a", "pairwise3", "max", "59/10000", {6: "33/10000", 7: "13/10000", 8: "9/5000", 14: "1/2000", 18: "1967/10000", 19: "783/2000", 20: "4049/10000"}),
    ("vitamin-a", "beta", "min", "-4/5", {0: "1/5", 6: "4/5"}),
    ("vitamin-a", "beta", "max", "4/5", {0: "1/5", 4: "4/5"}),
]


class TestPivotPath:
    @pytest.mark.parametrize("dataset,scenario,sense,value,support", PINNED)
    def test_bundled_results_are_pinned(self, dataset, scenario, sense, value, support):
        p = MixtureLP.from_scenario(scenario, load(dataset))
        res = solve(p, sense)
        weights = tuple(F(support.get(j, 0)) for j in range(len(p.columns)))
        assert res == LPResult("optimal", F(value), weights)

    def test_artificial_kicked_out_on_a_negative_entry(self):
        # -w1 + w3 = 1 and w1 + w2 = 0. Phase 1 ends with w3 and one
        # artificial basic, the artificial at level 0 in a row whose first
        # nonzero entry is -1. w4 is free, so the max is unbounded; a sign
        # slip in the kick-out swaps the two answers.
        p = lp(columns=((-1, 1), (0, 1), (1, 0), (0, 0)), rhs=(1, 0), objective=(-1, -2, -2, 1))
        assert solve(p, "min") == LPResult("optimal", F(-2), (0, 0, 1, 0))
        assert solve(p, "max") == LPResult("unbounded", None, None)


class TestMixtureLP:
    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="column 1 has 1 entries but rhs has 2"):
            lp(columns=((1, 2), (3,)), rhs=(1, 2), objective=(1, 5))

    def test_column_length_must_match_rhs(self):
        # Once solved as min 1 and max 5/3, with the second row ignored.
        with pytest.raises(ValueError, match="column 0 has 2 entries but rhs has 1"):
            lp(columns=((1, 2), (3, 4)), rhs=(1,), objective=(1, 5))

    @pytest.mark.parametrize("objective", [(1,), (1, 5, 7)])
    def test_objective_length_must_match_columns(self, objective):
        # A shorter objective once gave a value from a truncated zip.
        with pytest.raises(ValueError, match="objective has"):
            lp(columns=((1,), (1,)), rhs=(1,), objective=objective)

    def test_from_scenario_shapes(self):
        p = MixtureLP.from_scenario("trivariate", load("lipid"))
        assert len(p.columns) == 16
        assert all(len(col) == 9 for col in p.columns)  # 8 coords + normalization
        assert len(p.rhs) == 9
        assert p.rhs[-1] == 1
        assert all(col[-1] == 1 for col in p.columns)
        assert len(p.objective) == 16

    def test_columns_are_vertex_images(self):
        s = get_scenario("beta")
        p = MixtureLP.from_scenario(s, {"t01": "1/2", "t11": "1/2", "t02": "1/2", "t12": "1/2"})
        vs = scenario_vertex_set(s)
        ti = s.space.index("beta")
        assert len(p.columns) == len(vs.vertices)
        assert set(p.objective) == {v[ti] for v in vs.vertices}

    def test_no_target_scenario_rejected(self):
        with pytest.raises(ValueError, match="causal target"):
            MixtureLP.from_scenario("fig3", load("lipid"))


class TestOracleInterval:
    @pytest.mark.parametrize(
        "dataset,scenario,lo,hi",
        [
            ("lipid", "trivariate", F(49, 125), F(39, 50)),
            ("lipid", "bivariate", F(48, 125), F(853, 1000)),
            ("lipid", "pairwise3", F(97, 250), F(851, 1000)),
            ("lipid", "beta", F(-153, 250), F(153, 250)),
            ("vitamin-a", "trivariate", F(-973, 5000), F(27, 5000)),
            ("vitamin-a", "bivariate", F(-987, 5000), F(4, 625)),
            ("vitamin-a", "pairwise3", F(-987, 5000), F(59, 10000)),
            ("vitamin-a", "beta", F(-4, 5), F(4, 5)),
        ],
    )
    def test_bundled_intervals(self, dataset, scenario, lo, hi):
        rmin, rmax = oracle_interval(scenario, load(dataset))
        assert rmin.status == rmax.status == "optimal"
        assert rmin.value == lo
        assert rmax.value == hi

    def test_weights_certify_the_optimum(self):
        p = MixtureLP.from_scenario("trivariate", load("lipid"))
        for sense in ("min", "max"):
            res = solve(p, sense)
            w = res.weights
            assert all(x >= 0 for x in w)
            assert sum(w) == 1  # normalization row
            for i in range(len(p.rhs)):
                assert sum(p.columns[j][i] * w[j] for j in range(len(w))) == p.rhs[i]
            assert sum(c * x for c, x in zip(p.objective, w)) == res.value

    def test_infeasible_at_contradictory_table(self):
        bad = build_tables(zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]})
        rmin, rmax = oracle_interval("trivariate", bad)
        assert rmin.status == rmax.status == "infeasible"


class TestCrossCheck:
    @pytest.mark.parametrize("dataset", ["lipid", "vitamin-a"])
    @pytest.mark.parametrize("scenario", ["bivariate", "trivariate", "pairwise3", "beta"])
    def test_bundled_data_consistent(self, dataset, scenario):
        rep = cross_check(scenario, load(dataset))
        assert isinstance(rep, CrossCheckReport)
        assert rep.consistent
        assert rep.member and rep.feasible
        assert rep.lp_lower == rep.form_lower
        assert rep.lp_upper == rep.form_upper

    def test_contradictory_table_agrees_on_rejection(self):
        bad = build_tables(zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]})
        rep = cross_check("trivariate", bad)
        assert rep.consistent
        assert not rep.member
        assert not rep.feasible
        assert rep.lp_lower is None and rep.lp_upper is None

    def test_mismatch_raises(self, monkeypatch):
        real = oracle_mod.solve

        def skewed(lp, sense="min"):
            res = real(lp, sense)
            if sense == "max" and res.status == "optimal":
                return LPResult("optimal", res.value + 1, res.weights)
            return res

        monkeypatch.setattr(oracle_mod, "solve", skewed)
        with pytest.raises(MismatchError, match="LP gives"):
            cross_check("trivariate", load("lipid"))

    def test_status_disagreement_raises(self, monkeypatch):
        real = oracle_mod.solve

        def lopsided(lp, sense="min"):
            if sense == "max":
                return LPResult("infeasible", None, None)
            return real(lp, sense)

        monkeypatch.setattr(oracle_mod, "solve", lopsided)
        with pytest.raises(MismatchError, match="LP max reports"):
            cross_check("trivariate", load("lipid"))

    def test_membership_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(
            oracle_mod, "solve", lambda lp, sense="min": LPResult("infeasible", None, None)
        )
        with pytest.raises(MismatchError, match="member"):
            cross_check("trivariate", load("lipid"))

    def test_random_mixtures_stay_consistent(self):
        # convex mixtures of vertex images are exactly the consistent joints
        rng = random.Random(7)
        s = get_scenario("trivariate")
        vs = scenario_vertex_set(s)
        labels = s.observable_labels
        idx = [s.space.index(lab) for lab in labels]
        for _ in range(20):
            k = rng.randint(2, 4)
            picks = rng.sample(range(len(vs.vertices)), k)
            raw = [Fraction(rng.randint(1, 9)) for _ in picks]
            tot = sum(raw)
            weights = [r / tot for r in raw]
            point = {
                lab: sum(w * vs.vertices[p][i] for w, p in zip(weights, picks))
                for lab, i in zip(labels, idx)
            }
            rep = cross_check(s, point)
            assert rep.member and rep.feasible

    def test_random_parameter_points_are_members(self):
        rng = random.Random(13)
        s = get_scenario("pairwise3")
        for _ in range(10):
            pp = random_parameter_point(rng, uses_psi=True)
            point = {lab: coordinate_function(lab)(pp) for lab in s.observable_labels}
            rep = cross_check(s, point)
            assert rep.member and rep.feasible
            truth = coordinate_function(s.causal_target)(pp)
            assert rep.form_lower <= truth <= rep.form_upper

    def test_unregistered_scenario_is_derived_as_given(self):
        """A scenario outside the registry was once looked up by name, raising KeyError."""
        s = make_scenario("custom", ["t01", "t11", "t02", "t12", "beta"], causal_target="beta")
        rep = cross_check(s, load("lipid"))
        assert (rep.scenario, rep.member, rep.feasible) == ("custom", True, True)
        assert (rep.form_lower, rep.form_upper) == (F(-153, 250), F(153, 250))
        assert (rep.lp_lower, rep.lp_upper) == (rep.form_lower, rep.form_upper)

    def test_scenario_reusing_a_registry_name_is_derived_as_given(self):
        """A "beta" over gamma and theta once got the registry beta's forms: a false MismatchError."""
        labels = ["g01", "g11", "g02", "g12", "t01", "t11", "t02", "t12", "beta"]
        s = make_scenario("beta", labels, causal_target="beta")
        rep = cross_check(s, derive_marginals(load("lipid")))
        assert (rep.member, rep.feasible) == (True, True)
        assert (rep.form_lower, rep.form_upper) == (F(93, 200), F(93, 200))
        assert (rep.lp_lower, rep.lp_upper) == (rep.form_lower, rep.form_upper)
        assert derive("beta") == derive(get_scenario("beta")) != derive(s)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _composed(bs, point):
    """What cross_check once computed: evaluate_bounds, then model_check at tolerance 0."""
    return evaluate_bounds(bs, point), model_check(bs, point, tolerance=0).passed


@pytest.mark.parametrize("name", ["fig3", "bivariate", "trivariate", "pairwise3", "beta"])
def test_one_pass_membership_matches_evaluate_bounds_and_model_check(name):
    bs = derive(name)
    labels = bs.space.labels
    points = []
    if name != "fig3":
        for inside, outside in _scenario_points(name, random.Random(f"fit:{name}"), 8):
            points += [inside, outside, {lab: 2 * x for lab, x in inside.items()}]
    else:
        points.append(dict.fromkeys(labels, Fraction(1, len(labels))))
    base = points[0]
    # One label missing or unusable, and pairs of them: the first error raised must agree.
    for lab, other in zip(labels, labels[1:] + labels[:1]):
        points.append({k: v for k, v in base.items() if k != lab})
        points += [dict(base, **{lab: bad}) for bad in ("abc", 0.5, None)]
        points.append({k: "abc" if k == other else v for k, v in base.items() if k != lab})
    outcomes = [_outcome(interval_and_fit, bs, point) for point in points]
    assert outcomes == [_outcome(_composed, bs, point) for point in points]
    if name == "fig3":
        assert {o[0] for o in outcomes} == {TargetUnconstrained}
        return
    assert {o[1] for o in outcomes if isinstance(o[0], Interval)} == {True, False}
    assert {o[0] for o in outcomes if isinstance(o[0], type)} >= {MissingCoordinate, TypeError}


def _scenario_points(name, rng, rounds):
    """rounds (inside, outside) observable points of a targeted scenario."""
    s = get_scenario(name)
    vs = scenario_vertex_set(s).vertices
    idx = [s.space.index(lab) for lab in s.observable_labels]
    for _ in range(rounds):
        inside = random_mixture(rng, vs, rng.randint(1, 6))
        outside = pushed_outside(rng, vs, inside, idx)
        yield tuple({lab: x[i] for lab, i in zip(s.observable_labels, idx)} for x in (inside, outside))


TARGETED = ["bivariate", "trivariate", "pairwise3", "beta"]


class TestAgainstReference:
    """solve and oracle_interval give the LPResults of the reference solver exactly."""

    @pytest.mark.parametrize("name", TARGETED)
    def test_random_inside_and_outside_mixtures(self, name):
        statuses = set()
        for inside, outside in _scenario_points(name, random.Random(f"reference:{name}"), 15):
            for point in (inside, outside):
                p = MixtureLP.from_scenario(name, point)
                want = reference.solve(p, "min"), reference.solve(p, "max")
                assert oracle_interval(name, point) == want
                assert (solve(p, "max"), solve(p, "min")) == want[::-1]
                statuses.add(want[0].status)
        assert statuses == {"optimal", "infeasible"}

    @pytest.mark.parametrize("case", HAND_BUILT)
    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_hand_built(self, case, sense):
        p = lp(*case)
        assert solve(p, sense) == reference.solve(p, sense)

    def test_random_rational_lps(self):
        rng = random.Random(11)
        statuses = set()
        frac = lambda: F(rng.randint(-6, 6), rng.randint(1, 6))
        for _ in range(200):
            n, m = rng.randint(1, 5), rng.randint(1, 3)
            columns = tuple(tuple(frac() for _ in range(m)) for _ in range(n))
            if rng.random() < 0.5:  # a feasible rhs: a nonnegative combination of columns
                w = [F(rng.randint(0, 3)) for _ in range(n)]
                rhs = tuple(sum(c[i] * x for c, x in zip(columns, w)) for i in range(m))
            else:
                rhs = tuple(frac() for _ in range(m))
            p = MixtureLP(columns, rhs, tuple(frac() for _ in range(n)))
            for sense in ("min", "max"):
                got = solve(p, sense)
                assert got == reference.solve(p, sense)
                statuses.add(got.status)
        assert statuses == {"optimal", "infeasible", "unbounded"}


class TestCachedState:
    def test_repeated_solves_agree(self):
        p = MixtureLP.from_scenario("pairwise3", load("lipid"))
        first = solve(p, "max")
        assert solve(p, "min") == reference.solve(p, "min")
        assert solve(p, "max") == first == reference.solve(p, "max")
        q = lp(((-1, 1), (0, 1), (1, 0), (0, 0)), (1, 0), (-1, -2, -2, 1))
        before = copy.deepcopy(q._phase1)
        results = [solve(q, sense) for sense in ("max", "min", "max", "min")]
        assert q._phase1 == before
        assert results[:2] == results[2:]
        assert results[:2] == [LPResult("unbounded", None, None), LPResult("optimal", -2, (0, 0, 1, 0))]

    def test_scenario_lps_share_the_system_but_not_the_point(self):
        bad = build_tables(zeta={"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]})
        good = MixtureLP.from_scenario("trivariate", load("lipid"))
        infeasible = MixtureLP.from_scenario("trivariate", bad)
        assert vars(good)["_system"] is vars(infeasible)["_system"]
        order = [(good, "max"), (infeasible, "min"), (good, "min"), (infeasible, "max"), (good, "max")]
        for p, sense in order:
            assert solve(p, sense) == reference.solve(p, sense)
        assert solve(infeasible, "max").status == "infeasible"
        assert solve(good, "max").value == F(39, 50)

    @pytest.mark.parametrize("name", TARGETED)
    def test_solves_leave_the_cached_phase1_tableau_as_it_was(self, name):
        # Phase 2 starts from a shallow copy of the cached tableau and pivot
        # leaves some rows as they are, so those rows stay shared with the cache.
        moved = False
        for inside, _ in _scenario_points(name, random.Random(f"phase1:{name}"), 6):
            p = MixtureLP.from_scenario(name, inside)
            before = copy.deepcopy(p._phase1)
            results = [solve(p, sense) for sense in ("min", "max", "min", "max")]
            assert p._phase1 == before
            assert results[:2] == results[2:]
            moved |= results[0].value != results[1].value
        assert moved

    def test_hand_built_equals_from_scenario(self):
        scenario_lp = MixtureLP.from_scenario("bivariate", load("vitamin-a"))
        hand = MixtureLP(scenario_lp.columns, scenario_lp.rhs, scenario_lp.objective)
        assert "_system" not in vars(hand)
        assert hand == scenario_lp
        for sense in ("min", "max"):
            assert solve(hand, sense) == solve(scenario_lp, sense)
