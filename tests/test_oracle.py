"""Exact simplex solver and LP cross-checking of the derived bounds."""

import random
from fractions import Fraction

import pytest

import ivbounds.oracle as oracle_mod
from ivbounds.bounds import derive, evaluate_bounds
from ivbounds.data import build_tables, load
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
    scenario_vertex_set,
)

from sampling import random_parameter_point


def F(*args):
    return Fraction(*args)


def lp(columns, rhs, objective):
    wrap = lambda tt: tuple(tuple(F(v) for v in t) for t in tt)
    return MixtureLP(
        columns=wrap(columns),
        rhs=tuple(F(v) for v in rhs),
        objective=tuple(F(v) for v in objective),
    )


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
