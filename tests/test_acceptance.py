"""Acceptance checklist: twelve contract criteria, one test and one line each.

Every test prints exactly one line of the form

    ACCEPTANCE nn: PASS - <what was verified>

so a full run doubles as a verification report. All arithmetic is exact;
the only tolerances are the ones stated in the criteria themselves (the
dataset interval reproductions allow 5e-4 per endpoint, matching the
rounding of the published figures).
"""

import random
from fractions import Fraction

from ivbounds.bounds import (
    beta_bounds,
    classify_observable,
    derive,
    evaluate_bounds,
    instrumental_inequality,
    model_check,
    scenario_hull,
)
from ivbounds.data import build_tables, load
from ivbounds.forms import LinearConstraint, Relation, canonicalize, rational
from ivbounds.oracle import MixtureLP, solve
from ivbounds.polytope import facet_enumeration, reduce_mod_equalities
from ivbounds.scenarios import (
    SCENARIOS,
    ParameterPoint,
    get_scenario,
    scenario_vertex_set,
    xi_transform,
)

import reference
from sampling import observable_vertex_set, random_parameter_point

# Published bivariate bounds (ten per side, alpha >= lower, alpha <= upper).
PUBLISHED_BIVARIATE_LOWER = [
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
PUBLISHED_BIVARIATE_UPPER = [
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
# |g01 - g02| <= t01 + t02 <= 2 - |g01 - g02|, spelled out sign by sign.
PUBLISHED_BIVARIATE_TESTS = [
    "t01 + t02 - g01 + g02",
    "t01 + t02 + g01 - g02",
    "2 - g01 + g02 - t01 - t02",
    "2 + g01 - g02 - t01 - t02",
]

# Balke and Pearl (1997) bounds for the joint-conditional scheme.
PUBLISHED_TRIVARIATE_LOWER = [
    "z00.1 + z11.2 - 1",
    "z11.1 + z00.2 - 1",
    "-z01.1 - z10.1 + z11.1 - z10.2 - z11.2",
    "-z10.1 - z11.1 - z01.2 - z10.2 + z11.2",
    "-z01.1 - z10.1",
    "-z01.2 - z10.2",
    "-z00.1 - z01.1 + z00.2 - z01.2 - z10.2",
    "z00.1 - z01.1 - z10.1 - z00.2 - z01.2",
]
PUBLISHED_TRIVARIATE_UPPER = [
    "1 - z10.1 - z01.2",
    "1 - z01.1 - z10.2",
    "z00.1 - z01.1 + z11.1 + z00.2 + z01.2",
    "z00.1 + z01.1 - z01.2 + z00.2 + z11.2",
    "z00.1 + z11.1",
    "z00.2 + z11.2",
    "z10.1 + z11.1 + z00.2 + z11.2 - z10.2",
    "z00.1 - z10.1 + z11.1 + z10.2 + z11.2",
]
PUBLISHED_TRIVARIATE_TESTS = [
    "1 - z00.1 - z10.2",
    "1 - z10.1 - z00.2",
    "1 - z11.1 - z01.2",
    "1 - z01.1 - z11.2",
]

ENDPOINT_TOLERANCE = Fraction(5, 10000)

CONTRADICTION = {"a1": ["1", "0", "0", "0"], "a2": ["0", "0", "1", "0"]}


def report(n: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def oracle_interval(scenario, data):
    """The exact LP minimum and maximum of the scenario's causal target at the data."""
    lp = MixtureLP.from_scenario(scenario, data)
    return solve(lp, "min"), solve(lp, "max")


def reduced_keys(bs, forms):
    out = set()
    for f in forms:
        red = reduce_mod_equalities(f, bs.hull_equalities)
        out.add(canonicalize(LinearConstraint(red, Relation.GEQ)).form)
    return out


def reduced_strings(bs, strings):
    return reduced_keys(bs, [reference.form(bs.space, s) for s in strings])


def test_criterion_01_bivariate_derivation():
    bs = derive("bivariate")
    ok = (
        reduced_keys(bs, bs.lower_forms) == reduced_strings(bs, PUBLISHED_BIVARIATE_LOWER)
        and reduced_keys(bs, bs.upper_forms) == reduced_strings(bs, PUBLISHED_BIVARIATE_UPPER)
        and reduced_keys(bs, [c.form for c in bs.observable_tests])
        == reduced_strings(bs, PUBLISHED_BIVARIATE_TESTS)
    )
    report(1, "bivariate tests equal the absolute-gap pair; 10+10 bounds match the published list", ok)


def test_criterion_02_trivariate_derivation():
    bs = derive("trivariate")
    ok = (
        reduced_keys(bs, bs.lower_forms) == reduced_strings(bs, PUBLISHED_TRIVARIATE_LOWER)
        and reduced_keys(bs, bs.upper_forms) == reduced_strings(bs, PUBLISHED_TRIVARIATE_UPPER)
        and reduced_keys(bs, [c.form for c in bs.observable_tests])
        == reduced_strings(bs, PUBLISHED_TRIVARIATE_TESTS)
    )
    report(2, "trivariate tests and 8+8 bounds match Balke and Pearl (1997)", ok)


def test_criterion_03_pairwise3_counts():
    bs = derive("pairwise3")
    ok = (
        len(bs.observable_tests) == 56
        and len(bs.lower_forms) == 37
        and len(bs.upper_forms) == 37
    )
    report(3, "pairwise3 derivation: 56 observable tests, 37 lower and 37 upper bounds", ok)


def _interval_matches(dataset, scenario, lo, hi):
    iv = evaluate_bounds(derive(scenario), load(dataset))
    return (
        abs(iv.lower - rational(lo)) <= ENDPOINT_TOLERANCE
        and abs(iv.upper - rational(hi)) <= ENDPOINT_TOLERANCE
    )


def test_criterion_04_lipid_intervals():
    ok = (
        _interval_matches("lipid", "trivariate", "0.392", "0.780")
        and _interval_matches("lipid", "bivariate", "0.384", "0.853")
        and _interval_matches("lipid", "pairwise3", "0.388", "0.851")
    )
    report(4, "lipid dataset intervals reproduced within 5e-4 per endpoint", ok)


def test_criterion_05_vitamin_a_intervals():
    ok = (
        _interval_matches("vitamin-a", "trivariate", "-0.1946", "0.0054")
        and _interval_matches("vitamin-a", "bivariate", "-0.1974", "0.0064")
        and _interval_matches("vitamin-a", "pairwise3", "-0.1974", "0.0059")
    )
    report(5, "vitamin-a dataset intervals reproduced within 5e-4 per endpoint", ok)


def test_criterion_06_joint_hull_is_trivial():
    h = scenario_hull("fig3")
    nontrivial, trivial = classify_observable(h)
    sum_to_one = False
    if len(h.equalities) == 1:
        eq = h.equalities[0]
        coeffs = set(eq.form.coefficients)
        sum_to_one = coeffs == {Fraction(1)} and eq.form.constant == -1
    ok = (
        h.affine_dimension == 7
        and sum_to_one
        and not nontrivial
        and len(trivial) == 8
    )
    report(6, "joint-with-instrument hull is the 7-simplex: sum-to-one plus nonnegativity only", ok)


def test_criterion_07_observable_bivariate_dimension():
    h = facet_enumeration(observable_vertex_set("bivariate"))
    ok = h.affine_dimension == 4
    report(7, "observable-only bivariate hull has affine dimension 4", ok)


def test_criterion_08_oracle_equivalence():
    rng = random.Random(20260819)
    ok = True
    for name in ("bivariate", "trivariate", "pairwise3", "beta"):
        s = get_scenario(name)
        bs = derive(name)
        vs = scenario_vertex_set(s)
        labels = s.observable_labels
        idx = [s.space.index(lab) for lab in labels]
        ti = s.space.index(s.causal_target)
        for _ in range(200):
            k = rng.randint(1, 5)
            picks = [rng.randrange(len(vs.vertices)) for _ in range(k)]
            raw = [Fraction(rng.randint(1, 12)) for _ in picks]
            total = sum(raw)
            weights = [r / total for r in raw]
            point = {
                lab: sum(w * vs.vertices[p][i] for w, p in zip(weights, picks))
                for lab, i in zip(labels, idx)
            }
            truth = sum(w * vs.vertices[p][ti] for w, p in zip(weights, picks))
            iv = evaluate_bounds(bs, point)
            lo, hi = oracle_interval(s, point)
            if not (
                lo.status == "optimal"
                and hi.status == "optimal"
                and lo.value == iv.lower
                and hi.value == iv.upper
                and iv.lower <= truth <= iv.upper
            ):
                ok = False
                break
        if not ok:
            break
    report(8, "LP oracle equals the bound forms exactly on 200 random mixtures per scenario", ok)


def test_criterion_09_parameter_images_are_members():
    rng = random.Random(7)
    ok = True
    for name, s in SCENARIOS.items():
        h = scenario_hull(name)
        for _ in range(1000):
            pp = random_parameter_point(rng, uses_psi=s.uses_psi)
            point = xi_transform(s, pp)
            if not h.contains(point).member:
                ok = False
                break
        if not ok:
            break
    report(9, "1000 random parameter points per scenario satisfy every equality and facet exactly", ok)


def test_criterion_10_instrumental_inequality():
    bad = build_tables(zeta=CONTRADICTION)
    ok = (
        instrumental_inequality(load("lipid")).passed
        and instrumental_inequality(load("vitamin-a")).passed
        and not instrumental_inequality(bad).passed
    )
    report(10, "instrumental inequality passes both datasets and fails the contradiction table", ok)


def test_criterion_11_assignment_effect_consistency():
    ok = True
    for dataset in ("lipid", "vitamin-a"):
        t = load(dataset)
        closed = beta_bounds(t)
        derived = evaluate_bounds(derive("beta"), t)
        observed_diff = t.gamma[(1, 2)] - t.gamma[(1, 1)]
        ok = (
            ok
            and closed.lower <= observed_diff <= closed.upper
            and (closed.lower, closed.upper) == (derived.lower, derived.upper)
        )
    report(11, "gamma12 - gamma11 lies inside the closed-form interval, which equals the derived one", ok)


def test_criterion_12_interval_nesting():
    rng = random.Random(99)
    names = ("trivariate", "pairwise3", "bivariate")
    sets = {name: derive(name) for name in names}
    scens = {name: get_scenario(name) for name in names}
    ok = True
    for _ in range(100):
        k = rng.randint(2, 4)
        psi = Fraction(rng.randint(1, 999), 1000)
        atoms = [
            ParameterPoint(p.eta0, p.eta1, p.delta1, p.delta2, psi)
            for p in (random_parameter_point(rng, uses_psi=False) for _ in range(k))
        ]
        raw = [Fraction(rng.randint(1, 9)) for _ in range(k)]
        total = sum(raw)
        weights = [r / total for r in raw]
        ivs = {}
        for name in names:
            s = scens[name]
            images = [xi_transform(s, a) for a in atoms]
            point = {
                lab: sum(w * img[lab] for w, img in zip(weights, images))
                for lab in s.observable_labels
            }
            if not model_check(sets[name], point, 0).passed:
                ok = False
                break
            ivs[name] = evaluate_bounds(sets[name], point)
        if not ok:
            break
        tri, pw, biv = ivs["trivariate"], ivs["pairwise3"], ivs["bivariate"]
        nested = (
            biv.lower <= pw.lower <= tri.lower
            and tri.upper <= pw.upper <= biv.upper
            and tri.lower <= tri.upper
        )
        if not nested:
            ok = False
            break
    report(12, "trivariate interval nests inside pairwise3 inside bivariate on 100 random joints", ok)
