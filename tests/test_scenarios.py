"""Scenario registry and the parameter-to-observable transform."""

import random
from fractions import Fraction

import pytest

from ivbounds.bounds import derive
from ivbounds.forms import CoordinateSpace
from ivbounds.scenarios import (
    SCENARIOS,
    Coordinate,
    ParameterPoint,
    Scenario,
    UnsupportedCoordinateError,
    enumerate_parameter_vertices,
    get_scenario,
    make_scenario,
    parse_coordinate,
    scenario_vertex_set,
    xi_transform,
)

import reference
from sampling import observable_vertex_set, random_parameter_point

# One interior point, all transforms worked out by hand.
P = ParameterPoint(
    eta0=Fraction(1, 4),
    eta1=Fraction(2, 3),
    delta1=Fraction(1, 2),
    delta2=Fraction(3, 5),
    psi=Fraction(1, 3),
)

# Every label of every kind, read at a point through one scenario's transform.
EVERY_KIND = make_scenario("every-kind", [
    *(f"g{c}{a}" for c in (0, 1) for a in (1, 2)),
    *(f"t{b}{a}" for b in (0, 1) for a in (1, 2)),
    *(f"z{c}{b}.{a}" for c in (0, 1) for b in (0, 1) for a in (1, 2)),
    *(f"p{c}{b}" for c in (0, 1) for b in (0, 1)),
    *(f"x{c}{b}{a}" for c in (0, 1) for b in (0, 1) for a in (1, 2)),
    "alpha", "beta",
])


def image(label: str, p: ParameterPoint) -> Fraction:
    return xi_transform(EVERY_KIND, p)[label]


class TestTransform:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("t11", Fraction(1, 2)),
            ("t01", Fraction(1, 2)),
            ("t12", Fraction(3, 5)),
            ("t02", Fraction(2, 5)),
            ("g11", Fraction(11, 24)),
            ("g01", Fraction(13, 24)),
            ("g12", Fraction(1, 2)),
            ("g02", Fraction(1, 2)),
            ("z01.1", Fraction(1, 6)),
            ("z10.1", Fraction(1, 8)),
            ("z00.2", Fraction(3, 10)),
            ("p00", Fraction(7, 20)),
            ("x001", Fraction(1, 4)),
            ("x002", Fraction(1, 10)),
            ("alpha", Fraction(5, 12)),
            ("beta", Fraction(1, 24)),
        ],
    )
    def test_hand_computed_values(self, label, expected):
        assert image(label, P) == expected

    def test_blocks_sum_to_one(self):
        for a in (1, 2):
            assert sum(image(f"z{c}{b}.{a}", P) for c in (0, 1) for b in (0, 1)) == 1
            assert sum(image(f"g{c}{a}", P) for c in (0, 1)) == 1
            assert sum(image(f"t{b}{a}", P) for b in (0, 1)) == 1
        assert sum(image(f"p{c}{b}", P) for c in (0, 1) for b in (0, 1)) == 1
        assert sum(
            image(f"x{c}{b}{a}", P) for c in (0, 1) for b in (0, 1) for a in (1, 2)
        ) == 1

    def test_multilinearity_in_each_parameter(self):
        """Fixing all but one parameter, every coordinate is affine in it."""
        rng = random.Random(5)
        labels = [
            "g01", "g12", "t02", "t11", "z00.1", "z11.2", "p01", "p10",
            "x101", "x012", "alpha", "beta",
        ]
        fields = ("eta0", "eta1", "delta1", "delta2", "psi")
        for _ in range(20):
            base = random_parameter_point(rng, denominator=24)
            for field in fields:
                lo = ParameterPoint(**{**_asdict(base), field: Fraction(0)})
                hi = ParameterPoint(**{**_asdict(base), field: Fraction(1)})
                mid = ParameterPoint(**{**_asdict(base), field: Fraction(1, 2)})
                for label in labels:
                    assert image(label, mid) == (image(label, lo) + image(label, hi)) / 2, (
                        field, label,
                    )

    def test_q_label_rejected_with_explanation(self):
        with pytest.raises(UnsupportedCoordinateError, match="convex"):
            parse_coordinate("q01")

    def test_unknown_label_rejected(self):
        with pytest.raises(UnsupportedCoordinateError):
            parse_coordinate("w00")
        with pytest.raises(UnsupportedCoordinateError):
            parse_coordinate("g13")  # arm 3 does not exist

    @pytest.mark.parametrize("scenario", [*SCENARIOS.values(), EVERY_KIND], ids=lambda s: s.name)
    def test_equals_the_closed_forms_on_random_points(self, scenario):
        rng = random.Random(17)
        for _ in range(200):
            p = random_parameter_point(rng, denominator=rng.choice((7, 60, 1000)))
            expected = {label: reference.transform(label, p) for label in scenario.space.labels}
            assert xi_transform(scenario, p) == expected

    @pytest.mark.parametrize("scenario", [*SCENARIOS.values(), EVERY_KIND], ids=lambda s: s.name)
    def test_each_response_type_image_equals_the_closed_forms_at_its_corner(self, scenario):
        """At a 0/1 point one type has weight 1, so the image is that type's integer image."""
        corners = enumerate_parameter_vertices(scenario)
        assert len(corners) == (32 if scenario.uses_psi else 16)
        for p in corners:
            img = xi_transform(scenario, p)
            assert img == {label: reference.transform(label, p) for label in scenario.space.labels}
            assert all(v.denominator == 1 for v in img.values())

    def test_parameter_point_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            ParameterPoint(Fraction(3, 2), 0, 0, 0)


def _asdict(p: ParameterPoint) -> dict:
    return {
        "eta0": p.eta0, "eta1": p.eta1,
        "delta1": p.delta1, "delta2": p.delta2, "psi": p.psi,
    }


class TestRegistry:
    def test_registry_names(self):
        assert list(SCENARIOS) == ["fig3", "bivariate", "trivariate", "pairwise3", "beta"]

    def test_targets(self):
        assert SCENARIOS["fig3"].causal_target is None
        assert SCENARIOS["bivariate"].causal_target == "alpha"
        assert SCENARIOS["trivariate"].causal_target == "alpha"
        assert SCENARIOS["pairwise3"].causal_target == "alpha"
        assert SCENARIOS["beta"].causal_target == "beta"

    def test_parameter_vertex_counts(self):
        assert len(enumerate_parameter_vertices("bivariate")) == 16
        assert len(enumerate_parameter_vertices("trivariate")) == 16
        assert len(enumerate_parameter_vertices("beta")) == 16
        assert len(enumerate_parameter_vertices("fig3")) == 32
        assert len(enumerate_parameter_vertices("pairwise3")) == 32

    def test_distinct_image_counts(self):
        expected = {"fig3": 8, "bivariate": 16, "trivariate": 16, "pairwise3": 24, "beta": 8}
        for name, count in expected.items():
            assert len(scenario_vertex_set(name)) == count, name

    @pytest.mark.parametrize("with_target", [True, False])
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_vertex_set_equals_the_fraction_reference(self, name, with_target):
        """Integer images, wrapped once, equal the closed forms at the corners, first seen first."""
        s = get_scenario(name)
        space = s.space if with_target else s.observable_space
        expected = []
        for p in enumerate_parameter_vertices(s):
            vec = tuple(reference.transform(label, p) for label in space.labels)
            if vec not in expected:
                expected.append(vec)
        vs = scenario_vertex_set(name) if with_target else observable_vertex_set(name)
        assert vs.space == space
        assert vs.vertices == tuple(expected)
        assert all(type(v) is Fraction for vertex in vs.vertices for v in vertex)

    def test_parameter_vertices_count_up_in_eta0_eta1_delta1_delta2_psi_order(self):
        bits = [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (1, 1, 1, 1, 1)]
        vertices = enumerate_parameter_vertices("pairwise3")
        assert [vertices[i] for i in (0, 1, 2, 31)] == [ParameterPoint(*b) for b in bits]
        assert enumerate_parameter_vertices("trivariate")[1] == ParameterPoint(0, 0, 0, 1)
        assert all(type(p.psi) is Fraction for p in enumerate_parameter_vertices("beta"))

    def test_fig3_images_are_unit_vectors(self):
        vs = scenario_vertex_set("fig3")
        units = {tuple(1 if j == i else 0 for j in range(8)) for i in range(8)}
        assert set(vs.vertices) == units

    def test_observable_space_excludes_target(self):
        s = get_scenario("trivariate")
        assert "alpha" not in s.observable_labels
        assert len(s.observable_labels) == 8
        obs = observable_vertex_set(s)
        assert obs.space.dimension == 8

    def test_beta_vertex_targets(self):
        vs = scenario_vertex_set("beta")
        ti = vs.space.index("beta")
        assert {v[ti] for v in vs.vertices} == {-1, 0, 1}

    def test_get_scenario_passthrough_and_errors(self):
        s = get_scenario("beta")
        assert get_scenario(s) is s
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_uses_psi_follows_from_labels(self):
        assert {n for n, s in SCENARIOS.items() if s.uses_psi} == {"fig3", "pairwise3"}

    def test_make_scenario_validates(self):
        with pytest.raises(UnsupportedCoordinateError):
            make_scenario("bad", ["g01", "q00"])
        with pytest.raises(ValueError, match="not among"):
            make_scenario("bad", ["g01", "g02"], causal_target="alpha")
        with pytest.raises(ValueError, match="^scenario 'e' has no coordinate labels$"):
            make_scenario("e", [])

    def test_a_hand_built_scenario_is_checked_as_make_scenario_checks(self):
        # derive takes a Scenario as given, so it must refuse what make_scenario refuses
        with pytest.raises(ValueError, match="^scenario 'e' has no coordinate labels$"):
            derive(Scenario("e", CoordinateSpace("e", ()), None))
        with pytest.raises(UnsupportedCoordinateError, match="unknown coordinate label 'y'"):
            Scenario("x", CoordinateSpace("x", ("t01", "y")), None)
        with pytest.raises(ValueError, match="^target 'alpha' is not among the labels$"):
            Scenario("x", CoordinateSpace("x", ("t01", "t02")), "alpha")
        # a derived BoundSet names the scenario after its space, so the two names must agree
        beta = get_scenario("beta")
        with pytest.raises(ValueError, match="^scenario 'x' has a space named 'beta'$"):
            derive(Scenario("x", beta.space, "beta"))
        assert Scenario("beta", beta.space, "beta") == beta

    def test_xi_transform_covers_all_labels(self):
        img = xi_transform("pairwise3", P)
        assert set(img) == set(SCENARIOS["pairwise3"].space.labels)
        assert img["alpha"] == Fraction(5, 12)


REGISTRY_LABELS = tuple(dict.fromkeys(l for s in SCENARIOS.values() for l in s.space.labels))
# Label prefix -> (kind, the index names its table key carries, in order).
KEY_FIELDS = {"g": ("gamma", "ca"), "t": ("theta", "ba"), "z": ("zeta", "cba"),
              "p": ("phi", "cb"), "x": ("xi", "cba")}


class TestParseCoordinate:
    @pytest.mark.parametrize("label", REGISTRY_LABELS)
    def test_registry_label_carries_its_table_key(self, label):
        coord = parse_coordinate(label)
        if label in ("alpha", "beta"):
            assert coord == Coordinate(label)
            assert coord.key == ()
            return
        kind, fields = KEY_FIELDS[label[0]]
        digits = tuple(int(ch) for ch in label if ch.isdigit())
        assert coord.kind == kind
        assert coord.key == digits
        carried = {f: getattr(coord, f) for f in "cba" if getattr(coord, f) is not None}
        assert carried == dict(zip(fields, digits))


class TestRandomPoints:
    def test_range_and_psi_flag(self):
        rng = random.Random(0)
        for _ in range(50):
            p = random_parameter_point(rng, uses_psi=False, denominator=10)
            assert p.psi == 0
            for v in (p.eta0, p.eta1, p.delta1, p.delta2):
                assert 0 <= v <= 1 and v.denominator <= 10

    def test_deterministic_under_seed(self):
        a = random_parameter_point(random.Random(42))
        b = random_parameter_point(random.Random(42))
        assert a == b
