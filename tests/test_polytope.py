"""Facet enumeration on known polytopes, exactness and determinism."""

import itertools
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ivbounds import bounds, polytope
from ivbounds.bounds import scenario_hull
from ivbounds.forms import (
    AffineForm,
    CoordinateSpace,
    LinearConstraint,
    MissingCoordinate,
    Relation,
    canonicalize,
    constraint_from_row,
    format_rational,
)
from ivbounds.introws import integer_rows, primitive
from ivbounds.scenarios import SCENARIOS, scenario_vertex_set
from ivbounds.polytope import (
    DimensionOverflow,
    HRepresentation,
    MembershipReport,
    VertexSet,
    affine_hull,
    facet_enumeration,
    reduce_mod_equalities,
)


def space(dim, prefix="x"):
    return CoordinateSpace(f"{prefix}{dim}", tuple(f"{prefix}{i}" for i in range(dim)))


def cube_vertices(dim):
    return list(itertools.product((0, 1), repeat=dim))


def simplex_vertices(dim):
    pts = [tuple(0 for _ in range(dim))]
    for i in range(dim):
        pts.append(tuple(1 if j == i else 0 for j in range(dim)))
    return pts


def cross_vertices(dim):
    pts = []
    for i in range(dim):
        for s in (1, -1):
            pts.append(tuple(s if j == i else 0 for j in range(dim)))
    return pts


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_hypercube(dim):
    h = facet_enumeration(VertexSet.from_points(space(dim), cube_vertices(dim)))
    assert h.affine_dimension == dim
    assert not h.equalities
    assert len(h.facets) == 2 * dim


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_simplex(dim):
    h = facet_enumeration(VertexSet.from_points(space(dim), simplex_vertices(dim)))
    assert h.affine_dimension == dim
    assert len(h.facets) == dim + 1


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cross_polytope(dim):
    h = facet_enumeration(VertexSet.from_points(space(dim), cross_vertices(dim)))
    assert h.affine_dimension == dim
    assert len(h.facets) == 2**dim


def test_single_point_is_dimension_zero():
    h = facet_enumeration(VertexSet.from_points(space(3), [(1, 2, 3)]))
    assert h.affine_dimension == 0
    assert len(h.equalities) == 3
    assert not h.facets
    assert h.contains((1, 2, 3)).member
    assert not h.contains((1, 2, 4)).member


def test_segment_in_three_dimensions():
    """A 1-dimensional hull: two equalities, two endpoint facets."""
    h = facet_enumeration(VertexSet.from_points(space(3), [(0, 0, 0), (1, 2, 2)]))
    assert h.affine_dimension == 1
    assert len(h.equalities) == 2
    assert len(h.facets) == 2
    assert h.contains(("1/2", 1, 1)).member
    assert not h.contains(("1/2", 1, "3/2")).member
    assert not h.contains((2, 4, 4)).member


def test_duplicate_vertices_are_merged():
    vs = VertexSet.from_points(space(2), [(0, 0), (1, 0), (0, 0), ("0.0", 0)])
    assert len(vs) == 2


def test_empty_vertex_set_rejected():
    with pytest.raises(ValueError):
        VertexSet.from_points(space(2), [])


def test_dimension_overflow():
    sp = space(17)
    with pytest.raises(DimensionOverflow):
        facet_enumeration(VertexSet.from_points(sp, [tuple(range(17))]))


def test_affine_hull_equalities_are_triangular():
    """Each equality owns a distinct trailing coordinate."""
    sp = space(4)
    vs = VertexSet.from_points(
        sp, [(0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)]
    )
    hull = affine_hull(vs)
    assert hull.dimension == 2
    trailing = []
    for eq in hull.equalities:
        nz = [i for i, c in enumerate(eq.form.coefficients) if c]
        trailing.append(max(nz))
    assert len(set(trailing)) == len(trailing)


def test_reduce_mod_equalities_gives_unique_representative():
    sp = space(3)
    eq = canonicalize(
        LinearConstraint(AffineForm.parse(sp, "x0 + x1 + x2 - 1"), Relation.EQ)
    )
    a = AffineForm.parse(sp, "x0 + x2")
    b = AffineForm.parse(sp, "1 - x1")  # equal modulo the equality
    ra = reduce_mod_equalities(a, (eq,))
    rb = reduce_mod_equalities(b, (eq,))
    assert ra == rb
    assert ra.coefficients[2] == 0  # trailing coordinate eliminated


def test_reduce_with_no_equalities_is_identity():
    sp = space(2)
    f = AffineForm.parse(sp, "x0 - x1 + 3")
    assert reduce_mod_equalities(f, ()) is f


def shuffle_invariance_case(points, dim, seed):
    sp = space(dim)
    base = facet_enumeration(VertexSet.from_points(sp, points))
    rng = random.Random(seed)
    shuffled = list(points)
    rng.shuffle(shuffled)
    again = facet_enumeration(VertexSet.from_points(sp, shuffled))
    assert again.facets == base.facets
    assert again.equalities == base.equalities


def test_facets_do_not_depend_on_vertex_order():
    shuffle_invariance_case(cube_vertices(4), 4, seed=7)
    shuffle_invariance_case(cross_vertices(3), 3, seed=8)
    shuffle_invariance_case(simplex_vertices(5), 5, seed=9)


def affine_rank(points):
    """Largest number of affinely independent points (reference Gaussian elimination)."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        found = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        pivot = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / pivot[col]
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank + 1


def assert_exact_facets(vs, h):
    """Exact certificate of an H-representation of conv(vs).

    Soundness: no vertex violates an equality or facet. Dimension: the
    vertices' affine rank is affine_dimension + 1. Tightness: the vertices
    on each facet have affine rank affine_dimension, so each facet is a
    face of codimension one, not merely a valid inequality.
    """
    for v in vs.vertices:
        assert h.contains(v).member
    assert affine_rank(vs.vertices) == h.affine_dimension + 1
    assert len(h.equalities) == vs.space.dimension - h.affine_dimension
    assert len({f.key() for f in h.facets}) == len(h.facets)
    for facet in h.facets:
        on = [v for v in vs.vertices if facet.form.evaluate_vector(v) == 0]
        assert on and affine_rank(on) == h.affine_dimension
    # facet_enumeration hands over its integer rows: they must be what the constraints compile to.
    assert h._rows == HRepresentation(h.space, h.equalities, h.facets, h.affine_dimension)._rows


point_strategy = st.tuples(
    *(st.integers(min_value=-3, max_value=3) for _ in range(3))
)
small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def embedded_point_sets(draw):
    """Rational points of a 1-3 dimensional set, mapped affinely into 4-5 coordinates."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=4, max_value=5))
    low = draw(st.lists(st.tuples(*(small_rational,) * k), min_size=1, max_size=9))
    linear = draw(st.lists(st.tuples(*(st.integers(-2, 2),) * k), min_size=n, max_size=n))
    shift = draw(st.tuples(*(small_rational,) * n))
    points = [
        tuple(sum(a * y for a, y in zip(row, p)) + s for row, s in zip(linear, shift))
        for p in low
    ]
    return VertexSet.from_points(space(n), points)


integer_point_sets = st.lists(point_strategy, min_size=1, max_size=10).map(
    lambda points: VertexSet.from_points(space(3), points)
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(integer_point_sets, embedded_point_sets()))
def test_facet_enumeration_soundness_and_tightness(vs):
    assert_exact_facets(vs, facet_enumeration(vs))


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_registry_hulls_are_certified(name):
    vs = scenario_vertex_set(name)
    h = scenario_hull(name)
    assert_exact_facets(vs, h)
    for facet in h.facets:
        reduced = reduce_mod_equalities(facet.form, h.equalities)
        assert all(reduced.evaluate_vector(v) == facet.form.evaluate_vector(v) for v in vs.vertices)


@settings(max_examples=60, deadline=None)
@given(embedded_point_sets(), st.data())
def test_reduce_mod_equalities_agrees_on_vertices_and_is_idempotent(vs, data):
    equalities = affine_hull(vs).equalities
    n = vs.space.dimension
    form = AffineForm(
        vs.space,
        tuple(data.draw(st.tuples(*(small_rational,) * n))),
        data.draw(small_rational),
    )
    reduced = reduce_mod_equalities(form, equalities)
    for v in vs.vertices:
        assert reduced.evaluate_vector(v) == form.evaluate_vector(v)
    assert reduce_mod_equalities(reduced, equalities) == reduced


@settings(max_examples=30, deadline=None)
@given(st.lists(point_strategy, min_size=2, max_size=8))
def test_centroid_is_inside(points):
    sp = space(3)
    vs = VertexSet.from_points(sp, points)
    h = facet_enumeration(vs)
    n = len(vs.vertices)
    centroid = tuple(sum(v[i] for v in vs.vertices) / Fraction(n) for i in range(3))
    assert h.contains(centroid).member


def test_facet_minimality_on_square_with_interior_points():
    """Interior and edge points must not add facets."""
    sp = space(2)
    pts = cube_vertices(2) + [("1/2", "1/2"), ("1/2", 0), (0, "1/2")]
    h = facet_enumeration(VertexSet.from_points(sp, pts))
    assert len(h.facets) == 4
    assert h.affine_dimension == 2


def test_membership_report_slack_details():
    sp = space(2)
    h = facet_enumeration(VertexSet.from_points(sp, cube_vertices(2)))
    rep = h.contains((2, "1/2"))
    assert not rep.member
    kinds = {v[0] for v in rep.violations}
    assert kinds == {"facet"}
    worst = min(v[2] for v in rep.violations)
    assert worst == -1


def test_json_dict_is_integral():
    sp = space(2)
    h = facet_enumeration(VertexSet.from_points(sp, [(0, 0), ("1/2", 0), (0, "1/3")]))
    d = h.to_json_dict()
    assert d["dim"] == 2
    for row in d["facets"] + d["equalities"]:
        assert all(isinstance(v, int) for v in row)


def test_json_dict_names_the_first_non_integer_row():
    sp = space(2)
    half = LinearConstraint(AffineForm(sp, (Fraction(1, 2), 0)), Relation.GEQ)
    whole = LinearConstraint(AffineForm(sp, (1, 0)), Relation.GEQ)
    line = LinearConstraint(AffineForm(sp, (0, 1), -1), Relation.EQ)
    h = HRepresentation(sp, (line,), (whole, half), 1)
    with pytest.raises(ValueError, match=r"^facet 1 has a non-integer coefficient: 1/2\*x0 >= 0$"):
        h.to_json_dict()
    third = LinearConstraint(AffineForm(sp, (0, 1), Fraction(-1, 3)), Relation.EQ)
    with pytest.raises(ValueError, match=r"^equality 1 has a non-integer coefficient: x1 = 1/3$"):
        HRepresentation(sp, (line, third), (whole, half), 1).to_json_dict()
    assert HRepresentation(sp, (line,), (whole,), 1).to_json_dict()["facets"] == [[1, 0, 0]]


def test_equalities_given_by_hand_must_be_equalities():
    sp = space(2)
    geq = LinearConstraint(AffineForm(sp, (1, 0)), Relation.GEQ)
    with pytest.raises(ValueError, match="^reduce_mod_equalities expects EQ constraints$"):
        reduce_mod_equalities(AffineForm(sp, (1, 1)), [geq])
    with pytest.raises(ValueError, match="^reduce_mod_equalities expects EQ constraints$"):
        bounds.partition(HRepresentation(sp, (geq,), (geq,), 1))


def reference_contains(h, point):
    """contains as it was written on Fractions: each form evaluated in turn."""
    vec = h.space.vector(point)
    eq_slacks = tuple(c.form.evaluate_vector(vec) for c in h.equalities)
    facet_slacks = tuple(c.form.evaluate_vector(vec) for c in h.facets)
    violations = [("equality", i, s) for i, s in enumerate(eq_slacks) if s != 0]
    violations += [("facet", i, s) for i, s in enumerate(facet_slacks) if s < 0]
    return MembershipReport(not violations, eq_slacks, facet_slacks, tuple(violations))


def outcome(contains, point):
    try:
        return contains(point)
    except (MissingCoordinate, ValueError) as exc:
        return type(exc), str(exc)


positive_rational = st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9)


@st.composite
def hulls_and_points(draw):
    """A registry hull (maybe with rational rows) and a point on, off or beside it."""
    name = draw(st.sampled_from(list(SCENARIOS)))
    vs, h = scenario_vertex_set(name), scenario_hull(name)
    if draw(st.booleans()):
        # Positive multiples with denominators: the same polytope, non-integer rows.
        factors = draw(st.lists(positive_rational, min_size=1, max_size=3))
        eqs, facets = (
            tuple(LinearConstraint(c.form.scaled(factors[i % len(factors)]), c.relation)
                  for i, c in enumerate(cons))
            for cons in (h.equalities, h.facets)
        )
        h = HRepresentation(h.space, eqs, facets, h.affine_dimension)
    weights = draw(st.lists(st.integers(0, 6), min_size=len(vs), max_size=len(vs)))
    weights[draw(st.integers(0, len(vs) - 1))] += 1
    point = [sum(w * x for w, x in zip(weights, col)) / sum(weights) for col in zip(*vs.vertices)]
    kind = draw(st.sampled_from(["mixture", "perturbed", "free", "missing", "wrong length"]))
    if kind == "perturbed":
        j = draw(st.integers(0, len(point) - 1))
        point[j] += draw(st.fractions(-1, 1, max_denominator=40).filter(bool))
    elif kind == "free":
        free = st.fractions(-2, 2, max_denominator=60)
        point = draw(st.lists(free, min_size=len(point), max_size=len(point)))
    as_text = draw(st.booleans())
    values = [format_rational(v) if as_text else v for v in point]
    if kind == "wrong length":
        cut = draw(st.integers(0, len(values) - 1))
        return kind, h, values[:cut] if draw(st.booleans()) else values + [0]
    mapping = dict(zip(h.space.labels, values))
    if kind == "missing":
        del mapping[draw(st.sampled_from(h.space.labels))]
    return kind, h, mapping if draw(st.booleans()) or kind == "missing" else values


@settings(max_examples=100, deadline=None)
@given(hulls_and_points())
def test_contains_matches_the_per_facet_fraction_reference(case):
    kind, h, point = case
    report = outcome(h.contains, point)
    assert report == outcome(lambda p: reference_contains(h, p), point)
    if kind == "missing":
        assert report[0] is MissingCoordinate
    elif kind == "wrong length":
        assert report[0] is ValueError
    else:
        assert report.member or kind != "mixture"
        slacks = report.equality_slacks + report.facet_slacks
        assert all(type(s) is Fraction for s in slacks + tuple(v[2] for v in report.violations))


# The double description tests adjacency through per-constraint sets of
# tight ray ids; reference.polar_extreme_rays scans every other ray's mask
# instead. The facets, and their order, must be the same.


@st.composite
def degenerate_point_sets(draw):
    """Integer points in 4 coordinates, often on a common hyperplane, line or point."""
    points = draw(st.lists(st.tuples(*(st.integers(0, 2),) * 4), min_size=1, max_size=14))
    if draw(st.booleans()):
        points = [(a, b, c, a + b - c) for a, b, c, _ in points]
    return VertexSet.from_points(space(4), points)


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_point_sets, embedded_point_sets(), degenerate_point_sets()))
def test_indexed_adjacency_matches_the_mask_scan(vs):
    with patch.object(polytope, "_polar_extreme_rays", reference.polar_extreme_rays):
        expected = facet_enumeration(vs)
    h = facet_enumeration(vs)
    assert (h.equalities, h.facets, h.affine_dimension) == (
        expected.equalities, expected.facets, expected.affine_dimension,
    )


# facet_enumeration hands the HRepresentation its integer facet rows and
# leaves the Fraction facets to be built from them at their first read,
# which derivation never makes.


def fresh_derivation(name):
    """(hull, BoundSet) of a derivation that shares no cached hull with other tests."""
    hulls = []

    def fresh_hull(*args):
        hulls.append(scenario_hull.__wrapped__(*args))
        return hulls[-1]

    with patch.object(bounds, "scenario_hull", fresh_hull):
        bs = bounds.derive.__wrapped__(name)
    return hulls[0], bs


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_derivation_leaves_facets_unbuilt_until_read(name):
    h, bs = fresh_derivation(name)
    assert bs == bounds.derive(name)
    assert "facets" not in vars(h)
    (_, rows), den = h._rows
    assert den == 1 and rows == sorted(rows)
    facets = h.facets
    assert facets is h.facets and vars(h)["facets"] is facets
    assert facets == tuple(constraint_from_row(h.space, row, Relation.GEQ) for row in rows)
    assert facets == tuple(
        canonicalize(LinearConstraint(AffineForm(h.space, row[:-1], row[-1]), Relation.GEQ))
        for row in rows
    )
    with pytest.raises(AttributeError, match="no attribute 'facet'"):
        h.facet


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_unbuilt_facets_compare_and_print_like_a_hand_built_hull(name):
    built = scenario_hull(name)
    hand = HRepresentation(built.space, built.equalities, built.facets, built.affine_dimension)
    assert hand.facets is built.facets
    lazy = facet_enumeration(scenario_vertex_set(name))
    assert "facets" not in vars(lazy)
    assert repr(lazy) == repr(hand)
    lazy = facet_enumeration(scenario_vertex_set(name))
    assert lazy == hand and hash(lazy) == hash(hand)
    assert lazy._rows == hand._rows


@pytest.mark.parametrize("name", list(SCENARIOS))
@pytest.mark.parametrize("include_target", [True, False])
def test_scenario_vertex_rows_are_the_integer_rows_of_the_vertices(name, include_target):
    vs = scenario_vertex_set(name, include_target=include_target)
    assert vs._rows == integer_rows([vs.vertices])
    assert VertexSet(vs.space, vs.vertices)._rows == vs._rows


@pytest.mark.parametrize("name", list(SCENARIOS))
@pytest.mark.parametrize("include_target", [True, False])
def test_double_description_matches_the_mask_scan_on_registry_charts(name, include_target):
    vs = scenario_vertex_set(name, include_target=include_target)
    hull = affine_hull(vs)
    (points,), scale = vs._rows
    chart = [primitive((scale, *(v[p] for p in hull.pivots))) for v in points]
    rays = polytope._polar_extreme_rays(chart, hull.dimension)
    assert all(primitive(ray) == ray for ray in rays)
    assert sorted(rays) == sorted(reference.polar_extreme_rays(chart, hull.dimension))
    assert len(set(rays)) == len(rays) == len(scenario_hull(name, include_target).facets)


# Each derived object holds its integer rows; the field views are built on first read.
VIEWS = {
    VertexSet: ("vertices",),
    polytope.AffineHull: ("equalities",),
    HRepresentation: ("equalities", "facets"),
    bounds.BoundSet: (
        "lower_forms", "upper_forms", "observable_tests", "trivial_tests", "hull_equalities"
    ),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_derivation_leaves_every_view_unbuilt_until_read(name):
    vs = scenario_vertex_set.__wrapped__(name)
    hull, (h, bs) = affine_hull(vs), fresh_derivation(name)
    for obj in (vs, hull, h, bs):
        views = VIEWS[type(obj)]
        assert not set(views) & vars(obj).keys()
        for view in views:
            built = getattr(obj, view)
            assert vars(obj)[view] is built and getattr(obj, view) is built
        hand = type(obj)(**{field: getattr(obj, field) for field in obj._fields})
        assert hand == obj and repr(hand) == repr(obj)
        # A hand-built object compiles the same rows from its tuples (only
        # affine_hull makes an AffineHull's rows, which facet_enumeration reads).
        assert type(obj) is polytope.AffineHull or hand._rows == obj._rows
    assert vs == scenario_vertex_set(name) and len(vs) == len(vs.vertices)
    assert hull.equalities == h.equalities == scenario_hull(name).equalities
