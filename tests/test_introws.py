"""Fraction-free integer row operations against plain Fraction elimination."""

from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivbounds.introws import (
    PackedRows,
    clear_denominators,
    integer_rows,
    pivot,
    primitive,
    rref,
)
import reference
from reference import independent_rows, scaled_inverse


def reference_step(rows, r, col):
    """Textbook Gauss-Jordan step over Fractions on entry (r, col), in place."""
    rows[r] = [v / rows[r][col] for v in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][col]:
            f = rows[i][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]


def reference_rref(rows, width):
    """Textbook Gauss-Jordan over Fractions: (nonzero rows, pivot columns)."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        reference_step(rows, rank, col)
        pivots.append(col)
    return rows[: len(pivots)], pivots


@st.composite
def low_rank_matrices(draw):
    """Integer matrices whose rows are combinations of a few random rows."""
    cols = draw(st.integers(min_value=1, max_value=7))
    base = draw(st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=1, max_size=5))
    mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)), min_size=1, max_size=7))
    return [[sum(m * b[j] for m, b in zip(weights, base)) for j in range(cols)] for weights in mix]


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices(), st.data())
def test_rref_is_d_times_the_reduced_row_echelon_form(rows, data):
    width = data.draw(st.integers(min_value=1, max_value=len(rows[0])))
    reduced, d, pivots = rref(rows, width)
    expected, expected_pivots = reference_rref(rows, width)
    assert d > 0
    assert pivots == expected_pivots
    assert [[Fraction(v, d) for v in r] for r in reduced] == expected


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices(), st.data())
def test_pivot_is_a_scaled_gauss_jordan_step(rows, data):
    # Any sequence of pivots on nonzero entries is a simplex-style basis
    # change, so every division stays exact and the scale is +-det(basis).
    expected = [[Fraction(v) for v in r] for r in rows]
    scale = 1
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        nonzero = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        if not nonzero:
            return
        r, col = data.draw(st.sampled_from(nonzero))
        scale = pivot(rows, r, col, scale)
        reference_step(expected, r, col)
        assert scale == rows[r][col]
        assert [[Fraction(v, scale) for v in row] for row in rows] == expected


@st.composite
def sparse_tableaux(draw):
    """Mostly-zero rows of 0 and +-1, like the oracle's tableaux of vertex images.

    A few +-2 entries make pivots whose quotients are not integers, also
    among those that leave the scale as it was.
    """
    cols = draw(st.integers(min_value=2, max_value=9))
    entries = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=2, max_size=8))


def test_sparse_pivots_give_the_dense_steps_integers():
    # Pivots on entries equal to the scale keep it, so runs with p == prev are
    # common. Which update each row needs is read off its input, and every
    # kind must occur: skipped (0 in the pivot column, p == prev), rescaled
    # only (0 there, p != prev) and rewritten with p == prev and with p != prev.
    kinds = set()

    @settings(max_examples=300, deadline=None)
    @given(sparse_tableaux(), st.data())
    def check(rows, data):
        dense = [list(r) for r in rows]
        scale = 1
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            nonzero = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
            if not nonzero:
                return
            r, col = data.draw(st.sampled_from(nonzero))
            before = list(rows)
            snapshots = [list(row) for row in rows]
            p = rows[r][col]
            assert pivot(rows, r, col, scale) == reference.pivot(dense, r, col, scale) == p
            assert rows == dense
            # Rows are replaced, never edited in place: every input list is as it was.
            assert before == snapshots
            assert rows[r] is before[r]
            for i, row in enumerate(before):
                if i == r:
                    continue
                if row[col]:
                    kinds.add("subtract" if p == scale else "rewrite")
                else:
                    kinds.add("skip" if p == scale else "rescale")
                # A skipped row is the very list it was, shared with whoever else holds it.
                assert (rows[i] is row) == (p == scale and not row[col])
            scale = p

    check()
    assert kinds == {"skip", "rescale", "subtract", "rewrite"}


rationals = st.one_of(st.integers(-50, 50), st.fractions(-5, 5, max_denominator=60))
rational_vectors = st.lists(rationals, max_size=6)


@settings(max_examples=100, deadline=None)
@given(rational_vectors)
def test_clear_denominators_uses_the_least_common_denominator(values):
    ints, d = clear_denominators(values)
    assert d > 0 and all(type(v) is int for v in ints)
    assert [Fraction(n, d) for n in ints] == [Fraction(v) for v in values]
    # Least: every prime factor of d (all are below 60) is needed by some value.
    for p in (p for p in range(2, 60) if d % p == 0):
        assert any((Fraction(v) * (d // p)).denominator != 1 for v in values)


def test_clear_denominators_of_integer_and_zero_vectors():
    assert clear_denominators((3, -4, 0)) == ([3, -4, 0], 1)
    assert clear_denominators((Fraction(6, 3), 5)) == ([2, 5], 1)
    assert clear_denominators((0, Fraction(0), 0)) == ([0, 0, 0], 1)
    assert clear_denominators(()) == ([], 1)
    assert clear_denominators((Fraction(1, 6), Fraction(-3, 4), 2)) == ([2, -9, 24], 12)


@settings(max_examples=100, deadline=None)
@given(rational_vectors)
def test_primitive_is_coprime_with_the_input_direction(values):
    p = primitive(values)
    assert all(type(v) is int for v in p) and len(p) == len(values)
    if not any(values):
        assert p == (0,) * len(values)
        return
    assert gcd(*p) == 1
    ratio = next(Fraction(a) / v for a, v in zip(p, values) if v)
    assert ratio > 0 and all(a == ratio * v for a, v in zip(p, values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=3), max_size=3), st.data())
def test_integer_rows_and_evaluate_rows_are_exact(groups, data):
    # Each row (a0, a1, k) is the form a0 * x0 + a1 * x1 + k.
    ints, d = integer_rows(groups)
    assert [[[Fraction(v, d) for v in r] for r in g] for g in ints] == groups
    assert d == clear_denominators([v for g in groups for r in g for v in r])[1]
    x = data.draw(st.lists(st.fractions(-3, 3, max_denominator=30), min_size=2, max_size=2))
    xs, scale = clear_denominators(x)
    numerators = PackedRows(ints).evaluate([*xs, scale])
    expected = [[r[0] * x[0] + r[1] * x[1] + r[2] for r in g] for g in ints]
    assert [[Fraction(n, scale) for n in g] for g in numerators] == expected


# Entries at and past the edges of 64- and 128-bit lanes, and 100-digit ones.
EDGES = (2**63 - 1, 2**63, 2**127, 10**100 - 1, 10**100)
entries = st.one_of(st.integers(-3, 3), st.sampled_from(EDGES + tuple(-v for v in EDGES)),
                    st.integers(-(10**100), 10**100))
packed_cases = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.tuples(*[entries] * n), max_size=4), max_size=3),
    st.lists(st.one_of(st.integers(-3, 3), entries), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(packed_cases)
@example(([[(2**62, 2**62 - 1), (-(2**62), 1 - 2**62)]], [1, 1]))  # sums +-(2**63 - 1)
@example(([[(2**62, 2**62), (-(2**62), -(2**62))]], [1, 1]))  # sums +-2**63
@example(([[(2**126, 2**126), (-(2**126), -(2**126))]], [1, 1]))  # sums +-2**127
@example(([[(1 - 2**63,), (2**63 - 1,), (1 - 2**63,)]], [1]))  # extreme lanes side by side
@example(([[], [(3, -4)], []], [-2, -5]))  # empty groups around a row
@example(([[], []], []))
def test_packed_rows_equal_plain_dot_products(case):
    groups, xs = case
    packed = PackedRows(groups)
    expected = [tuple(sum(map(mul, row, xs)) for row in rows) for rows in groups]
    assert packed.evaluate(xs) == expected
    assert packed.evaluate(xs) == expected  # again, from the lanes packed at the first call
    assert packed.evaluate([-x for x in xs]) == [tuple(-v for v in g) for g in expected]


@pytest.mark.parametrize("value, width", [(2**63 - 1, 64), (2**63, 128), (2**127 - 1, 128),
                                          (2**127, 192), (10**100, 384)])
def test_lanes_widen_only_when_the_bound_needs_it(value, width):
    # The bound is the largest row's absolute sum, value, times max |x| = 1.
    packed = PackedRows([[(value, 0), (0, -value)], [(1, -1)]])
    assert packed.evaluate([1, 1]) == [(value, -value), (0,)]
    assert packed.evaluate([-1, 0]) == [(-value, 0), (-1,)]
    assert list(packed._lanes) == [width]
    # A zero point still gets lanes that hold every entry.
    assert packed.evaluate([0, 0]) == [(0, 0), (0,)] and list(packed._lanes) == [width]


def test_lanes_keep_only_the_narrowest_and_the_newest_width():
    packed = PackedRows([[(1, -1), (2, 3)]])
    for digits in (1, 30, 60, 90, 30, 1):
        x = 10**digits
        assert packed.evaluate([x, -x]) == [(2 * x, -x)]
        assert 64 in packed._lanes and len(packed._lanes) <= 2


def test_primitive_scales_rationals_to_coprime_integers():
    assert primitive((Fraction(1, 2), Fraction(-3, 4), 0)) == (2, -3, 0)
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert all(type(v) is int for v in primitive((Fraction(2), Fraction(4))))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4))
def test_scaled_inverse(rows):
    if len(reference_rref(rows, 4)[1]) < 4:
        with pytest.raises(ValueError):
            scaled_inverse(rows)
        return
    columns, d = scaled_inverse(rows)
    assert d > 0
    for i, row in enumerate(rows):
        for j, col in enumerate(columns):
            assert sum(a * b for a, b in zip(row, col)) == (d if i == j else 0)


def test_independent_rows_takes_the_first_spanning_rows():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 1), (1, 1, 1), (0, 0, 5), (0, 1, 0)]
    assert independent_rows(rows, 3) == [0, 2, 4]
    with pytest.raises(ValueError):
        independent_rows(rows[:4], 3)
