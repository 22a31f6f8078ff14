"""Fraction-free integer row operations against plain Fraction elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds.introws import independent_rows, pivot, primitive, rref, scaled_inverse


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
