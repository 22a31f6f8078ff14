"""Exact rational forms, constraints and their canonicalization."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ivbounds
import reference
from ivbounds.bounds import BoundSet, ConstraintReport
from ivbounds.forms import (
    AffineForm,
    CoordinateSpace,
    IdenticallyFalse,
    LinearConstraint,
    MissingCoordinate,
    Relation,
    canonical_row,
    canonicalize,
    format_decimal,
    format_ratio,
    format_rational,
    rational,
    render_row,
)

SPACE = CoordinateSpace("test", ("g01", "g02", "t01", "t02"))


class TestRational:
    def test_decimal_string_is_exact(self):
        assert rational("0.919") == Fraction(919, 1000)

    def test_fraction_string(self):
        assert rational("172/337") == Fraction(172, 337)

    def test_int_and_fraction_pass_through(self):
        assert rational(3) == Fraction(3)
        assert rational(Fraction(1, 7)) == Fraction(1, 7)

    def test_negative(self):
        assert rational("-0.25") == Fraction(-1, 4)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="float"):
            rational(0.919)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            rational(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            rational("1/0")
        with pytest.raises(ValueError):
            rational("abc")

    def test_huge_exponent_rejected_before_parsing(self):
        # Such values stall Fraction() and the arithmetic after it, and could never print.
        for text in ("1e-1000000", "1e1000000", "1e-5000"):
            with pytest.raises(ValueError, match="exponent"):
                rational(text)
        assert rational("1.5e-3") == Fraction(3, 2000)

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            # The plain "p/q" and "p.q" cells, then near misses that Fraction() must decide.
            st.tuples(
                st.sampled_from(("", " ", "\t")),
                st.sampled_from(("", "-")),
                st.text("0123456789", min_size=1, max_size=25),
                st.sampled_from((".", "/")),
                st.text("0123456789", min_size=1, max_size=25),
                st.sampled_from(("", " ", "\n")),
            ).map("".join),
            st.tuples(
                st.sampled_from(("", " ", "\t", "\u00a0")),
                st.sampled_from(("", "-", "+", "--")),
                st.text("0123456789", max_size=6) | st.text("012_", max_size=5) | st.text("0\u0663\u06f5", max_size=3),
                st.sampled_from(("", ".", "/", " / ", ". ", "/-", "..")),
                st.text("0123456789", max_size=6) | st.text("05_", max_size=4) | st.text("1\u0663", max_size=2),
                st.sampled_from(("", "e5", "E-3", "e+2", "e_1", "e99999", " e1")),
                st.sampled_from(("", " ", "\n")),
            ).map("".join),
            st.text(max_size=8),
        )
    )
    @example("1/0")
    @example("-0/5")
    @example(".5")
    @example("5.")
    @example("-1/-2")
    @example("1_000.5")
    @example("9" * 4000 + "." + "7" * 400)
    @example("9" * 4301 + ".5")
    def test_strings_parse_as_the_fraction_parser_does(self, text):
        def outcome(parse):
            try:
                value = parse(text)
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)
            assert type(value) is Fraction
            return value

        assert outcome(rational) == outcome(reference.rational)

    def test_formatting(self):
        assert format_rational(Fraction(3, 8)) == "3/8"
        assert format_rational(Fraction(4)) == "4"
        assert format_decimal(Fraction(49, 125)) == "0.392"
        assert format_decimal(Fraction(39, 50)) == "0.78"


class TestCoordinateSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CoordinateSpace("dup", ("a", "a"))

    def test_index_and_contains(self):
        assert SPACE.index("t01") == 2
        assert "g02" in SPACE
        assert "nope" not in SPACE
        with pytest.raises(MissingCoordinate):
            SPACE.index("nope")

    def test_vector_from_mapping(self):
        vec = SPACE.vector({"g01": "1/2", "g02": 0, "t01": 1, "t02": "0.25"})
        assert vec == (Fraction(1, 2), Fraction(0), Fraction(1), Fraction(1, 4))

    def test_vector_from_sequence(self):
        assert SPACE.vector([1, 0, 0, 1]) == (1, 0, 0, 1)
        with pytest.raises(ValueError):
            SPACE.vector([1, 0])

    def test_vector_missing_label(self):
        with pytest.raises(MissingCoordinate):
            SPACE.vector({"g01": 1})


class TestAffineForm:
    @pytest.mark.parametrize("coefficients, constant", [
        ((Fraction(1, 10), 0, 0, 0), 0.5),
        ((0.1, 0, 0, 0), 0),
        ((True, 0, 0, 0), 0),
        ((0, 0, 0, 0), False),
    ])
    def test_float_and_bool_entries_rejected(self, coefficients, constant):
        # 0.1 would silently become 3602879701896397/36028797018963968 and True 1.
        with pytest.raises(TypeError):
            AffineForm(SPACE, coefficients, constant)

    def test_int_and_string_entries_coerced_exactly(self):
        f = AffineForm(SPACE, [1, "1/3", "0.25", Fraction(2, 3)], "-2")
        assert f.coefficients == (1, Fraction(1, 3), Fraction(1, 4), Fraction(2, 3))
        assert type(f.coefficients) is tuple
        assert all(type(c) is Fraction for c in f.coefficients + (f.constant,))
        assert f.constant == -2

    def test_wrong_number_of_coefficients(self):
        space = CoordinateSpace("pair", ("g01", "g02"))
        with pytest.raises(ValueError, match="^expected 2 coefficients"):
            AffineForm(space, (1,))

    def test_fraction_tuple_kept_as_given(self):
        coeffs = (Fraction(1, 2), Fraction(0), Fraction(3), Fraction(-1, 7))
        assert AffineForm(SPACE, coeffs, Fraction(1)).coefficients is coeffs

    def test_small_integers_share_one_fraction(self):
        assert rational(-16) is rational(-16) and rational(16) is rational(16)
        assert rational(17) == Fraction(17) and rational(-17) == Fraction(-17)
        a = canonicalize(LinearConstraint(AffineForm.parse(SPACE, "2*g01 - t02 + 1"), Relation.GEQ))
        b = canonicalize(LinearConstraint(AffineForm.parse(SPACE, "g02 + 2*t01 + 1"), Relation.GEQ))
        assert a.form.coefficients[0] is b.form.coefficients[2] and a.form.constant is b.form.constant

    def test_parse_matches_from_dict(self):
        f = AffineForm.parse(SPACE, "2*g01 - g02 + 2*t01 - 3")
        assert f == AffineForm.from_dict(
            SPACE, {"g01": 2, "g02": -1, "t01": 2}, -3
        )

    def test_parse_fractional_and_decimal_coefficients(self):
        f = AffineForm.parse(SPACE, "1/2*g01 + 0.25*t02 + 1/4")
        assert f.coefficients[SPACE.index("g01")] == Fraction(1, 2)
        assert f.coefficients[SPACE.index("t02")] == Fraction(1, 4)
        assert f.constant == Fraction(1, 4)

    def test_parse_repeated_label_accumulates(self):
        f = AffineForm.parse(SPACE, "g01 + g01 - 1")
        assert f.coefficients[SPACE.index("g01")] == 2

    def test_parse_unknown_label(self):
        with pytest.raises(MissingCoordinate):
            AffineForm.parse(SPACE, "g01 + bogus")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            AffineForm.parse(SPACE, "")
        with pytest.raises(ValueError):
            AffineForm.parse(SPACE, "g01 ** 2")
        with pytest.raises(ValueError, match=r"^cannot parse expression 'x\+-\+y'$"):
            AffineForm.parse(SPACE, "x+-+y")

    def test_evaluate(self):
        f = AffineForm.parse(SPACE, "t01 + t02 - g01 + g02")
        point = {"t01": 1, "t02": "0.388", "g01": "0.919", "g02": "0.454"}
        assert f.evaluate(point) == Fraction(923, 1000)

    def test_evaluate_ignores_zero_coefficient_labels(self):
        f = AffineForm.parse(SPACE, "g01 - 1")
        assert f.evaluate({"g01": "1/3"}) == Fraction(-2, 3)

    def test_evaluate_missing_needed_label(self):
        f = AffineForm.parse(SPACE, "g01 + t01")
        with pytest.raises(MissingCoordinate):
            f.evaluate({"g01": 1})

    def test_render_zero_and_constant(self):
        assert AffineForm.const(SPACE, 0).render() == "0"
        assert AffineForm.const(SPACE, -2).render() == "-2"


LABELS = st.sampled_from(SPACE.labels)
COEFFS = st.fractions(
    min_value=-5, max_value=5, max_denominator=8
)


@given(
    st.dictionaries(LABELS, COEFFS, max_size=4),
    COEFFS,
)
def test_parse_render_roundtrip(coeffs, const):
    f = AffineForm.from_dict(SPACE, coeffs, const)
    assert AffineForm.parse(SPACE, f.render()) == f


# A common denominator d > 1 and a row of four coefficient numerators and a constant one,
# rich in 0 and +-d (coefficients 0 and +-1).
ROWS = st.integers(2, 12).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.sampled_from([0, d, -d]) | st.integers(-3 * d, 3 * d), min_size=5, max_size=5),
    )
)


@given(ROWS)
@example((2, [0, 0, 0, 0, 0]))  # the zero form, and "0 = 0"
@example((3, [0, 0, 0, 0, -7]))  # a constant alone; its equality's left side is 0
@example((4, [4, -4, 0, 4, 0]))
def test_render_matches_the_fraction_reference(case):
    d, row = case
    form = AffineForm(SPACE, [Fraction(v, d) for v in row[:4]], Fraction(row[4], d))
    assert form.render() == reference.render(form) == render_row(SPACE.labels, row, d)
    for relation in Relation:
        con = LinearConstraint(form, relation)
        assert con.render() == reference.render_constraint(con) == render_row(SPACE.labels, row, d, relation)
    for n in row:
        assert format_ratio(n, d) == format_rational(Fraction(n, d)) == reference._text(Fraction(n, d))


@given(
    st.dictionaries(LABELS, COEFFS, min_size=1, max_size=4),
    COEFFS,
)
def test_canonicalize_idempotent_and_integral(coeffs, const):
    con = LinearConstraint(AffineForm.from_dict(SPACE, coeffs, const), Relation.GEQ)
    try:
        canon = canonicalize(con)
    except IdenticallyFalse:
        return
    assert all(c.denominator == 1 for c in canon.form.coefficients)
    assert canon.form.constant.denominator == 1
    assert canonicalize(canon) == canon


class TestConstraints:
    def test_slack_and_satisfied(self):
        con = LinearConstraint(AffineForm.parse(SPACE, "g01 + t01 - 1"), Relation.GEQ)
        assert con.form.evaluate({"g01": "0.25", "t01": "0.5"}) == Fraction(-1, 4)

    def test_equality_render(self):
        con = LinearConstraint(AffineForm.parse(SPACE, "g01 + g02 - 1"), Relation.EQ)
        assert con.render() == "g01 + g02 = 1"

    def test_canonicalize_scales_to_coprime_integers(self):
        con = LinearConstraint(
            AffineForm.from_dict(SPACE, {"g01": "2/3", "t01": "4/3"}, "-2/3"),
            Relation.GEQ,
        )
        canon = canonicalize(con)
        assert canon.form.as_dict() == {"g01": 1, "t01": 2}
        assert canon.form.constant == -1

    def test_canonicalize_fixes_equality_sign_only(self):
        eq = LinearConstraint(
            AffineForm.from_dict(SPACE, {"g01": -1, "g02": -1}, 1), Relation.EQ
        )
        assert canonicalize(eq).form.as_dict() == {"g01": 1, "g02": 1}
        # direction matters for inequalities, so the sign must survive
        geq = LinearConstraint(
            AffineForm.from_dict(SPACE, {"g01": -2}, 2), Relation.GEQ
        )
        assert canonicalize(geq).form.as_dict() == {"g01": -1}

    def test_identically_false(self):
        with pytest.raises(IdenticallyFalse):
            canonicalize(
                LinearConstraint(AffineForm.const(SPACE, -1), Relation.GEQ)
            )
        with pytest.raises(IdenticallyFalse):
            canonicalize(
                LinearConstraint(AffineForm.const(SPACE, "1/2"), Relation.EQ)
            )
        # a plainly true constant constraint is fine
        canonicalize(LinearConstraint(AffineForm.const(SPACE, 1), Relation.GEQ))


def test_canonical_row_signs_equalities_and_rejects_void_rows():
    assert canonical_row([0, -2, 1], Relation.EQ) == (0, 2, -1)
    assert canonical_row([0, -2, 1], Relation.GEQ) == (0, -2, 1)
    assert canonical_row((0, 0, 3), Relation.GEQ) == (0, 0, 3)
    with pytest.raises(IdenticallyFalse, match="^equality reduces to 3 = 0$"):
        canonical_row([0, 0, 3], Relation.EQ)
    with pytest.raises(IdenticallyFalse, match="^inequality reduces to -1 >= 0$"):
        canonical_row([0, 0, -1], Relation.GEQ)


def test_a_view_is_not_a_default():
    # A field that is a view of the rows must still be passed to the constructor.
    with pytest.raises(TypeError, match="missing"):
        BoundSet("s", None, SPACE, (), (), (), ())
    with pytest.raises(TypeError, match="missing"):
        ConstraintReport("s", Fraction(0), passed=True)


def test_source_has_no_vars_writes_or_class_getattr():
    # Views are cached_propertys that a class fills itself, on first read; nothing
    # reaches into an instance's __dict__ from outside or answers missing attributes.
    for path in Path(ivbounds.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                call = node.value
                is_vars = isinstance(call, ast.Call) and getattr(call.func, "id", None) == "vars"
                assert not is_vars, f"{path.name}:{node.lineno} writes through vars()"
            if isinstance(node, ast.ClassDef):
                methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                assert "__getattr__" not in methods, f"{path.name}: {node.name}.__getattr__"
