"""Exact rational affine forms and linear constraints over named coordinate spaces.

Everything downstream (vertex transforms, facet enumeration, bound
evaluation) is built on these types. Values are exact ``fractions.Fraction``
rationals; floats are rejected at the boundary so rounding can never enter
a derivation. Floating point appears only when rendering report text.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence, Union

from .introws import primitive

RationalLike = Union[int, str, Fraction]

# One shared Fraction per small integer, the bulk of what derived rows hold.
_SMALL = tuple(Fraction(n) for n in range(-16, 17))
_ZERO, _ONE = _SMALL[16:18]

# A decimal exponent past the interpreter's default int<->str digit limit
# could never be printed, and a huge one stalls Fraction() for seconds.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")
# ASCII "p/q" and "p.q", the usual table cell, parsed without Fraction's own regex.
_PLAIN = re.compile(r"(-?)([0-9]+)([./])([0-9]+)")


class MissingCoordinate(KeyError):
    """A point lacks a coordinate that a form or space needs."""

    def __init__(self, label: str):
        super().__init__(label)
        self.label = label

    def __str__(self) -> str:
        return f"missing coordinate {self.label!r}"


class IdenticallyFalse(ValueError):
    """A constraint is unsatisfiable no matter the point (e.g. 0 = 1)."""


def rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, Fractions and strings in either "p/q" or decimal form;
    "0.919" parses to exactly 919/1000. Floats are refused because they
    have already lost exactness, and so are decimal exponents beyond
    4300 in magnitude.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int and -16 <= value <= 16:
        return _SMALL[value + 16]
    if isinstance(value, bool):
        raise TypeError("expected a rational value, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        plain = _PLAIN.fullmatch(text)
        exponent = None if plain else _EXPONENT.search(text)
        # Five significant digits already exceed the limit.
        digits = exponent.group(1).replace("_", "").lstrip("0")[:5] if exponent else ""
        if int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
        try:
            if not plain:
                return Fraction(text)
            sign, whole, sep, part = plain.groups()
            if sep == "/":
                n, d = int(whole), int(part)
            else:
                d = 10 ** len(part)
                n = int(whole) * d + int(part)
            return Fraction(-n if sign else n, d)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string such as '0.919'")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(q: Fraction) -> str:
    """Decimal rendering with at most 6 significant digits.

    Report text only; nothing ever parses this back.
    """
    return f"{float(q):.6g}"


class Record:
    """Base of the package's immutable value types: a frozen dataclass without generated code.

    A subclass's annotations name its fields in order, and a class attribute
    of a field's name is its default. Instances of one class are equal when
    their compared fields (all but those named in ``_uncompared``) are;
    ``hash`` is the hash of the tuple of those fields and ``repr`` is
    ``Name(field=value, ...)``. Setting or deleting an attribute raises
    AttributeError. ``__post_init__`` may still store normalised values with
    ``object.__setattr__``, and ``cached_property`` works as usual. Hot
    classes define their own ``__init__`` that writes ``self.__dict__``.
    A cached_property named like a field is not its default but a view (see ``_unbuilt``).
    """

    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}
        cls._defaults = {n: v for n, v in defaults.items() if not isinstance(v, cached_property)}
        # The tuple of the compared fields (every record compares two or more).
        cls._key = staticmethod(attrgetter(*(n for n in cls._fields if n not in cls._uncompared)))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields) or kwargs and kwargs.keys() - fields[len(args) :]:
            raise TypeError(f"{type(self).__name__}() takes {fields}, got {args} and {kwargs}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):
            missing = [n for n in fields if n not in values]
            raise TypeError(f"{type(self).__name__}() missing {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    @classmethod
    def _unbuilt(cls, **attrs):
        """An instance of ``attrs`` as given, past ``__init__``: the fields left out are views."""
        obj = cls.__new__(cls)
        obj.__dict__.update(attrs)
        return obj

    def __post_init__(self) -> None:
        """Check or normalise the fields once they are set."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CoordinateSpace(Record):
    """An ordered, named tuple of coordinate labels fixing vector layout."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate coordinate labels in space {self.name!r}")
        object.__setattr__(self, "_pos", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._pos

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise MissingCoordinate(label) from None

    def vector(self, point: Mapping[str, RationalLike] | Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Lay a point out as a coordinate tuple in label order."""
        if isinstance(point, Mapping):
            out = []
            for lab in self.labels:
                if lab not in point:
                    raise MissingCoordinate(lab)
                out.append(rational(point[lab]))
            return tuple(out)
        vec = tuple(rational(v) for v in point)
        if len(vec) != len(self.labels):
            raise ValueError(
                f"space {self.name!r} has {len(self.labels)} coordinates, got {len(vec)} values"
            )
        return vec


class AffineForm(Record):
    """The affine function constant + sum_i coefficients[i] * x[i]."""

    space: CoordinateSpace
    coefficients: tuple[Fraction, ...]
    constant: Fraction = _ZERO

    def __init__(self, space: CoordinateSpace, coefficients: Sequence, constant=_ZERO):
        if type(coefficients) is not tuple or not all(type(c) is Fraction for c in coefficients):
            coefficients = tuple(map(rational, coefficients))
        if len(coefficients) != space.dimension:
            raise ValueError(
                f"expected {space.dimension} coefficients for space "
                f"{space.name!r}, got {len(coefficients)}"
            )
        if type(constant) is not Fraction:
            constant = rational(constant)
        self.__dict__.update(space=space, coefficients=coefficients, constant=constant)

    @classmethod
    def const(cls, space: CoordinateSpace, value: RationalLike) -> "AffineForm":
        return cls(space, (_ZERO,) * space.dimension, rational(value))

    @classmethod
    def from_dict(
        cls,
        space: CoordinateSpace,
        coefficients: Mapping[str, RationalLike],
        constant: RationalLike = 0,
    ) -> "AffineForm":
        coeffs = [_ZERO] * space.dimension
        for lab, val in coefficients.items():
            coeffs[space.index(lab)] = rational(val)
        return cls(space, tuple(coeffs), rational(constant))

    @classmethod
    def parse(cls, space: CoordinateSpace, text: str) -> "AffineForm":
        """Parse a linear expression such as "2*g01 - g02 + 2*t01 - 3"."""
        cleaned = text.replace(" ", "")
        if not cleaned:
            raise ValueError("empty expression")
        chunks = re.findall(r"[+-]?[^+-]+", cleaned)
        if "".join(chunks) != cleaned:
            raise ValueError(f"cannot parse expression {text!r}")
        coeffs: dict[str, Fraction] = {}
        constant = _ZERO
        term_re = re.compile(
            r"^(?P<sign>[+-]?)(?:(?P<num>\d+(?:/\d+|\.\d+)?)\*?)?(?P<label>[A-Za-z][A-Za-z0-9_.]*)?$"
        )
        for chunk in chunks:
            m = term_re.match(chunk)
            if not m or (m.group("num") is None and m.group("label") is None):
                raise ValueError(f"cannot parse term {chunk!r} in expression {text!r}")
            value = rational(m.group("num")) if m.group("num") else _ONE
            if m.group("sign") == "-":
                value = -value
            label = m.group("label")
            if label is None:
                constant += value
            else:
                if label not in space:
                    raise MissingCoordinate(label)
                coeffs[label] = coeffs.get(label, _ZERO) + value
        return cls.from_dict(space, coeffs, constant)

    def as_dict(self) -> dict[str, Fraction]:
        """Nonzero coefficients keyed by label."""
        return {
            lab: c for lab, c in zip(self.space.labels, self.coefficients) if c
        }

    def is_zero(self) -> bool:
        return self.constant == 0 and not any(self.coefficients)

    def evaluate(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate at a point given as a label mapping.

        Labels with zero coefficient may be absent; a missing label with a
        nonzero coefficient raises MissingCoordinate.
        """
        total = self.constant
        for lab, c in zip(self.space.labels, self.coefficients):
            if not c:
                continue
            if lab not in point:
                raise MissingCoordinate(lab)
            total += c * rational(point[lab])
        return total

    def evaluate_vector(self, vec: Sequence[Fraction]) -> Fraction:
        total = self.constant
        for c, v in zip(self.coefficients, vec):
            if c:
                total += c * v
        return total

    def key(self) -> tuple:
        """Hashable identity of the affine function (space layout implied)."""
        return (self.coefficients, self.constant)

    def render(self) -> str:
        """Human form, terms in coordinate order, e.g. "2*g01 - g02 - 3"."""
        parts: list[str] = []
        for lab, c in zip(self.space.labels, self.coefficients):
            if not c:
                continue
            mag = abs(c)
            term = lab if mag == 1 else f"{format_rational(mag)}*{lab}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        if self.constant or not parts:
            mag = format_rational(abs(self.constant))
            if not parts:
                parts.append(mag if self.constant >= 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if self.constant > 0 else f"- {mag}")
        return " ".join(parts)


class Relation(Enum):
    EQ = "="
    GEQ = ">="


class LinearConstraint(Record):
    """form = 0 (EQ) or form >= 0 (GEQ)."""

    form: AffineForm
    relation: Relation

    def __init__(self, form: AffineForm, relation: Relation):
        self.__dict__.update(form=form, relation=relation)

    def render(self) -> str:
        if self.relation is Relation.EQ:
            lhs = AffineForm(self.form.space, self.form.coefficients, _ZERO)
            rhs = -self.form.constant
            if lhs.is_zero():
                return f"0 = {format_rational(rhs)}"
            return f"{lhs.render()} = {format_rational(rhs)}"
        return f"{self.form.render()} >= 0"


def canonicalize(constraint: LinearConstraint) -> LinearConstraint:
    """Scale to coprime integer coefficients and fix the sign convention.

    Equalities get a positive leading (first nonzero) coefficient; the
    direction of an inequality is meaningful, so only positive scaling is
    applied to GEQ constraints. Constraints that reduce to an unsatisfiable
    statement raise IdenticallyFalse.
    """
    form = constraint.form
    row = primitive(form.coefficients + (form.constant,))
    return constraint_from_row(form.space, row, constraint.relation)


def canonical_row(row: Sequence[int], relation: Relation) -> tuple[int, ...]:
    """Coprime (a..., k) of a.x + k (= or >=) 0, an equality's first a > 0; or IdenticallyFalse."""
    if not any(row[:-1]):
        if relation is Relation.EQ and row[-1] != 0:
            raise IdenticallyFalse(f"equality reduces to {row[-1]} = 0")
        if relation is Relation.GEQ and row[-1] < 0:
            raise IdenticallyFalse(f"inequality reduces to {row[-1]} >= 0")
    elif relation is Relation.EQ and next(c for c in row if c) < 0:
        return tuple(-c for c in row)
    return tuple(row)


def constraint_from_row(
    space: CoordinateSpace, row: Sequence[int], relation: Relation
) -> LinearConstraint:
    """Canonical constraint row[:-1].x + row[-1] (= or >=) 0 from coprime integers."""
    row = canonical_row(row, relation)
    return LinearConstraint(AffineForm(space, row[:-1], row[-1]), relation)


def rows_view(group, relation: Relation | None = None) -> cached_property:
    """A field built on first read: the rows (a..., k) in ``groups[group]`` of ``self._rows`` =
    (groups, d) as forms (a.x + k) / d or, given a relation, as constraints (d divides those)."""

    def build(self):
        groups, d = self._rows
        if relation is None:
            rows = groups[group] if d == 1 else ([Fraction(v, d) for v in r] for r in groups[group])
            return tuple(AffineForm(self.space, row[:-1], row[-1]) for row in rows)
        rows = ([v // d for v in row] for row in groups[group])
        return tuple(constraint_from_row(self.space, row, relation) for row in rows)

    return cached_property(build)
