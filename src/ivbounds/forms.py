"""Exact rational affine forms and linear constraints over named coordinate spaces.

Everything downstream (vertex transforms, facet enumeration, bound
evaluation) is built on these types. Values are exact ``fractions.Fraction``
rationals; floats are rejected at the boundary so rounding can never enter
a derivation. Floating point appears only when rendering report text.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import attrgetter
from typing import Sequence, Union

from .introws import clear_denominators, primitive

RationalLike = Union[int, str, Fraction]

# One shared Fraction per small integer, the bulk of what derived rows hold.
_SMALL = tuple(Fraction(n) for n in range(-16, 17))
_ZERO = _SMALL[16]

# A decimal exponent past the interpreter's default int<->str digit limit
# could never be printed, and a huge one stalls Fraction() for seconds.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")
# ASCII "p", "p/q" and "p.q", the usual table cell, parsed without Fraction's own regex.
_PLAIN = re.compile(r"(-?)([0-9]+)(?:([./])([0-9]+))?")


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
    return Fraction(*ratio(value))


def ratio(value: RationalLike) -> tuple[int, int]:
    """``value`` as a reduced integer pair (n, d > 0), n / d = rational(value), with its errors."""
    kind = type(value)  # exact types first: isinstance(value, Fraction) goes through ABCMeta
    if kind is bool:  # bool has no subclasses
        raise TypeError("expected a rational value, got a bool")
    if kind is int or kind is Fraction or kind is not str and isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    if kind is str or isinstance(value, str):
        text = value.strip()
        plain = _PLAIN.fullmatch(text)
        if not plain:
            exponent = _EXPONENT.search(text)
            # Five significant digits already exceed the limit.
            digits = exponent.group(1).replace("_", "").lstrip("0")[:5] if exponent else ""
            if int(digits or 0) > _MAX_EXPONENT:
                raise ValueError(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
        try:
            if plain:
                sign, whole, sep, part = plain.groups()
                n, d = int(whole), 1
                if sep == "/":
                    d = int(part)
                elif sep:
                    d = 10 ** len(part)
                    n = n * d + int(part)
                if not d:
                    raise ZeroDivisionError(text)
                g = gcd(n, d)
                return -n // g if sign else n // g, d // g
            q = Fraction(text)
            return q.numerator, q.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string such as '0.919'")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_ratio(n: int, d: int) -> str:
    """The rational n / d (d > 0) in lowest terms: "n" or "n/d"."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_rational(q: Fraction) -> str:
    return format_ratio(q.numerator, q.denominator)


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
    builders skip the argument checks with ``_unbuilt``; only AffineForm, which
    coerces its input, defines its own ``__init__``.
    A cached_property named like a field is not its default but a view (see ``_unbuilt``).
    A result type names the functions that return it in ``_built_by``; calling
    the class itself then raises TypeError, since only those functions build it.
    """

    _uncompared = ()
    _built_by = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}
        cls._defaults = {n: v for n, v in defaults.items() if not isinstance(v, cached_property)}
        # The tuple of the compared fields (every record compares two or more).
        cls._key = staticmethod(attrgetter(*(n for n in cls._fields if n not in cls._uncompared)))

    def __init__(self, *args, **kwargs):
        if self._built_by:
            raise TypeError(f"{type(self).__name__} is built only by {' or '.join(self._built_by)}")
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

    def evaluate_vector(self, vec: Sequence[Fraction]) -> Fraction:
        total = self.constant
        for c, v in zip(self.coefficients, vec):
            if c:
                total += c * v
        return total

    def render(self) -> str:
        """Human form, terms in coordinate order, e.g. "2*g01 - g02 - 3"."""
        return render_row(self.space.labels, *clear_denominators((*self.coefficients, self.constant)))


class Relation(Enum):
    EQ = "="
    GEQ = ">="


class LinearConstraint(Record):
    """form = 0 (EQ) or form >= 0 (GEQ)."""

    form: AffineForm
    relation: Relation

    def render(self) -> str:
        f = self.form
        row = clear_denominators((*f.coefficients, f.constant))
        return render_row(f.space.labels, *row, self.relation)


def render_row(labels: Sequence[str], row: Sequence[int], d: int = 1,
               relation: Relation | None = None) -> str:
    """The text of the integer row (a..., k) read as (a . x + k) / d, d > 0, with the terms in
    label order ("2*g01 - g02 - 3"), or of that constraint: "a . x = -k" or "a . x + k >= 0"."""
    *a, k = row
    if relation is Relation.EQ:
        return f"{render_row(labels, (*a, 0), d)} = {format_ratio(-k, d)}"
    terms = [(c, lab if abs(c) == d else f"{format_ratio(abs(c), d)}*{lab}")
             for lab, c in zip(labels, a) if c]
    if k or not terms:
        terms.append((k, format_ratio(abs(k), d)))
    text = " ".join(f"{'-' if c < 0 else '+'} {term}" for c, term in terms)
    text = text[2:] if text[0] == "+" else f"-{text[2:]}"
    return text if relation is None else f"{text} >= 0"


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
    return LinearConstraint._unbuilt(form=AffineForm(space, row[:-1], row[-1]), relation=relation)


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
