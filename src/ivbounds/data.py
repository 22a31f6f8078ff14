"""Observed distribution tables: parsing, validation, derived marginals, bundled studies.

Tables hold exact rationals. Decimal text such as "0.919" parses to
919/1000; bare JSON numbers are intercepted before float conversion so the
literal digits are kept. Two named datasets ship with the package: "lipid"
(a cholesterol-lowering trial with partial compliance) and "vitamin-a"
(a supplementation trial with one-sided compliance).
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from .forms import RationalLike, Record, format_rational, rational
from .introws import clear_denominators
from .scenarios import parse_coordinate

_ZERO = Fraction(0)

_CB_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_ARMS = (1, 2)

# Each table's cell keys in row order. Every table but phi has a row per arm,
# and its keys end in the arm.
_LAYOUT = {"zeta": _CB_PAIRS, "gamma": ((0,), (1,)), "theta": ((0,), (1,)), "phi": _CB_PAIRS}

BUNDLED_DATASETS = ("lipid", "vitamin-a")

DEFAULT_SUM_DEVIATION = Fraction(1, 100)

# Half a unit in the fourth decimal: how far rounded decimal tables may
# stray from exact agreement.
DECIMAL_TOLERANCE = Fraction(1, 2000)

# Every printed result is a sum of products of at most two of the 22 cells, so cells
# of at most this many digits keep it far inside the interpreter's 4300-digit print limit.
_CELL_DIGITS = 100
_CELL_LIMIT = 10**_CELL_DIGITS


class ParseError(ValueError):
    """Input text or structure cannot be read as tables."""


class ValidationError(ValueError):
    """Tables parsed but violate a range or sum invariant."""


class MissingArmWeights(ValueError):
    """A joint-over-arms table was requested but no arm weights are present."""


class ObservedTables(Record):
    """Any subset of the observable tables of one study.

    zeta maps (c, b, a) to P(C=c, B=b | A=a); gamma maps (c, a) to
    P(C=c | A=a); theta maps (b, a) to P(B=b | A=a); phi maps (c, b) to
    P(C=c, B=b); arm_weights is (P(A=1), P(A=2)). decimal_input records
    whether any entry arrived as a rounded decimal literal, which controls
    the default model-check tolerance downstream; it is not part of the
    table identity.
    """

    _uncompared = ("decimal_input",)

    zeta: dict[tuple[int, int, int], Fraction] | None = None
    gamma: dict[tuple[int, int], Fraction] | None = None
    theta: dict[tuple[int, int], Fraction] | None = None
    phi: dict[tuple[int, int], Fraction] | None = None
    arm_weights: tuple[Fraction, Fraction] | None = None
    decimal_input: bool = False

    def blocks(self) -> list[tuple[str, list[Fraction]]]:
        """The per-condition probability blocks that must each sum to 1."""
        out: list[tuple[str, list[Fraction]]] = []
        for name, keys in _LAYOUT.items():
            table = getattr(self, name)
            if table is None:
                continue
            if name == "phi":
                out.append((name, [table[k] for k in keys]))
            else:
                out += [(f"{name}[a={a}]", [table[k + (a,)] for k in keys]) for a in _ARMS]
        if self.arm_weights is not None:
            out.append(("arm_weights", list(self.arm_weights)))
        return out

    @cached_property
    def _implied(self) -> dict[str, dict]:
        """gamma, theta and (given arm weights) phi as implied by the zeta table, computed once."""
        z = self.zeta
        out = {
            "gamma": {(c, a): z[(c, 0, a)] + z[(c, 1, a)] for c in (0, 1) for a in _ARMS},
            "theta": {(b, a): z[(0, b, a)] + z[(1, b, a)] for b in (0, 1) for a in _ARMS},
        }
        if self.arm_weights is not None:
            w1, w2 = self.arm_weights
            out["phi"] = {(c, b): z[(c, b, 1)] * w1 + z[(c, b, 2)] * w2 for c, b in _CB_PAIRS}
        return out


def _validate(t: ObservedTables, max_deviation: Fraction) -> ObservedTables:
    """Every entry in [0, 1] and every block's sum within max_deviation of 1.

    Decided on numerators: a block's sum is taken over its least common
    denominator. Fractions are built only to word an error.
    """
    bar, scale = max_deviation.numerator, max_deviation.denominator
    for name, values in t.blocks():
        for v in values:
            if not 0 <= v.numerator <= v.denominator:
                raise ValidationError(f"{name} entry {format_rational(v)} is outside [0, 1]")
        ints, d = clear_denominators(values)
        total = sum(ints)
        if abs(total - d) * scale > bar * d:
            raise ValidationError(
                f"{name} sums to {format_rational(Fraction(total, d))}, "
                f"slack {format_rational(Fraction(total - d, d))}"
            )
    return t


def build_tables(
    zeta: Mapping[str, Sequence[RationalLike]] | None = None,
    gamma: Mapping[str, Sequence[RationalLike]] | None = None,
    theta: Mapping[str, Sequence[RationalLike]] | None = None,
    phi: Sequence[RationalLike] | None = None,
    arm_weights: Sequence[RationalLike] | None = None,
    *,
    decimal_input: bool = False,
    max_deviation: RationalLike = DEFAULT_SUM_DEVIATION,
) -> ObservedTables:
    """Construct validated tables from the JSON-shaped nested values."""
    max_deviation = rational(max_deviation)
    given = {"zeta": zeta, "gamma": gamma, "theta": theta, "phi": phi}
    maps = {}
    for name, keys in _LAYOUT.items():
        table = given[name]
        if table is None:
            continue
        if name == "phi":
            maps[name] = dict(zip(keys, _row(table, len(keys), name)))
            continue
        if not isinstance(table, Mapping) or set(table) != {"a1", "a2"}:
            raise ParseError(f"{name} table needs exactly the keys 'a1' and 'a2'")
        rows = {a: _row(table[f"a{a}"], len(keys), name, a) for a in _ARMS}
        maps[name] = {k + (a,): q for a in _ARMS for k, q in zip(keys, rows[a])}
    weights = None if arm_weights is None else tuple(_row(arm_weights, 2, "arm_weights"))
    t = ObservedTables(**maps, arm_weights=weights, decimal_input=decimal_input)
    return _validate(t, max_deviation)


def _row(values, width: int, name: str, arm: int | None = None) -> list[Fraction]:
    """One table row as exact cells: a JSON array of ``width`` cells of at most 100 digits."""
    where = name if arm is None else f"{name} a{arm}"
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"{where} must be a JSON array of {width} entries")
    out = []
    for i, v in enumerate(values):
        q = rational(v)
        if q.denominator >= _CELL_LIMIT or abs(q.numerator) >= _CELL_LIMIT:
            raise ParseError(f"{where}[{i}] = {v!r} needs more than {_CELL_DIGITS} digits")
        out.append(q)
    if len(out) != width:
        row = name if arm is None else f"{name} row a{arm}"
        raise ParseError(f"{row} needs {width} entries, got {len(out)}")
    return out


def default_tolerance(
    data: ObservedTables | Mapping, tolerance: RationalLike | None = None
) -> Fraction:
    """The tolerance to check data with: ``tolerance``, or else the data's default.

    The default is zero for exact input and a half-unit in the fourth
    decimal for rounded tables. A given tolerance must be nonnegative and,
    like a table cell, fit in 100 digits.
    """
    if tolerance is None:
        decimal = isinstance(data, ObservedTables) and data.decimal_input
        return DECIMAL_TOLERANCE if decimal else _ZERO
    tol = rational(tolerance)
    if tol.numerator < 0:
        raise ValidationError(f"tolerance {tolerance!r} is negative")
    if tol.denominator >= _CELL_LIMIT or tol.numerator >= _CELL_LIMIT:
        raise ParseError(f"tolerance {tolerance!r} needs more than {_CELL_DIGITS} digits")
    return tol


def _check_marginals(t: ObservedTables) -> None:
    """Explicit gamma/theta/phi must agree with the tables' own zeta and arm weights.

    Exact input must agree exactly; rounded decimal input within
    DECIMAL_TOLERANCE per entry. Compared by cross-multiplying numerators.
    """
    if t.zeta is None:
        return
    tol = default_tolerance(t)
    for name, implied in t._implied.items():
        for key, value in (getattr(t, name) or {}).items():
            want = implied[key]
            d = value.denominator * want.denominator
            gap = value.numerator * want.denominator - want.numerator * value.denominator
            if abs(gap) * tol.denominator > tol.numerator * d:
                raise ValidationError(
                    f"{name}{list(key)} = {format_rational(value)} contradicts zeta, "
                    f"which implies {format_rational(want)}"
                )


def _contains_decimal(value) -> bool:
    if isinstance(value, str):
        return "." in value or "e" in value.lower()
    if isinstance(value, Mapping):
        return any(_contains_decimal(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_contains_decimal(v) for v in value)
    return False


_TABLE_KEYS = ("zeta", "gamma", "theta", "phi", "arm_weights")


def _load_json_text(text: str, max_deviation: Fraction) -> ObservedTables:
    try:
        # Keeping float literals as their source text preserves exactness.
        raw = json.loads(text, parse_float=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(raw) - set(_TABLE_KEYS) - {"decimal_input"}
    if unknown:
        raise ParseError(f"unknown table keys: {sorted(unknown)}")
    rounded = raw.get("decimal_input", False)
    if not isinstance(rounded, bool):
        raise ParseError("decimal_input must be true or false")
    try:
        tables = build_tables(
            zeta=raw.get("zeta"),
            gamma=raw.get("gamma"),
            theta=raw.get("theta"),
            phi=raw.get("phi"),
            arm_weights=raw.get("arm_weights"),
            decimal_input=rounded or _contains_decimal(raw),
            max_deviation=max_deviation,
        )
    except (TypeError, ValueError, RecursionError) as exc:
        if isinstance(exc, (ParseError, ValidationError)):
            raise
        raise ParseError(str(exc)) from exc
    _check_marginals(tables)
    return tables


def _load_csv_text(text: str, max_deviation: Fraction) -> ObservedTables:
    reader = csv.DictReader(text.splitlines())
    try:
        reader.fieldnames = [f.strip() for f in reader.fieldnames or ()]
        if reader.fieldnames != ["c", "b", "a", "value"]:
            raise ParseError("CSV zeta tables need the header row 'c,b,a,value'")
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"cannot read CSV: {exc}") from exc
    entries: dict[tuple[int, int, int], str] = {}
    for row in rows:
        try:
            key = (int(row["c"]), int(row["b"]), int(row["a"]))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad CSV row {row}: {exc}") from exc
        if row["value"] is None:
            raise ParseError(f"bad CSV row {row}: no value")
        if None in row:  # DictReader files fields past the header's under None
            raise ParseError(f"bad CSV row {row}: more than 4 fields")
        if key in entries:
            raise ParseError(f"duplicate CSV row for (c,b,a) = {key}")
        entries[key] = row["value"]
    expected = {(c, b, a) for c, b in _CB_PAIRS for a in _ARMS}
    if set(entries) != expected:
        missing = sorted(expected - set(entries))
        extra = sorted(set(entries) - expected)
        raise ParseError(f"CSV zeta table incomplete; missing {missing}, unexpected {extra}")
    zeta = {
        f"a{a}": [entries[(c, b, a)] for c, b in _CB_PAIRS]
        for a in _ARMS
    }
    return build_tables(
        zeta=zeta,
        decimal_input=_contains_decimal(zeta),
        max_deviation=max_deviation,
    )


def load(
    source: str | Path,
    *,
    max_deviation: RationalLike = DEFAULT_SUM_DEVIATION,
) -> ObservedTables:
    """Load tables from a bundled dataset name or a JSON/CSV file path."""
    max_deviation = rational(max_deviation)
    if isinstance(source, str) and source in BUNDLED_DATASETS:
        from importlib import resources  # here: on some interpreters it loads inspect
        text = (
            resources.files("ivbounds")
            .joinpath("datasets", f"{source}.json")
            .read_text(encoding="utf-8")
        )
        return _load_json_text(text, max_deviation)
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".csv":
        return _load_csv_text(text, max_deviation)
    return _load_json_text(text, max_deviation)


def derive_marginals(t: ObservedTables, *, require_phi: bool = False) -> ObservedTables:
    """Fill missing gamma/theta (and phi when arm weights allow) from zeta.

    Explicitly provided tables are never overwritten, so the operation is
    idempotent. With require_phi, absent arm weights raise
    MissingArmWeights instead of silently skipping phi.
    """
    if t.zeta is None:
        raise ValidationError("cannot derive marginals without a zeta table")
    implied = t._implied
    gamma = implied["gamma"] if t.gamma is None else t.gamma
    theta = implied["theta"] if t.theta is None else t.theta
    phi = implied.get("phi") if t.phi is None else t.phi
    if phi is None and require_phi:
        raise MissingArmWeights("phi requires arm weights; no equal-weight default is assumed")
    return ObservedTables(t.zeta, gamma, theta, phi, t.arm_weights, t.decimal_input)


def observable_point(
    labels: Sequence[str], data: ObservedTables | Mapping[str, RationalLike]
) -> dict[str, Fraction]:
    """Assemble the coordinate values a scenario needs from the tables.

    Each label is read through parse_coordinate: its kind names the table
    and its indices are the table key. x-coordinates (joint with the
    instrument) are zeta scaled by the arm weight. A label whose table is
    absent raises ValidationError; x-labels without arm weights raise
    MissingArmWeights. A plain mapping is taken as the point itself, its
    values coerced to exact rationals.
    """
    if not isinstance(data, ObservedTables):
        return {k: rational(v) for k, v in data.items()}
    point: dict[str, Fraction] = {}
    for label in labels:
        rule = _table_rule(label)
        if rule is None:
            raise ValidationError(f"no table rule for coordinate label {label!r}")
        name, key, arm = rule
        table = getattr(data, name)
        if table is None:
            raise ValidationError(f"coordinate {label} needs a {name} table")
        value = table[key]
        if arm is not None:
            if data.arm_weights is None:
                raise MissingArmWeights(f"coordinate {label} needs arm weights")
            value *= data.arm_weights[arm]
        point[label] = value
    return point


@lru_cache(maxsize=None)
def _table_rule(label: str) -> tuple[str, tuple[int, ...], int | None] | None:
    """(table, key, arm-weight index or None) that a label reads; None if no table holds it."""
    coord = parse_coordinate(label)
    if not coord.key:
        return None
    if coord.kind == "xi":
        return "zeta", coord.key, coord.a - 1
    return coord.kind, coord.key, None
