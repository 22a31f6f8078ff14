"""Observed distribution tables: parsing, validation, derived marginals, bundled studies.

Tables hold exact rationals. Decimal text such as "0.919" parses to
919/1000; bare JSON numbers are intercepted before float conversion so the
literal digits are kept. Two named datasets ship with the package: "lipid"
(a cholesterol-lowering trial with partial compliance) and "vitamin-a"
(a supplementation trial with one-sided compliance).

Every source, bundled or a JSON or CSV file, is read one way: as UTF-8 (a
leading byte-order mark is dropped) into the JSON-shaped object (a key given
twice is refused), whose cells are parsed and validated as build_tables
parses and validates its arguments. So a malformed file of either format
raises ParseError or ValidationError, and build_tables rejects marginals that
contradict zeta just as load does. build_tables takes decimal_input as given;
load sets it when the file says so or when some string cell holds a "." or an
exponent ("e" or "E"), which the one pass that parses the cells records.

A study stays on integers from the moment a cell is parsed: ObservedTables
holds every cell as a numerator over one common denominator (``_cells``),
which validation, derive_marginals and integer_point (for bounds) read. Its
Fraction dicts are views built on first read; hand-built tables keep the
dicts they are given and compile their cells at first use.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from collections.abc import Mapping
from pathlib import Path
from typing import Sequence

from .forms import RationalLike, Record, format_ratio, ratio, rational
from .introws import picker
from .scenarios import parse_coordinate

_ZERO = Fraction(0)

_CB_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_ARMS = (1, 2)

_TABLE_KEYS = ("zeta", "gamma", "theta", "phi", "arm_weights")

# The blocks that must each sum to 1, in validation order: (name, table, keys). Their cells,
# in this order, are the slots of ObservedTables._cells: zeta's a1 and a2 rows (0-7), gamma
# (8-11) and theta (12-15) with arm 1 first, phi (16-19) and the arm weights (20, 21).
_BLOCKS = (
    *((f"{t}[a={a}]", t, [k + (a,) for k in keys]) for t, keys in
      (("zeta", _CB_PAIRS), ("gamma", ((0,), (1,))), ("theta", ((0,), (1,)))) for a in _ARMS),
    ("phi", "phi", list(_CB_PAIRS)),
    ("arm_weights", "arm_weights", [0, 1]),
)
_SLOTS = [(table, key) for _, table, keys in _BLOCKS for key in keys]
_SLOT = {cell: i for i, cell in enumerate(_SLOTS)}
_FIRST = {table: _SLOT[table, keys[0]] for _, table, keys in _BLOCKS}

BUNDLED_DATASETS = ("lipid", "vitamin-a")

SUM_DEVIATION = Fraction(1, 100)

# Half a unit in the fourth decimal: how far rounded decimal tables may
# stray from exact agreement.
DECIMAL_TOLERANCE = Fraction(1, 2000)

# Every printed result is a sum of products of at most two of the 22 cells, so cells
# of at most this many digits keep it far inside the interpreter's 4300-digit print limit.
_CELL_DIGITS = 100
_CELL_LIMIT = 10**_CELL_DIGITS


def _too_long(n: int, d: int) -> bool:
    """Whether a cell or tolerance n / d needs more than _CELL_DIGITS digits above or below."""
    return d >= _CELL_LIMIT or abs(n) >= _CELL_LIMIT


class ParseError(ValueError):
    """Input text or structure cannot be read as tables."""


class ValidationError(ValueError):
    """Tables parsed but violate a range, sum or agreement invariant."""


class MissingArmWeights(ValueError):
    """A joint-over-arms table was requested but no arm weights are present."""


def _view(name: str) -> cached_property:
    """Table ``name`` of tables built from integer cells, as Fractions, built on first read."""

    def build(self):
        nums, den = self._cells
        if nums[_FIRST[name]] is None:
            return None
        cells = {key: Fraction(nums[i], den) for (table, key), i in _SLOT.items() if table == name}
        return tuple(cells.values()) if name == "arm_weights" else cells

    return cached_property(build)


class ObservedTables(Record):
    """Any subset of the observable tables of one study.

    zeta maps (c, b, a) to P(C=c, B=b | A=a); gamma maps (c, a) to
    P(C=c | A=a); theta maps (b, a) to P(B=b | A=a); phi maps (c, b) to
    P(C=c, B=b); arm_weights is (P(A=1), P(A=2)). decimal_input records
    whether any entry arrived as a rounded decimal literal, which controls
    the default model-check tolerance downstream; it is not part of the
    table identity. Tables from load, build_tables and derive_marginals
    hold integer cells, and these dicts are views of them built on first
    read; hand-built tables keep the dicts they are given.
    """

    _uncompared = ("decimal_input",)

    zeta: dict[tuple[int, int, int], Fraction] | None = _view("zeta")
    gamma: dict[tuple[int, int], Fraction] | None = _view("gamma")
    theta: dict[tuple[int, int], Fraction] | None = _view("theta")
    phi: dict[tuple[int, int], Fraction] | None = _view("phi")
    arm_weights: tuple[Fraction, Fraction] | None = _view("arm_weights")
    decimal_input: bool = False

    def __init__(self, zeta=None, gamma=None, theta=None, phi=None, arm_weights=None,
                 decimal_input=False):
        self.__dict__.update(zeta=zeta, gamma=gamma, theta=theta, phi=phi,
                             arm_weights=arm_weights, decimal_input=decimal_input)

    @cached_property
    def _cells(self) -> tuple[tuple[int | None, ...], int]:
        """Every cell and arm weight in _SLOTS order, as numerators over one denominator d > 0.

        None stands for the cells of an absent table. Compiled at first use for
        hand-built tables, where a cell that is not a rational raises its own error, and
        a missing cell, a key no cell has and arm weights that are not two ValidationError.
        """
        pairs = []
        for name, key in _SLOTS:
            table = getattr(self, name)
            try:
                pairs.append(None if table is None else ratio(table[key]))
            except LookupError:
                raise ValidationError(f"{name} table has no cell {key!r}") from None
        for name in _TABLE_KEYS[:4]:  # the dict tables
            for key in getattr(self, name) or ():
                if (name, key) not in _SLOT:
                    raise ValidationError(f"{name} table has an unknown cell {key!r}")
        if self.arm_weights is not None and len(self.arm_weights) != 2:
            raise ValidationError(f"arm_weights has {len(self.arm_weights)} entries, not 2")
        return _common(pairs)


def _common(pairs: Sequence[tuple[int, int] | None]) -> tuple[tuple[int | None, ...], int]:
    """Reduced pairs (n, d), or None, as numerators over their least common denominator."""
    den = lcm(*[p[1] for p in pairs if p is not None])
    return tuple([None if p is None else p[0] * (den // p[1]) for p in pairs]), den


def _implied(nums: Sequence[int | None], den: int) -> list[int]:
    """gamma, theta and, given arm weights, phi as zeta implies them: slots 8 on, over den * den."""
    z, (w1, w2) = nums[:8], nums[20:]
    out = [(z[k] + z[k + d]) * den for d, ks in ((1, (0, 2, 4, 6)), (2, (0, 1, 4, 5))) for k in ks]
    return out if w1 is None else out + [z[k] * w1 + z[k + 4] * w2 for k in range(4)]


def _validate(nums: Sequence[int | None], den: int, tol: Fraction) -> None:
    """Entries in [0, 1], block sums within SUM_DEVIATION (1/100) of 1, marginals as zeta implies.

    Explicit gamma/theta/phi must match the tables' own zeta and arm weights
    within ``tol``: exactly for exact input, within DECIMAL_TOLERANCE per
    entry for rounded decimals. Decided on the cells' numerators over their
    common denominator; Fractions are built only to word an error.
    """
    bar, scale = SUM_DEVIATION.numerator, SUM_DEVIATION.denominator
    at = 0
    for name, _, keys in _BLOCKS:
        values, at = nums[at : at + len(keys)], at + len(keys)
        if values[0] is None:
            continue
        for n in values:
            if not 0 <= n <= den:
                raise ValidationError(f"{name} entry {format_ratio(n, den)} is outside [0, 1]")
        total = sum(values)
        if abs(total - den) * scale > bar * den:
            slack = format_ratio(total - den, den)
            raise ValidationError(f"{name} sums to {format_ratio(total, den)}, slack {slack}")
    if nums[0] is None:
        return
    square = den * den
    for slot, (n, want) in enumerate(zip(nums[8:], _implied(nums, den)), 8):
        if n is not None and abs(n * den - want) * tol.denominator > tol.numerator * square:
            name, key = _SLOTS[slot]
            raise ValidationError(
                f"{name}{list(key)} = {format_ratio(n, den)} contradicts zeta, "
                f"which implies {format_ratio(want, square)}"
            )


def build_tables(
    zeta: Mapping[str, Sequence[RationalLike]] | None = None,
    gamma: Mapping[str, Sequence[RationalLike]] | None = None,
    theta: Mapping[str, Sequence[RationalLike]] | None = None,
    phi: Sequence[RationalLike] | None = None,
    arm_weights: Sequence[RationalLike] | None = None,
    *,
    decimal_input: bool = False,
) -> ObservedTables:
    """Construct validated tables from the JSON-shaped nested values (see _validate).

    decimal_input is taken as given, whatever the cells look like: it alone
    picks the tolerance that marginals must agree with zeta within.
    """
    given = {"zeta": zeta, "gamma": gamma, "theta": theta, "phi": phi, "arm_weights": arm_weights}
    return _validated(_parse_cells(given)[0], decimal_input)


def _parse_cells(given: Mapping) -> tuple[list[tuple[int, int] | None], bool]:
    """The tables' cells as reduced integer pairs in _SLOTS order (None for an absent table),
    and whether some cell is a string with a "." or an exponent ("e" or "E")."""
    pairs: list[tuple[int, int] | None] = []
    decimal = False
    for _, name, keys in _BLOCKS:
        table = given.get(name)
        if table is None:
            pairs += [None] * len(keys)
        elif name in ("phi", "arm_weights"):
            decimal = _row(pairs, table, len(keys), name) or decimal
        elif not (type(table) is dict or isinstance(table, Mapping)) or set(table) != {"a1", "a2"}:
            raise ParseError(f"{name} table needs exactly the keys 'a1' and 'a2'")
        else:
            arm = keys[0][-1]
            decimal = _row(pairs, table[f"a{arm}"], len(keys), name, arm) or decimal
    return pairs, decimal


def _validated(pairs: Sequence[tuple[int, int] | None], decimal_input: bool) -> ObservedTables:
    """Tables of the parsed cells, validated within the tolerance decimal_input picks."""
    nums, den = _common(pairs)
    _validate(nums, den, DECIMAL_TOLERANCE if decimal_input else _ZERO)
    return ObservedTables._unbuilt(_cells=(nums, den), decimal_input=decimal_input)


def _row(out: list, values, width: int, name: str, arm: int | None = None) -> bool:
    """Append one row, a JSON array of ``width`` cells of at most 100 digits, to out as reduced
    integer pairs; whether some cell is a string with a "." or an exponent ("e" or "E")."""
    where = name if arm is None else f"{name} a{arm}"
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"{where} must be a JSON array of {width} entries")
    decimal = False
    for i, v in enumerate(values):
        try:
            n, d = ratio(v)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{where}[{i}] = {v!r}: {exc}") from exc
        if _too_long(n, d):
            raise ParseError(f"{where}[{i}] = {v!r} needs more than {_CELL_DIGITS} digits")
        out.append((n, d))
        if not decimal and isinstance(v, str):
            decimal = "." in v or "e" in v or "E" in v
    if len(values) != width:
        row = name if arm is None else f"{name} row a{arm}"
        raise ParseError(f"{row} needs {width} entries, got {len(values)}")
    return decimal


def default_tolerance(
    data: ObservedTables | Mapping, tolerance: RationalLike | None = None
) -> Fraction:
    """The tolerance to check data with: ``tolerance``, or else the data's default.

    The default is zero for exact input and a half-unit in the fourth
    decimal for rounded tables. A given tolerance must be nonnegative and,
    like a table cell, fit in 100 digits; an error names it as a cell's does.
    """
    if tolerance is None:
        decimal = isinstance(data, ObservedTables) and data.decimal_input
        return DECIMAL_TOLERANCE if decimal else _ZERO
    try:
        n, d = ratio(tolerance)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"tolerance {tolerance!r}: {exc}") from exc
    if n < 0:
        raise ValidationError(f"tolerance {tolerance!r} is negative")
    if _too_long(n, d):
        raise ParseError(f"tolerance {tolerance!r} needs more than {_CELL_DIGITS} digits")
    return Fraction(n, d)


def load(source: str | Path) -> ObservedTables:
    """Load tables from a bundled dataset name or a JSON/CSV file path, validated as
    build_tables validates; decimal_input is the file's flag or any decimal or exponent cell."""
    if isinstance(source, str) and not source.strip():  # Path('') would read '.'
        raise ParseError(f"data source {source!r} names no file or dataset")
    bundled = isinstance(source, str) and source in BUNDLED_DATASETS
    path = Path(__file__).parent / "datasets" / f"{source}.json" if bundled else Path(source)
    try:
        with open(path, encoding="utf-8-sig") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    raw = _parse_csv(text) if path.suffix.lower() == ".csv" else _parse_json(text)
    if not isinstance(raw, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(raw) - set(_TABLE_KEYS) - {"decimal_input"}
    if unknown:
        raise ParseError(f"unknown table keys: {sorted(unknown)}")
    rounded = raw.get("decimal_input", False)
    if not isinstance(rounded, bool):
        raise ParseError("decimal_input must be true or false")
    try:
        pairs, decimal = _parse_cells(raw)
        return _validated(pairs, rounded or decimal)
    except (TypeError, ValueError, RecursionError) as exc:
        if isinstance(exc, (ParseError, ValidationError)):
            raise
        raise ParseError(str(exc)) from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is a ParseError, not silently the last."""
    out = dict(pairs)
    if len(out) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ParseError(f"repeated JSON key {key!r}")
    return out


def _parse_json(text: str):
    try:
        # Keeping float literals as their source text preserves exactness.
        return json.loads(text, parse_float=str, object_pairs_hook=_unique_keys)
    except ParseError:
        raise
    except (ValueError, RecursionError) as exc:  # also an integer past int's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc


def _parse_csv(text: str) -> dict:
    """A c,b,a,value CSV as the JSON-shaped {"zeta": {"a1": [...], "a2": [...]}}."""
    import csv  # only CSV input pays for it

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
    return {"zeta": {f"a{a}": [entries[(c, b, a)] for c, b in _CB_PAIRS] for a in _ARMS}}


def derive_marginals(t: ObservedTables) -> ObservedTables:
    """Fill missing gamma/theta, and phi when arm weights exist, from zeta.

    Explicitly provided tables are never overwritten, so the operation is
    idempotent. Without arm weights phi stays None: no equal-weight
    default is assumed. The implied cells are computed on the integer
    cells; an implied phi puts them all over the square of the denominator.
    """
    nums, den = t._cells
    if nums[0] is None:
        raise ValidationError("cannot derive marginals without a zeta table")
    fill = {i: n for i, n in enumerate(_implied(nums, den), 8) if nums[i] is None}
    if any(i >= _FIRST["phi"] for i in fill):
        nums, den = tuple(fill.get(i, n and n * den) for i, n in enumerate(nums)), den * den
    else:
        nums = tuple(fill[i] // den if i in fill else n for i, n in enumerate(nums))
    return ObservedTables._unbuilt(_cells=(nums, den), decimal_input=t.decimal_input)


def observable_point(
    labels: Sequence[str], data: ObservedTables | Mapping[str, RationalLike]
) -> dict[str, Fraction]:
    """Assemble the coordinate values a scenario needs from the tables.

    Each label is read through parse_coordinate: its kind names the table
    and its indices are the table key. x-coordinates (joint with the
    instrument) are zeta scaled by the arm weight. A label whose table is
    absent raises ValidationError; x-labels without arm weights raise
    MissingArmWeights. A plain mapping is taken as the point itself, its
    values coerced to exact rationals. Tables give the Fractions of the
    integers that integer_point reads.
    """
    if not isinstance(data, ObservedTables):
        return {k: rational(v) for k, v in data.items()}
    xs, d, _ = integer_point(labels, data)
    return {label: Fraction(x, d) for label, x in zip(labels, xs)}


def integer_point(
    labels: Sequence[str], data: ObservedTables | Mapping[str, RationalLike]
) -> tuple[list[int], int, list[int]]:
    """observable_point's values at ``labels`` as integers over one d > 0, and the absent ones.

    Tables are read from their integer cells, over their denominator (its
    square with an x-label); they raise as observable_point does. Every
    value of a plain mapping is parsed, so it raises as observable_point
    does too; those at ``labels`` go over their least common denominator,
    and a label it lacks is 0 in the list and its position is listed.
    """
    if not isinstance(data, ObservedTables):
        point = {k: ratio(v) for k, v in data.items()}
        xs, d = _common([point.get(label, (0, 1)) for label in labels])
        return list(xs), d, [j for j, label in enumerate(labels) if label not in point]
    nums, den = data._cells
    pick = _picker(tuple(labels))
    if pick and None not in (values := pick[0](nums)):
        if not pick[1]:
            return list(values), den, []
        if nums[_FIRST["arm_weights"]] is not None:
            xs = [v * (den if w is None else nums[w]) for v, w in zip(values, pick[1])]
            return xs, den * den, []
    for label in labels:  # some label has no table rule or no table: the first one raises
        rule = _table_rule(label)
        if rule is None:
            raise ValidationError(f"no table rule for coordinate label {label!r}")
        name, _, arm = rule
        if nums[_FIRST[name]] is None:
            raise ValidationError(f"coordinate {label} needs a {name} table")
        if arm is not None and nums[arm] is None:
            raise MissingArmWeights(f"coordinate {label} needs arm weights")


@lru_cache(maxsize=None)
def _picker(labels: tuple[str, ...]) -> tuple | None:
    """(getter of the labels' cells, their arm weight slots or () without x-labels); None
    if some label has no table rule, for integer_point to name the first in order."""
    try:
        rules = [_table_rule(label) for label in labels]
    except ValueError:
        return None
    if None in rules:
        return None
    arms = tuple(arm for *_, arm in rules)
    return picker([i for _, i, _ in rules]), arms if any(w is not None for w in arms) else ()


@lru_cache(maxsize=None)
def _table_rule(label: str) -> tuple[str, int, int | None] | None:
    """(table, cell slot, arm weight slot or None) that a label reads; None if no table holds it."""
    coord = parse_coordinate(label)
    if not coord.key:
        return None
    if coord.kind == "xi":
        return "zeta", _SLOT["zeta", coord.key], _FIRST["arm_weights"] + coord.a - 1
    return coord.kind, _SLOT[coord.kind, coord.key], None
