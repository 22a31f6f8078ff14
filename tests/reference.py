"""Slow reference versions of the derivation steps, kept to test the fast ones against.

partition is the Fraction path: every facet is reduced modulo the hull
equalities as an AffineForm, then canonicalized, classified and moved to
the observable space as separate steps; it returns the five tuples that a
BoundSet's views hold. polar_extreme_rays is the double
description whose adjacency test scans the tight-constraint mask of every
other ray for each positive/negative pair, and that starts from two
eliminations (independent_rows, then scaled_inverse of the chosen rows)
where the package makes one. solve is the LP oracle's simplex
that reduces the equality system and runs phase 1 afresh on every call,
with the artificial columns in the tableau, so an artificial that left
the basis may enter again (the package's phase 1 has no such columns).
Its phase 1 starts from the all-artificial basis, where the package's
starts from the reduction's pivot columns, so the two reach an optimum by
different pivot paths, which makes it the more independent check.
pivot and rref are the dense fraction-free kernel, which rewrites every
row on every step, and rational is the string parser that sends every
string through Fraction(). decimal_input is the rule that decides whether
a loaded study is rounded decimal input, found by a second walk of the
whole parsed file, where the package records it while it parses the
cells. transform is the closed form of each coordinate kind as a
polynomial in the parameters, on Fractions, where the package reads labels as events on 0/1 response types. tables,
derive_marginals, point, instrumental and beta_interval are the Fraction
path of the observed tables: a table is a dict of Fractions, validated,
filled and read cell by cell, where the package keeps every cell as an
integer numerator over one common denominator. render and
render_constraint print forms and constraints term by term on Fractions,
and bound_set_json writes a BoundSet's JSON from its views, where the
package prints integer rows over one denominator. form reads back what
render prints, such as "2*g01 - 1/2*t01 + 3", and is how the tests write
a form down.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from typing import Literal, Sequence

from ivbounds.bounds import BoundSet, InstrumentalReport, Interval
from ivbounds.data import MissingArmWeights, ValidationError
from ivbounds.forms import (
    AffineForm,
    CoordinateSpace,
    IdenticallyFalse,
    LinearConstraint,
    RationalLike,
    Relation,
    canonicalize,
)
from ivbounds.introws import clear_denominators, primitive
from ivbounds.oracle import LPResult, MixtureLP
from ivbounds.polytope import HRepresentation
from ivbounds.scenarios import ParameterPoint, parse_coordinate

_ZERO = Fraction(0)
_SMALL = tuple(Fraction(n) for n in range(-16, 17))
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def pivot(rows: list[list[int]], r: int, col: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on entry (r, col), in place.

    ``prev`` is the rows' common scale (1 at the start). Row r is kept and
    every other row becomes (p * row - row[col] * rows[r]) // prev, with
    p = rows[r][col] the new common scale, which is returned.
    """
    top = rows[r]
    p = top[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def rref(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], int, list[int]]:
    """Fraction-free reduced row echelon form (Bareiss-style Gauss-Jordan).

    Returns (reduced, d, pivots): the nonzero rows of d times the reduced
    row echelon form of the integer rows, an integer d > 0, and the pivot
    columns. Only the first ``width`` columns may hold pivots; a row that
    is zero there is dropped. Each column is one ``pivot`` step, so all
    pivot entries end up equal to d.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        prev = pivot(work, rank, col, prev)
        pivots.append(col)
    reduced = work[: len(pivots)]
    if prev < 0:
        prev = -prev
        reduced = [[-v for v in row] for row in reduced]
    return reduced, prev, pivots


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
        exponent = _EXPONENT.search(text)
        # Five significant digits already exceed the limit.
        digits = exponent.group(1).replace("_", "").lstrip("0")[:5] if exponent else ""
        if int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string such as '0.919'")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def decimal_input(raw: dict) -> bool:
    """Whether load reads a parsed JSON or CSV study as rounded decimals: the file's own
    "decimal_input", or any string anywhere in it holding a "." or an exponent."""
    return raw.get("decimal_input", False) or _contains_decimal(raw)


def _contains_decimal(value) -> bool:
    if isinstance(value, str):
        return "." in value or "e" in value.lower()
    if isinstance(value, Mapping):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(_contains_decimal, value))


def _delta(p: ParameterPoint, a: int) -> Fraction:
    return p.delta1 if a == 1 else p.delta2


def _eta(p: ParameterPoint, b: int) -> Fraction:
    return p.eta1 if b == 1 else p.eta0


def _gamma_star(p: ParameterPoint, c: int, a: int) -> Fraction:
    d = _delta(p, a)
    hit = p.eta0 * (1 - d) + p.eta1 * d
    return hit if c == 1 else 1 - hit


def _theta_star(p: ParameterPoint, b: int, a: int) -> Fraction:
    d = _delta(p, a)
    return d if b == 1 else 1 - d


def _zeta_star(p: ParameterPoint, c: int, b: int, a: int) -> Fraction:
    e = _eta(p, b)
    return _theta_star(p, b, a) * (e if c == 1 else 1 - e)


def _phi_star(p: ParameterPoint, c: int, b: int) -> Fraction:
    return _zeta_star(p, c, b, 1) * (1 - p.psi) + _zeta_star(p, c, b, 2) * p.psi


def _xi_star(p: ParameterPoint, c: int, b: int, a: int) -> Fraction:
    return _zeta_star(p, c, b, a) * (p.psi if a == 2 else 1 - p.psi)


def _alpha_star(p: ParameterPoint) -> Fraction:
    return p.eta1 - p.eta0


def _beta_star(p: ParameterPoint) -> Fraction:
    return _gamma_star(p, 1, 2) - _gamma_star(p, 1, 1)


# Label prefix -> closed form, taking the label's digits in order.
_STARS = {"g": _gamma_star, "t": _theta_star, "z": _zeta_star, "p": _phi_star, "x": _xi_star}


def transform(label: str, p: ParameterPoint) -> Fraction:
    """The closed form of one coordinate label at a parameter point."""
    if label == "alpha":
        return _alpha_star(p)
    if label == "beta":
        return _beta_star(p)
    return _STARS[label[0]](p, *(int(ch) for ch in label if ch.isdigit()))


def reduce_mod_equalities(form: AffineForm, equalities: Sequence[LinearConstraint]) -> AffineForm:
    """Substitute away each equality's trailing coordinate, on Fractions."""
    if not equalities:
        return form
    m = form.space.dimension
    flipped = []
    for eq in equalities:
        if eq.relation is not Relation.EQ:
            raise ValueError("reduce_mod_equalities expects EQ constraints")
        row = primitive(eq.form.coefficients + (eq.form.constant,))
        flipped.append(row[m - 1 :: -1] + row[m:])
    reduced, d, pivots = rref(flipped, m + 1)
    if m in pivots:
        raise IdenticallyFalse("equalities are mutually inconsistent")
    table = [(m - 1 - p, row[m - 1 :: -1] + row[m:]) for row, p in zip(reduced, pivots)]
    values, scale = clear_denominators(form.coefficients + (form.constant,))
    hits = [(values[t], row) for t, row in table if values[t]]
    if not hits:
        return form
    out = [d * v for v in values]
    for f, row in hits:
        out = [a - f * b for a, b in zip(out, row)]
    scale *= d
    values = [Fraction(a, scale) for a in out]
    return AffineForm(form.space, tuple(values[:-1]), values[-1])


def classify(space: CoordinateSpace, equalities: tuple, reduced: list) -> tuple[tuple, tuple]:
    """(nontrivial, trivial) canonical GEQ constraints of forms reduced modulo the equalities."""
    nonneg = (reduce_mod_equalities(form(space, label), equalities) for label in space.labels)
    trivial = {canonicalize(LinearConstraint(f, Relation.GEQ)).form for f in nonneg}
    cons = [canonicalize(LinearConstraint(f, Relation.GEQ)) for f in reduced]
    return (
        tuple(c for c in cons if c.form not in trivial),
        tuple(c for c in cons if c.form in trivial),
    )


def partition(h: HRepresentation, target: str | None = None) -> tuple[tuple, ...]:
    """bounds.partition, one Fraction form at a time: the lower forms, upper forms,
    observable tests, trivial tests and hull equalities of its BoundSet."""
    ti = None if target is None else h.space.index(target)
    obs_labels = tuple(l for l in h.space.labels if l != target)
    obs_space = CoordinateSpace(f"{h.space.name}-observables", obs_labels)

    def target_coefficient(form: AffineForm) -> Fraction:
        return _ZERO if ti is None else form.coefficients[ti]

    def to_obs(con: LinearConstraint) -> LinearConstraint:
        form = con.form
        assert target_coefficient(form) == 0
        coeffs = form.coefficients
        if ti is not None:
            coeffs = coeffs[:ti] + coeffs[ti + 1 :]
        return LinearConstraint(AffineForm(obs_space, coeffs, form.constant), con.relation)

    def solve_for_target(form: AffineForm) -> AffineForm:
        c = form.coefficients[ti]
        coeffs = tuple(-a / c if a else a for i, a in enumerate(form.coefficients) if i != ti)
        return AffineForm(obs_space, coeffs, -form.constant / c)

    lower: list[AffineForm] = []
    upper: list[AffineForm] = []
    obs_only = []
    for facet in h.facets:
        reduced = reduce_mod_equalities(facet.form, h.equalities)
        c = target_coefficient(reduced)
        if c == 0:
            obs_only.append(reduced)
        else:
            (lower if c > 0 else upper).append(solve_for_target(reduced))

    hull_eqs: list[LinearConstraint] = []
    for eq in h.equalities:
        if target_coefficient(eq.form) == 0:
            hull_eqs.append(canonicalize(to_obs(eq)))
        else:
            solved = solve_for_target(eq.form)
            lower.append(solved)
            upper.append(solved)

    nontrivial, trivial = classify(h.space, h.equalities, obs_only)
    return (
        tuple(lower),
        tuple(upper),
        tuple(to_obs(c) for c in nontrivial),
        tuple(to_obs(c) for c in trivial),
        tuple(hull_eqs),
    )


def independent_rows(rows: Sequence[Sequence[int]], need: int) -> list[int]:
    """Indices of the first ``need`` rows that are linearly independent.

    They are the first pivot columns of the transposed matrix.
    """
    _, _, pivots = rref(list(zip(*rows)), len(rows))
    if len(pivots) < need:
        raise ValueError("rows do not span the required rank")
    return pivots[:need]


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(columns, d) with columns[j] / d the j-th column of the inverse, d > 0.

    The rows must form an invertible square integer matrix; up to sign,
    d is its determinant and the columns are those of its adjugate.
    """
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    reduced, d, pivots = rref(aug, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [[reduced[i][n + j] for i in range(n)] for j in range(n)], d


def polar_extreme_rays(cons: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """polytope._polar_extreme_rays with the adjacency test scanning every ray's mask."""
    init = independent_rows(cons, dim + 1)
    columns, _ = scaled_inverse([cons[i] for i in init])
    rays = [primitive(col) for col in columns]
    start = sum(1 << i for i in init)
    masks = [start & ~(1 << i) for i in init]
    for k, con in enumerate(cons):
        if start >> k & 1:
            continue
        vals = [sum(c * r for c, r in zip(con, ray)) for ray in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [rays[i] for i in pos + zero]
        new_masks = [masks[i] for i in pos] + [masks[i] | 1 << k for i in zero]
        for ip in pos:
            for im in neg:
                shared = masks[ip] & masks[im]
                if shared.bit_count() < dim - 1 or any(
                    shared & mask == shared for io, mask in enumerate(masks) if io != ip and io != im
                ):
                    continue
                combo = [vals[ip] * a - vals[im] * b for a, b in zip(rays[im], rays[ip])]
                new_rays.append(primitive(combo))
                new_masks.append(shared | 1 << k)
        rays, masks = new_rays, new_masks
    return rays


def _simplex(
    T: list[list[int]], basis: list[int], width: int, s: int, entered: list | None = None
) -> int | None:
    """Bland-rule simplex on an integer tableau in canonical form, in place.

    Row i < len(basis) is a constraint whose basic column basis[i] holds
    the common scale s > 0; the last row is the objective's reduced costs
    times a positive factor. Entering: the lowest column below ``width``
    with negative reduced cost; leaving: the lowest basis index among the
    ratio-test ties. Together they rule out cycling, so degeneracy (rampant
    here) is harmless. Returns the final scale, or None if unbounded below.
    Each entering column is appended to ``entered`` if given.
    """
    while True:
        z = T[-1]
        entering = next((j for j in range(width) if z[j] < 0), None)
        if entering is None:
            return s
        # Rows in basis-index order: the strict ratio comparison (by
        # cross-multiplication) then keeps the lowest index among ties.
        rows = sorted((i for i in range(len(basis)) if T[i][entering] > 0), key=basis.__getitem__)
        leave = None
        for i in rows:
            if leave is None or T[i][-1] * T[leave][entering] < T[leave][-1] * T[i][entering]:
                leave = i
        if leave is None:
            return None
        if entered is not None:
            entered.append(entering)
        s = pivot(T, leave, entering, s)
        basis[leave] = entering


def solve(lp: MixtureLP, sense: Literal["min", "max"] = "min", entered: list | None = None) -> LPResult:
    """Exact two-phase simplex. Infeasibility is an answer, not an error.

    Given a list ``entered``, phase 1 appends each entering column to it:
    a column at or past len(lp.columns) is an artificial entering again.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    n = len(lp.columns)

    # Reduce the equality system first: redundant rows disappear and an
    # inconsistent system is caught without touching the simplex.
    aug = [primitive([col[i] for col in lp.columns] + [b]) for i, b in enumerate(lp.rhs)]
    reduced, d, pivots = rref(aug, n + 1)
    if n in pivots:
        return LPResult(status="infeasible", value=None, weights=None)
    m = len(reduced)

    # Integer tableau at common scale d: constraint rows with nonnegative
    # right-hand sides and artificial columns d*I, the phase-2 row (a
    # positive multiple of the cost has the same reduced-cost signs), and
    # the phase-1 row, whose objective is the artificials' sum.
    T = []
    for i, row in enumerate(reduced):
        if row[n] < 0:
            row = [-v for v in row]
        T.append(row[:n] + [d if k == i else 0 for k in range(m)] + [row[n]])
    cost = primitive(lp.objective)
    if sense == "max":
        cost = [-c for c in cost]
    T.append([d * c for c in cost] + [0] * (m + 1))
    sums = [sum(col) for col in zip(*T[:m])] or [0] * (n + m + 1)
    T.append([-v for v in sums[:n]] + [0] * m + [-sums[-1]])
    basis = list(range(n, n + m))

    s = _simplex(T, basis, n + m, d, entered)
    # The phase-1 row's last entry is -s times the artificials' sum.
    if T.pop()[-1]:
        return LPResult(status="infeasible", value=None, weights=None)

    # Kick zero-level artificials out of the basis; full row rank after
    # the reduction above guarantees a pivot column exists. The row's
    # right-hand side is 0, so negating it keeps the scale positive.
    for i in range(m):
        if basis[i] >= n:
            col = next(j for j in range(n) if T[i][j])
            if T[i][col] < 0:
                T[i] = [-v for v in T[i]]
            s = pivot(T, i, col, s)
            basis[i] = col
    T = [row[:n] + row[-1:] for row in T]

    if _simplex(T, basis, n, s) is None:
        return LPResult(status="unbounded", value=None, weights=None)
    weights = [_ZERO] * n
    for i, b in enumerate(basis):
        weights[b] = Fraction(T[i][-1], T[i][b])
    value = sum((c * w for c, w in zip(lp.objective, weights)), _ZERO)
    return LPResult(status="optimal", value=value, weights=tuple(weights))


_CB_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_LAYOUT = {"zeta": _CB_PAIRS, "gamma": ((0,), (1,)), "theta": ((0,), (1,)), "phi": _CB_PAIRS}


def _blocks(t: dict) -> list[tuple[str, list[Fraction]]]:
    out = []
    for name, keys in _LAYOUT.items():
        if t[name] is not None:
            if name == "phi":
                out.append((name, [t[name][k] for k in keys]))
            else:
                out += [(f"{name}[a={a}]", [t[name][k + (a,)] for k in keys]) for a in (1, 2)]
    if t["arm_weights"] is not None:
        out.append(("arm_weights", list(t["arm_weights"])))
    return out


def _implied(t: dict) -> dict[str, dict]:
    z = t["zeta"]
    out = {
        "gamma": {(c, a): z[(c, 0, a)] + z[(c, 1, a)] for c in (0, 1) for a in (1, 2)},
        "theta": {(b, a): z[(0, b, a)] + z[(1, b, a)] for b in (0, 1) for a in (1, 2)},
    }
    if t["arm_weights"] is not None:
        w1, w2 = t["arm_weights"]
        out["phi"] = {(c, b): z[(c, b, 1)] * w1 + z[(c, b, 2)] * w2 for c, b in _CB_PAIRS}
    return out


def tables(raw: dict, decimal_input: bool) -> dict:
    """Well-shaped JSON-style tables as Fraction dicts, validated as build_tables words it."""
    t = {}
    for name, keys in _LAYOUT.items():
        table = raw.get(name)
        if table is None or name == "phi":
            t[name] = None if table is None else dict(zip(keys, map(rational, table)))
        else:
            t[name] = {k + (a,): rational(v) for a in (1, 2) for k, v in zip(keys, table[f"a{a}"])}
    weights = raw.get("arm_weights")
    t["arm_weights"] = None if weights is None else tuple(map(rational, weights))
    for name, values in _blocks(t):
        for v in values:
            if not 0 <= v <= 1:
                raise ValidationError(f"{name} entry {_text(v)} is outside [0, 1]")
        total = sum(values)
        if abs(total - 1) > Fraction(1, 100):
            raise ValidationError(f"{name} sums to {_text(total)}, slack {_text(total - 1)}")
    if t["zeta"] is not None:
        tol = Fraction(1, 2000) if decimal_input else 0
        for name, implied in _implied(t).items():
            for key, value in (t[name] or {}).items():
                if abs(value - implied[key]) > tol:
                    raise ValidationError(
                        f"{name}{list(key)} = {_text(value)} contradicts zeta, "
                        f"which implies {_text(implied[key])}"
                    )
    return t


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def derive_marginals(t: dict) -> dict:
    if t["zeta"] is None:
        raise ValidationError("cannot derive marginals without a zeta table")
    return {**t, **{name: v for name, v in _implied(t).items() if t[name] is None}}


def point(labels: Sequence[str], t: dict) -> dict[str, Fraction]:
    """The coordinates read from Fraction tables one label at a time, first failure first."""
    out = {}
    for label in labels:
        coord = parse_coordinate(label)
        if not coord.key:
            raise ValidationError(f"no table rule for coordinate label {label!r}")
        name = "zeta" if coord.kind == "xi" else coord.kind
        if t.get(name) is None:
            raise ValidationError(f"coordinate {label} needs a {name} table")
        value = t[name][coord.key]
        if coord.kind == "xi":
            if t["arm_weights"] is None:
                raise MissingArmWeights(f"coordinate {label} needs arm weights")
            value *= t["arm_weights"][coord.a - 1]
        out[label] = value
    return out


def instrumental(t: dict, tolerance: Fraction) -> InstrumentalReport:
    if t["zeta"] is None:
        raise ValidationError("the instrumental inequality needs a zeta table")
    z = t["zeta"]
    sums = [max(z[(0, b, 1)], z[(0, b, 2)]) + max(z[(1, b, 1)], z[(1, b, 2)]) for b in (0, 1)]
    return InstrumentalReport((sums[0], sums[1]), max(sums), tolerance, max(sums) <= 1 + tolerance)


def beta_interval(t: dict) -> Interval:
    p = point(("t01", "t11", "t02", "t12"), t)
    lows = [-p["t01"] - p["t02"], -p["t11"] - p["t12"]]
    highs = [p["t01"] + p["t02"], p["t11"] + p["t12"]]
    lo, hi = max(lows), min(highs)
    return Interval(lo, hi, lows.index(lo), highs.index(hi), lo > hi)


def render(form: AffineForm) -> str:
    """Human form, terms in coordinate order, e.g. "2*g01 - g02 - 3"."""
    parts: list[str] = []
    for lab, c in zip(form.space.labels, form.coefficients):
        if not c:
            continue
        mag = abs(c)
        term = lab if mag == 1 else f"{_text(mag)}*{lab}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    if form.constant or not parts:
        mag = _text(abs(form.constant))
        if not parts:
            parts.append(mag if form.constant >= 0 else f"-{mag}")
        else:
            parts.append(f"+ {mag}" if form.constant > 0 else f"- {mag}")
    return " ".join(parts)


def form(space: CoordinateSpace, text: str) -> AffineForm:
    """The form that render prints as ``text``; a label may repeat and a number be a decimal."""
    coefficients, constant = dict.fromkeys(space.labels, _ZERO), _ZERO
    for term in text.replace(" - ", " + -").split(" + "):
        sign, term = (-1, term[1:]) if term[0] == "-" else (1, term)
        number, _, label = term.rpartition("*")
        if label[0].isalpha():
            coefficients[label] += sign * Fraction(number or 1)
        else:
            constant += sign * Fraction(label)
    return AffineForm(space, tuple(coefficients.values()), constant)


def render_constraint(con: LinearConstraint) -> str:
    if con.relation is Relation.EQ:
        lhs = AffineForm(con.form.space, con.form.coefficients, _ZERO)
        rhs = -con.form.constant
        if not any(lhs.coefficients):
            return f"0 = {_text(rhs)}"
        return f"{render(lhs)} = {_text(rhs)}"
    return f"{render(con.form)} >= 0"


def bound_set_json(bs: BoundSet) -> dict:
    """BoundSet.to_json_dict, written form by form from the Fraction views."""

    def form_dict(f: AffineForm) -> dict:
        coeffs = {lab: _text(c) for lab, c in zip(f.space.labels, f.coefficients) if c}
        return {"coeffs": coeffs, "const": _text(f.constant)}

    def con_list(cons: Sequence[LinearConstraint]) -> list[dict]:
        return [dict(form_dict(c.form), relation=c.relation.value) for c in cons]

    return {
        "scenario": bs.scenario,
        "target": bs.target,
        "labels": list(bs.space.labels),
        "lower": [form_dict(f) for f in bs.lower_forms],
        "upper": [form_dict(f) for f in bs.upper_forms],
        "observable_tests": con_list(bs.observable_tests),
        "trivial_tests": con_list(bs.trivial_tests),
        "hull_equalities": con_list(bs.hull_equalities),
    }
