"""Independent LP check of derived bounds via exact mixture optimization.

Any distribution consistent with a scenario is a convex mixture of the
scenario's parameter-vertex images, so the sharp range of the causal
target at a data point is the min/max of a linear program over mixture
weights. Solving that program exactly and comparing with the closed-form
bounds catches derivation errors on either side. The equality system is
first reduced by fraction-free integer elimination (introws); then a
two-phase simplex with Bland's rule runs over Fraction arithmetic: slow on
paper, instant at this problem size, and immune to both cycling and
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping, Sequence

from .bounds import derive, evaluate_bounds, model_check
from .data import ObservedTables, observable_point
from .forms import RationalLike
from .introws import primitive, rref
from .scenarios import Scenario, get_scenario, scenario_vertex_set

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MismatchError(AssertionError):
    """Exact LP answer disagrees with the derived bound forms."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal", "infeasible" or "unbounded"
    value: Fraction | None
    weights: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class MixtureLP:
    """min/max of objective.w subject to columns.w = rhs, w >= 0, sum w = 1.

    Each column belongs to one mixture component; the normalization row is
    already part of columns/rhs when built via from_scenario.
    """

    columns: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[Fraction, ...]

    @classmethod
    def from_scenario(
        cls,
        scenario: str | Scenario,
        data: ObservedTables | Mapping[str, RationalLike],
    ) -> "MixtureLP":
        s = get_scenario(scenario)
        if s.causal_target is None:
            raise ValueError(
                f"scenario {s.name!r} has no causal target to optimize"
            )
        vs = scenario_vertex_set(s, include_target=True)
        labels = s.observable_labels
        point = observable_point(labels, data)
        idx = [s.space.index(lab) for lab in labels]
        ti = s.space.index(s.causal_target)
        columns = tuple(
            tuple(v[i] for i in idx) + (_ONE,) for v in vs.vertices
        )
        rhs = tuple(point[lab] for lab in labels) + (_ONE,)
        objective = tuple(v[ti] for v in vs.vertices)
        return cls(columns=columns, rhs=rhs, objective=objective)


def _pivot(T: list[list[Fraction]], basis: list[int], r: int, col: int) -> None:
    inv = _ONE / T[r][col]
    T[r] = [v * inv for v in T[r]]
    row_r = T[r]
    for i, row in enumerate(T):
        if i != r and row[col]:
            f = row[col]
            T[i] = [a - f * b for a, b in zip(row, row_r)]
    basis[r] = col


def _optimize(
    T: list[list[Fraction]], basis: list[int], cost: Sequence[Fraction], n: int
) -> tuple[str, Fraction]:
    """Bland-rule simplex on a tableau already in canonical form.

    Entering variable: lowest index with negative reduced cost. Leaving
    variable: lowest basis index among the ratio-test ties. Both choices
    together rule out cycling, so degeneracy (rampant here) is harmless.
    """
    m = len(T)
    while True:
        cB = [cost[b] for b in basis]
        entering = -1
        for j in range(n):
            rc = cost[j] - sum(cB[i] * T[i][j] for i in range(m))
            if rc < 0:
                entering = j
                break
        if entering < 0:
            return "optimal", sum(cB[i] * T[i][-1] for i in range(m))
        leave = -1
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = T[i][-1] / T[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", _ZERO
        _pivot(T, basis, leave, entering)


def solve(lp: MixtureLP, sense: Literal["min", "max"] = "min") -> LPResult:
    """Exact two-phase simplex. Infeasibility is an answer, not an error."""
    n = len(lp.columns)
    m = len(lp.rhs)
    cost = list(lp.objective)
    if sense == "max":
        cost = [-c for c in cost]
    elif sense != "min":
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")

    # Reduce the equality system first: redundant rows disappear and an
    # inconsistent system is caught without touching the simplex.
    aug = [
        primitive([lp.columns[j][i] for j in range(n)] + [lp.rhs[i]]) for i in range(m)
    ]
    reduced, d, pivots = rref(aug, n + 1)
    if n in pivots:
        return LPResult(status="infeasible", value=None, weights=None)
    rows = [[Fraction(v, d) for v in r[:n]] for r in reduced]
    b = [Fraction(r[n], d) for r in reduced]
    m = len(rows)
    if m == 0:
        if all(c >= 0 for c in cost):
            value = _ZERO if sense == "min" else -_ZERO
            return LPResult(status="optimal", value=value, weights=(_ZERO,) * n)
        return LPResult(status="unbounded", value=None, weights=None)

    T: list[list[Fraction]] = []
    for i in range(m):
        row = list(rows[i])
        rhs_i = b[i]
        if rhs_i < 0:
            row = [-v for v in row]
            rhs_i = -rhs_i
        art = [_ZERO] * m
        art[i] = _ONE
        T.append(row + art + [rhs_i])
    basis = [n + i for i in range(m)]

    phase1 = [_ZERO] * n + [_ONE] * m
    status, value = _optimize(T, basis, phase1, n + m)
    assert status == "optimal"
    if value > 0:
        return LPResult(status="infeasible", value=None, weights=None)

    # Kick zero-level artificials out of the basis; full row rank after
    # the reduction above guarantees a pivot column exists.
    for i in range(m):
        if basis[i] >= n:
            col = next(j for j in range(n) if T[i][j])
            _pivot(T, basis, i, col)
    T = [row[:n] + [row[-1]] for row in T]

    status, value = _optimize(T, basis, cost, n)
    if status == "unbounded":
        return LPResult(status="unbounded", value=None, weights=None)
    weights = [_ZERO] * n
    for i, bi in enumerate(basis):
        weights[bi] = T[i][-1]
    if sense == "max":
        value = -value
    return LPResult(status="optimal", value=value, weights=tuple(weights))


def oracle_interval(
    scenario: str | Scenario,
    data: ObservedTables | Mapping[str, RationalLike],
) -> tuple[LPResult, LPResult]:
    """Exact LP minimum and maximum of the scenario's causal target."""
    lp = MixtureLP.from_scenario(scenario, data)
    return solve(lp, "min"), solve(lp, "max")


@dataclass(frozen=True)
class CrossCheckReport:
    scenario: str
    target: str
    member: bool
    feasible: bool
    lp_lower: Fraction | None
    lp_upper: Fraction | None
    form_lower: Fraction
    form_upper: Fraction
    consistent: bool


def cross_check(
    scenario: str | Scenario,
    data: ObservedTables | Mapping[str, RationalLike],
) -> CrossCheckReport:
    """Verify the bound forms against the LP oracle at one data point.

    Membership in the observable hull is decided from the forms (exact
    constraint slacks plus a nonempty interval) and must coincide with LP
    feasibility; when both agree the data is consistent, the two interval
    computations must agree exactly. Any disagreement raises
    MismatchError, since it means the derivation itself is wrong.
    """
    s = get_scenario(scenario)
    bs = derive(s.name)
    interval = evaluate_bounds(bs, data)
    report = model_check(bs, data, tolerance=0)
    member = report.passed and not interval.empty
    lo, hi = oracle_interval(s, data)
    feasible = lo.status == "optimal"
    if feasible != (hi.status == "optimal"):
        raise MismatchError(
            f"{s.name}: LP min reports {lo.status} but LP max reports {hi.status}"
        )
    if member != feasible:
        raise MismatchError(
            f"{s.name}: forms say member={member} but the LP says feasible={feasible}"
        )
    if feasible and (lo.value != interval.lower or hi.value != interval.upper):
        raise MismatchError(
            f"{s.name}: forms give [{interval.lower}, {interval.upper}] "
            f"but the LP gives [{lo.value}, {hi.value}]"
        )
    return CrossCheckReport(
        scenario=s.name,
        target=bs.target,
        member=member,
        feasible=feasible,
        lp_lower=lo.value,
        lp_upper=hi.value,
        form_lower=interval.lower,
        form_upper=interval.upper,
        consistent=True,
    )
