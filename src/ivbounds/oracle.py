"""Independent LP check of derived bounds via exact mixture optimization.

Any distribution consistent with a scenario is a convex mixture of the
scenario's parameter-vertex images, so the sharp range of the causal
target at a data point is the min/max of a linear program over mixture
weights. Solving that program exactly and comparing with the closed-form
bounds catches derivation errors on either side. The equality system is
reduced once per scenario by fraction-free integer elimination
(introws.rref); then a two-phase simplex with Bland's rule, immune to
cycling, runs on an integer tableau in the style of lrs (Avis & Fukuda,
1992): the objective row is carried along and every pivot is introws.pivot,
which skips the rows it leaves unchanged. Phase 1 runs once per data point,
phase 2 once per sense. Every basic column holds the tableau's common scale,
so the value is read out on integers: one dot product of the objective's
numerators with the basic right-hand sides. Fractions appear only in the
LP's inputs and in the final weights and value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Literal, Mapping

from .bounds import derive, interval_and_fit
from .data import ObservedTables, observable_point
from .forms import MissingCoordinate, RationalLike, Record
from .introws import clear_denominators, pivot, rref
from .scenarios import Scenario, get_scenario, scenario_vertex_set

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MismatchError(AssertionError):
    """Exact LP answer disagrees with the derived bound forms."""


class LPResult(Record):
    status: str  # "optimal", "infeasible" or "unbounded"
    value: Fraction | None
    weights: tuple[Fraction, ...] | None


class MixtureLP(Record):
    """min/max of objective.w subject to columns.w = rhs, w >= 0, sum w = 1.

    Each column belongs to one mixture component; the normalization row is
    already part of columns/rhs when built via from_scenario. Mismatched
    lengths of columns, rhs and objective raise ValueError.
    """

    columns: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for j, col in enumerate(self.columns):
            if len(col) != len(self.rhs):
                raise ValueError(f"column {j} has {len(col)} entries but rhs has {len(self.rhs)}")
        if len(self.objective) != len(self.columns):
            raise ValueError(f"objective has {len(self.objective)} entries, not one per column")

    @classmethod
    def from_scenario(
        cls,
        scenario: str | Scenario,
        data: ObservedTables | Mapping[str, RationalLike],
    ) -> "MixtureLP":
        s = get_scenario(scenario)
        if s.causal_target is None:
            raise ValueError(f"scenario {s.name!r} has no causal target to optimize")
        base, point = _scenario_lp(s), observable_point(s.observable_labels, data)
        try:
            rhs = tuple(point[lab] for lab in s.observable_labels) + (_ONE,)
        except KeyError as exc:
            raise MissingCoordinate(exc.args[0]) from None
        # The same columns and one rhs entry per row: base's checks hold, and its system is shared.
        return cls._unbuilt(
            columns=base.columns, rhs=rhs, objective=base.objective, _system=base._system
        )

    @cached_property
    def _system(self) -> tuple[list, list[list[int]], list[list[int]], int, list[int], int]:
        """(templates, E, null, d, nums, den): one rref([A | I]), A scaled to integers.

        Row i of A's reduction is d times row i of the reduced row echelon
        form of A; templates[i] is the pair (that row, its negation), each
        followed by the artificial column d * e_i, for phase 1 to pick from
        by the sign of the reduced rhs. E (row scales folded in) has
        E.A = A's reduction, so E.b is a feasible rhs b reduced at scale d.
        Each null row y has y.A = 0: b is infeasible if some y.b is not 0.
        The objective is nums / den.
        """
        n, m = len(self.columns), len(self.rhs)
        scaled = [clear_denominators([col[i] for col in self.columns]) for i in range(m)]
        aug = [ints + [int(k == i) for k in range(m)] for i, (ints, _) in enumerate(scaled)]
        reduced, d, pivots = rref(aug, n + m)
        r = sum(p < n for p in pivots)
        E = [[v * c for v, (_, c) in zip(row[n:], scaled)] for row in reduced]
        eye = [[d if k == i else 0 for k in range(r)] for i in range(r)]
        templates = [(row[:n] + e, [-v for v in row[:n]] + e) for row, e in zip(reduced, eye)]
        return templates, E[:r], E[r:], d, *clear_denominators(self.objective)

    @cached_property
    def _phase1(self) -> tuple[list[list[int]], list[int], int] | None:
        """The tableau, basis and scale that end phase 1 (cost row for "min"), or None.

        With rhs = b / D, this is the tableau of [A | rhs] reduced afresh times
        D * d over that reduction's scale: a positive factor, so no pivot moves.
        """
        templates, E, null, d, nums, _ = self._system
        b, den = clear_denominators(self.rhs)
        if any(sum(map(mul, y, b)) for y in null):
            return None
        n, m, s = len(self.columns), len(templates), den * d

        # Integer tableau at scale s: constraint rows with nonnegative right-hand
        # sides and artificial columns s*I, the phase-2 row (the objective's
        # numerators times s), and the phase-1 row, whose objective is the artificials' sum.
        T = []
        for pair, e in zip(templates, E):
            r = sum(map(mul, e, b))
            T.append([den * v for v in pair[r < 0]] + [abs(r)])
        T.append([s * c for c in nums] + [0] * (m + 1))
        sums = [sum(col) for col in zip(*T[:m])] or [0] * (n + m + 1)
        T.append([-v for v in sums[:n]] + [0] * m + [-sums[-1]])
        basis = list(range(n, n + m))

        s = _simplex(T, basis, n + m, s)
        # The phase-1 row's last entry is -s times the artificials' sum.
        if T.pop()[-1]:
            return None

        # Kick zero-level artificials out of the basis: the rows are independent,
        # so a pivot column exists; negating a row whose rhs is 0 keeps s > 0.
        for i in range(m):
            if basis[i] >= n:
                col = next(j for j in range(n) if T[i][j])
                if T[i][col] < 0:
                    T[i] = [-v for v in T[i]]
                s = pivot(T, i, col, s)
                basis[i] = col
        return [row[:n] + row[-1:] for row in T], basis, s


@lru_cache(maxsize=None)
def _scenario_lp(s: Scenario) -> MixtureLP:
    """A targeted scenario's LP at rhs 0; from_scenario reuses its columns, objective and system."""
    vs = scenario_vertex_set(s)
    idx = [s.space.index(lab) for lab in s.observable_labels]
    ti = s.space.index(s.causal_target)
    columns = tuple(tuple(v[i] for i in idx) + (_ONE,) for v in vs.vertices)
    objective = tuple(v[ti] for v in vs.vertices)
    return MixtureLP(columns=columns, rhs=(_ZERO,) * len(columns[0]), objective=objective)


def _simplex(T: list[list[int]], basis: list[int], width: int, s: int) -> int | None:
    """Bland-rule simplex on an integer tableau in canonical form, in place.

    Row i < len(basis) is a constraint whose basic column basis[i] holds
    the common scale s > 0; the last row is the objective's reduced costs
    times a positive factor. Entering: the lowest column below ``width``
    with negative reduced cost; leaving: the lowest basis index among the
    ratio-test ties. Together they rule out cycling, so degeneracy (rampant
    here) is harmless. Returns the final scale, or None if unbounded below.
    """
    while True:
        z = T[-1]
        entering = next((j for j in range(width) if z[j] < 0), None)
        if entering is None:
            return s
        # One scan for the smallest ratio T[i][-1] / T[i][entering], compared
        # by cross-multiplication, then the lowest basis index among ties.
        leave = None
        for i, b in enumerate(basis):
            e = T[i][entering]
            if e > 0 and (leave is None or (T[i][-1] * entry, b) < (T[leave][-1] * e, basis[leave])):
                leave, entry = i, e
        if leave is None:
            return None
        s = pivot(T, leave, entering, s)
        basis[leave] = entering


def solve(lp: MixtureLP, sense: Literal["min", "max"] = "min") -> LPResult:
    """Exact two-phase simplex. Infeasibility is an answer, not an error."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    if lp._phase1 is None:
        return LPResult(status="infeasible", value=None, weights=None)
    T, basis, s = lp._phase1
    T, basis = list(T), list(basis)  # phase 2 must leave the cached tableau as it is
    if sense == "max":
        T[-1] = [-v for v in T[-1]]
    s = _simplex(T, basis, len(lp.columns), s)
    if s is None:
        return LPResult(status="unbounded", value=None, weights=None)
    # Every basic column holds the scale s, so basic weight i is T[i][-1] / s
    # and the value is one integer dot product over the objective's denominator.
    nums, den = lp._system[-2:]
    weights = [_ZERO] * len(lp.columns)
    top = 0
    for i, b in enumerate(basis):
        x = T[i][-1]
        weights[b] = Fraction(x, s)
        top += nums[b] * x
    return LPResult(status="optimal", value=Fraction(top, den * s), weights=tuple(weights))


def oracle_interval(
    scenario: str | Scenario,
    data: ObservedTables | Mapping[str, RationalLike],
) -> tuple[LPResult, LPResult]:
    """Exact LP minimum and maximum of the scenario's causal target."""
    lp = MixtureLP.from_scenario(scenario, data)
    return solve(lp, "min"), solve(lp, "max")


class CrossCheckReport(Record):
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
    MismatchError, since it means the derivation itself is wrong. A
    Scenario is derived as given, not looked up by its name.
    """
    s = get_scenario(scenario)
    bs = derive(scenario)
    interval, fit = interval_and_fit(bs, data)
    member = fit and not interval.empty
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
