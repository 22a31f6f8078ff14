"""Independent LP check of derived bounds via exact mixture optimization.

Any distribution consistent with a scenario is a convex mixture of the
scenario's parameter-vertex images, so the sharp range of the causal
target at a data point is the min/max of a linear program over mixture
weights. Solving that program exactly and comparing with the closed-form
bounds catches derivation errors on either side. It runs on integers from
the vertex set's rows and the data's integer cells to the value. The
equality system is reduced once per scenario by fraction-free elimination
(introws.rref); then a two-phase simplex with Bland's rule, immune to
cycling, runs on an integer tableau of the structural columns (an
artificial that leaves the basis never re-enters) in the style of lrs
(Avis & Fukuda, 1992): the objective row is carried along and every pivot
is introws.pivot, which skips the rows it leaves unchanged. Phase 1 runs
once per data point, from the reduction's pivot columns (a crash basis, Bixby
1992: only a flipped row starts with its artificial), phase 2 once per sense.
With rhs = b / D, the tableau solves for D times the weights at the scenario's
own scale: D enters only the right-hand sides and the scale that the value,
one integer dot product of the objective's numerators with the basic
right-hand sides, is read at (every basic column holds that scale). A
scenario LP's columns, rhs and objective and an optimum's weights are built
on read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul, sub
from typing import Literal, Mapping

from .bounds import TargetUnconstrained, derive, interval_and_fit
from .data import ObservedTables, integer_point
from .forms import MissingCoordinate, RationalLike, Record, rational
from .introws import PackedRows, clear_denominators, pivot, rref
from .scenarios import Scenario, get_scenario, scenario_vertex_set

_ZERO = Fraction(0)


class MismatchError(AssertionError):
    """Exact LP answer disagrees with the derived bound forms."""


class LPResult(Record):
    status: str  # "optimal", "infeasible" or "unbounded"
    value: Fraction | None
    weights: tuple[Fraction, ...] | None  # a field; the cached_property below is its view

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """solve's optimal basic weights, from its (n, scale, basis, basic right-hand sides)."""
        n, s, basis, xs = self._basic
        basic = dict(zip(basis, xs))
        return tuple(Fraction(basic[j], s) if j in basic else _ZERO for j in range(n))


class MixtureLP(Record):
    """min/max of objective.w subject to columns.w = rhs, w >= 0, sum w = 1.

    Each column belongs to one mixture component; from_scenario appends the
    normalization row. Mismatched lengths of columns, rhs and objective raise
    ValueError; each entry is read as forms.rational reads it, at first use.
    """

    columns: tuple[tuple[Fraction, ...], ...]  # fields; the cached_properties below are views
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
        cls, scenario: str | Scenario, data: ObservedTables | Mapping[str, RationalLike]
    ) -> "MixtureLP":
        """The scenario's LP at data; a scenario without a target raises TargetUnconstrained."""
        s = get_scenario(scenario)
        if s.causal_target is None:
            raise TargetUnconstrained(f"scenario {s.name!r} has no causal target to bound")
        return _lp_at(s, integer_point(s.observable_labels, data))

    @cached_property
    def _ints(self) -> tuple[list[list[int]], list[int], list[int], int]:
        """(rows, scales, nums, den): row i of the columns is rows[i] / scales[i], the objective
        nums / den; a hand-built LP's, each over its least denominator, entries read by rational."""
        columns = [[*map(rational, col)] for col in self.columns]
        scaled = [clear_denominators([col[i] for col in columns]) for i in range(len(self.rhs))]
        objective = clear_denominators([*map(rational, self.objective)])
        return [r for r, _ in scaled], [c for _, c in scaled], *objective

    @cached_property
    def _rhs(self) -> tuple[list[int], int]:
        return clear_denominators([*map(rational, self.rhs)])  # (b, den): the rhs is b / den

    @cached_property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        rows, scales, _, _ = self._ints
        return tuple(zip(*([Fraction(v, c) for v in row] for row, c in zip(rows, scales))))

    @cached_property
    def rhs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._rhs[1]) for v in self._rhs[0])

    @cached_property
    def objective(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._ints[3]) for v in self._ints[2])

    @cached_property
    def _system(self) -> tuple[list, PackedRows, int, list[int], list[int]]:
        """(templates, reduction, d, cost, pivots): one rref([A | I]) of A's integer rows.

        Row i of A's reduction is d times row i of the reduced row echelon
        form of A: d in its pivot column pivots[i], where every other row has 0.
        templates[i] is the pair (that row, its negation), for phase 1 to pick
        from by the sign of the reduced rhs. E (row scales folded in) has E.A =
        A's reduction, so E.b is a feasible rhs b reduced at scale d. Each null
        row y has y.A = 0: b is infeasible if some y.b is not 0. reduction is the
        groups [E, null], packed to evaluate at b. cost is the phase-2 row d * c.
        """
        rows, scales, nums, _ = self._ints
        n, m = len(nums), len(rows)
        aug = [row + [int(k == i) for k in range(m)] for i, row in enumerate(rows)]
        reduced, d, pivots = rref(aug, n + m)
        r = sum(p < n for p in pivots)
        E = [[v * c for v, c in zip(row[n:], scales)] for row in reduced]
        templates = [(row[:n], [-v for v in row[:n]]) for row in reduced[:r]]
        return templates, PackedRows([E[:r], E[r:]]), d, [d * c for c in nums] + [0], pivots[:r]

    @cached_property
    def _phase1(self) -> tuple[list[list[int]], list[int], int] | None:
        """The tableau, basis and scale that end phase 1 (cost row for "min"), or None.

        With rhs = b / D, this is the tableau of the LP with rhs b at the reduction's
        scale d: its weights are D times rhs's, and D > 0 moves no sign, ratio test or
        pivot, so D stays out of every other column and the scale (solve scales it in).
        A row whose reduced rhs is >= 0 starts with its pivot column basic, a flipped row
        with its artificial (basis id n + i), which has no column: rows hold the
        structural columns only. Phase 1's optimum over the rest is 0 iff b is feasible.
        """
        templates, reduction, d, cost, pivots = self._system
        reduced, null = reduction.evaluate(self._rhs[0])
        if any(null):
            return None
        n, m, nums = len(cost) - 1, len(templates), self._ints[2]

        # Integer tableau at scale d: constraint rows with nonnegative right-hand
        # sides, the phase-2 row priced out over the rows whose pivot column starts
        # basic, and the phase-1 row: the flipped rows' artificials' sum, priced out.
        T, basis, phase1 = [], [], [0] * (n + 1)
        for i, ((row, neg), r, p) in enumerate(zip(templates, reduced, pivots)):
            if r < 0:
                T.append(neg + [-r])
                basis.append(n + i)
                phase1 = [*map(sub, phase1, T[-1])]
            else:
                T.append(row + [r])
                basis.append(p)
                if nums[p]:
                    cost = [a - nums[p] * v for a, v in zip(cost, T[-1])]
        T += [cost, phase1]

        s = _simplex(T, basis, n, d)
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
        return T, basis, s


@lru_cache(maxsize=None)
def _scenario_lp(s: Scenario) -> MixtureLP:
    """A targeted scenario's LP at rhs 0 from its integer vertex rows; from_scenario shares it."""
    (points,), d = scenario_vertex_set(s)._rows
    rows = [[p[s.space.index(lab)] for p in points] for lab in s.observable_labels]
    objective = [p[s.space.index(s.causal_target)] for p in points]
    ints = rows + [[1] * len(points)], [d] * len(rows) + [1], objective, d
    return MixtureLP._unbuilt(_ints=ints, _rhs=([0] * len(ints[0]), 1))


def _lp_at(s: Scenario, point: tuple[list[int], int, list[int]]) -> MixtureLP:
    """_scenario_lp(s), its checks held and its system shared, at the rhs integer_point read on
    s.observable_labels (one entry per row); a label the point lacks raises MissingCoordinate."""
    xs, d, absent = point
    if absent:
        raise MissingCoordinate(s.observable_labels[absent[0]])
    base = _scenario_lp(s)
    return MixtureLP._unbuilt(_ints=base._ints, _system=base._system, _rhs=([*xs, d], d))


def _simplex(T: list[list[int]], basis: list[int], width: int, s: int) -> int | None:
    """Bland-rule simplex on an integer tableau in canonical form, in place.

    Row i < len(basis) is a constraint whose basic column basis[i] (none
    from ``width`` on) holds the common scale s > 0; the last row is the
    objective's reduced costs times a positive factor. Entering: the lowest
    column below ``width`` with negative reduced cost; leaving: the lowest
    basis index among the ratio-test ties. Together they rule out cycling, so degeneracy (rampant
    here) is harmless. Returns the final scale, or None if unbounded below.
    """
    while True:
        z = T[-1]
        for entering in range(width):
            if z[entering] < 0:
                break
        else:
            return s
        # One scan for the smallest ratio T[i][-1] / T[i][entering], compared by cross-
        # multiplication with the best so far (first 1 / 0), then the lowest basis index.
        leave, entry, rhs, low = None, 0, 1, 0
        for i, b in enumerate(basis):
            e = T[i][entering]
            if e > 0:
                x = T[i][-1] * entry - rhs * e
                if x < 0 or not x and b < low:
                    leave, entry, rhs, low = i, e, T[i][-1], b
        if leave is None:
            return None
        s = pivot(T, leave, entering, s)
        basis[leave] = entering


def solve(lp: MixtureLP, sense: Literal["min", "max"] = "min") -> LPResult:
    """Exact two-phase simplex. Infeasibility is an answer, not an error.

    Phase 2 runs on a copy of the cached phase-1 tableau, which leaves the rhs's denominator D
    to the scale the optimum is read at; an optimum's weights are built on read.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
    if lp._phase1 is None:
        return LPResult(status="infeasible", value=None, weights=None)
    T, basis, s = lp._phase1
    T, basis = list(T), list(basis)  # phase 2 must leave the cached tableau as it is
    if sense == "max":
        T[-1] = [-v for v in T[-1]]
    *_, nums, den = lp._ints
    s = _simplex(T, basis, len(nums), s)
    if s is None:
        return LPResult(status="unbounded", value=None, weights=None)
    # Every basic column holds the scale s and the rhs entries are over D * s, so basic weight
    # i is T[i][-1] / (D * s) and the value is one integer dot product over den * D * s.
    s *= lp._rhs[1]
    xs = [row[-1] for row in T[: len(basis)]]
    value = Fraction(sum(map(mul, map(nums.__getitem__, basis), xs)), den * s)
    return LPResult._unbuilt(status="optimal", value=value, _basic=(len(nums), s, basis, xs))


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
    interval, fit, point = interval_and_fit(bs, data)
    member = fit and not interval.empty
    lp = _lp_at(s, point)  # the forms' point: bs.space.labels are s.observable_labels
    lo, hi = solve(lp, "min"), solve(lp, "max")
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
