"""Seeded inputs for the benchmark, built without calling ivbounds.

The generator carries its own copy of the latent model (five parameters
per confounder value, see ``image``) so that the truths it records for
each input come from the construction, not from the code under test.
Everything is exact: parameters, weights and tables are Fractions, and
decimal tables are written only from values whose decimal expansion is
finite, so "decimal" never means "rounded" here.

Every study is written with zeta-consistent marginals: any explicit
gamma, theta or phi is computed from the file's own zeta and arm
weights. The contradictory-gamma defect (a file whose gamma disagrees
with its own zeta) is therefore never exercised by this benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

CB_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
ARMS = (1, 2)

# Observable labels and target of each scenario, in the program's order.
SCENARIO_LABELS = {
    "bivariate": ("g01", "g11", "g02", "g12", "t01", "t11", "t02", "t12"),
    "trivariate": ("z00.1", "z01.1", "z10.1", "z11.1", "z00.2", "z01.2", "z10.2", "z11.2"),
    "pairwise3": (
        "g01", "g11", "g02", "g12", "t01", "t11", "t02", "t12", "p00", "p01", "p10", "p11",
    ),
    "beta": ("t01", "t11", "t02", "t12"),
}
SCENARIO_TARGET = {"bivariate": "alpha", "trivariate": "alpha", "pairwise3": "alpha", "beta": "beta"}
TARGETED = tuple(SCENARIO_LABELS)


def image(eta0, eta1, d1, d2, psi=Fraction(0)) -> dict[str, Fraction]:
    """Every coordinate of one latent parameter point, keyed by label."""
    delta = {1: d1, 2: d2}
    eta = {0: eta0, 1: eta1}
    out: dict[str, Fraction] = {}
    z = {}
    for c, b in CB_PAIRS:
        for a in ARMS:
            theta = delta[a] if b == 1 else 1 - delta[a]
            z[c, b, a] = theta * (eta[b] if c == 1 else 1 - eta[b])
            out[f"z{c}{b}.{a}"] = z[c, b, a]
            out[f"x{c}{b}{a}"] = z[c, b, a] * (psi if a == 2 else 1 - psi)
    for a in ARMS:
        for c in (0, 1):
            out[f"g{c}{a}"] = z[c, 0, a] + z[c, 1, a]
        out[f"t1{a}"] = delta[a]
        out[f"t0{a}"] = 1 - delta[a]
    for c, b in CB_PAIRS:
        out[f"p{c}{b}"] = z[c, b, 1] * (1 - psi) + z[c, b, 2] * psi
    out["alpha"] = eta1 - eta0
    out["beta"] = out["g12"] - out["g11"]
    return out


def mix(atoms: list[dict[str, Fraction]], weights: list[Fraction]) -> dict[str, Fraction]:
    return {lab: sum(w * atom[lab] for w, atom in zip(weights, atoms)) for lab in atoms[0]}


def _weights(rng: random.Random, k: int, step: Fraction | None) -> list[Fraction]:
    """k positive weights summing to 1; multiples of step when given."""
    if step is None:
        raw = [rng.randint(1, 60) for _ in range(k)]
        total = sum(raw)
        return [Fraction(r, total) for r in raw]
    units = int(1 / step)
    cuts = sorted(rng.sample(range(1, units), k - 1))
    bounds = [0, *cuts, units]
    return [Fraction(hi - lo, units) for lo, hi in zip(bounds, bounds[1:])]


def denominator_digits(values) -> int:
    return max(len(str(q.denominator)) for q in values)


def decimal_text(q: Fraction) -> str:
    """Exact decimal literal of a Fraction with a finite expansion."""
    d = q.denominator
    places = 0
    while (10 ** places) % d:
        places += 1
        if places > 40:
            raise ValueError(f"{q} has no finite decimal expansion")
    digits = str(q.numerator * (10 ** places // d))
    if places == 0:
        return digits
    digits = digits.rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def _text(q: Fraction, decimal: bool) -> str:
    if decimal:
        return decimal_text(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass
class Study:
    """One generated study file and what its construction guarantees."""

    path: Path
    decimal: bool
    arm_weights: bool
    consistent: bool
    alpha: Fraction | None
    beta: Fraction | None
    digits: int

    @property
    def scenarios(self) -> tuple[str, ...]:
        """Targeted scenarios whose coordinates this study supplies."""
        return TARGETED if self.arm_weights else tuple(s for s in TARGETED if s != "pairwise3")


def _zeta_tables(zeta: dict, weights: tuple[Fraction, Fraction] | None, decimal: bool, explicit: bool):
    payload: dict = {
        "zeta": {f"a{a}": [_text(zeta[c, b, a], decimal) for c, b in CB_PAIRS] for a in ARMS}
    }
    if explicit:
        payload["gamma"] = {
            f"a{a}": [_text(zeta[c, 0, a] + zeta[c, 1, a], decimal) for c in (0, 1)] for a in ARMS
        }
        payload["theta"] = {
            f"a{a}": [_text(zeta[0, b, a] + zeta[1, b, a], decimal) for b in (0, 1)] for a in ARMS
        }
        if weights is not None:
            payload["phi"] = [
                _text(zeta[c, b, 1] * weights[0] + zeta[c, b, 2] * weights[1], decimal)
                for c, b in CB_PAIRS
            ]
    if weights is not None:
        payload["arm_weights"] = [_text(w, decimal) for w in weights]
    return payload


def _latent_param(rng: random.Random, decimal: bool, denominator: int) -> Fraction:
    if decimal:
        return Fraction(rng.randint(0, 10), 10)
    return Fraction(rng.randint(0, denominator), denominator)


def make_study(
    rng: random.Random,
    path: Path,
    *,
    decimal: bool,
    arm_weights: bool,
    consistent: bool,
    explicit_marginals: bool,
) -> Study:
    """Write one study file and return its construction record.

    Consistent studies are mixtures over a few latent parameter points,
    identical in both arms, so the instrument is independent of the
    confounder and the latent alpha and beta are known exactly.
    Inconsistent studies put more than 1.2 of combined mass on
    max_a P(C=0, B=b | A=a) + max_a P(C=1, B=b | A=a) for one b, so
    the instrumental inequality fails by a wide margin.
    """
    step = Fraction(1, 10) if decimal else None
    if arm_weights:
        w1 = Fraction(rng.randint(3, 7), 10) if decimal else Fraction(rng.randint(150, 250), 401)
        weights = (w1, 1 - w1)
    else:
        weights = None
    alpha = beta = None
    if consistent:
        k = rng.randint(2, 4)
        denominator = rng.choice((97, 251, 499, 997))
        atoms = [
            image(*(_latent_param(rng, decimal, denominator) for _ in range(4)))
            for _ in range(k)
        ]
        w = _weights(rng, k, step)
        point = mix(atoms, w)
        zeta = {(c, b, a): point[f"z{c}{b}.{a}"] for c, b in CB_PAIRS for a in ARMS}
        alpha, beta = point["alpha"], point["beta"]
    else:
        unit = Fraction(1, 100) if decimal else Fraction(1, rng.choice((101, 997)))
        n = int(1 / unit)
        bad_b = rng.randint(0, 1)
        heavy = {1: (0, bad_b), 2: (1, bad_b)}
        zeta = {}
        for a in ARMS:
            mass = rng.randint(int(n * 0.62), int(n * 0.85))
            rest = n - mass
            others = [cb for cb in CB_PAIRS if cb != heavy[a]]
            cuts = sorted(rng.randint(0, rest) for _ in range(2))
            parts = [cuts[0], cuts[1] - cuts[0], rest - cuts[1]]
            zeta[(*heavy[a], a)] = mass * unit
            for cb, part in zip(others, parts):
                zeta[(*cb, a)] = part * unit
    payload = _zeta_tables(zeta, weights, decimal, explicit_marginals)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return Study(
        path=path,
        decimal=decimal,
        arm_weights=arm_weights,
        consistent=consistent,
        alpha=alpha,
        beta=beta,
        digits=denominator_digits(zeta.values()),
    )


def vertex_images() -> list[dict[str, Fraction]]:
    """Images of all 32 0/1 parameter points (eta0, eta1, delta1, delta2, psi)."""
    bits = (Fraction(0), Fraction(1))
    return [image(*v) for v in product(bits, repeat=5)]


@dataclass
class OraclePoint:
    scenario: str
    point: dict[str, Fraction]
    feasible: bool
    truth: Fraction | None
    digits: int


def oracle_round(rng: random.Random, verts: list[dict], infeasible: str | None) -> list[OraclePoint]:
    """One latent mixture of 6 to 10 parameter-vertex images, seen by every scenario.

    ``verts`` is vertex_images(). The scenario named ``infeasible`` gets a
    point pushed out of its model instead: starting from a vertex image v
    with a zero coordinate where the mixture m is positive, the point
    v + (v - m)/4 keeps every hull equality (it is an affine combination)
    but has a negative probability, so no mixture reaches it.
    """
    k = rng.randint(6, 10)
    atoms = [rng.choice(verts) for _ in range(k)]
    m = mix(atoms, _weights(rng, k, None))
    out = []
    for name in TARGETED:
        labels = SCENARIO_LABELS[name]
        if name == infeasible:
            candidates = [
                v for v in verts if any(v[lab] == 0 and m[lab] > 0 for lab in labels)
            ]
            v = rng.choice(candidates)
            point = {lab: v[lab] + (v[lab] - m[lab]) / 4 for lab in labels}
            out.append(OraclePoint(name, point, False, None, denominator_digits(point.values())))
        else:
            point = {lab: m[lab] for lab in labels}
            truth = m[SCENARIO_TARGET[name]]
            out.append(OraclePoint(name, point, True, truth, denominator_digits(point.values())))
    return out
