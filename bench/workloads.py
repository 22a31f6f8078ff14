"""The four benchmark workloads: set-up, one timed operation, and its correctness gate.

Every workload is a closed loop with one client: the next operation
starts when the previous one has been checked. ``setup`` builds
``items``, the inputs of the operations, and ``op(item, tracer)`` runs
one of them. It returns the operation's time in milliseconds, an error
message or None when the output passed its gate, and the calibration
scale when the operation calibrated itself in its own child. With a
tracer, the operation runs traced and its spans are added to that
tracer.

Items come in decks of ``deck_size``: every consecutive deck holds the
same fixed shares of each input property, and the seed picks only the
values and the order within a deck. Two things follow:

- Per-layer counts averaged over whole decks depend only on the deck,
  so they repeat exactly from run to run.
- The shares put the 50% and 90% points of the op time distribution
  inside one group of similar operations, not on the boundary between
  two groups, which keeps op_ms.p50 and op_ms.p90 steady from seed to
  seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen

HERE = Path(__file__).resolve().parent

# SHA-256 of json.dumps(x.to_json_dict(), sort_keys=True, separators=(",", ":"))
# for derive(name), or scenario_hull(name) for fig3, at the commit that
# introduced this benchmark. Any change to a derived object shows here.
PINNED_SHA256 = {
    "fig3": "8e2026e26b81328f557de92f7d126953a11b5d821d07a7ea0da3ab516a4f7807",
    "bivariate": "d5b855a805621c510049e45a4644279e441c81ff753ca82d2fb48b2f86bfc4fa",
    "trivariate": "f2636881c7e2b365e944ade896c7e091cb0863b88a0afca85925e4e7d35076ea",
    "pairwise3": "ef76357636abc8254011c92c8e76d525818b9dcdacb15bd55c6e29d6c1d295a8",
    "beta": "ff2efd8ac146647ddb27239adc739d0283540bde7510902e6099dcb34bd282cc",
}
# Published counts: pairwise3 has 56 observable tests and 37 lower and 37
# upper bounds; fig3's hull has affine dimension 7 and 8 facets.
PINNED_COUNTS = {"pairwise3": [56, 37, 37], "fig3": [7, 8]}
REGISTRY = ("fig3", "bivariate", "trivariate", "pairwise3", "beta")
CHILD_TIMEOUT_S = 120


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def profile(descriptions) -> dict:
    """Shares of input properties over the described operations."""
    # Exact sums, so the same ops give the same shares in any order.
    n = 0
    totals = dict.fromkeys(("decimal", "arm_weights", "inconsistent", "digits"), Fraction(0))
    scenarios = dict.fromkeys(REGISTRY, Fraction(0))
    for d in descriptions:
        n += 1
        for key in totals:
            totals[key] += Fraction(d.get(key, 0))
        for s in d["scenarios"]:
            scenarios[s] += Fraction(1, len(d["scenarios"]))
    n = max(n, 1)
    out = {
        "input.decimal_share": float(totals["decimal"] / n),
        "input.arm_weights_share": float(totals["arm_weights"] / n),
        "input.inconsistent_share": float(totals["inconsistent"] / n),
        "input.denominator_digits": float(totals["digits"] / n),
    }
    for s in REGISTRY:
        out[f"input.scenario_share.{s}"] = float(scenarios[s] / n)
    return out


def dealt(rng: random.Random, deck, decks: int) -> list:
    """``decks`` copies of ``deck``, each shuffled on its own."""
    out = []
    for _ in range(decks):
        copy = list(deck)
        rng.shuffle(copy)
        out += copy
    return out


class Workload:
    name = ""
    deck_size = 1

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, item, tracer) -> tuple[float, str | None, float | None]:
        raise NotImplementedError

    def describe(self, item) -> dict:
        """The item's input properties, for profile()."""
        raise NotImplementedError


class Derive(Workload):
    """Cold derivation of the whole registry, one fresh interpreter per op."""

    name = "derive"

    def setup(self) -> None:
        # An op's time excludes its child's start-up and import, so the
        # import is this workload's set-up: work moved into import time
        # shows in setup_s instead of vanishing. Importing here also
        # compiles the bytecode the children then reuse.
        import ivbounds  # noqa: F401

        self.items = [self.rng.sample(REGISTRY, len(REGISTRY)) for _ in range(16)]

    def describe(self, order):
        return {"scenarios": order}

    def op(self, order, tracer):
        cmd = [sys.executable, str(HERE / "child.py"), "derive", ",".join(order)]
        if tracer is not None:
            cmd.append("--trace")
        proc = subprocess.run(
            cmd, env=child_env(self.root), cwd=self.root,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return 0.0, f"child exit {proc.returncode}: {proc.stderr.strip()[-300:]}", None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if tracer is not None:
            tracer.merge(out["trace"])
        return out["op_ms"], self.gate(out), out["scale"]

    @staticmethod
    def gate(out) -> str | None:
        for name in REGISTRY:
            if out["sha256"][name] != PINNED_SHA256[name]:
                return f"{name}: to_json_dict() hash {out['sha256'][name]} is not the pinned one"
        for name, want in PINNED_COUNTS.items():
            if out["counts"][name] != want:
                return f"{name}: counts {out['counts'][name]} != {want}"
        return None


class Analyze(Workload):
    """Warm analysis of seeded study files, the dataset_analysis demo's loop."""

    name = "analyze"
    # 36 studies: decimal x arm weights (2 of 3) x consistent (5 of 6).
    # Studies with arm weights add pairwise3 and cost about three times as
    # much, so one op analyses three studies, two with arm weights and one
    # without: every op has the same scenario mix and op times form one
    # group.
    STUDIES = [
        (decimal, weights, consistent)
        for decimal in (True, False)
        for weights in (True, True, False)
        for consistent in (True, True, True, True, True, False)
    ]
    deck_size = len(STUDIES) // 3

    def setup(self) -> None:
        import ivbounds

        self.iv = ivbounds
        self.bs = {name: ivbounds.derive(name) for name in gen.TARGETED}
        specs = []
        for _ in range(10):
            weighted = [s for s in self.STUDIES if s[1]]
            plain = [s for s in self.STUDIES if not s[1]]
            self.rng.shuffle(weighted)
            self.rng.shuffle(plain)
            specs += [(*weighted[2 * k: 2 * k + 2], plain[k]) for k in range(self.deck_size)]
        self.items = [
            tuple(
                gen.make_study(
                    self.rng, self.work / f"study{i:03d}-{j}.json",
                    decimal=decimal, arm_weights=weights, consistent=consistent,
                    explicit_marginals=(i + j) % 2 == 0,
                )
                for j, (decimal, weights, consistent) in enumerate(op)
            )
            for i, op in enumerate(specs)
        ]

    def describe(self, studies):
        n = len(studies)
        return {
            "scenarios": [s for study in studies for s in study.scenarios],
            "digits": Fraction(sum(study.digits for study in studies), n),
            "decimal": Fraction(sum(study.decimal for study in studies), n),
            "arm_weights": Fraction(sum(study.arm_weights for study in studies), n),
            "inconsistent": Fraction(sum(not study.consistent for study in studies), n),
        }

    def op(self, studies, tracer):
        iv = self.iv
        outputs = []
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            for study in studies:
                tables = iv.derive_marginals(iv.load(study.path))
                inst = iv.instrumental_inequality(tables)
                results = {
                    name: (iv.model_check(self.bs[name], tables), iv.evaluate_bounds(self.bs[name], tables))
                    for name in study.scenarios
                }
                outputs.append((study, inst, results, iv.beta_bounds(tables)))
            ms = (perf_counter() - t0) * 1000
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors = [e for e in (self.gate(*out) for out in outputs) if e is not None]
        return ms, errors[0] if errors else None, None

    @staticmethod
    def gate(study, inst, results, beta) -> str | None:
        name = study.path.name
        if not study.consistent:
            check, interval = results["trivariate"]
            if inst.passed:
                return f"{name}: instrumental inequality passed on a study built to fail it"
            if check.passed and not interval.empty:
                return f"{name}: trivariate accepts a study built to violate it"
            return None
        if not inst.passed:
            return f"{name}: instrumental inequality failed on a consistent study"
        for scenario, (check, interval) in results.items():
            if not check.passed:
                return f"{name}: {scenario} model check failed on a consistent study"
            truth = study.beta if scenario == "beta" else study.alpha
            if not interval.lower <= truth <= interval.upper:
                return f"{name}: {scenario} interval misses the latent truth {truth}"
        nested = [results[s][1] for s in ("trivariate", "pairwise3", "bivariate") if s in results]
        for inner, outer in zip(nested, nested[1:]):
            if not outer.lower <= inner.lower <= inner.upper <= outer.upper:
                return f"{name}: intervals do not nest"
        if (beta.lower, beta.upper) != (results["beta"][1].lower, results["beta"][1].upper):
            return f"{name}: beta_bounds disagrees with the derived beta forms"
        return None


class Oracle(Workload):
    """Exact LP cross-checks of the bound forms on seeded mixtures and outside points."""

    name = "oracle"
    # Which scenario gets the outside point in a round; None: all inside.
    DECK = ("bivariate", "trivariate", "pairwise3", "beta", None)
    deck_size = len(DECK)

    def setup(self) -> None:
        import ivbounds

        self.iv = ivbounds
        for name in gen.TARGETED:
            ivbounds.derive(name)
        verts = gen.vertex_images()
        self.items = [gen.oracle_round(self.rng, verts, spec) for spec in dealt(self.rng, self.DECK, 64)]

    def describe(self, points):
        return {
            "scenarios": [p.scenario for p in points],
            "digits": max(p.digits for p in points),
            "inconsistent": Fraction(sum(not p.feasible for p in points), len(points)),
        }

    def op(self, points, tracer):
        iv = self.iv
        reports = []
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            for p in points:
                try:
                    reports.append(iv.cross_check(p.scenario, p.point))
                except iv.MismatchError as exc:
                    reports.append(exc)
            ms = (perf_counter() - t0) * 1000
        finally:
            if tracer is not None:
                tracer.uninstall()
        return ms, self.gate(points, reports), None

    def gate(self, points, reports) -> str | None:
        for p, r in zip(points, reports):
            if isinstance(r, self.iv.MismatchError):
                return f"{p.scenario}: MismatchError: {r}"
            if r.feasible != p.feasible or r.member != p.feasible:
                return f"{p.scenario}: feasible={r.feasible} but the point was built feasible={p.feasible}"
            if p.feasible and not r.lp_lower <= p.truth <= r.lp_upper:
                return f"{p.scenario}: LP interval misses the latent truth"
        return None


class Cli(Workload):
    """One fresh `python -m ivbounds.cli ... --format json` process per op."""

    name = "cli"
    # (verb, scenario, file kind or None, expected exit code). Seven light
    # ops (every scenario but pairwise3) and three pairwise3 ops of equal
    # cost, about twice a light one: p50 falls inside the light group and
    # p90 inside the pairwise3 group.
    DECK = (
        ("derive", "beta", None, 0),
        ("bound", "beta", "exact_w", 0),
        ("derive", "fig3", None, 0),
        ("check", "fig3", "decimal_w", 0),
        ("check", "trivariate", "inconsistent", 2),
        ("oracle", "trivariate", "decimal", 0),
        ("oracle", "bivariate", "exact", 0),
        ("bound", "pairwise3", "exact_w", 0),
        ("bound", "pairwise3", "decimal_w", 0),
        ("check", "pairwise3", "exact_w", 0),
    )
    deck_size = len(DECK)
    FILES = {
        "exact": dict(decimal=False, arm_weights=False, consistent=True, explicit_marginals=False),
        "exact_w": dict(decimal=False, arm_weights=True, consistent=True, explicit_marginals=True),
        "decimal": dict(decimal=True, arm_weights=False, consistent=True, explicit_marginals=True),
        "decimal_w": dict(decimal=True, arm_weights=True, consistent=True, explicit_marginals=False),
        "inconsistent": dict(decimal=True, arm_weights=True, consistent=False, explicit_marginals=False),
    }

    def setup(self) -> None:
        from ivbounds import cli

        self.studies = {
            kind: gen.make_study(self.rng, self.work / f"cli-{kind}.json", **spec)
            for kind, spec in self.FILES.items()
        }
        self.expected = {}
        for verb, scenario, kind, code in self.DECK:
            argv = self.argv(verb, scenario, kind)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                got = cli.entry(argv)
            if got != code:
                raise RuntimeError(f"in-process {' '.join(argv)} exited {got}, expected {code}")
            self.expected[tuple(argv)] = out.getvalue()
        self.items = dealt(self.rng, self.DECK, 4)

    def argv(self, verb, scenario, kind) -> list[str]:
        argv = [verb, "--scenario", scenario]
        if kind is not None:
            argv += ["--data", str(self.studies[kind].path)]
        return argv + ["--format", "json"]

    def describe(self, spec):
        _, scenario, kind, _ = spec
        study = self.studies.get(kind)
        if study is None:
            return {"scenarios": [scenario]}
        return {
            "scenarios": [scenario], "digits": study.digits, "decimal": study.decimal,
            "arm_weights": study.arm_weights, "inconsistent": not study.consistent,
        }

    def op(self, spec, tracer):
        verb, scenario, kind, code = spec
        argv = self.argv(verb, scenario, kind)
        trace_out = self.work / "cli-trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "ivbounds.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(trace_out), *argv]
        t0 = perf_counter()
        proc = subprocess.run(
            cmd, env=child_env(self.root), cwd=self.root,
            capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        ms = (perf_counter() - t0) * 1000
        if tracer is not None and trace_out.exists():
            tracer.merge(json.loads(trace_out.read_text(encoding="utf-8")))
            trace_out.unlink()
        if proc.returncode != code:
            return ms, f"{' '.join(argv)}: exit {proc.returncode}, expected {code}: {proc.stderr[-300:]!r}", None
        if proc.stdout.decode("utf-8") != self.expected[tuple(argv)]:
            return ms, f"{' '.join(argv)}: stdout differs from in-process cli.entry", None
        return ms, None, None


WORKLOADS = {w.name: w for w in (Derive, Analyze, Oracle, Cli)}
