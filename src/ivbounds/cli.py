"""Command-line surface: derive, check, bound, oracle, scenario.

Exit codes: 0 success, 1 usage or input error, 2 model check failed,
3 empty bound interval, 4 oracle disagreement. JSON output is built from
insertion-ordered dicts only, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .bounds import (
    derive,
    evaluate_bounds,
    instrumental_inequality,
    model_check,
    scenario_hull,
)
from .data import BUNDLED_DATASETS, ObservedTables, derive_marginals, load
from .forms import MissingCoordinate, format_decimal, format_rational
from .oracle import MismatchError, cross_check
from .scenarios import SCENARIOS, enumerate_parameter_vertices, get_scenario, scenario_vertex_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_EMPTY = 3
EXIT_MISMATCH = 4


class UsageError(Exception):
    """Bad arguments or unusable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented contract
    # is exit 1, so route everything through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _fmt(q: Fraction) -> str:
    return f"{format_rational(q)} ({format_decimal(q)})"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ivbounds",
        description=(
            "Sharp bounds on causal effects in binary instrumental-variable "
            "models, by exact polytope computation."
        ),
    )
    sub = parser.add_subparsers(dest="verb", metavar="verb", required=True)

    options = {
        "--scenario": dict(
            required=True, choices=tuple(SCENARIOS), help="which observable scheme to use"
        ),
        "--data": dict(
            required=True, help=f"JSON/CSV table file or a bundled name {BUNDLED_DATASETS}"
        ),
        "--tolerance": dict(
            help="slack tolerance as a rational such as 1/2000 or 0.0005 "
            "(default: 1/2000 for decimal input, 0 for exact input)"
        ),
        "--target": dict(
            choices=("alpha", "beta"), help="causal target; must match the scenario's own target"
        ),
        "--format": dict(
            choices=("text", "json"), default="text", help="output format (default text)"
        ),
    }
    # Each verb's help, handler and options beyond --scenario, --target and --format.
    verbs = {
        "derive": ("derive hull equalities, model tests and bound forms", _cmd_derive, ()),
        "check": (
            "evaluate model-falsification constraints on data", _cmd_check, ("--data", "--tolerance")
        ),
        "bound": ("evaluate the bound interval on data", _cmd_bound, ("--data",)),
        "oracle": ("cross-check derived bounds against an exact LP", _cmd_oracle, ("--data",)),
    }
    for verb, (help_, func, extra) in verbs.items():
        p = sub.add_parser(verb, help=help_)
        for flag, kwargs in options.items():
            if flag in extra or flag in ("--scenario", "--target", "--format"):
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    p = sub.add_parser("scenario", help="inspect the scenario registry")
    p.add_argument("action", choices=("list",))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_scenario)

    return parser


def _resolve_scenario(args):
    s = get_scenario(args.scenario)
    wanted = args.target
    if wanted is not None and s.causal_target != wanted:
        have = s.causal_target or "no target"
        raise UsageError(f"scenario {s.name!r} has {have}, not {wanted!r}")
    return s


def _targeted(args, goal: str):
    """The scenario, which must have a causal target (to ``goal``), and the tables to use on it."""
    s = _resolve_scenario(args)
    if s.causal_target is None:
        raise UsageError(f"scenario {s.name!r} has no causal target to {goal}")
    return s, _load_data(args.data)


def _load_data(source: str) -> ObservedTables:
    tables = load(source)
    if tables.zeta is not None:
        tables = derive_marginals(tables)
    return tables


def _endpoint(v: Fraction | None) -> dict | None:
    return None if v is None else {"value": format_rational(v), "decimal": format_decimal(v)}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_derive(args) -> int:
    s = _resolve_scenario(args)
    bs = derive(s.name)
    dim = scenario_hull(s.name).affine_dimension
    equalities = [c.render() for c in bs.hull_equalities]
    tests = [c.render() for c in bs.observable_tests]
    trivial = [c.render() for c in bs.trivial_tests]
    lower = [f.render() for f in bs.lower_forms]
    upper = [f.render() for f in bs.upper_forms]

    payload = {
        "scenario": s.name,
        "target": bs.target,
        "dim": dim,
        "labels": list(bs.space.labels),
        "counts": {
            "observable": len(tests),
            "lower": len(lower),
            "upper": len(upper),
            "trivial": len(trivial),
            "equalities": len(equalities),
        },
        "equalities": equalities,
        "observable_tests": tests,
        "trivial_tests": trivial,
        "lower": lower,
        "upper": upper,
    }

    lines = [
        f"scenario {s.name}: target {bs.target or 'none'}, affine dimension {dim}",
        f"equalities ({len(equalities)}):",
        *(f"  {r}" for r in equalities),
        f"observable tests ({len(tests)}):",
        *(f"  {r}" for r in tests),
        f"trivial tests ({len(trivial)}):",
        *(f"  {r}" for r in trivial),
    ]
    if bs.target is not None:
        lines += [
            f"lower bounds ({len(lower)}):",
            *(f"  {bs.target} >= {r}" for r in lower),
            f"upper bounds ({len(upper)}):",
            *(f"  {bs.target} <= {r}" for r in upper),
        ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_check(args) -> int:
    s = _resolve_scenario(args)
    tables = _load_data(args.data)
    report = model_check(derive(s.name), tables, args.tolerance)

    sections: dict[str, list] = {"observable": [], "equality": [], "trivial": []}
    for e in report.entries:
        sections[e.section].append(e)

    instrumental = None
    if s.name == "trivariate":
        instrumental = instrumental_inequality(tables, args.tolerance)

    passed = report.passed and (instrumental is None or instrumental.passed)
    status = "PASS" if passed else "FAIL"

    payload = {
        "scenario": s.name,
        "data": args.data,
        "tolerance": format_rational(report.tolerance),
        "status": status,
        "model_check": {
            "passed": report.passed,
            "sections": {
                name: [
                    {
                        "constraint": e.constraint.render(),
                        "slack": format_rational(e.slack),
                        "slack_decimal": format_decimal(e.slack),
                        "passed": e.passed,
                    }
                    for e in entries
                ]
                for name, entries in sections.items()
            },
        },
        "instrumental": None
        if instrumental is None
        else {
            "b_sums": [format_rational(v) for v in instrumental.b_sums],
            "maximum": format_rational(instrumental.maximum),
            "passed": instrumental.passed,
        },
    }

    lines = [
        f"model check: {s.name} on {args.data} (tolerance {format_rational(report.tolerance)})"
    ]
    for name, entries in sections.items():
        ok = sum(1 for e in entries if e.passed)
        lines.append(f"{name} constraints: {ok}/{len(entries)} passed")
        for e in entries:
            flag = "PASS" if e.passed else "FAIL"
            lines.append(f"  [{e.index}] {flag} slack {_fmt(e.slack)}  {e.constraint.render()}")
    if instrumental is not None:
        flag = "PASS" if instrumental.passed else "FAIL"
        sums = ", ".join(_fmt(v) for v in instrumental.b_sums)
        lines.append(f"instrumental inequality: {flag} (per-b sums {sums})")
    lines.append(status)
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_bound(args) -> int:
    s, tables = _targeted(args, "bound")
    bs = derive(s.name)
    interval = evaluate_bounds(bs, tables)

    payload = {
        "scenario": s.name,
        "target": bs.target,
        "data": args.data,
        "empty": interval.empty,
        "lower": {
            **_endpoint(interval.lower),
            "witness": interval.lower_witness,
            "form": bs.lower_forms[interval.lower_witness].render(),
        },
        "upper": {
            **_endpoint(interval.upper),
            "witness": interval.upper_witness,
            "form": bs.upper_forms[interval.upper_witness].render(),
        },
    }

    lines = [
        f"{format_decimal(interval.lower)} ≤ {bs.target} ≤ {format_decimal(interval.upper)}",
        f"exact: [{format_rational(interval.lower)}, {format_rational(interval.upper)}]",
        f"lower witness [{interval.lower_witness}]: "
        f"{bs.target} >= {bs.lower_forms[interval.lower_witness].render()}",
        f"upper witness [{interval.upper_witness}]: "
        f"{bs.target} <= {bs.upper_forms[interval.upper_witness].render()}",
    ]
    if interval.empty:
        lines.insert(0, "EMPTY interval: data is inconsistent with the model")
    _emit(args, payload, lines)
    return EXIT_EMPTY if interval.empty else EXIT_OK


def _cmd_oracle(args) -> int:
    s, tables = _targeted(args, "optimize")
    report = cross_check(s, tables)

    payload = {
        "scenario": report.scenario,
        "target": report.target,
        "data": args.data,
        "member": report.member,
        "feasible": report.feasible,
        "forms": {"lower": _endpoint(report.form_lower), "upper": _endpoint(report.form_upper)},
        "lp": {"lower": _endpoint(report.lp_lower), "upper": _endpoint(report.lp_upper)},
        "consistent": report.consistent,
    }

    def span(lo, hi):
        if lo is None:
            return "infeasible"
        return f"[{_fmt(lo)}, {_fmt(hi)}]"

    lines = [
        f"oracle cross-check: {s.name} on {args.data}",
        f"membership: forms={'yes' if report.member else 'no'} lp={'yes' if report.feasible else 'no'}",
        f"forms interval: {span(report.form_lower, report.form_upper)}",
        f"lp interval:    {span(report.lp_lower, report.lp_upper)}",
        "consistent: yes",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    rows = []
    for name, s in SCENARIOS.items():
        images = scenario_vertex_set(s, include_target=True)
        rows.append(
            {
                "name": name,
                "target": s.causal_target,
                "uses_psi": s.uses_psi,
                "labels": list(s.space.labels),
                "parameter_vertices": len(enumerate_parameter_vertices(s)),
                "distinct_images": len(images),
            }
        )
    payload = {"scenarios": rows}
    lines = []
    for r in rows:
        lines.append(
            f"{r['name']}: target={r['target'] or 'none'} psi={'yes' if r['uses_psi'] else 'no'} "
            f"vertices={r['parameter_vertices']} images={r['distinct_images']}"
        )
        lines.append(f"  coordinates: {', '.join(r['labels'])}")
    _emit(args, payload, lines)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry(argv: Sequence[str] | None = None) -> int:
    try:
        return main(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, MissingCoordinate) as exc:
        # ParseError, ValidationError, MissingArmWeights, TargetUnconstrained
        # and UnsupportedCoordinateError all descend from ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(entry())
