"""Command-line surface: derive, check, bound, oracle, scenario.

Exit codes: 0 success, 1 usage or input error, 2 model check failed,
3 empty bound interval, 4 oracle disagreement. Each verb's _cmd_<verb>
returns its report, a payload of insertion-ordered dicts only (so identical
invocations give byte-identical JSON), with its exit code; --format text
prints the lines _text_<verb> renders from that payload alone. main is the
one place that prints a report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .bounds import derive, evaluate_bounds, instrumental_inequality, model_check, scenario_hull
from .data import BUNDLED_DATASETS, derive_marginals, load
from .forms import MissingCoordinate, format_decimal, format_rational
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
    # Each verb's help, report, text renderer and options beyond --scenario, --target and --format.
    verbs = dict(
        derive=("derive hull equalities, model tests and bound forms", _cmd_derive, _text_derive),
        check=("evaluate model-falsification constraints on data", _cmd_check, _text_check),
        bound=("evaluate the bound interval on data", _cmd_bound, _text_bound),
        oracle=("cross-check derived bounds against an exact LP", _cmd_oracle, _text_oracle),
    )
    extra = {"check": ("--data", "--tolerance"), "bound": ("--data",), "oracle": ("--data",)}
    for verb, (help_, func, render) in verbs.items():
        p = sub.add_parser(verb, help=help_)
        for flag, kwargs in options.items():
            if flag in extra.get(verb, ()) or flag in ("--scenario", "--target", "--format"):
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, render=render)

    p = sub.add_parser("scenario", help="inspect the scenario registry")
    p.add_argument("action", choices=("list",))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_scenario, render=_text_scenario)

    return parser


def _resolve_scenario(args):
    s = get_scenario(args.scenario)
    wanted = args.target
    if wanted is not None and s.causal_target != wanted:
        have = s.causal_target or "no target"
        raise UsageError(f"scenario {s.name!r} has {have}, not {wanted!r}")
    return s


def _with_data(args, goal: str | None = None):
    """The scenario, which needs a causal target to ``goal`` if one is given, and its tables."""
    s = _resolve_scenario(args)
    if goal is not None and s.causal_target is None:
        raise UsageError(f"scenario {s.name!r} has no causal target to {goal}")
    tables = load(args.data)
    return s, tables if tables.zeta is None else derive_marginals(tables)


def _endpoint(v: Fraction | None) -> dict | None:
    return None if v is None else {"value": format_rational(v), "decimal": format_decimal(v)}


def _flag(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _both(value: str, decimal: str | None = None) -> str:
    """An exact value from a payload as ``p/q (decimal)``, the decimal recomputed if not given."""
    return f"{value} ({decimal or format_decimal(Fraction(value))})"


def _cmd_derive(args) -> tuple[dict, int]:
    s = _resolve_scenario(args)
    bs = derive(s)
    eqs, tests, trivial, lower, upper = map(
        bs.render, ("equality", "observable", "trivial", "lower", "upper"))
    counted = dict(observable=tests, lower=lower, upper=upper, trivial=trivial, equalities=eqs)
    payload = {
        "scenario": s.name,
        "target": bs.target,
        "dim": scenario_hull(s).affine_dimension,
        "labels": list(bs.space.labels),
        "counts": {key: len(rows) for key, rows in counted.items()},
        "equalities": eqs,
        "observable_tests": tests,
        "trivial_tests": trivial,
        "lower": lower,
        "upper": upper,
    }
    return payload, EXIT_OK


def _text_derive(p: dict) -> list[str]:
    target = p["target"]
    lines = [f"scenario {p['scenario']}: target {target or 'none'}, affine dimension {p['dim']}"]
    sections = [("equalities", "equalities", ""), ("observable tests", "observable_tests", "")]
    sections.append(("trivial tests", "trivial_tests", ""))
    if target is not None:
        sections.append(("lower bounds", "lower", f"{target} >= "))
        sections.append(("upper bounds", "upper", f"{target} <= "))
    for title, key, prefix in sections:
        lines += [f"{title} ({len(p[key])}):", *(f"  {prefix}{r}" for r in p[key])]
    return lines


def _cmd_check(args) -> tuple[dict, int]:
    s, tables = _with_data(args)
    report = model_check(derive(s), tables, args.tolerance)

    sections: dict[str, list] = {"observable": [], "equality": [], "trivial": []}
    for e in report.entries:
        sections[e.section].append({
            "constraint": e.constraint.render(),
            "slack": format_rational(e.slack),
            "slack_decimal": format_decimal(e.slack),
            "passed": e.passed,
        })
    instrumental = None
    if s.name == "trivariate":
        instrumental = instrumental_inequality(tables, args.tolerance)
    passed = report.passed and (instrumental is None or instrumental.passed)
    payload = {
        "scenario": s.name,
        "data": args.data,
        "tolerance": format_rational(report.tolerance),
        "status": _flag(passed),
        "model_check": {"passed": report.passed, "sections": sections},
        "instrumental": None
        if instrumental is None
        else {
            "b_sums": [format_rational(v) for v in instrumental.b_sums],
            "maximum": format_rational(instrumental.maximum),
            "passed": instrumental.passed,
        },
    }
    return payload, EXIT_OK if passed else EXIT_CHECK_FAILED


def _text_check(p: dict) -> list[str]:
    lines = [f"model check: {p['scenario']} on {p['data']} (tolerance {p['tolerance']})"]
    for name, entries in p["model_check"]["sections"].items():
        ok = sum(e["passed"] for e in entries)
        lines.append(f"{name} constraints: {ok}/{len(entries)} passed")
        for i, e in enumerate(entries):
            slack = _both(e["slack"], e["slack_decimal"])
            lines.append(f"  [{i}] {_flag(e['passed'])} slack {slack}  {e['constraint']}")
    instrumental = p["instrumental"]
    if instrumental is not None:
        sums = ", ".join(_both(v) for v in instrumental["b_sums"])
        flag = _flag(instrumental["passed"])
        lines.append(f"instrumental inequality: {flag} (per-b sums {sums})")
    return lines + [p["status"]]


def _cmd_bound(args) -> tuple[dict, int]:
    s, tables = _with_data(args, "bound")
    bs = derive(s)
    interval = evaluate_bounds(bs, tables)

    def end(value, witness, forms):
        return {**_endpoint(value), "witness": witness, "form": forms[witness].render()}

    payload = {
        "scenario": s.name,
        "target": bs.target,
        "data": args.data,
        "empty": interval.empty,
        "lower": end(interval.lower, interval.lower_witness, bs.lower_forms),
        "upper": end(interval.upper, interval.upper_witness, bs.upper_forms),
    }
    return payload, EXIT_EMPTY if interval.empty else EXIT_OK


def _text_bound(p: dict) -> list[str]:
    lo, hi, target = p["lower"], p["upper"], p["target"]
    lines = ["EMPTY interval: data is inconsistent with the model"] if p["empty"] else []
    return lines + [
        f"{lo['decimal']} ≤ {target} ≤ {hi['decimal']}",
        f"exact: [{lo['value']}, {hi['value']}]",
        f"lower witness [{lo['witness']}]: {target} >= {lo['form']}",
        f"upper witness [{hi['witness']}]: {target} <= {hi['form']}",
    ]


def _cmd_oracle(args) -> tuple[dict | None, int]:
    from .oracle import MismatchError, cross_check  # the one verb that loads the oracle

    s, tables = _with_data(args, "optimize")
    try:
        report = cross_check(s, tables)
    except MismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return None, EXIT_MISMATCH
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
    return payload, EXIT_OK


def _text_oracle(p: dict) -> list[str]:
    def span(ends):
        if ends["lower"] is None:
            return "infeasible"
        return f"[{_both(**ends['lower'])}, {_both(**ends['upper'])}]"

    yes = {True: "yes", False: "no"}
    return [
        f"oracle cross-check: {p['scenario']} on {p['data']}",
        f"membership: forms={yes[p['member']]} lp={yes[p['feasible']]}",
        f"forms interval: {span(p['forms'])}",
        f"lp interval:    {span(p['lp'])}",
        f"consistent: {yes[p['consistent']]}",
    ]


def _cmd_scenario(args) -> tuple[dict, int]:
    rows = [
        {
            "name": name,
            "target": s.causal_target,
            "uses_psi": s.uses_psi,
            "labels": list(s.space.labels),
            "parameter_vertices": len(enumerate_parameter_vertices(s)),
            "distinct_images": len(scenario_vertex_set(s)),
        }
        for name, s in SCENARIOS.items()
    ]
    return {"scenarios": rows}, EXIT_OK


def _text_scenario(p: dict) -> list[str]:
    lines = []
    for r in p["scenarios"]:
        lines += [
            f"{r['name']}: target={r['target'] or 'none'} psi={'yes' if r['uses_psi'] else 'no'} "
            f"vertices={r['parameter_vertices']} images={r['distinct_images']}",
            f"  coordinates: {', '.join(r['labels'])}",
        ]
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Python 3.10-3.12 read "--option=--" as [] and skip its choices.
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise UsageError(f"argument --{name}: expected one argument")
    payload, code = args.func(args)
    if payload is None:
        return code
    lines = [json.dumps(payload, indent=2)] if args.format == "json" else args.render(payload)
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # The reader has gone. Python flushes stdout again at exit, so point
        # it at devnull: that flush must not fail and print "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry(argv: Sequence[str] | None = None) -> int:
    try:
        return main(argv)
    except (UsageError, ValueError, MissingCoordinate) as exc:
        # ParseError, ValidationError, MissingArmWeights, TargetUnconstrained
        # and UnsupportedCoordinateError all descend from ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(entry())
