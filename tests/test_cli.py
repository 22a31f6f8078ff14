"""Command-line verbs, output formats and the exit-code contract.

All tests drive entry() in process and read captured stdout/stderr; a few
subprocess tests run the module as a script.
"""

import codecs
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ivbounds.cli as cli_mod
import ivbounds.oracle as oracle_mod
from ivbounds.bounds import derive, model_check, partition, scenario_hull
from ivbounds.data import load
from ivbounds.cli import (
    EXIT_CHECK_FAILED,
    EXIT_EMPTY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    entry,
)
from ivbounds.forms import LinearConstraint
from ivbounds.oracle import MismatchError
from ivbounds.scenarios import SCENARIOS, get_scenario

VIOLATING = {
    "zeta": {
        "a1": ["1", "0", "0", "0"],
        "a2": ["0", "0", "1", "0"],
    }
}


# A valid study that no latent mixture gives: it fails trivariate test [3] by 1/130, yet its
# interval [-22/65, -1/5] is not empty. NEAR_MODEL fails the same test by 1/10000.
OFF_MODEL = {"zeta": {"a1": ["9/26", "2/13", "5/26", "4/13"], "a2": ["0", "7/10", "3/10", "0"]},
             "arm_weights": ["2/3", "1/3"]}
NEAR_MODEL = {"zeta": {"a1": ["0.2", "0.1", "0.2", "0.5"], "a2": ["0.1", "0.5001", "0.2", "0.1999"]}}
NEAR_MODEL_EXACT = {"zeta": {"a1": ["1/5", "1/10", "1/5", "1/2"],
                             "a2": ["1/10", "5001/10000", "1/5", "1999/10000"]}}


@pytest.fixture
def violating_file(tmp_path):
    path = tmp_path / "contradiction.json"
    path.write_text(json.dumps(VIOLATING))
    return str(path)


def run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestDerive:
    def test_pairwise3_counts(self, capsys):
        code, payload, _ = run_json(capsys, "derive", "--scenario", "pairwise3")
        assert code == EXIT_OK
        assert payload["counts"] == {
            "observable": 56,
            "lower": 37,
            "upper": 37,
            "trivial": 12,
            "equalities": 5,
        }
        assert payload["dim"] == 8
        assert payload["target"] == "alpha"
        assert len(payload["lower"]) == 37

    def test_fig3_has_no_bounds(self, capsys):
        code, payload, _ = run_json(capsys, "derive", "--scenario", "fig3")
        assert code == EXIT_OK
        assert payload["target"] is None
        assert payload["dim"] == 7
        assert payload["counts"] == {
            "observable": 0,
            "lower": 0,
            "upper": 0,
            "trivial": 8,
            "equalities": 1,
        }

    def test_text_output_lists_bounds(self, capsys):
        code, out, _ = run(capsys, "derive", "--scenario", "bivariate")
        assert code == EXIT_OK
        assert "scenario bivariate: target alpha, affine dimension 5" in out
        assert "lower bounds (10):" in out
        assert "upper bounds (10):" in out
        assert "alpha >= " in out

    def test_json_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "derive", "--scenario", "trivariate", "--format", "json")
        _, second, _ = run(capsys, "derive", "--scenario", "trivariate", "--format", "json")
        assert first == second


class TestCheck:
    def test_bundled_data_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "bivariate", "--data", "vitamin-a")
        assert code == EXIT_OK
        assert out.rstrip().endswith("PASS")

    def test_exact_tolerance_still_passes(self, capsys):
        code, _, _ = run(
            capsys, "check", "--scenario", "trivariate", "--data", "lipid",
            "--tolerance", "0",
        )
        assert code == EXIT_OK

    def test_trivariate_reports_instrumental(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--scenario", "trivariate", "--data", "lipid")
        assert code == EXIT_OK
        assert payload["status"] == "PASS"
        assert payload["instrumental"]["passed"] is True
        assert payload["instrumental"]["b_sums"] == ["1", "153/250"]

    def test_other_scenarios_skip_instrumental(self, capsys):
        _, payload, _ = run_json(capsys, "check", "--scenario", "bivariate", "--data", "lipid")
        assert payload["instrumental"] is None

    def test_violating_data_fails(self, capsys, violating_file):
        code, out, _ = run(capsys, "check", "--scenario", "trivariate", "--data", violating_file)
        assert code == EXIT_CHECK_FAILED
        assert out.rstrip().endswith("FAIL")
        assert "instrumental inequality: FAIL" in out

    def test_fig3_check_works_without_target(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--scenario", "fig3", "--data", "lipid")
        assert code == EXIT_OK
        assert payload["status"] == "PASS"
        assert payload["model_check"]["sections"]["observable"] == []
        assert len(payload["model_check"]["sections"]["trivial"]) == 8

    def test_failing_sections_are_itemized(self, capsys, violating_file):
        code, payload, _ = run_json(
            capsys, "check", "--scenario", "trivariate", "--data", violating_file
        )
        assert code == EXIT_CHECK_FAILED
        observable = payload["model_check"]["sections"]["observable"]
        assert any(not e["passed"] for e in observable)
        assert any(e["slack"] == "-1" for e in observable)


class TestBound:
    def test_lipid_trivariate_text(self, capsys):
        code, out, _ = run(capsys, "bound", "--scenario", "trivariate", "--data", "lipid")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "0.392 ≤ alpha ≤ 0.78"
        assert lines[1] == "exact: [49/125, 39/50]"
        assert "lower witness [" in lines[2]

    def test_vitamin_a_pairwise3_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "bound", "--scenario", "pairwise3", "--data", "vitamin-a"
        )
        assert code == EXIT_OK
        assert payload["lower"]["value"] == "-987/5000"
        assert payload["upper"]["value"] == "59/10000"
        assert payload["empty"] is False

    def test_empty_interval_exit_code(self, capsys, violating_file):
        code, out, _ = run(capsys, "bound", "--scenario", "trivariate", "--data", violating_file)
        assert code == EXIT_EMPTY
        assert out.splitlines()[0] == "EMPTY interval: data is inconsistent with the model"

    def test_empty_interval_json_flag(self, capsys, violating_file):
        code, payload, _ = run_json(
            capsys, "bound", "--scenario", "trivariate", "--data", violating_file
        )
        assert code == EXIT_EMPTY
        assert payload["empty"] is True

    def test_fig3_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--scenario", "fig3", "--data", "lipid")
        assert code == EXIT_USAGE
        assert "no causal target" in err

    @pytest.mark.parametrize("study, slack", [
        (OFF_MODEL, "-1/130"), (NEAR_MODEL, None), (NEAR_MODEL_EXACT, "-1/10000"),
    ], ids=["exact", "decimal-within-tolerance", "exact-near"])
    def test_nonempty_interval_of_off_model_data_is_refused(self, capsys, tmp_path, study, slack):
        """bound refuses what check fails at its default tolerance; it once printed the interval
        and exited 0. NEAR_MODEL misses test [3] by 1/10000, within decimal input's 1/2000."""
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study), encoding="utf-8")
        argv = ("--scenario", "trivariate", "--data", str(path))
        check = run(capsys, "check", *argv)[0]
        code, payload, _ = run_json(capsys, "bound", *argv)
        assert payload["empty"] is False
        if slack is None:
            assert (check, code) == (EXIT_OK, EXIT_OK) and "failed_test" not in payload
            return
        assert (check, code) == (EXIT_CHECK_FAILED, EXIT_EMPTY)
        assert list(payload) == ["scenario", "target", "data", "empty", "failed_test", "lower", "upper"]
        failed = payload["failed_test"]
        assert (failed["section"], failed["index"], failed["slack"]) == ("observable", 3, slack)
        code, out, _ = run(capsys, "bound", *argv)
        assert code == EXIT_EMPTY
        assert out.startswith(f"OFF-MODEL data: observable constraint [3] fails, slack {slack} (")


class TestOracle:
    def test_lipid_consistent(self, capsys):
        code, out, _ = run(capsys, "oracle", "--scenario", "trivariate", "--data", "lipid")
        assert code == EXIT_OK
        assert "consistent: yes" in out

    def test_infeasible_data_still_consistent(self, capsys, violating_file):
        code, payload, _ = run_json(
            capsys, "oracle", "--scenario", "trivariate", "--data", violating_file
        )
        assert code == EXIT_OK
        assert payload["member"] is False
        assert payload["feasible"] is False
        assert payload["lp"]["lower"] is None

    def test_values_match_forms(self, capsys):
        code, payload, _ = run_json(capsys, "oracle", "--scenario", "bivariate", "--data", "lipid")
        assert code == EXIT_OK
        assert payload["forms"]["lower"] == payload["lp"]["lower"]
        assert payload["forms"]["upper"]["value"] == "853/1000"

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        def boom(scenario, data):
            raise MismatchError("planted disagreement")

        monkeypatch.setattr(oracle_mod, "cross_check", boom)
        code, _, err = run(capsys, "oracle", "--scenario", "trivariate", "--data", "lipid")
        assert code == EXIT_MISMATCH
        assert "oracle mismatch" in err

    def test_fig3_rejected(self, capsys):
        code, _, err = run(capsys, "oracle", "--scenario", "fig3", "--data", "lipid")
        assert code == EXIT_USAGE
        assert "no causal target" in err


class TestScenarioList:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "scenario", "list")
        assert code == EXIT_OK
        assert "fig3: target=none psi=yes vertices=32 images=8" in out
        assert "pairwise3: target=alpha psi=yes vertices=32 images=24" in out
        assert "beta: target=beta psi=no vertices=16 images=8" in out

    def test_json(self, capsys):
        code, payload, _ = run_json(capsys, "scenario", "list")
        assert code == EXIT_OK
        names = [r["name"] for r in payload["scenarios"]]
        assert names == ["fig3", "bivariate", "trivariate", "pairwise3", "beta"]
        by_name = {r["name"]: r for r in payload["scenarios"]}
        assert by_name["trivariate"]["distinct_images"] == 16
        assert by_name["bivariate"]["labels"][:2] == ["g01", "g11"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("frobnicate",),
            ("derive",),
            ("derive", "--scenario", "quadravariate"),
            ("check", "--scenario", "trivariate"),
            ("bound", "--scenario", "beta", "--data", "lipid", "--target", "beta"),
            ("scenario", "delete"),
        ],
    )
    def test_bad_invocations(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err

    @pytest.mark.parametrize("verb", ["derive", "check", "bound", "oracle"])
    def test_target_is_not_an_option(self, capsys, verb):
        """The scenario alone names its target."""
        data = () if verb == "derive" else ("--data", "lipid")
        code, out, err = run(capsys, verb, "--scenario", "beta", *data, "--target", "beta")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --target beta" in err and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["bound", "oracle"])
    def test_unreadable_data_is_reported_before_a_missing_target(self, capsys, tmp_path, verb):
        missing = str(tmp_path / "missing.json")
        code, _, err = run(capsys, verb, "--scenario", "fig3", "--data", missing)
        assert code == EXIT_USAGE
        assert "missing.json" in err and "causal target" not in err

    @pytest.mark.parametrize("option", ["--scenario", "--data", "--tolerance", "--format"])
    def test_option_given_as_double_dash(self, capsys, option):
        """Python 3.10-3.12 parse --option=-- as [] past its choices: a traceback, or text for --format."""
        code, out, err = run(
            capsys, "check", "--scenario", "trivariate", "--data", "lipid", f"{option}=--"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_tolerance_string(self, capsys):
        code, _, err = run(
            capsys, "check", "--scenario", "trivariate", "--data", "lipid",
            "--tolerance", "lots",
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "tolerance, message",
        [
            ("1e-4300", "error: tolerance '1e-4300' needs more than 100 digits\n"),
            (str(10**100), f"error: tolerance '{10**100}' needs more than 100 digits\n"),
            ("-1", "error: tolerance '-1' is negative\n"),
            ("-1/2000", "error: tolerance '-1/2000' is negative\n"),
            ("lots", "error: tolerance 'lots': cannot parse 'lots' as a rational\n"),
        ],
    )
    def test_unusable_tolerance_is_an_input_error(self, capsys, fmt, tolerance, message):
        """1e-4300 once crashed printing the tolerance; -1 once failed every constraint."""
        code, out, err = run(
            capsys, "check", "--scenario", "trivariate", "--data", "lipid",
            f"--tolerance={tolerance}", "--format", fmt,
        )
        assert (code, out, err) == (EXIT_USAGE, "", message)

    def test_tolerance_of_100_digits_is_accepted(self, capsys):
        code, out, _ = run_json(
            capsys, "check", "--scenario", "trivariate", "--data", "lipid", "--tolerance", "1e-99",
        )
        assert code == EXIT_OK
        assert out["tolerance"] == "1/" + "1" + "0" * 99

    def test_missing_data_file(self, capsys):
        code, _, err = run(capsys, "bound", "--scenario", "trivariate", "--data", "missing.json")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_malformed_data_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "--scenario", "trivariate", "--data", str(path))
        assert code == EXIT_USAGE

    def test_data_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "check", "--scenario", "trivariate", "--data", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot read {path}: ")

    def test_data_missing_needed_table(self, capsys, tmp_path):
        path = tmp_path / "theta-only.json"
        path.write_text(json.dumps({"theta": {"a1": ["1", "0"], "a2": ["0.5", "0.5"]}}))
        code, _, err = run(capsys, "bound", "--scenario", "trivariate", "--data", str(path))
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_huge_exponent_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "huge-exponent.json"
        path.write_text('{"zeta": {"a1": ["1e-1000000", "0", "0", "1"], "a2": ["0", "0", "1", "0"]}}')
        code, out, err = run(capsys, "bound", "--scenario", "trivariate", "--data", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "1e-1000000" in err

    @pytest.mark.parametrize("verb", ["bound", "check", "oracle"])
    def test_cell_too_long_to_print_is_a_parse_error(self, capsys, tmp_path, verb):
        """1e-4300 (1/10**4300) once passed load and then crashed printing the answer."""
        path = tmp_path / "long-cell.json"
        path.write_text(_LONG_CELL)
        code, out, err = run(capsys, verb, "--scenario", "trivariate", "--data", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: zeta a1[0] = '1e-4300' needs more than 100 digits\n"


@pytest.mark.parametrize("a1, a2, message", [
    ('"1000"', '["0", "0", "1", "0"]', "error: zeta a1 must be a JSON array of 4 entries\n"),
    ('[true, 0, 0, 0]', '["0", "0", "1", "0"]',
     "error: zeta a1[0] = True: expected a rational value, got a bool\n"),
    ('["1", "0", "0", "0"]', '["0", "1/0", "1", "0"]',
     "error: zeta a2[1] = '1/0': cannot parse '1/0' as a rational\n"),
    ('["1", "0", "0", "0"]', "null", "error: zeta a2 must be a JSON array of 4 entries\n"),
])
def test_row_that_is_not_an_array_exits_1(capsys, tmp_path, a1, a2, message):
    """"1000" once loaded as the cells 1, 0, 0, 0 and bound answered with exit 3."""
    path = tmp_path / "string-row.json"
    path.write_text(f'{{"zeta": {{"a1": {a1}, "a2": {a2}}}}}')
    code, out, err = run(capsys, "bound", "--scenario", "trivariate", "--data", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", message)


_LONG_CELL = '{"zeta": {"a1": ["1e-4300", "0.5", "0.25", "0.25"], "a2": ["0", "0", "1", "0"]}}'


# Byte-for-byte CLI output of check, bound and oracle, in both formats, on
# the bundled studies and on violating.json (every slack, endpoint, witness
# and LP interval the CLI prints), of check on lipid-zeta.csv, lipid's zeta
# table saved with a UTF-8 byte-order mark as spreadsheets export it, of
# oracle on digits40.json, a consistent study whose cells have 41- to 44-digit
# denominators, and of bound on off-model.json, which fails a trivariate test
# with a nonempty interval. Each file is named <verb>-<data>-<scenario>.<txt|json>;
# exit_codes.json holds the exit code of each.
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
GOLDEN_EXIT_CODES = json.loads((GOLDEN_CLI / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_EXIT_CODES))
def test_output_matches_golden(capsys, monkeypatch, name):
    verb, rest = name.split("-", 1)
    stem, ext = rest.rsplit(".", 1)
    data, scenario = stem.rsplit("-", 1)
    monkeypatch.chdir(GOLDEN_CLI)  # a data file is named as given, so it prints the same
    if data == "violating":
        data += ".json"
    fmt = "json" if ext == "json" else "text"
    code, out, err = run(capsys, verb, "--scenario", scenario, "--data", data, "--format", fmt)
    assert (code, err) == (GOLDEN_EXIT_CODES[name], "")
    assert out.encode("utf-8") == (GOLDEN_CLI / name).read_bytes()


def test_csv_golden_starts_with_a_byte_order_mark():
    assert (GOLDEN_CLI / "lipid-zeta.csv").read_bytes().startswith(codecs.BOM_UTF8)


# Byte-for-byte output of derive for every scenario in both formats, named
# derive-<scenario>.<txt|json>; exit_codes.json holds the exit code of each.
GOLDEN_DERIVE = Path(__file__).parent / "golden" / "derive"
DERIVE_EXIT_CODES = json.loads((GOLDEN_DERIVE / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(DERIVE_EXIT_CODES))
def test_derive_output_matches_golden(capsys, name):
    scenario, ext = name.removeprefix("derive-").rsplit(".", 1)
    fmt = "json" if ext == "json" else "text"
    code, out, err = run(capsys, "derive", "--scenario", scenario, "--format", fmt)
    assert (code, err) == (DERIVE_EXIT_CODES[name], "")
    assert out.encode("utf-8") == (GOLDEN_DERIVE / name).read_bytes()


# Byte-for-byte output of scenario list in both formats.
@pytest.mark.parametrize("fmt, name", [("text", "scenario-list.txt"), ("json", "scenario-list.json")])
def test_scenario_list_matches_golden(capsys, fmt, name):
    code, out, err = run(capsys, "scenario", "list", "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert out.encode("utf-8") == (Path(__file__).parent / "golden" / name).read_bytes()


# Every golden pair <name>.json and <name>.txt: the text is the verb's renderer
# applied to the JSON report alone, one line per item.
GOLDEN_PAIRS = sorted(
    [GOLDEN_CLI / name for name in GOLDEN_EXIT_CODES if name.endswith(".json")]
    + [GOLDEN_DERIVE / name for name in DERIVE_EXIT_CODES if name.endswith(".json")]
    + [Path(__file__).parent / "golden" / "scenario-list.json"]
)
RENDERERS = ["_text_bound", "_text_check", "_text_derive", "_text_oracle", "_text_scenario"]


def test_every_json_golden_has_a_text_twin():
    assert len(GOLDEN_PAIRS) == 44
    assert all(path.with_suffix(".txt").exists() for path in GOLDEN_PAIRS)


@pytest.mark.parametrize("path", GOLDEN_PAIRS, ids=lambda path: path.name)
def test_text_golden_is_rendered_from_the_json_golden(path):
    render = getattr(cli_mod, f"_text_{path.name.split('-')[0]}")
    text = "".join(f"{line}\n" for line in render(json.loads(path.read_text(encoding="utf-8"))))
    assert text.encode("utf-8") == path.with_suffix(".txt").read_bytes()


@pytest.mark.parametrize("argv", [
    ["derive", "--scenario", "pairwise3"],
    ["check", "--scenario", "trivariate", "--data", "lipid"],
    ["bound", "--scenario", "bivariate", "--data", "vitamin-a"],
    ["oracle", "--scenario", "beta", "--data", "lipid"],
    ["scenario", "list"],
], ids=lambda argv: argv[0])
def test_json_output_runs_no_text_renderer(capsys, monkeypatch, argv):
    """Each verb once built its text lines as well as its JSON, then printed only one."""
    def refuse(payload):
        raise AssertionError("a text renderer ran")

    assert sorted(name for name in vars(cli_mod) if name.startswith("_text_")) == RENDERERS
    for name in RENDERERS:
        monkeypatch.setattr(cli_mod, name, refuse)
    code, payload, err = run_json(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert payload
    with pytest.raises(AssertionError, match="a text renderer ran"):
        entry([*argv, "--format", "text"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_check_prints_each_constraint_from_the_integer_rows(capsys, monkeypatch, name):
    """check prints each constraint as its view renders, but from the BoundSet's integer rows:
    no LinearConstraint view is rendered."""
    bs = derive(name)
    views = dict(observable=bs.observable_tests, equality=bs.hull_equalities,
                 trivial=bs.trivial_tests)
    expected = {section: [c.render() for c in cons] for section, cons in views.items()}

    def refuse(self):
        raise AssertionError("a constraint view rendered")

    monkeypatch.setattr(LinearConstraint, "render", refuse)
    _, payload, err = run_json(capsys, "check", "--scenario", name, "--data", "lipid")
    assert err == ""
    sections = payload["model_check"]["sections"]
    assert {s: [e["constraint"] for e in entries] for s, entries in sections.items()} == expected


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_check_leaves_the_constraint_views_unbuilt(capsys, monkeypatch, name):
    """check reads each entry's section, index, slack and passed, so the checked BoundSet's test
    views stay unbuilt; read afterwards, the entries are those of a BoundSet with its views built."""
    fresh = partition(scenario_hull(name), get_scenario(name).causal_target)
    reports = []

    def spy(bs, data, tolerance=None):
        reports.append(model_check(bs, data, tolerance))
        return reports[-1]

    monkeypatch.setattr(cli_mod, "derive", lambda s: fresh)
    monkeypatch.setattr(cli_mod, "model_check", spy)
    for argv in (["check"], ["check", "--format", "json"]):
        code, out, err = run(capsys, *argv, "--scenario", name, "--data", "lipid")
        assert err == "" and code == EXIT_OK and out
    views = {"observable_tests", "hull_equalities", "trivial_tests"}
    assert not views & vars(fresh).keys()
    assert not any("constraint" in vars(e) for r in reports for e in r.entries)

    built = derive(name)
    for field in views:
        getattr(built, field)
    expected = model_check(built, load("lipid")).entries
    for report in reports:
        assert report.entries == expected  # constraints and all


# Each verb's argparse fields: its help line, then per option the option
# strings, dest, choices, default, required and help. Raw --help text is not
# compared, since its layout differs between Python versions.
GOLDEN_PARSER = json.loads(
    (Path(__file__).parent / "golden" / "parser.json").read_text(encoding="utf-8")
)


def _parser_fields() -> dict:
    sub = cli_mod.build_parser()._subparsers._group_actions[0]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        verb: {
            "help": helps[verb],
            "options": [
                [a.option_strings, a.dest, None if a.choices is None else list(a.choices),
                 a.default, a.required, a.help]
                for a in p._actions
                if a.dest != "help"
            ],
        }
        for verb, p in sub.choices.items()
    }


def test_parser_verbs_match_golden():
    assert list(_parser_fields()) == list(GOLDEN_PARSER)


@pytest.mark.parametrize("verb", sorted(GOLDEN_PARSER))
def test_parser_fields_match_golden(verb):
    assert _parser_fields()[verb] == GOLDEN_PARSER[verb]


def test_readme_names_every_option():
    """README's Command line section names every option string of every verb."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", section))
    sub = cli_mod.build_parser()._subparsers._group_actions[0]
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    assert {"--scenario", "-h"} <= options
    assert sorted(options - named) == []


@pytest.mark.parametrize("verb", ["bound", "check"])
def test_marginals_contradicting_zeta_exit_1(capsys, tmp_path, verb):
    """gamma 0.5/0.5 beside lipid's zeta once gave PASS and non-nested intervals."""
    path = tmp_path / "contradictory-gamma.json"
    path.write_text(json.dumps({
        "zeta": {"a1": ["0.919", "0", "0.081", "0"], "a2": ["0.315", "0.139", "0.073", "0.473"]},
        "gamma": {"a1": ["0.5", "0.5"], "a2": ["0.5", "0.5"]},
    }))
    for scenario in ("bivariate", "trivariate"):
        code, out, err = run(capsys, verb, "--scenario", scenario, "--data", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "contradicts zeta" in err


class _Raw(str):
    """A JSON token written verbatim, e.g. a number with an exponent."""


def _dump(value) -> str:
    if isinstance(value, _Raw):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.builds(lambda m, e: _Raw(f"{m}e{e}"), st.integers(-99, 999), st.integers(-12, 12)),
    st.builds(lambda n: _Raw(f"0.{n:03d}"), st.integers(0, 999)),
    st.sampled_from(["0", "1", "1/2", "0.25", "-0.1", "1e-3", "1/0", "abc", "", "nan"]),
    st.lists(st.integers(0, 1), max_size=2),
)


def _rows(width):
    """Rows summing to 1, or all-zero rows when the drawn weights are all zero."""
    return st.lists(st.integers(0, 4), min_size=width, max_size=width).map(
        lambda xs: [f"{x}/{sum(xs)}" if sum(xs) else "0" for x in xs]
    )


def _flat(width):
    return st.one_of(_rows(width), st.lists(_cells, max_size=5), st.text(max_size=3), _cells)


def _arm_table(width):
    return st.one_of(
        st.fixed_dictionaries({"a1": _rows(width), "a2": _rows(width)}),
        st.dictionaries(st.sampled_from(["a1", "a2", "a3"]), _flat(width), max_size=3),
        _flat(width),
        st.dictionaries(st.text(max_size=2), _cells, max_size=2),
    )


_documents = st.one_of(
    # well-formed zeta tables, so the success and failure exits are reached too
    st.fixed_dictionaries(
        {"zeta": st.fixed_dictionaries({"a1": _rows(4), "a2": _rows(4)})},
        optional={"arm_weights": _rows(2), "decimal_input": st.booleans()},
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "zeta": _arm_table(4),
            "gamma": _arm_table(2),
            "theta": _arm_table(2),
            "phi": _flat(4),
            "arm_weights": _flat(2),
            "decimal_input": st.one_of(st.booleans(), _cells),
        },
    ),
    st.lists(_cells, max_size=3),
).map(_dump)


_broken_texts = st.sampled_from(["", "{", "[1,", "nul", "3", '"zeta"', '{"zeta": {"a1": [}}'])


# tmp_path is shared by all examples; each one overwrites the same file.
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=st.one_of(_documents, _broken_texts),
    verb=st.sampled_from(["check", "bound", "oracle"]),
    scenario=st.sampled_from(tuple(SCENARIOS)),
    tolerance=st.one_of(
        st.none(),
        st.builds(lambda m, e: f"{m}e{e}", st.integers(-99, 999), st.integers(-200, 200)),
        st.sampled_from(["0", "1/2000", "-1", "1e-99", "1e-4300", "1e-5000", "1/0", "abc", ""]),
    ),
)
@example(text='{"zeta": [1, 2]}', verb="check", scenario="bivariate", tolerance=None)
@example(text='{"zeta": "abc"}', verb="bound", scenario="bivariate", tolerance=None)
@example(text="[" * 5000 + "]" * 5000, verb="check", scenario="trivariate", tolerance=None)
@example(
    text='{"zeta": ' + "[" * 600 + "]" * 600 + "}",
    verb="check",
    scenario="trivariate",
    tolerance=None,
)
@example(
    text='{"zeta": {"a1": [1e-1000000, 0, 0, 1], "a2": [0, 0, 1, 0]}}',
    verb="bound",
    scenario="trivariate",
    tolerance=None,
)
@example(text=_LONG_CELL, verb="bound", scenario="trivariate", tolerance=None)
@example(
    text=_LONG_CELL.replace("1e-4300", "0"),
    verb="check",
    scenario="trivariate",
    tolerance="1e-4300",
)
def test_fuzzed_json_gets_an_exit_code_not_a_traceback(tmp_path, text, verb, scenario, tolerance):
    path = tmp_path / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    argv = [verb, "--scenario", scenario, "--data", str(path)]
    if verb == "check" and tolerance is not None:
        argv.append(f"--tolerance={tolerance}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED, EXIT_EMPTY)
    assert "Traceback" not in err.getvalue()


_CB = ((0, 0), (0, 1), (1, 0), (1, 1))
_csv_cells = st.one_of(
    st.integers(-1, 3).map(str),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-9, 99), st.integers(-12, 12)),
    st.sampled_from(
        ["", " ", "1.0", "1e0", "01", "+1", "1_0", "x", "0.25", "1/2", "1/0", "-0.1", "nan", "inf", "1e-1000000"]
    ),
)


@st.composite
def _csv_texts(draw):
    """A header and a complete zeta table, then maybe damaged rows and cells."""
    header = draw(st.one_of(
        st.just("c,b,a,value"),
        st.just(' c , b ,a,"value" '),
        st.sampled_from(["c,b,a", "c,b,a,value,x", "a,b,c,value", "c;b;a;value", "c,c,a,value", ""]),
    ))
    arms = draw(st.tuples(_rows(4), _rows(4)))
    rows = [[str(c), str(b), str(a), arms[a - 1][i]] for a in (1, 2) for i, (c, b) in enumerate(_CB)]
    rows = list(draw(st.permutations(rows)))
    if draw(st.booleans()):
        rows = rows[: draw(st.integers(0, 8))]  # missing rows
        rows += draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []  # duplicates
        rows += draw(st.lists(st.lists(_csv_cells, min_size=0, max_size=5), max_size=3))
        for row in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []:
            if row:
                row[draw(st.integers(0, len(row) - 1))] = draw(_csv_cells)  # bad index or value
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


_COMPLETE = "\n".join(f"{c},{b},{a},{1 if (c, b) == (0, 0) else 0}" for a in (1, 2) for c, b in _CB)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=_csv_texts(),
    verb=st.sampled_from(["check", "bound", "oracle"]),
    scenario=st.sampled_from(tuple(SCENARIOS)),
)
@example(text="c,b,a,value\n" + _COMPLETE.replace("0,0,1,1", "0,0,1"), verb="bound", scenario="trivariate")
@example(text=" c , b ,a,value\n" + _COMPLETE, verb="check", scenario="trivariate")
@example(text="c,b,a,value\n0,0,1," + "1" * 200000 + "\n", verb="check", scenario="trivariate")
def test_fuzzed_csv_gets_an_exit_code_not_a_traceback(tmp_path, text, verb, scenario):
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry([verb, "--scenario", scenario, "--data", str(path)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED, EXIT_EMPTY)
    assert "Traceback" not in err.getvalue()


def test_module_is_runnable():
    proc = subprocess.run(
        [sys.executable, "-m", "ivbounds.cli", "scenario", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pairwise3" in proc.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_quietly_with_the_verbs_code(fmt):
    """A reader that had gone, as in `ivbounds derive ... | head -1`, once gave a traceback."""
    argv = [sys.executable, "-m", "ivbounds.cli", "check", "--scenario", "trivariate",
            "--data", "lipid", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # before the child has written anything
        err = proc.stderr.read()
    assert (proc.returncode, err) == (EXIT_OK, b"")


def test_importing_the_cli_loads_neither_the_oracle_nor_csv():
    """The package once imported every module, so bound, check and derive paid for both."""
    code = (
        "import sys; before = set(sys.modules); import ivbounds.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "ivbounds.cli" in loaded and "ivbounds.data" in loaded
    assert not {"ivbounds.oracle", "csv", "_csv"} & set(loaded)
