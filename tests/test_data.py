"""Table parsing, validation, marginals, bundled datasets."""

import codecs
import json
import random
from fractions import Fraction
from importlib import resources
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ivbounds.data import (
    BUNDLED_DATASETS,
    MissingArmWeights,
    ParseError,
    ValidationError,
    build_tables,
    default_tolerance,
    derive_marginals,
    integer_point,
    load,
    observable_point,
)
from ivbounds.scenarios import SCENARIOS, UnsupportedCoordinateError

import reference

LIPID_ZETA = {
    "a1": ["0.919", "0", "0.081", "0"],
    "a2": ["0.315", "0.139", "0.073", "0.473"],
}


class TestBundled:
    def test_names(self):
        assert BUNDLED_DATASETS == ("lipid", "vitamin-a")

    def test_lipid_exact_values(self):
        t = load("lipid")
        assert t.zeta[(0, 0, 1)] == Fraction(919, 1000)
        assert t.zeta[(1, 1, 2)] == Fraction(473, 1000)
        assert t.gamma[(0, 2)] == Fraction(454, 1000)
        assert t.theta[(1, 2)] == Fraction(612, 1000)
        assert t.phi[(0, 0)] == Fraction(623, 1000)
        assert t.arm_weights == (Fraction(172, 337), Fraction(165, 337))
        assert t.decimal_input

    def test_vitamin_a_exact_values(self):
        t = load("vitamin-a")
        assert t.zeta[(0, 0, 1)] == Fraction(64, 10000)
        assert t.zeta[(1, 1, 2)] == Fraction(7990, 10000)
        assert t.theta[(1, 2)] == Fraction(8, 10)
        assert t.arm_weights == (Fraction(221, 450), Fraction(229, 450))

    def test_all_blocks_sum_to_one_exactly(self):
        # the published tables happen to be exactly normalized
        for name in BUNDLED_DATASETS:
            t = load(name)
            rows = {f"{table}[a={a}]": [v for k, v in getattr(t, table).items() if k[-1] == a]
                    for table in ("zeta", "gamma", "theta") for a in (1, 2)}
            rows.update(phi=list(t.phi.values()), arm_weights=list(t.arm_weights))
            assert len(rows) == 8
            for block, values in rows.items():
                assert sum(values) == 1, (name, block)


class TestBuildTables:
    def test_minimal_zeta(self):
        t = build_tables(zeta=LIPID_ZETA)
        assert t.zeta[(1, 0, 2)] == Fraction(73, 1000)
        assert t.gamma is None and t.theta is None and t.phi is None

    def test_range_validation(self):
        with pytest.raises(ValidationError, match="outside"):
            build_tables(gamma={"a1": ["1.5", "-0.5"], "a2": ["0.5", "0.5"]})

    def test_sum_validation_names_block(self):
        with pytest.raises(ValidationError, match=r"gamma\[a=1\]"):
            build_tables(gamma={"a1": ["0.2", "0.3"], "a2": ["0.5", "0.5"]})

    def test_sum_validation_reports_slack(self):
        with pytest.raises(ValidationError, match="-1/10"):
            build_tables(theta={"a1": ["0.4", "0.5"], "a2": ["0.5", "0.5"]})

    def test_wrong_shape(self):
        with pytest.raises(ParseError, match="keys"):
            build_tables(zeta={"a1": ["1", "0", "0", "0"]})
        for not_a_table in ([1, 2], "abc"):
            with pytest.raises(ParseError, match="keys"):
                build_tables(zeta=not_a_table)
        with pytest.raises(ParseError, match="entries"):
            build_tables(gamma={"a1": ["1"], "a2": ["1", "0"]})
        with pytest.raises(ParseError):
            build_tables(phi=["1", "0", "0"])
        with pytest.raises(ParseError):
            build_tables(arm_weights=["1"])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            build_tables(gamma={"a1": [0.9, 0.1], "a2": ["1", "0"]})

    @pytest.mark.parametrize("cell, error, reason", [
        (0.9, TypeError, "refusing inexact float 0.9; pass a string such as '0.919'"),
        (True, TypeError, "expected a rational value, got a bool"),
        ("abc", ValueError, "cannot parse 'abc' as a rational"),
    ])
    def test_unreadable_cell_is_named(self, tmp_path, cell, error, reason):
        """The message once gave the reason alone, without the table and the cell."""
        gamma = {"a1": ["1", "0"], "a2": ["1", cell]}
        message = f"gamma a2[1] = {cell!r}: {reason}"
        with pytest.raises(error) as exc:
            build_tables(gamma=gamma)
        assert type(exc.value) is error and str(exc.value) == message
        if isinstance(cell, float):
            return  # a JSON number loads as exact decimal text, so a file holds no float
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"gamma": gamma}))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("tolerance, error, reason", [
        (0.5, TypeError, "refusing inexact float 0.5; pass a string such as '0.919'"),
        (True, TypeError, "expected a rational value, got a bool"),
        ("lots", ValueError, "cannot parse 'lots' as a rational"),
    ])
    def test_unreadable_tolerance_is_named(self, tolerance, error, reason):
        """The message once gave the reason alone, without naming the tolerance."""
        with pytest.raises(error) as exc:
            default_tolerance(load("lipid"), tolerance)
        assert type(exc.value) is error and str(exc.value) == f"tolerance {tolerance!r}: {reason}"

    # The messages the Fraction-by-Fraction check printed, byte for byte.
    @pytest.mark.parametrize("tables, message", [
        (dict(gamma={"a1": ["1.5", "-0.5"], "a2": ["0.5", "0.5"]}),
         "gamma[a=1] entry 3/2 is outside [0, 1]"),
        (dict(gamma={"a1": ["0.5", "0.5"], "a2": ["-1/3", "4/3"]}),
         "gamma[a=2] entry -1/3 is outside [0, 1]"),
        (dict(theta={"a1": ["0.4", "0.5"], "a2": ["0.5", "0.5"]}),
         "theta[a=1] sums to 9/10, slack -1/10"),
        (dict(zeta={"a1": ["1/3", "1/4", "1/5", "1/7"], "a2": ["1/4"] * 4}),
         "zeta[a=1] sums to 389/420, slack -31/420"),
        (dict(arm_weights=["2/3", "1/2"]), "arm_weights sums to 7/6, slack 1/6"),
    ])
    def test_validation_messages(self, tables, message):
        with pytest.raises(ValidationError) as exc:
            build_tables(**tables)
        assert str(exc.value) == message

    def test_slack_of_exactly_max_deviation_passes(self):
        build_tables(theta={"a1": ["0.5", "0.51"], "a2": ["0.5", "0.49"]})
        # one unit of the cells' denominator past it, either way, fails
        with pytest.raises(ValidationError, match=r"^theta\[a=1\] sums to 1011/1000, slack 11/1000$"):
            build_tables(theta={"a1": ["0.5", "0.511"], "a2": ["0.5", "0.5"]})
        with pytest.raises(ValidationError, match=r"^theta\[a=2\] sums to 989/1000, slack -11/1000$"):
            build_tables(theta={"a1": ["0.5", "0.5"], "a2": ["0.5", "0.489"]})

    def test_first_bad_block_is_reported(self):
        # blocks() order is zeta, gamma, theta, phi, arm weights; within a block,
        # the range check comes before the sum
        tables = dict(
            zeta={"a1": ["1/4"] * 4, "a2": ["0.3", "0.3", "0.3", "0.3"]},
            gamma={"a1": ["2", "-1"], "a2": ["0.5", "0.5"]},
            arm_weights=["0.9", "0.9"],
        )
        with pytest.raises(ValidationError, match=r"^zeta\[a=2\] sums to 6/5"):
            build_tables(**tables)
        tables["zeta"]["a2"] = ["1/4"] * 4
        with pytest.raises(ValidationError, match=r"^gamma\[a=1\] entry 2 is outside"):
            build_tables(**tables)
        tables["gamma"]["a1"] = ["0.5", "0.5"]
        with pytest.raises(ValidationError, match=r"^arm_weights sums to 9/5"):
            build_tables(**tables)

    @pytest.mark.parametrize(
        "zeta_a2, theta_a2, decimal, ok",
        [
            (["3/10", "1/10", "1/10", "1/2"], ["2/5", "3/5"], False, True),
            (["3/10", "1/10", "1/10", "1/2"], ["4001/10000", "5999/10000"], False, False),
            (["0.3", "0.1", "0.1", "0.5"], ["0.4005", "0.5995"], True, True),
            (["0.3", "0.1", "0.1", "0.5"], ["0.40051", "0.59949"], True, False),
        ],
    )
    def test_marginals_must_agree_with_zeta(self, zeta_a2, theta_a2, decimal, ok):
        """Only load once compared them, so evaluate_bounds answered from a contradicting table.

        Exact input must agree exactly; rounded decimals within 1/2000 (0.4005 is exactly that).
        """
        tables = dict(
            zeta={"a1": ["1", "0", "0", "0"], "a2": zeta_a2},
            theta={"a1": ["1", "0"], "a2": theta_a2},
            decimal_input=decimal,
        )
        if ok:
            assert build_tables(**tables).theta[(0, 2)] == Fraction(theta_a2[0])
        else:
            with pytest.raises(ValidationError, match=r"^theta\[0, 2\] = .* contradicts zeta"):
                build_tables(**tables)


# One valid row of each table, for the malformed shapes below to break.
_ROWS = {
    "zeta": ["1/4"] * 4,
    "gamma": ["1/2", "1/2"],
    "theta": ["1/2", "1/2"],
    "phi": ["1/4"] * 4,
    "arm_weights": ["1/2", "1/2"],
}
_LONG = f"1/{10**100}"


def _malformed():
    """(table, shape, value, error, message) for each table and each malformed shape.

    Per-arm tables break their a2 row, except in the missing-key shape,
    which drops a2 altogether; phi and arm weights break their one row.
    """
    for table, row in _ROWS.items():
        armed = table in ("zeta", "gamma", "theta")
        width = len(row)
        cells = f"{table} a2" if armed else table
        block = f"{table}[a=2]" if armed else table
        rows = {
            "wrong row length": (row + ["0"], ParseError,
                                 f"{table}{' row a2' if armed else ''} needs {width} entries, got {width + 1}"),
            "cell over 100 digits": ([_LONG] + row[1:], ParseError,
                                     f"{cells}[0] = {_LONG!r} needs more than 100 digits"),
            "entry outside [0, 1]": (["-1/2", "3/2"] + row[2:], ValidationError,
                                     f"{block} entry -1/2 is outside [0, 1]"),
            "block sum off": (["3/4"] + row[1:], ValidationError,
                              f"{block} sums to {'3/2' if width == 4 else '5/4'}, "
                              f"slack {'1/2' if width == 4 else '1/4'}"),
        }
        if armed:
            yield (table, "missing arm key", {"a1": row}, ParseError,
                   f"{table} table needs exactly the keys 'a1' and 'a2'")
        for shape, (bad, error, message) in rows.items():
            yield table, shape, {"a1": row, "a2": bad} if armed else bad, error, message


@pytest.mark.parametrize("route", ["build_tables", "load"])
@pytest.mark.parametrize(
    "table, shape, value, error, message",
    list(_malformed()),
    ids=[f"{t}-{s}" for t, s, *_ in _malformed()],
)
def test_malformed_table_messages(tmp_path, route, table, shape, value, error, message):
    """The exact error for each table and malformed shape, from the Python API and from a file."""
    with pytest.raises(error) as exc:
        if route == "load":
            path = tmp_path / "t.json"
            path.write_text(json.dumps({table: value}))
            load(path)
        else:
            build_tables(**{table: value})
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("table, row", [
    *((t, r) for t in ("zeta", "gamma") for r in ('"1000"', '{"c": "1"}', "null")),
    # phi and arm weights are rows themselves; a null one is an absent table
    *((t, r) for t in ("phi", "arm_weights") for r in ('"1000"', '{"c": "1"}')),
])
def test_row_that_is_not_an_array_is_named(tmp_path, table, row):
    """A string row was once split into its characters; a null row raised a TypeError."""
    path = tmp_path / "t.json"
    armed = table in ("zeta", "gamma")
    rows = f'{{"a1": {row}, "a2": {json.dumps(_ROWS[table])}}}' if armed else row
    path.write_text(f'{{"{table}": {rows}}}')
    with pytest.raises(ParseError) as exc:
        load(path)
    where = f"{table} a1" if armed else table
    assert str(exc.value) == f"{where} must be a JSON array of {len(_ROWS[table])} entries"


class TestLoadJson:
    def test_json_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"zeta": LIPID_ZETA}))
        t = load(path)
        assert t.zeta[(0, 0, 1)] == Fraction(919, 1000)
        assert t.decimal_input

    def test_bare_json_numbers_stay_exact(self, tmp_path):
        # 0.919 as a JSON number, not a string; must not go through float
        path = tmp_path / "t.json"
        path.write_text('{"gamma": {"a1": [0.919, 0.081], "a2": [0.5, 0.5]}}')
        t = load(path)
        assert t.gamma[(0, 1)] == Fraction(919, 1000)

    def test_exact_input_clears_decimal_flag(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"theta": {"a1": ["1", "0"], "a2": ["2/5", "3/5"]}}')
        t = load(path)
        assert not t.decimal_input

    def test_unknown_keys(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"zeta2": {}}')
        with pytest.raises(ParseError, match="unknown"):
            load(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="invalid JSON"):
            load(path)

    @pytest.mark.parametrize("text, key", [
        ('{"theta": {"a1": ["1", "0"], "a2": ["1", "0"]}, "theta": {"a1": ["0", "1"], "a2": ["0", "1"]}}',
         "theta"),
        ('{"theta": {"a1": ["1", "0"], "a2": ["1", "0"], "a1": ["0", "1"]}}', "a1"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_refused(self, tmp_path, text, key):
        """The last of a repeated key was once answered from silently."""
        path = tmp_path / "t.json"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == f"repeated JSON key {key!r}"

    def test_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path):
        """json.loads raised a bare ValueError for an int literal of more than 4,300 digits."""
        path = tmp_path / "t.json"
        path.write_text('{"zeta": {"a1": [' + "1" * 5000 + ', 0, 0, 0], "a2": ["1", 0, 0, 0]}}')
        with pytest.raises(ParseError, match="^invalid JSON: "):
            load(path)

    def test_missing_file(self):
        with pytest.raises(ParseError, match="cannot read"):
            load("/no/such/file.json")

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_file_that_is_not_utf8(self, tmp_path, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode")

    def test_gamma_contradicting_zeta_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        gamma = {"a1": ["0.5", "0.5"], "a2": ["0.5", "0.5"]}
        path.write_text(json.dumps({"zeta": LIPID_ZETA, "gamma": gamma}))
        with pytest.raises(ValidationError, match=r"gamma\[0, 1\] = 1/2 contradicts zeta"):
            load(path)

    @pytest.mark.parametrize(
        "table, cell, where",
        [
            ("zeta", "1e-4300", r"zeta a1\[0\] = '1e-4300'"),
            ("zeta", f"1/{10**100}", r"zeta a1\[0\] = '1/1000"),
            ("phi", "1e-4300", r"phi\[0\] = '1e-4300'"),
            ("arm_weights", f"{10**100 - 1}/{10**101}", r"arm_weights\[0\] = '9999"),
        ],
    )
    def test_cells_past_100_digits_are_named_parse_errors(self, tmp_path, table, cell, where):
        """A cell whose exact value no bound could print (1e-4300 is 1/10**4300)."""
        path = tmp_path / "t.json"
        tables = {"zeta": {"a1": [cell, "1/2", "1/4", "1/4"], "a2": ["0", "0", "1", "0"]}}
        if table != "zeta":
            tables = {table: [cell, "0", "0", "1"][: 2 if table == "arm_weights" else 4]}
        path.write_text(json.dumps(tables))
        with pytest.raises(ParseError, match=where + ".* needs more than 100 digits"):
            load(path)

    @pytest.mark.parametrize("cell", [str(10**100), f"-{10**100}/3"])
    def test_numerator_of_101_digits_is_refused(self, tmp_path, cell):
        """10**100 is the first numerator past the limit, in a table or as a tolerance."""
        zeta = {"a1": [cell, "1/2", "1/4", "1/4"], "a2": ["0", "0", "1", "0"]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"zeta": zeta}))
        for read in (lambda: build_tables(zeta=zeta), lambda: load(path)):
            with pytest.raises(ParseError) as exc:
                read()
            assert str(exc.value) == f"zeta a1[0] = {cell!r} needs more than 100 digits"
        for tolerance in (10**100, str(10**100)):
            with pytest.raises(ParseError) as exc:
                default_tolerance(load("lipid"), tolerance)
            assert str(exc.value) == f"tolerance {tolerance!r} needs more than 100 digits"

    def test_cells_of_100_digits_are_accepted(self, tmp_path):
        path = tmp_path / "t.json"
        zeta = {"a1": [f"1/{10**99}", "1/2", "1/4", "1/4"], "a2": ["0", "0", "1", "0"]}
        path.write_text(json.dumps({"zeta": zeta}))
        assert load(path).zeta[(0, 0, 1)] == Fraction(1, 10**99)

    def test_phi_checked_against_zeta_and_arm_weights(self, tmp_path):
        path = tmp_path / "t.json"
        bundled = resources.files("ivbounds") / "datasets" / "lipid.json"
        tables = json.loads(bundled.read_text(encoding="utf-8"))
        tables["phi"] = tables["phi"][::-1]
        path.write_text(json.dumps(tables))
        with pytest.raises(ValidationError, match="phi"):
            load(path)

    @pytest.mark.parametrize(
        "zeta_a2, theta_a2, ok",
        [
            (["3/10", "1/10", "1/10", "1/2"], ["2/5", "3/5"], True),
            (["3/10", "1/10", "1/10", "1/2"], ["4001/10000", "5999/10000"], False),
            (["0.3", "0.1", "0.1", "0.5"], ["0.4001", "0.5999"], True),
            (["0.3", "0.1", "0.1", "0.5"], ["0.401", "0.599"], False),
        ],
    )
    def test_marginal_tolerance_follows_input_kind(self, tmp_path, zeta_a2, theta_a2, ok):
        """Exact input must agree exactly; rounded decimals within 1/2000."""
        path = tmp_path / "t.json"
        zeta = {"a1": ["1", "0", "0", "0"], "a2": zeta_a2}
        path.write_text(json.dumps({"zeta": zeta, "theta": {"a1": ["1", "0"], "a2": theta_a2}}))
        if ok:
            assert load(path).theta[(0, 2)] == Fraction(theta_a2[0])
        else:
            with pytest.raises(ValidationError, match="theta"):
                load(path)


class TestLoadCsv:
    def write(self, tmp_path, rows, header="c,b,a,value"):
        path = tmp_path / "t.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def full_rows(self):
        t = build_tables(zeta=LIPID_ZETA)
        return [
            f"{c},{b},{a},{t.zeta[(c, b, a)].numerator}/{t.zeta[(c, b, a)].denominator}"
            for (c, b, a) in sorted(t.zeta)
        ]

    def test_round_trip(self, tmp_path):
        t = load(self.write(tmp_path, self.full_rows()))
        assert t.zeta == build_tables(zeta=LIPID_ZETA).zeta
        assert not t.decimal_input  # p/q strings carry no decimal point

    def test_header_checked(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load(self.write(tmp_path, self.full_rows(), header="a,b,c,value"))

    def test_incomplete(self, tmp_path):
        with pytest.raises(ParseError, match="missing"):
            load(self.write(tmp_path, self.full_rows()[:-1]))

    def test_long_cell_is_named(self, tmp_path):
        rows = self.full_rows()
        rows[0] = "0,0,1,1e-200"
        with pytest.raises(ParseError, match=r"zeta a1\[0\] = '1e-200'"):
            load(self.write(tmp_path, rows))

    def test_bad_cell_is_a_parse_error(self, tmp_path):
        """A bad CSV cell once raised a bare ValueError; the same cell in JSON raised ParseError."""
        rows = self.full_rows()
        rows[0] = "0,0,1,abc"
        with pytest.raises(ParseError) as exc:
            load(self.write(tmp_path, rows))
        assert str(exc.value) == "zeta a1[0] = 'abc': cannot parse 'abc' as a rational"

    def test_extra_field_is_named(self, tmp_path):
        """A fifth field was once filed under DictReader's None key and ignored."""
        rows = self.full_rows()
        rows[0] = "0,0,1,0.5,0.25"
        with pytest.raises(ParseError) as exc:
            load(self.write(tmp_path, rows))
        row = {"c": "0", "b": "0", "a": "1", "value": "0.5", None: ["0.25"]}
        assert str(exc.value) == f"bad CSV row {row}: more than 4 fields"

    def test_duplicate(self, tmp_path):
        rows = self.full_rows()
        with pytest.raises(ParseError, match="duplicate"):
            load(self.write(tmp_path, rows + [rows[0]]))


def _json_loads_error(text: str) -> str:
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON: {exc}"
    raise AssertionError("json.loads accepted the text")


@pytest.mark.parametrize("data, message", [
    (b'{"theta": {"a1": ["1", "0"], "a2": ["1", "0"], "a1": ["0", "1"]}}', "repeated JSON key 'a1'"),
    (b"{nope", _json_loads_error("{nope")),
    (b"", _json_loads_error("")),
    (codecs.BOM_UTF8 * 2 + b'{"zeta": {}}',
     "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b"[" * 100_000 + b"]" * 100_000, _json_loads_error("[" * 100_000 + "]" * 100_000)),
], ids=["repeated key", "invalid", "empty", "two byte-order marks", "nested too deep"])
def test_json_errors_are_worded_as_json_loads_words_them(tmp_path, data, message):
    """load decodes with one decoder, which skips json.loads's own byte-order-mark check; a
    file given as a Path or as its name fails with the same text."""
    path = tmp_path / "t.json"
    path.write_bytes(data)
    for source in (path, str(path)):
        with pytest.raises(ParseError) as exc:
            load(source)
        assert str(exc.value) == message


@pytest.mark.parametrize("name", ["cli/digits40.json", "cli/lipid-zeta.csv", "missing.json"])
def test_a_path_and_its_name_load_alike(name):
    """load reads a Path as given, where it once built a copy: the same tables, the same error."""
    path = Path(__file__).parent / "golden" / name
    results = []
    for source in (path, str(path)):
        try:
            results.append(load(source))
        except ParseError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    if name == "missing.json":
        assert results[0] == f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
    else:
        assert results[0].decimal_input is results[1].decimal_input


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_byte_order_mark_is_dropped(tmp_path, suffix):
    """Spreadsheets save UTF-8 with a leading byte-order mark, which was once refused."""
    if suffix == ".json":
        text = json.dumps({"zeta": LIPID_ZETA, "arm_weights": ["172/337", "165/337"]})
    else:
        cells = [(c, b, a) for a in (1, 2) for c in (0, 1) for b in (0, 1)]
        text = "c,b,a,value\n" + "".join(
            f"{c},{b},{a},{LIPID_ZETA[f'a{a}'][2 * c + b]}\n" for c, b, a in cells
        )
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == codecs.BOM_UTF8 + plain.read_bytes()
    want, got = load(plain), load(marked)
    assert got == want and got.decimal_input and want.decimal_input
    assert got.zeta == build_tables(zeta=LIPID_ZETA).zeta


class TestDeriveMarginals:
    def test_fills_gamma_theta(self):
        t = derive_marginals(build_tables(zeta=LIPID_ZETA))
        assert t.gamma[(0, 2)] == Fraction(454, 1000)
        assert t.gamma[(1, 1)] == Fraction(81, 1000)
        assert t.theta[(0, 1)] == 1
        assert t.theta[(1, 2)] == Fraction(612, 1000)
        assert t.phi is None

    def test_phi_needs_weights(self):
        t2 = derive_marginals(build_tables(zeta=LIPID_ZETA, arm_weights=["1/2", "1/2"]))
        assert t2.phi[(0, 0)] == (Fraction(919, 1000) + Fraction(315, 1000)) / 2

    def test_never_overwrites(self):
        # Rounded input: gamma may stray from what zeta implies (0.919) by DECIMAL_TOLERANCE.
        gamma = {"a1": ["0.9194", "0.0806"], "a2": ["0.454", "0.546"]}
        t = build_tables(zeta=LIPID_ZETA, gamma=gamma, decimal_input=True)
        d = derive_marginals(t)
        assert d.gamma[(0, 1)] == Fraction(9194, 10000)  # zeta implies 919/1000

    def test_requires_zeta(self):
        with pytest.raises(ValidationError, match="zeta"):
            derive_marginals(build_tables(theta={"a1": ["1", "0"], "a2": ["0", "1"]}))


def _seeded_study(rng: random.Random, decimal: bool, weighted: bool, explicit: bool) -> dict:
    """A consistent study's JSON-shaped tables: zeta rows over 1000 (decimal) or over a
    denominator near 3 * 10**9 (exact), arm weights in tenths or over 401, and, if explicit,
    the gamma, theta and phi that zeta implies."""
    unit = 1000 if decimal else rng.randint(10**9, 4 * 10**9)
    zeta = {}
    for arm in ("a1", "a2"):
        cuts = sorted(rng.randint(0, unit) for _ in range(3))
        zeta[arm] = [Fraction(b - a, unit) for a, b in zip([0, *cuts], [*cuts, unit])]
    tables = {"zeta": zeta}
    if weighted:
        w1 = Fraction(rng.randint(3, 7), 10) if decimal else Fraction(rng.randint(150, 250), 401)
        tables["arm_weights"] = [w1, 1 - w1]
    if explicit:
        tables["gamma"] = {k: [r[0] + r[1], r[2] + r[3]] for k, r in zeta.items()}
        tables["theta"] = {k: [r[0] + r[2], r[1] + r[3]] for k, r in zeta.items()}
        if weighted:
            tables["phi"] = [x * w1 + y * (1 - w1) for x, y in zip(zeta["a1"], zeta["a2"])]
    def spell(q: Fraction) -> str:
        return _spell(q, "decimal")[1] if decimal else f"{q.numerator}/{q.denominator}"

    return {name: {k: list(map(spell, r)) for k, r in t.items()} if isinstance(t, dict)
            else list(map(spell, t)) for name, t in tables.items()}


_TABLES = ("zeta", "gamma", "theta", "phi", "arm_weights")


@pytest.mark.parametrize("decimal", [False, True], ids=["exact", "decimal"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("explicit", [False, True], ids=["implied", "explicit"])
def test_tables_keep_their_cells_over_the_least_common_denominator(tmp_path, decimal, weighted, explicit):
    """An implied phi once left derive_marginals's cells over the square of the denominator,
    which put every evaluation of an exact weighted study into 128-bit lanes."""
    rng = random.Random(f"{decimal}{weighted}{explicit}")
    for _ in range(25):
        raw = _seeded_study(rng, decimal, weighted, explicit)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        loaded = load(path)
        assert loaded == build_tables(**raw) and loaded.decimal_input is decimal
        derived = derive_marginals(loaded)
        for tables in (loaded, derived):
            nums, den = tables._cells
            assert gcd(den, *filter(None, nums)) == 1
        # The Fraction views are the reference's, which sums zeta times weight in Fractions.
        filled = reference.derive_marginals(reference.tables(raw, decimal))
        assert {n: getattr(derived, n) for n in _TABLES} == {n: filled.get(n) for n in _TABLES}


# lipid with zeta-derived marginals, at every observable label of the
# registry; x is zeta times the arm weight.
LIPID_POINT = {
    "x001": "39517/84250", "x011": "0", "x101": "3483/84250", "x111": "0",
    "x002": "2079/13480", "x012": "4587/67400", "x102": "2409/67400", "x112": "15609/67400",
    "g01": "919/1000", "g11": "81/1000", "g02": "227/500", "g12": "273/500",
    "t01": "1", "t11": "0", "t02": "97/250", "t12": "153/250",
    "z00.1": "919/1000", "z01.1": "0", "z10.1": "81/1000", "z11.1": "0",
    "z00.2": "63/200", "z01.2": "139/1000", "z10.2": "73/1000", "z11.2": "473/1000",
    "p00": "623/1000", "p01": "17/250", "p10": "77/1000", "p11": "29/125",
}
REGISTRY_OBSERVABLES = tuple(
    dict.fromkeys(l for s in SCENARIOS.values() for l in s.observable_labels)
)


class TestObservablePoint:
    @pytest.mark.parametrize("label", REGISTRY_OBSERVABLES)
    def test_registry_label_on_lipid(self, label):
        point = observable_point((label,), derive_marginals(load("lipid")))
        assert point == {label: Fraction(LIPID_POINT[label])}

    def test_mapping_is_coerced_as_is(self):
        assert observable_point(("g01",), {"g01": "0.5", "t01": 1}) == {
            "g01": Fraction(1, 2), "t01": 1
        }

    def test_all_label_kinds(self):
        t = load("lipid")
        pt = observable_point(("g01", "t12", "z10.2", "p11", "x001"), t)
        assert pt["g01"] == Fraction(919, 1000)
        assert pt["t12"] == Fraction(612, 1000)
        assert pt["z10.2"] == Fraction(73, 1000)
        assert pt["p11"] == Fraction(232, 1000)
        assert pt["x001"] == Fraction(919, 1000) * Fraction(172, 337)

    def test_missing_table(self):
        t = build_tables(theta={"a1": ["1", "0"], "a2": ["0", "1"]})
        with pytest.raises(ValidationError, match="gamma"):
            observable_point(("g01",), t)

    def test_x_needs_weights(self):
        t = build_tables(zeta=LIPID_ZETA)
        with pytest.raises(MissingArmWeights):
            observable_point(("x001",), t)

    def test_unknown_label(self):
        with pytest.raises(ValidationError, match="no table rule"):
            observable_point(("alpha",), load("lipid"))

    @pytest.mark.parametrize("labels, error, message", [
        (("q01",), UnsupportedCoordinateError, "coordinate 'q01' would be P(C|B)"),
        (("g01", "bogus"), UnsupportedCoordinateError, "unknown coordinate label 'bogus'"),
        (("g01", "alpha"), ValidationError, "no table rule for coordinate label 'alpha'"),
    ])
    def test_integer_point_on_tables_refuses_bad_labels(self, labels, error, message):
        with pytest.raises(error) as exc:
            integer_point(labels, load("lipid"))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("labels, error, message", [
        (("t01", "alpha", "g01", "x001"), ValidationError, "no table rule for coordinate label 'alpha'"),
        (("t01", "g01", "alpha", "x001"), ValidationError, "coordinate g01 needs a gamma table"),
        (("t01", "x001", "g01", "alpha"), MissingArmWeights, "coordinate x001 needs arm weights"),
    ])
    def test_first_failing_label_decides(self, labels, error, message):
        # tables with zeta and theta only, read twice so the second
        # read goes through the cached label rules
        t = build_tables(zeta=LIPID_ZETA, theta={"a1": ["1", "0"], "a2": ["0.388", "0.612"]})
        for _ in range(2):
            with pytest.raises(error) as exc:
                observable_point(labels, t)
            assert type(exc.value) is error and str(exc.value) == message


def _spell(q: Fraction, how: str) -> tuple[str, str]:
    """q in one of _SPELLINGS: (its JSON token, the text of a CSV cell). A "number" is a bare
    JSON decimal, read as its text; an "integer" that q is not is spelt as a "ratio"."""
    k = next(k for k in range(12) if 10**k % q.denominator == 0)
    scaled = q.numerator * 10**k // q.denominator
    point = f"{scaled // 10**k}.{scaled % 10**k:0{k}d}" if k else f"{scaled}.0"
    if how == "integer" and q.denominator == 1:
        return str(q.numerator), str(q.numerator)
    if how == "number":
        return point, point
    text = {"padded ratio": f" {q.numerator}/{q.denominator}\t", "decimal": point,
            "exponent": f"{scaled}e-{k}", "Exponent": f"{scaled * 10}E-{k + 1}"}
    text = text.get(how, f"{q.numerator}/{q.denominator}")
    return json.dumps(text), text


_SPELLINGS = ("ratio", "padded ratio", "decimal", "exponent", "Exponent", "number", "integer")


@st.composite
def _row_of(draw, width):
    """``width`` exact cells summing to 1 over a denominator with no prime but 2 and 5."""
    d = draw(st.sampled_from((1, 2, 4, 5, 8, 10, 20, 25, 40, 100)))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=width - 1, max_size=width - 1)))
    return [Fraction(b - a, d) for a, b in zip([0, *cuts], [*cuts, d])]


@st.composite
def _studies(draw):
    """(JSON text, CSV text or None, the exact tables) of a consistent study, its cells spelt
    in a drawn mix of the spellings a file may use."""
    spellings = draw(st.sets(st.sampled_from(_SPELLINGS), min_size=1))
    zeta = {f"a{a}": draw(_row_of(4)) for a in (1, 2)}
    tables = {"zeta": zeta}
    if draw(st.booleans()):
        tables["gamma"] = {k: [r[0] + r[1], r[2] + r[3]] for k, r in zeta.items()}
    if draw(st.booleans()):
        tables["theta"] = {k: [r[0] + r[2], r[1] + r[3]] for k, r in zeta.items()}
    if draw(st.booleans()):
        w = tables["arm_weights"] = draw(_row_of(2))
        if draw(st.booleans()):
            tables["phi"] = [x * w[0] + y * w[1] for x, y in zip(zeta["a1"], zeta["a2"])]
    spell = lambda q: _spell(q, draw(st.sampled_from(sorted(spellings))))
    rows = lambda row: "[" + ", ".join(spell(q)[0] for q in row) + "]"
    parts = [f'"{name}": ' + (rows(t) if isinstance(t, list) else
                              "{" + ", ".join(f'"{k}": {rows(r)}' for k, r in t.items()) + "}")
             for name, t in tables.items()]
    flag = draw(st.sampled_from(("", '"decimal_input": true', '"decimal_input": false')))
    text = "{" + ", ".join(parts + ([flag] if flag else [])) + "}"
    csv = "c,b,a,value\n" + "".join(
        f"{c},{b},{a},{spell(zeta[f'a{a}'][2 * c + b])[1]}\n"
        for a in (1, 2) for c in (0, 1) for b in (0, 1)
    )
    return text, csv, tables


# tmp_path is shared by all examples; each one overwrites the same two files.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(study=_studies())
@example(study=('{"zeta": {"a1": ["1/2", "1/2", 0, 0], "a2": [1, "0", "0/1", "0"]}}',
                "c,b,a,value\n0,0,1,1/2\n0,1,1,1/2\n1,0,1,0\n1,1,1,0\n"
                "0,0,2,1\n0,1,2,0\n1,0,2,0\n1,1,2,0\n",
                {"zeta": {"a1": [Fraction(1, 2), Fraction(1, 2), 0, 0], "a2": [1, 0, 0, 0]}}))
def test_decimal_input_follows_the_reference_rule(tmp_path, study):
    """load decides decimal_input while it parses the cells; the reference walks the whole file."""
    text, csv, tables = study
    path = tmp_path / "study.json"
    path.write_text(text, encoding="utf-8")
    got = load(path)
    assert got == build_tables(**tables)
    assert got.decimal_input == reference.decimal_input(json.loads(text, parse_float=str))
    path = tmp_path / "study.csv"
    path.write_text(csv, encoding="utf-8")
    values = [line.split(",")[3] for line in csv.splitlines()[1:]]
    got = load(path)
    assert got == build_tables(zeta=tables["zeta"])
    assert got.decimal_input == reference.decimal_input({"zeta": {"a1": values[:4], "a2": values[4:]}})


@pytest.mark.parametrize("table, where", [
    ("zeta", "zeta a2[3]"), ("gamma", "gamma a2[1]"), ("theta", "theta a2[1]"),
    ("phi", "phi[3]"), ("arm_weights", "arm_weights[1]"),
])
@pytest.mark.parametrize("cell, reason", [
    ("x", "cannot parse 'x' as a rational"),
    ("1/0", "cannot parse '1/0' as a rational"),
    ("1e99999", "exponent of '1e99999' exceeds 4300 in magnitude"),
    (None, "cannot interpret NoneType as a rational"),
])
def test_bad_cell_in_each_table_is_named(tmp_path, table, where, cell, reason):
    """The last cell of a table's last row is bad: the error names the table, row and cell."""
    row = list(_ROWS[table])
    value = {"a1": row, "a2": row[:-1] + [cell]} if table in ("zeta", "gamma", "theta") else row[:-1] + [cell]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({table: value}), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load(path)
    assert str(exc.value) == f"{where} = {cell!r}: {reason}"


@pytest.mark.parametrize("source, message", [
    ("./x.json", "cannot read x.json: [Errno 2] No such file or directory: 'x.json'"),
    ("a//x.json", "cannot read a/x.json: [Errno 2] No such file or directory: 'a/x.json'"),
    ("dir/", "cannot read dir: [Errno 21] Is a directory: 'dir'"),
    ("bad.json", "cannot read bad.json: 'utf-8' codec can't decode byte 0xff in position 1: "
                 "invalid start byte"),
])
def test_unreadable_source_is_named_as_pathlib_prints_it(tmp_path, monkeypatch, source, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "bad.json").write_bytes(b"{\xff}")
    with pytest.raises(ParseError) as exc:
        load(source)
    assert str(exc.value) == message


@pytest.mark.parametrize("source", ["", " ", "\t\n"])
def test_empty_source_is_named_as_given(tmp_path, monkeypatch, source):
    monkeypatch.chdir(tmp_path)  # Path(source) is '.', a directory, for the empty string
    with pytest.raises(ParseError) as exc:
        load(source)
    assert str(exc.value) == f"data source {source!r} names no file or dataset"
