"""The value types share one frozen Record base that behaves as the frozen dataclasses did.

The pinned reprs and hashes were produced by the ``@dataclass(frozen=True)``
classes that Record replaced, on the same sample values.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import ivbounds
from ivbounds.bounds import BoundSet, CheckEntry, ConstraintReport, InstrumentalReport, Interval
from ivbounds.data import ObservedTables
from ivbounds.forms import AffineForm, CoordinateSpace, LinearConstraint, Record, Relation
from ivbounds.oracle import CrossCheckReport, MixtureLP, solve
from ivbounds.polytope import VertexSet, affine_hull, facet_enumeration
from ivbounds.scenarios import ParameterPoint, get_scenario, parse_coordinate

SRC = Path(ivbounds.__file__).parent

SPACE = CoordinateSpace("s", ("x", "y"))
FORM = AffineForm(SPACE, (F(1), F(-1, 2)), F(3))
CON = LinearConstraint(FORM, Relation.GEQ)
VS = VertexSet.from_points(SPACE, [(0, 0), (1, 0), (0, 1)])
HULL = facet_enumeration(VS)
ENTRY = CheckEntry("observable", 0, CON, F(-1, 4), False)
LP = MixtureLP(columns=((F(1), F(1)), (F(0), F(1))), rhs=(F(1, 2), F(1)), objective=(F(1), F(-1)))

SAMPLES = [
    SPACE,
    FORM,
    CON,
    VS,
    affine_hull(VS),
    HULL,
    HULL.contains((F(1, 3), F(2, 3))),
    ParameterPoint(1, 0, F(1, 2), 1),
    parse_coordinate("z01.2"),
    get_scenario("beta"),
    ObservedTables(
        theta={(0, 1): F(1, 2), (1, 1): F(1, 2)}, arm_weights=(F(1, 4), F(3, 4)), decimal_input=True
    ),
    BoundSet("s", "y", SPACE, (FORM,), (), (CON,), (), ()),
    Interval(F(-1, 2), F(1, 3), 0, 1, False),
    ENTRY,
    ConstraintReport("s", F(0), (ENTRY,), False),
    InstrumentalReport((F(1, 2), F(3, 4)), F(3, 4), F(0), True),
    solve(LP, "min"),
    LP,
    CrossCheckReport("beta", "beta", True, True, F(-1, 2), F(1, 3), F(-1, 2), F(1, 3), True),
]

_SPACE = "CoordinateSpace(name='s', labels=('x', 'y'))"
_FORM = (
    f"AffineForm(space={_SPACE}, coefficients=(Fraction(1, 1), Fraction(-1, 2)), "
    "constant=Fraction(3, 1))"
)
_CON = f"LinearConstraint(form={_FORM}, relation=<Relation.GEQ: '>='>)"
_ENTRY = f"CheckEntry(section='observable', index=0, constraint={_CON}, slack=Fraction(-1, 4), passed=False)"


def _facet(a: int, b: int, k: int) -> str:
    return (
        f"LinearConstraint(form=AffineForm(space={_SPACE}, coefficients=(Fraction({a}, 1), "
        f"Fraction({b}, 1)), constant=Fraction({k}, 1)), relation=<Relation.GEQ: '>='>)"
    )


PARENT_REPRS = {
    "CoordinateSpace": _SPACE,
    "AffineForm": _FORM,
    "LinearConstraint": _CON,
    "VertexSet": (
        f"VertexSet(space={_SPACE}, vertices=((Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))"
    ),
    "AffineHull": f"AffineHull(space={_SPACE}, equalities=(), dimension=2, pivots=(0, 1))",
    "HRepresentation": (
        f"HRepresentation(space={_SPACE}, equalities=(), facets=({_facet(-1, -1, 1)}, "
        f"{_facet(0, 1, 0)}, {_facet(1, 0, 0)}), affine_dimension=2)"
    ),
    "MembershipReport": (
        "MembershipReport(member=True, equality_slacks=(), facet_slacks=(Fraction(0, 1), "
        "Fraction(2, 3), Fraction(1, 3)), violations=())"
    ),
    "ParameterPoint": (
        "ParameterPoint(eta0=Fraction(1, 1), eta1=Fraction(0, 1), delta1=Fraction(1, 2), "
        "delta2=Fraction(1, 1), psi=Fraction(0, 1))"
    ),
    "Coordinate": "Coordinate(kind='zeta', c=0, b=1, a=2)",
    "Scenario": (
        "Scenario(name='beta', space=CoordinateSpace(name='beta', "
        "labels=('t01', 't11', 't02', 't12', 'beta')), causal_target='beta')"
    ),
    "ObservedTables": (
        "ObservedTables(zeta=None, gamma=None, theta={(0, 1): Fraction(1, 2), (1, 1): "
        "Fraction(1, 2)}, phi=None, arm_weights=(Fraction(1, 4), Fraction(3, 4)), "
        "decimal_input=True)"
    ),
    "BoundSet": (
        f"BoundSet(scenario='s', target='y', space={_SPACE}, lower_forms=({_FORM},), "
        f"upper_forms=(), observable_tests=({_CON},), trivial_tests=(), hull_equalities=())"
    ),
    "Interval": (
        "Interval(lower=Fraction(-1, 2), upper=Fraction(1, 3), lower_witness=0, "
        "upper_witness=1, empty=False)"
    ),
    "CheckEntry": _ENTRY,
    "ConstraintReport": (
        f"ConstraintReport(scenario='s', tolerance=Fraction(0, 1), entries=({_ENTRY},), "
        "passed=False)"
    ),
    "InstrumentalReport": (
        "InstrumentalReport(b_sums=(Fraction(1, 2), Fraction(3, 4)), maximum=Fraction(3, 4), "
        "tolerance=Fraction(0, 1), passed=True)"
    ),
    "LPResult": (
        "LPResult(status='optimal', value=Fraction(0, 1), "
        "weights=(Fraction(1, 2), Fraction(1, 2)))"
    ),
    "MixtureLP": (
        "MixtureLP(columns=((Fraction(1, 1), Fraction(1, 1)), (Fraction(0, 1), "
        "Fraction(1, 1))), rhs=(Fraction(1, 2), Fraction(1, 1)), "
        "objective=(Fraction(1, 1), Fraction(-1, 1)))"
    ),
    "CrossCheckReport": (
        "CrossCheckReport(scenario='beta', target='beta', member=True, feasible=True, "
        "lp_lower=Fraction(-1, 2), lp_upper=Fraction(1, 3), form_lower=Fraction(-1, 2), "
        "form_upper=Fraction(1, 3), consistent=True)"
    ),
}

# Hashes of the records that hold no strings (string hashes vary per process).
PARENT_HASHES = {
    "MembershipReport": 1634011902025083784,
    "Interval": 491070450833339524,
    "InstrumentalReport": 8366089185435104186,
    "MixtureLP": -2871349271105389743,
}

IDS = [type(r).__name__ for r in SAMPLES]


def _fields(record: Record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def test_every_record_class_has_a_sample():
    classes = {
        cls.__name__
        for module in vars(ivbounds).values()
        if getattr(module, "__name__", "").startswith("ivbounds.")
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
    }
    assert len(classes) == 19
    assert classes == set(IDS) == set(PARENT_REPRS)


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_repr_matches_the_dataclass(record):
    assert repr(record) == PARENT_REPRS[type(record).__name__]


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_eq_and_hash_match_the_dataclass(record):
    cls = type(record)
    copy = cls(**_fields(record))
    assert copy == record and not copy != record
    assert record.__eq__(object()) is NotImplemented
    assert all(record != other for other in SAMPLES if type(other) is not cls)
    compared = tuple(getattr(record, name) for name in record._fields if name not in cls._uncompared)
    if cls is ObservedTables:
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(copy) == hash(compared)
    if cls.__name__ in PARENT_HASHES:
        assert hash(record) == PARENT_HASHES[cls.__name__]


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_fields_are_frozen_and_arguments_counted(record):
    values = _fields(record)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _fields(record) == values
    with pytest.raises(TypeError):
        type(record)(*values.values(), None)
    with pytest.raises(TypeError):
        type(record)(**values, extra=None)


def test_field_order_defaults_and_keywords():
    assert ParameterPoint._fields == ("eta0", "eta1", "delta1", "delta2", "psi")
    assert ParameterPoint(1, 1, 0, 0).psi == 0
    assert ParameterPoint(1, 1, 0, delta2=0) == ParameterPoint(eta0=1, eta1=1, delta1=0, delta2=0)
    with pytest.raises(TypeError, match="missing"):
        ParameterPoint(1, 1, 0)
    with pytest.raises(TypeError):
        ParameterPoint(1, 1, 0, 0, eta0=1)
    assert AffineForm(space=SPACE, coefficients=(1, 2)) == AffineForm(SPACE, (1, 2), 0)


def test_observed_tables_equality_ignores_decimal_input():
    exact = ObservedTables(theta={(0, 1): F(1, 2)})
    rounded = ObservedTables(theta={(0, 1): F(1, 2)}, decimal_input=True)
    assert exact == rounded
    assert exact != ObservedTables(theta={(0, 1): F(1, 3)})
    with pytest.raises(TypeError):
        hash(exact)


def test_post_init_and_cached_properties_still_write():
    # __post_init__ normalises through object.__setattr__; cached_property fills __dict__.
    assert ParameterPoint("1/2", 1, 0, 0).eta0 == F(1, 2)
    with pytest.raises(ValueError):
        ParameterPoint(2, 1, 0, 0)
    vs = VertexSet.from_points(SPACE, [(0, 0), (2, 1)])
    assert vs._rows == ([[(0, 0), (2, 1)]], 1) and "_rows" in vars(vs)
    hull = facet_enumeration(vs)
    assert "facets" not in vars(hull) and len(hull.facets) == 2 and "facets" in vars(hull)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import ivbounds.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "ivbounds.cli" in out
    assert "dataclasses" not in out and "inspect" not in out


def test_source_has_no_exec_or_eval():
    for path in SRC.glob("*.py"):
        assert not re.search(r"\b(exec|eval)\s*\(", path.read_text(encoding="utf-8")), path.name
