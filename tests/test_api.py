"""The package's public names, and the README's Quickstart run as written."""

import ast
import contextlib
import importlib.util
import inspect
import io
import json
import random
import re
from pathlib import Path

import ivbounds
from ivbounds import bounds, data, oracle, scenarios

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = [
    "AffineForm",
    "AffineHull",
    "BoundSet",
    "ConstraintReport",
    "CoordinateSpace",
    "CrossCheckReport",
    "DimensionOverflow",
    "HRepresentation",
    "IdenticallyFalse",
    "InstrumentalReport",
    "Interval",
    "LPResult",
    "LinearConstraint",
    "MembershipReport",
    "MismatchError",
    "MissingArmWeights",
    "MissingCoordinate",
    "MixtureLP",
    "ObservedTables",
    "ParameterPoint",
    "ParseError",
    "Relation",
    "SCENARIOS",
    "Scenario",
    "TargetUnconstrained",
    "UnsupportedCoordinateError",
    "ValidationError",
    "VertexSet",
    "affine_hull",
    "beta_bounds",
    "build_tables",
    "canonicalize",
    "cross_check",
    "derive",
    "derive_marginals",
    "enumerate_parameter_vertices",
    "evaluate_bounds",
    "facet_enumeration",
    "format_decimal",
    "format_rational",
    "get_scenario",
    "instrumental_inequality",
    "load",
    "make_scenario",
    "model_check",
    "observable_point",
    "partition",
    "rational",
    "reduce_mod_equalities",
    "scenario_hull",
    "scenario_vertex_set",
    "solve",
    "xi_transform",
]


def test_public_api_is_pinned():
    # A name added to or dropped from __all__ must be added to or dropped from this list.
    assert len(PUBLIC_API) == 53 and PUBLIC_API == sorted(set(PUBLIC_API))
    assert ivbounds.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(ivbounds, name) is not None, name


def test_affine_form_has_only_the_methods_the_package_reads():
    # Tests write a form with reference.form and evaluate it with evaluate_vector.
    assert {name for name in vars(ivbounds.AffineForm) if not name.startswith("_")} == {
        "constant", "evaluate_vector", "render"}


def test_public_function_signatures_are_pinned():
    """A parameter added, renamed or dropped shows as a diff of the golden file.

    After an intended change, rewrite tests/golden/api_signatures.json as
    json.dumps(signatures, indent=2) plus a newline.
    """
    functions = [name for name in PUBLIC_API if inspect.isfunction(getattr(ivbounds, name))]
    signatures = {name: str(inspect.signature(getattr(ivbounds, name))) for name in functions}
    golden = json.loads((ROOT / "tests" / "golden" / "api_signatures.json").read_text(encoding="utf-8"))
    assert len(signatures) == 25
    assert signatures == golden


def test_no_module_has_an_assert_statement():
    """python -O drops assert statements, so no check in the package may be one."""
    found = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "src" / "ivbounds").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_another_modules_private_names():
    """Each module's underscore names are its own; the others use its public ones."""
    paths, found = sorted((ROOT / "src" / "ivbounds").glob("*.py")), []
    assert len(paths) > 1
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ivbounds")):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_only_scenarios_spells_the_target_labels():
    """The scenario names its target, so no other module has "alpha" or "beta" as a string."""
    found = []
    for path in sorted((ROOT / "src" / "ivbounds").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if path.name != "scenarios.py"
                  and isinstance(node, ast.Constant) and node.value in ("alpha", "beta")]
    assert found == []


def test_the_names_the_benchmark_reads_exist():
    """bench/tracer.py wraps each SPECS path by name and bench/child.py reads these attributes;
    a name renamed or deleted would otherwise fail only the benchmark's traced runs."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPECS
    for module_name, path, _, _ in tracer.SPECS:
        module = importlib.import_module(f"ivbounds.{module_name}")
        owner, _, attr = path.rpartition(".")
        if owner:
            assert attr in vars(getattr(module, owner)), path
        else:
            assert callable(getattr(module, attr, None)), path
    bs, hull = ivbounds.derive("bivariate"), ivbounds.scenario_hull("fig3")
    for obj, attrs in ((bs, ("to_json_dict", "observable_tests", "lower_forms", "upper_forms")),
                       (hull, ("to_json_dict", "facets", "affine_dimension"))):
        for attr in attrs:
            assert hasattr(obj, attr), (type(obj).__name__, attr)


def bench_module(name, monkeypatch):
    """A module of bench/, loaded from its file with bench/ on the path for its own imports."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fresh_registry_derivations_hash_to_the_benchmarks_pins(monkeypatch):
    """The benchmark gates every derive op on these SHA-256s; a change to a derived object, such
    as a double description that alters a hull, fails here too."""
    workloads, child = bench_module("workloads", monkeypatch), bench_module("child", monkeypatch)
    pins = workloads.PINNED_SHA256
    assert sorted(pins) == sorted(workloads.REGISTRY) == sorted(ivbounds.SCENARIOS)
    for name in workloads.REGISTRY:
        s = ivbounds.get_scenario(name)
        hull = bounds.scenario_hull.__wrapped__(s)  # bypasses the cache, so the DD runs here
        obj = hull if s.causal_target is None else bounds.partition(hull, s.causal_target)
        assert child.digest(obj) == pins[name], name


def test_caches_stay_bounded_over_a_sweep_of_custom_scenarios(monkeypatch):
    """Every cache keyed on a scenario or its labels once kept every entry: deriving and
    cross-checking 3,000 custom scenarios took peak RSS from 15 to 155 MB. A sweep past the
    bound leaves each cache at it, and the registry still derives to the benchmark's pins."""
    caches = [bounds.derive, bounds.scenario_hull, scenarios._type_images, oracle._scenario_lp,
              data._picker]
    tables, rng = data.derive_marginals(ivbounds.load("lipid")), random.Random(11)
    labels = sorted({label for s in ivbounds.SCENARIOS.values() for label in s.observable_labels})
    for i in range(300):
        target = rng.choice(["alpha", "beta"])
        s = ivbounds.make_scenario(f"sweep{i}", [*rng.sample(labels, rng.randint(2, 7)), target], target)
        ivbounds.cross_check(s, tables)
    for cache in caches:
        assert cache.cache_info().maxsize == scenarios.CACHE_SIZE >= 5
        assert cache.cache_info().currsize == scenarios.CACHE_SIZE  # the sweep filled each one
    workloads, child = bench_module("workloads", monkeypatch), bench_module("child", monkeypatch)
    for name in workloads.REGISTRY:
        obj = bounds.scenario_hull(name) if name == "fig3" else bounds.derive(name)
        assert child.digest(obj) == workloads.PINNED_SHA256[name], name


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", quickstart, re.M | re.S)
    assert len(blocks) == 2
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # in order, in one namespace; cross_check raises on a mismatch
            exec(compile(block, "README.md", "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0] == "49/125 39/50"
    assert lines[1:] and all(line.startswith("alpha <= ") for line in lines[1:])
