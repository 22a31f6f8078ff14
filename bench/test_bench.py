"""Tests of the benchmark's own machinery. Run from the repository root:

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import ivbounds
from ivbounds import bounds, cli, oracle, polytope
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"


def traced_derive(names: str) -> dict:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "derive", names, "--trace"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["trace"]


def test_traced_pairwise3_derive_counts_and_nesting_repeat_exactly():
    first, second = traced_derive("pairwise3"), traced_derive("pairwise3")
    for snap in (first, second):
        counters = snap["counters"]
        assert counters["scenarios.distinct_images"] == 24
        assert counters["polytope.dimension"] == 8
        assert counters["polytope.facets"] == 142
        assert counters["bounds.lower_forms"] == 37
        assert counters["bounds.upper_forms"] == 37
        assert counters["bounds.observable_tests"] == 56
        tracer = Tracer()
        tracer.merge(snap)
        assert tracer.parents("polytope.affine_hull") == {"polytope.facet_enumeration"}
        assert tracer.parents("polytope.reduce_mod_equalities") == {
            "bounds.partition", "bounds.classify_observable",
        }
        assert tracer.parents("bounds.classify_observable") == {"bounds.partition"}
        assert tracer.parents("polytope.facet_enumeration") == {"bounds.derive"}
    for key in ("calls", "counters"):
        assert first[key] == second[key]
    edges = [{(p, c): n for p, c, n in snap["edges"]} for snap in (first, second)]
    assert edges[0] == edges[1]


def test_install_patches_every_namespace_and_uninstall_restores_it():
    originals = {
        (bounds, "facet_enumeration"): polytope.facet_enumeration,
        (bounds, "derive"): bounds.derive,
        (oracle, "derive"): bounds.derive,
        (cli, "derive"): bounds.derive,
        (ivbounds, "derive"): bounds.derive,
        (cli, "entry"): cli.entry,
    }
    render = ivbounds.AffineForm.__dict__["render"]
    from_scenario = oracle.MixtureLP.__dict__["from_scenario"]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
        assert bounds.derive is oracle.derive is cli.derive is ivbounds.derive
        ivbounds.derive("beta")
        assert ivbounds.AffineForm.__dict__["render"] is not render
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    assert ivbounds.AffineForm.__dict__["render"] is render
    assert oracle.MixtureLP.__dict__["from_scenario"] is from_scenario
    assert tracer.calls["bounds.derive"] == 1


def test_nested_render_is_one_span():
    bs = ivbounds.derive("trivariate")
    tracer = Tracer()
    tracer.install()
    try:
        text = bs.hull_equalities[0].render()
    finally:
        tracer.uninstall()
    assert "=" in text
    assert tracer.calls["forms.render"] == 1


def test_decimal_text_is_exact():
    for q in (Fraction(0), Fraction(1), Fraction(3, 8), Fraction(27, 1000), Fraction(7, 20)):
        assert Fraction(gen.decimal_text(q)) == q
    with pytest.raises(ValueError):
        gen.decimal_text(Fraction(1, 3))


@pytest.mark.parametrize("decimal", [True, False])
@pytest.mark.parametrize("consistent", [True, False])
def test_studies_load_as_built(tmp_path, decimal, consistent):
    import random

    rng = random.Random(5)
    study = gen.make_study(
        rng, tmp_path / "s.json", decimal=decimal, arm_weights=True,
        consistent=consistent, explicit_marginals=True,
    )
    tables = ivbounds.derive_marginals(ivbounds.load(study.path))
    assert tables.decimal_input == decimal
    assert ivbounds.instrumental_inequality(tables).passed == consistent
    if consistent:
        interval = ivbounds.evaluate_bounds(ivbounds.derive("trivariate"), tables)
        assert interval.lower <= study.alpha <= interval.upper


def test_oracle_round_marks_the_outside_point():
    import random

    points = gen.oracle_round(random.Random(3), gen.vertex_images(), "pairwise3")
    for p in points:
        report = ivbounds.cross_check(p.scenario, p.point)
        assert report.feasible == p.feasible
        if p.feasible:
            assert report.lp_lower <= p.truth <= report.lp_upper


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(CHILD.parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
