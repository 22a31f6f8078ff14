"""Exact symbolic bounds on causal effects in binary instrumental-variable models.

The pipeline: enumerate the 0/1 vertices of the latent parameter space,
push them through a scenario's observable transform, enumerate the facets
of the convex hull of the images, then split the facets into model tests
and sharp lower/upper bounds on the causal target. An independent
exact-rational linear-programming oracle cross-checks every derived bound.
"""

import sys

# Each public name by the module that defines it.
_EXPORTS = {
    "forms": (
        "AffineForm", "CoordinateSpace", "IdenticallyFalse", "LinearConstraint",
        "MissingCoordinate", "Relation", "canonicalize", "format_decimal", "format_rational",
        "rational",
    ),
    "polytope": (
        "AffineHull", "DimensionOverflow", "HRepresentation", "MembershipReport", "VertexSet",
        "affine_hull", "facet_enumeration", "reduce_mod_equalities",
    ),
    "scenarios": (
        "SCENARIOS", "ParameterPoint", "Scenario", "UnsupportedCoordinateError",
        "enumerate_parameter_vertices", "get_scenario", "make_scenario", "scenario_vertex_set",
        "xi_transform",
    ),
    "data": (
        "MissingArmWeights", "ObservedTables", "build_tables", "ParseError", "ValidationError",
        "derive_marginals", "load", "observable_point",
    ),
    "bounds": (
        "BoundSet", "ConstraintReport", "InstrumentalReport", "Interval", "TargetUnconstrained",
        "beta_bounds", "derive", "evaluate_bounds", "instrumental_inequality", "model_check",
        "partition", "scenario_hull",
    ),
    "oracle": (
        "CrossCheckReport", "LPResult", "MismatchError", "MixtureLP", "cross_check",
        "oracle_interval", "solve",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, read from its module, which is imported at first use (PEP 562).

    So ``import ivbounds.cli`` loads only what the CLI imports. Nothing is
    cached here, so a name rebound on its module shows through the package.
    """
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    if home not in sys.modules:
        __import__(home)
    return getattr(sys.modules[home], name)
