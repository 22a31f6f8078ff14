"""
From latent parameters to Balke-Pearl bounds
============================================

The trivariate scenario observes P(C=c, B=b | A=a) and asks for the
average causal effect alpha of treatment B on outcome C. This walks the
whole derivation, printing each intermediate object the engine produces.
"""

from ivbounds import (
    derive,
    enumerate_parameter_vertices,
    facet_enumeration,
    get_scenario,
    scenario_vertex_set,
    xi_transform,
)

s = get_scenario("trivariate")
print(f"scenario {s.name}: coordinates {', '.join(s.space.labels)}")
print(f"causal target: {s.causal_target}")

# Step 1: parameter vertices. The latent-conditional parameters live in a
# hypercube whose corners are the response types: each fixes C(b) = eta_b
# and B(a) = delta_a, and every coordinate is an event on it. Any other
# point maps to the multilinear extension of the types' images, so the
# image polytope is the convex hull of the images of the corners.
corners = enumerate_parameter_vertices(s)
print(f"\n{len(corners)} parameter corners (eta0, eta1, delta1, delta2 in {{0,1}})")

one = corners[5]
img = xi_transform(s, one)
bits = f"eta0={one.eta0} eta1={one.eta1} delta1={one.delta1} delta2={one.delta2}"
pairs = ", ".join(f"{lab}={v}" for lab, v in img.items())
print(f"corner ({bits}) maps to\n  {pairs}")

# Step 2: images, deduplicated. Different corners can collide.
vs = scenario_vertex_set(s)
print(f"\n{len(vs)} distinct images")

# Step 3: exact facet enumeration of the image hull.
h = facet_enumeration(vs)
print(f"affine dimension {h.affine_dimension}, "
      f"{len(h.equalities)} equalities, {len(h.facets)} facets")

# Step 4: partition facets by what they say. Facets free of alpha are
# model tests; facets involving alpha are solved for it, giving bounds.
bs = derive(s.name)
print(f"\nobservable tests ({len(bs.observable_tests)}):")
for c in bs.observable_tests:
    print("  ", c.render())

print(f"\nlower bounds ({len(bs.lower_forms)}):")
for f in bs.lower_forms:
    print(f"   alpha >= {f.render()}")

print(f"\nupper bounds ({len(bs.upper_forms)}):")
for f in bs.upper_forms:
    print(f"   alpha <= {f.render()}")

# The trivial constraints (coordinates nonnegative, blocks summing to 1)
# are kept but reported separately; they hold for any probability table.
print(f"\nplus {len(bs.trivial_tests)} trivial constraints "
      f"and {len(bs.hull_equalities)} hull equalities, e.g.")
print("  ", bs.hull_equalities[0].render())
print("  ", bs.trivial_tests[0].render())
