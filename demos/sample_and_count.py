"""
Sampling homomorphisms and counting their proper 2-colorings
============================================================

Walks the basic pipeline: draw a uniform homomorphism, build the induced
hypergraph, count proper colorings exactly, then check the first-moment
formula against a full enumeration at toy scale.
"""

from fractions import Fraction

from sofic_lab import (
    Coloring,
    ModelParams,
    RngState,
    build_hypergraph,
    count_proper,
    enumerate_uniform_homs,
    exact_first_moment,
    monochromatic_edge_count,
    sample_planted_hom,
    sample_uniform_hom,
)

# a small model: two generators of order 3 acting on 12 points
params = ModelParams(d=2, k=3, n=12)
rng = RngState(2024)

hom = sample_uniform_hom(params, rng)
graph = build_hypergraph(hom)
print("sampled a uniform homomorphism on", params.n, "points")
print("generator images (vertex maps):")
for i, image in enumerate(hom.images):
    print("  s_%d -> %s" % (i, tuple(image.tolist())))

report = count_proper(graph)
print("edges:", len(graph.edges))
print("proper 2-colorings:", report.value)

# the planted sampler conditions on a fixed balanced coloring being proper
chi = Coloring.equitable_split(params.n)
planted = sample_planted_hom(params, chi, rng)
bad = monochromatic_edge_count(build_hypergraph(planted), chi)
print("planted instance monochromatic edges under chi:", bad, "(always 0)")

# at n=4, k=2 the whole model is enumerable, so the closed-form first
# moment can be checked against the literal average
tiny = ModelParams(d=2, k=2, n=4)
total = 0
homs = 0
for h in enumerate_uniform_homs(tiny):
    total += count_proper(build_hypergraph(h)).value
    homs += 1
average = Fraction(total, homs)
formula = exact_first_moment(tiny)
print("enumeration average over", homs, "homomorphisms:", average)
print("closed-form first moment:", formula)
assert average == formula
