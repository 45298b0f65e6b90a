import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    hamming_distance,
    hom_from_cycles,
    orbit_edges_oracle,
    pair_type_map,
    pair_type_matrix,
    random_uniform_images,
    shared_row_mean,
    type_row_mean,
)

from sofic_lab.analytics import bichromatic_pair_types, type_rate
from sofic_lab.group_model import ModelParams
from sofic_lab.hypergraph import (
    Coloring,
    LabeledHypergraph,
    build_hypergraph,
    critical_edges,
    generator_type,
    monochromatic_edge_count,
)
from sofic_lab.samplers import RngState, sample_planted_hom, sample_uniform_hom


def random_coloring(n, rng):
    return Coloring(rng.randrange(2) for _ in range(n))


def test_build_hypergraph_small():
    p = ModelParams(d=2, k=2, n=4)
    hom = hom_from_cycles(p, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])
    g = build_hypergraph(hom)
    assert g.edges == ((0, (0, 1)), (0, (2, 3)), (1, (0, 2)), (1, (1, 3)))
    assert g.blocks.tolist() == [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]
    with pytest.raises(ValueError):
        g.blocks[0, 0, 0] = 1


# (n, k, d): the sofic-census, exact-count and core-density shapes, then
# k=2, a single edge per label (n=k) and no generators at all
@pytest.mark.parametrize("n,k,d", [
    (24, 3, 4), (120, 6, 20), (600, 3, 2), (12, 2, 3), (6, 6, 2), (12, 3, 0),
])
def test_build_hypergraph_matches_orbit_walk(n, k, d):
    params = ModelParams(d=d, k=k, n=n)
    chi = Coloring.equitable_split(n)
    for seed in range(5):
        for hom in (sample_uniform_hom(params, RngState(seed, 1)),
                    sample_planted_hom(params, chi, RngState(seed, 2))):
            g = build_hypergraph(hom)
            assert g.blocks.shape == (d, n // k, k)
            assert g.edges == orbit_edges_oracle(hom)
    if d == 0:
        assert g.edges == ()


def test_build_hypergraph_edges_are_orbits():
    p = ModelParams(d=3, k=4, n=16)
    rng = random.Random(71)
    hom = random_uniform_images(p, rng)
    g = build_hypergraph(hom)
    assert len(g.edges) == p.d * p.n // p.k
    for label, edge in g.edges:
        img = hom.images[label]
        # closed under the generator and of full size
        assert all(img[v] in edge for v in edge)
        assert len(edge) == p.k


def test_hypergraph_partition_validation():
    # overlapping rows
    with pytest.raises(ValueError, match="partition"):
        LabeledHypergraph(4, 2, 1, [[[0, 1], [1, 2]]])
    # a missing row
    with pytest.raises(ValueError, match="shape"):
        LabeledHypergraph(4, 2, 1, [[[0, 1]]])
    # ragged rows
    with pytest.raises(ValueError):
        LabeledHypergraph(4, 2, 1, [[[0, 1, 2], [3]]])
    # an extra label
    with pytest.raises(ValueError, match="shape"):
        LabeledHypergraph(4, 2, 1, [[[0, 1], [2, 3]], [[0, 2], [1, 3]]])
    # k does not divide n
    with pytest.raises(ValueError, match="multiple"):
        LabeledHypergraph(5, 2, 1, [[[0, 1], [2, 3]]])
    with pytest.raises(ValueError, match="integers"):
        LabeledHypergraph(4, 2, 1, [[[0.0, 1.0], [2.0, 3.0]]])
    # no vertices: the counts would read two colorings of the empty set
    with pytest.raises(ValueError, match="positive"):
        LabeledHypergraph(0, 2, 1, np.zeros((1, 0, 2), dtype=int))
    # rows come out sorted and ordered by least vertex
    g = LabeledHypergraph(6, 3, 1, [[[5, 3, 4], [2, 0, 1]]])
    assert g.edges == ((0, (0, 1, 2)), (0, (3, 4, 5)))
    assert LabeledHypergraph(6, 3, 0, np.empty((0, 2, 3), dtype=int)).edges == ()


def test_monochromatic_count_hand_example():
    p = ModelParams(d=1, k=3, n=6)
    hom = hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)]])
    g = build_hypergraph(hom)
    assert monochromatic_edge_count(g, Coloring.from_string("111000")) == 2
    assert monochromatic_edge_count(g, Coloring.from_string("110000")) == 1
    assert monochromatic_edge_count(g, Coloring.from_string("110100")) == 0


def test_monochromatic_count_matches_brute():
    rng = random.Random(733)
    p = ModelParams(d=2, k=3, n=12)
    for _ in range(25):
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = random_coloring(p.n, rng)
        brute = sum(1 for _, e in g.edges if len({chi[v] for v in e}) == 1)
        assert monochromatic_edge_count(g, chi) == brute


def test_critical_edges_hand_example():
    p = ModelParams(d=1, k=3, n=6)
    hom = hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)]])
    g = build_hypergraph(hom)
    # edge (0,1,2): lone 1 at vertex 0; edge (3,4,5): lone 0 at vertex 5
    rows, owner = critical_edges(g, Coloring.from_string("100110"))
    assert rows.tolist() == [[0, 1, 2], [3, 4, 5]] and owner.tolist() == [0, 5]
    # balanced-as-possible edge in k=3 is always critical
    assert len(critical_edges(g, Coloring.from_string("110100"))[1]) == 2
    # monochromatic edges are not critical
    rows, owner = critical_edges(g, Coloring.from_string("111000"))
    assert rows.shape == (0, 3) and owner.tolist() == []


def test_critical_edges_undefined_for_k2():
    p = ModelParams(d=1, k=2, n=4)
    g = build_hypergraph(hom_from_cycles(p, [[(0, 1), (2, 3)]]))
    with pytest.raises(ValueError):
        critical_edges(g, Coloring.from_string("0101"))


def test_critical_edges_match_definition():
    # v supports e exactly when chi(v) does not appear on e minus v
    rng = random.Random(9817)
    p = ModelParams(d=2, k=4, n=16)
    for _ in range(20):
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = random_coloring(p.n, rng)
        expected = []
        for _, edge in g.edges:
            for v in edge:
                if all(chi[w] != chi[v] for w in edge if w != v):
                    expected.append((edge, v))
        rows, owner = critical_edges(g, chi)
        assert list(zip(map(tuple, rows.tolist()), owner.tolist())) == expected


def test_coloring_length_is_checked():
    # a short coloring must not index past its end, a long one must not be
    # cut to size
    p = ModelParams(d=2, k=3, n=6)
    g = build_hypergraph(hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)], [(0, 3, 4), (1, 2, 5)]]))
    for bits in ("11010", "1101000"):
        chi = Coloring.from_string(bits)
        for fn in (critical_edges, monochromatic_edge_count, generator_type):
            with pytest.raises(ValueError, match="coloring has %d entries for 6" % len(bits)):
                fn(g, chi)


def test_hamming_distance():
    a = Coloring.from_string("0011")
    b = Coloring.from_string("0110")
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == Fraction(1, 2)
    assert hamming_distance(a, Coloring(1 - b for b in a)) == 1
    rng = random.Random(55)
    for _ in range(50):
        x, y, z = (random_coloring(10, rng) for _ in range(3))
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_pair_type_matrix_hand_example():
    chi = Coloring.from_string("110100")
    chi_tilde = Coloring.from_string("010011")
    eps = pair_type_matrix((0, 1, 2), chi, chi_tilde)
    assert eps == (1, 0, 1, 1)
    assert eps in bichromatic_pair_types(3)
    eps2 = pair_type_matrix((3, 4, 5), chi, chi_tilde)
    assert eps2 == (0, 2, 1, 0)


def test_pair_type_counts_add_up_to_overlaps():
    # summing e_ij over one label's parts recovers the global overlap counts
    rng = random.Random(2024)
    p = ModelParams(d=3, k=3, n=15)
    for _ in range(10):
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = random_coloring(p.n, rng)
        chi_tilde = random_coloring(p.n, rng)
        for label in range(p.d):
            sums = [[0, 0], [0, 0]]
            for edge in g.blocks[label].tolist():
                eps = pair_type_matrix(edge, chi, chi_tilde)
                sums[0][0] += eps.e00
                sums[0][1] += eps.e01
                sums[1][0] += eps.e10
                sums[1][1] += eps.e11
            for i in (0, 1):
                for j in (0, 1):
                    overlap = sum(
                        1 for v in range(p.n) if chi[v] == i and chi_tilde[v] == j
                    )
                    assert sums[i][j] == overlap


def test_pair_type_map_distribution():
    p = ModelParams(d=1, k=3, n=6)
    g = build_hypergraph(hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)]]))
    chi = Coloring.from_string("110100")
    chi_tilde = Coloring.from_string("010011")
    t = pair_type_map(g, chi, chi_tilde, 0)
    assert sum(t.values()) == Fraction(1, 3)
    assert set(t) == {(1, 0, 1, 1), (0, 2, 1, 0)}


def test_pair_type_map_rejects_monochromatic_part():
    p = ModelParams(d=1, k=3, n=6)
    g = build_hypergraph(hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)]]))
    chi = Coloring.from_string("111000")
    chi_tilde = Coloring.from_string("010011")
    with pytest.raises(ValueError) as exc:
        pair_type_map(g, chi, chi_tilde, 0)
    assert "(0, 1, 2)" in str(exc.value)


def test_generator_type_hand_example():
    p = ModelParams(d=2, k=3, n=6)
    hom = hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)], [(0, 3, 4), (1, 2, 5)]])
    g = build_hypergraph(hom)
    t = generator_type(g, Coloring.from_string("110100"))
    # label 0: edges with 2 and 1 ones; label 1: edges with 2 and 1 ones
    assert t == ((0, Fraction(1, 6), Fraction(1, 6), 0),) * 2
    assert shared_row_mean(t) == Fraction(1, 2)


def test_generator_type_rows_and_mean():
    rng = random.Random(41)
    p = ModelParams(d=3, k=4, n=20)
    for _ in range(10):
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = random_coloring(p.n, rng)
        t = generator_type(g, chi)
        for i in range(p.d):
            assert sum(t[i]) == Fraction(1, p.k)
            # every 1-colored vertex lies in exactly one label-i edge
            assert type_row_mean(t, i) == Fraction(chi.ones(), p.n)
        assert shared_row_mean(t) == Fraction(chi.ones(), p.n)


def test_generator_type_matches_definition():
    # entry (i, j) is (number of label-i edges with exactly j ones) / n
    rng = random.Random(4242)
    for p in (ModelParams(d=3, k=4, n=20), ModelParams(d=4, k=3, n=24),
              ModelParams(d=2, k=2, n=10)):
        for _ in range(10):
            g = build_hypergraph(random_uniform_images(p, rng))
            chi = random_coloring(p.n, rng)
            counts = [[0] * (p.k + 1) for _ in range(p.d)]
            for label, edge in g.edges:
                counts[label][sum(chi[v] for v in edge)] += 1
            expected = tuple(tuple(Fraction(c, p.n) for c in row) for row in counts)
            assert generator_type(g, chi) == expected


def test_generator_type_matrix_validation():
    # generator-type rows are checked where they are used, by type_rate
    with pytest.raises(ValueError, match="expected 1 rows"):
        type_rate([], 1, 2)
    # rows that sum to 1/k at one density, but with a negative entry
    with pytest.raises(ValueError, match="nonnegative"):
        type_rate([(-0.25, 0.5, 0.25)], 1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        type_rate([(Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2))], 1, 2)
    # the test-side row mean refuses rows of different densities
    with pytest.raises(ValueError):
        shared_row_mean(((0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0)))


def test_coloring_basics():
    c = Coloring.equitable_split(6)
    assert c.bits == (0, 0, 0, 1, 1, 1)
    assert c.is_equitable()
    with pytest.raises(ValueError):
        Coloring.equitable_split(5)
    for bad in ([0, 2, 1], [-1], [1, 0, 3]):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Coloring(bad)
    # entries are stored as Python ints whatever type they came in
    mixed = Coloring([True, np.int64(0), np.uint8(1)])
    assert mixed.bits == (1, 0, 1) and all(type(b) is int for b in mixed.bits)
    with pytest.raises(AttributeError):
        c.bits = (1,)
