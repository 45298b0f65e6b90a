import random
from fractions import Fraction

import pytest
from helpers import (
    hamming_distance,
    hom_from_cycles,
    pair_type_map,
    pair_type_matrix,
    random_uniform_images,
)

from sofic_lab.group_model import ModelParams
from sofic_lab.hypergraph import (
    Coloring,
    GeneratorTypeMatrix,
    LabeledHypergraph,
    build_hypergraph,
    critical_edges,
    generator_type,
    monochromatic_edge_count,
)


def random_coloring(n, rng):
    return Coloring(rng.randrange(2) for _ in range(n))


def test_build_hypergraph_small():
    p = ModelParams(d=2, k=2, n=4)
    hom = hom_from_cycles(p, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])
    g = build_hypergraph(hom)
    assert g.edges == ((0, (0, 1)), (0, (2, 3)), (1, (0, 2)), (1, (1, 3)))
    assert g.label_edges(1) == [(0, 2), (1, 3)]


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
    with pytest.raises(ValueError):
        LabeledHypergraph(4, 2, 1, [(0, (0, 1)), (0, (1, 2))])
    with pytest.raises(ValueError):
        LabeledHypergraph(4, 2, 1, [(0, (0, 1))])
    with pytest.raises(ValueError):
        LabeledHypergraph(4, 2, 1, [(0, (0, 1, 2)), (0, (3,))])
    with pytest.raises(ValueError):
        LabeledHypergraph(4, 2, 1, [(1, (0, 1)), (1, (2, 3))])
    with pytest.raises(ValueError):
        LabeledHypergraph(5, 2, 1, [(0, (0, 1)), (0, (2, 3))])


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
    assert critical_edges(g, Coloring.from_string("100110")) == [(0, 0), (1, 5)]
    # balanced-as-possible edge in k=3 is always critical
    assert len(critical_edges(g, Coloring.from_string("110100"))) == 2
    # monochromatic edges are not critical
    assert critical_edges(g, Coloring.from_string("111000")) == []


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
        for idx, (_, edge) in enumerate(g.edges):
            for v in edge:
                if all(chi[w] != chi[v] for w in edge if w != v):
                    expected.append((idx, v))
        assert critical_edges(g, chi) == expected


def test_hamming_distance():
    a = Coloring.from_string("0011")
    b = Coloring.from_string("0110")
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == Fraction(1, 2)
    assert hamming_distance(a, a.flipped()) == 1
    rng = random.Random(55)
    for _ in range(50):
        x, y, z = (random_coloring(10, rng) for _ in range(3))
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_pair_type_matrix_hand_example():
    chi = Coloring.from_string("110100")
    chi_tilde = Coloring.from_string("010011")
    eps = pair_type_matrix((0, 1, 2), chi, chi_tilde)
    assert eps.as_tuple() == (1, 0, 1, 1)
    assert eps.total() == 3
    assert eps.is_bichromatic_pair()
    eps2 = pair_type_matrix((3, 4, 5), chi, chi_tilde)
    assert eps2.as_tuple() == (0, 2, 1, 0)


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
            for edge in g.label_edges(label):
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
    assert {eps.as_tuple() for eps in t} == {(1, 0, 1, 1), (0, 2, 1, 0)}


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
    assert t.rows[0] == (0, Fraction(1, 6), Fraction(1, 6), 0)
    assert t.rows[1] == (0, Fraction(1, 6), Fraction(1, 6), 0)
    assert t.shared_mean() == Fraction(1, 2)


def test_generator_type_rows_and_mean():
    rng = random.Random(41)
    p = ModelParams(d=3, k=4, n=20)
    for _ in range(10):
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = random_coloring(p.n, rng)
        t = generator_type(g, chi)
        for i in range(p.d):
            assert t.row_sum(i) == Fraction(1, p.k)
            # every 1-colored vertex lies in exactly one label-i edge
            assert t.row_mean(i) == Fraction(chi.ones(), p.n)
        assert t.shared_mean() == Fraction(chi.ones(), p.n)


def test_generator_type_matrix_validation():
    with pytest.raises(ValueError):
        GeneratorTypeMatrix([])
    with pytest.raises(ValueError):
        GeneratorTypeMatrix([(Fraction(1, 2), Fraction(-1, 2), 0)])
    m = GeneratorTypeMatrix([(0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0)])
    with pytest.raises(ValueError):
        m.shared_mean()


def test_coloring_basics():
    c = Coloring.equitable_split(6)
    assert c.bits == (0, 0, 0, 1, 1, 1)
    assert c.is_equitable()
    assert c.flipped().bits == (1, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        Coloring.equitable_split(5)
    with pytest.raises(ValueError):
        Coloring([0, 2, 1])
    with pytest.raises(AttributeError):
        c.bits = (1,)
