import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers import (
    all_k_partitions,
    coloring_search_oracle,
    edge_lists,
    frontier_order_oracle,
    frontier_table_oracle,
    hamming_distance,
    hom_from_cycles,
    pair_count_sum_recursion_oracle,
    pair_type_matrix,
    partition_type_counts,
    random_uniform_images,
)

from sofic_lab import ScaleRefusal, exact_count
from sofic_lab.exact_count import (
    MOMENT_MAX_N,
    CountReport,
    cluster_radius,
    cluster_size,
    count_at_distance,
    count_equitable,
    count_good_colorings,
    count_proper,
    exact_equitable_first_moment,
    exact_first_moment,
    exact_planted_distance_moment,
    is_good_coloring,
    partition_count,
    proper_colorings,
    proper_equitable_colorings,
)
from sofic_lab.analytics import bichromatic_pair_types
from sofic_lab.group_model import (
    ModelParams,
    enumerate_uniform_homs,
    typed_partition_count,
    typed_partition_sum,
)
from sofic_lab.hypergraph import Coloring, build_hypergraph, monochromatic_edge_count
from sofic_lab.samplers import (
    RngState,
    _type_count_vectors,
    sample_planted_hom,
    sample_uniform_hom,
)


def all_colorings(n):
    return [Coloring(bits) for bits in itertools.product((0, 1), repeat=n)]


def brute_count_proper(graph, eps):
    budget = math.floor(Fraction(eps) * graph.n)
    return sum(
        1 for chi in all_colorings(graph.n)
        if monochromatic_edge_count(graph, chi) <= budget
    )


def brute_proper_equitable(graph):
    return [
        chi for chi in all_colorings(graph.n)
        if chi.is_equitable() and monochromatic_edge_count(graph, chi) == 0
    ]


def four_cycle_graph():
    p = ModelParams(d=2, k=2, n=4)
    hom = hom_from_cycles(p, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])
    return build_hypergraph(hom)


def test_count_proper_single_edge():
    p = ModelParams(d=1, k=4, n=4)
    g = build_hypergraph(hom_from_cycles(p, [[(0, 1, 2, 3)]]))
    assert count_proper(g).value == 2**4 - 2


def test_count_proper_four_cycle():
    assert count_proper(four_cycle_graph()).value == 2


def test_count_proper_budget_closed_form():
    g = four_cycle_graph()
    assert count_proper(g, eps=1).value == 2**4


def test_count_proper_matches_brute_force():
    rng = random.Random(404)
    cases = [(1, 2, 8), (2, 2, 8), (2, 3, 9), (3, 3, 9), (2, 4, 12), (1, 5, 10)]
    for d, k, n in cases:
        p = ModelParams(d=d, k=k, n=n)
        g = build_hypergraph(random_uniform_images(p, rng))
        for eps in (0, Fraction(1, n), Fraction(2, n), Fraction(1, 2)):
            assert count_proper(g, eps).value == brute_count_proper(g, eps), (d, k, n, eps)


def test_count_proper_monotone_in_eps():
    rng = random.Random(11)
    p = ModelParams(d=2, k=3, n=12)
    g = build_hypergraph(random_uniform_images(p, rng))
    grid = [0, Fraction(1, 12), Fraction(1, 6), Fraction(1, 2), Fraction(2, 3)]
    values = [count_proper(g, eps).value for eps in grid]
    assert values == sorted(values)
    assert values[-1] == 2**12


def test_count_equitable_known_case():
    p = ModelParams(d=1, k=2, n=4)
    g = build_hypergraph(hom_from_cycles(p, [[(0, 1), (2, 3)]]))
    assert count_equitable(g).value == 4
    chi = Coloring.from_string("0101")
    assert count_at_distance(g, chi, Fraction(1, 2)).value == 2


def test_count_equitable_matches_brute_force():
    rng = random.Random(62)
    for d, k, n in [(1, 2, 8), (2, 2, 8), (2, 3, 12), (1, 4, 8), (2, 5, 10)]:
        p = ModelParams(d=d, k=k, n=n)
        g = build_hypergraph(random_uniform_images(p, rng))
        brute = brute_proper_equitable(g)
        assert count_equitable(g).value == len(brute)
        assert sorted(c.bits for c in proper_equitable_colorings(g)) == sorted(
            c.bits for c in brute
        )


def test_proper_count_dominates_equitable():
    rng = random.Random(63)
    p = ModelParams(d=2, k=3, n=12)
    g = build_hypergraph(random_uniform_images(p, rng))
    assert count_proper(g).value >= count_equitable(g).value


def pick_proper_equitable(graph):
    found = proper_equitable_colorings(graph)
    assert found, "instance has no proper equitable coloring"
    return found[0]


def test_count_at_distance_identities():
    rng = random.Random(8)
    for d, k, n in [(1, 2, 8), (2, 3, 12), (1, 4, 8)]:
        p = ModelParams(d=d, k=k, n=n)
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = pick_proper_equitable(g)
        assert count_at_distance(g, chi, 0).value == 1
        total = 0
        for flips in range(0, n + 1, 2):
            delta = Fraction(flips, n)
            here = count_at_distance(g, chi, delta).value
            # color swap pairs distance delta with distance 1 - delta
            assert here == count_at_distance(g, chi, 1 - delta).value
            total += here
        assert total == count_equitable(g).value


def test_count_at_distance_matches_brute_force():
    rng = random.Random(99)
    p = ModelParams(d=2, k=3, n=12)
    g = build_hypergraph(random_uniform_images(p, rng))
    chi = pick_proper_equitable(g)
    brute = brute_proper_equitable(g)
    for flips in (0, 2, 4, 6):
        delta = Fraction(flips, 12)
        expected = sum(1 for c in brute if hamming_distance(c, chi) == delta)
        assert count_at_distance(g, chi, delta).value == expected


def test_count_at_distance_rejects_bad_input():
    g = four_cycle_graph()
    chi = pick_proper_equitable(g)
    with pytest.raises(ValueError):
        count_at_distance(g, chi, Fraction(1, 3))
    with pytest.raises(ValueError):
        count_at_distance(g, Coloring.from_string("1100"), Fraction(1, 2))
    with pytest.raises(ValueError):
        cluster_size(g, Coloring.from_string("0000"))


def test_wrong_length_coloring_gets_one_message():
    g = four_cycle_graph()
    calls = [
        lambda chi: count_at_distance(g, chi, Fraction(1, 2)),
        lambda chi: cluster_size(g, chi),
        lambda chi: is_good_coloring(g, chi, 8),
    ]
    for bits in ("01", "010", "01010"):
        message = "coloring has %d entries for 4 vertices" % len(bits)
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(Coloring.from_string(bits))


def test_cluster_radius_exact_floor():
    assert cluster_radius(4, 2) == 2
    assert cluster_radius(10, 5) == 1
    assert cluster_radius(12, 3) == 4
    for n in range(1, 80):
        for k in range(2, 13):
            m = cluster_radius(n, k)
            assert m * m * 2**k <= n * n < (m + 1) * (m + 1) * 2**k


def test_cluster_size_both_routes_match_brute_force():
    rng = random.Random(3571)
    # k=2 filters the full enumeration; k=5 walks the distance-pruned search
    for d, k, n in [(1, 2, 8), (2, 2, 8), (2, 5, 10), (1, 5, 10)]:
        p = ModelParams(d=d, k=k, n=n)
        g = build_hypergraph(random_uniform_images(p, rng))
        chi = pick_proper_equitable(g)
        radius = cluster_radius(n, k)
        brute = sum(
            1 for c in brute_proper_equitable(g)
            if sum(a != b for a, b in zip(c, chi)) <= radius
        )
        report = cluster_size(g, chi)
        assert report.value == brute
        assert report.value >= 1


def test_partition_count():
    assert partition_count(4, 2) == 3
    assert partition_count(6, 3) == 10
    assert partition_count(6, 2) == 15
    # oracle: direct enumeration
    assert partition_count(8, 4) == sum(1 for _ in all_k_partitions(range(8), 4))
    assert partition_count(9, 3) == sum(1 for _ in all_k_partitions(range(9), 3))


# A partition's type against one coloring counts its blocks by their ones: c_j
# blocks of shape (j, k - j) over the classes (ones, zeros) of the coloring.
# Against two colorings a block's shape is its pair type (e00, e01, e10, e11)
# over the four overlap classes.


def test_count_partitions_of_type_known_cases():
    # coloring 0011: two blocks of one 1 each, or one block of 0s and one of 1s
    assert typed_partition_count((2, 2), [((1, 1), 2)]) == 2
    assert typed_partition_count((2, 2), [((0, 2), 1), ((2, 0), 1)]) == 1
    # coloring 110: a single block containing j = 2 ones
    assert typed_partition_count((2, 1), [((2, 1), 1)]) == 1


def brute_typed_partition_census(n, k, chi):
    """Count partitions per full type vector (c_0..c_k), including
    monochromatic blocks."""
    census = {}
    for parts in all_k_partitions(range(n), k):
        counts = [0] * (k + 1)
        for part in parts:
            counts[sum(chi[v] for v in part)] += 1
        key = tuple(counts)
        census[key] = census.get(key, 0) + 1
    return census


@pytest.mark.parametrize(
    "n,k,bits",
    [
        (8, 4, "00011111"),
        (8, 2, "00001111"),
        (9, 3, "110100100"),
        (12, 3, "000000111111"),
    ],
)
def test_count_partitions_of_type_matches_brute_force(n, k, bits):
    chi = Coloring.from_string(bits)
    ones = sum(chi)
    census = brute_typed_partition_census(n, k, chi)
    for counts, expected in census.items():
        block_types = [((j, k - j), c) for j, c in enumerate(counts)]
        assert typed_partition_count((ones, n - ones), block_types) == expected
    # census totals the whole partition space
    assert sum(census.values()) == partition_count(n, k)


def test_typed_partition_sum_matches_per_type_sum():
    # single coloring: blocks of shape (j, k-j), summed type by type
    for k in range(2, 7):
        shapes = [(j, k - j) for j in range(1, k)]
        for n in range(k, 61, k):
            for ones in range(n + 1):
                expected = sum(
                    typed_partition_count((ones, n - ones), zip(shapes, c))
                    for c in _type_count_vectors(k, n // k, ones)
                )
                assert typed_partition_sum((ones, n - ones), shapes) == expected, (k, n, ones)


def pair_sum(n, k, flips):
    same, moved = n // 2 - flips // 2, flips // 2
    return typed_partition_sum((same, moved, moved, same), bichromatic_pair_types(k))


def test_typed_partition_sum_matches_pair_recursion_oracle():
    for k in (3, 4, 5, 6):
        step = math.lcm(k, 2)
        for n in range(step, 25, step):
            for flips in range(0, n + 1, 2):
                assert pair_sum(n, k, flips) == pair_count_sum_recursion_oracle(n, k, flips), (
                    n, k, flips)
    assert pair_sum(30, 5, 10) == pair_count_sum_recursion_oracle(30, 5, 10)


def test_typed_partition_sum_validation():
    with pytest.raises(ValueError):
        typed_partition_sum((3, 3), [(1, 2), (1, 1)])
    with pytest.raises(ValueError):
        typed_partition_sum((3, 2), [(1, 2), (2, 1)])
    # n = 0 has the one empty partition; unreachable classes give 0
    assert typed_partition_sum((0, 0), [(1, 1)]) == 1
    assert typed_partition_sum((4, 0), [(1, 1)]) == 0


def overlap_classes(chi, chi_tilde):
    """Sizes of the classes (0,0), (0,1), (1,0), (1,1) of two colorings."""
    overlap = [0, 0, 0, 0]
    for a, b in zip(chi, chi_tilde):
        overlap[2 * a + b] += 1
    return overlap


def brute_pair_partition_census(n, k, chi, chi_tilde):
    census = {}
    for parts in all_k_partitions(range(n), k):
        histogram = {}
        for part in parts:
            eps = pair_type_matrix(part, chi, chi_tilde)
            histogram[eps] = histogram.get(eps, 0) + 1
        key = tuple(sorted(histogram.items()))
        census[key] = census.get(key, 0) + 1
    return census


@pytest.mark.parametrize(
    "n,k,bits,bits_tilde",
    [
        (4, 2, "0011", "0101"),
        (6, 3, "000111", "010101"),
        (8, 4, "00001111", "00110011"),
        (9, 3, "000011111", "001101110"),
    ],
)
def test_count_pair_partitions_matches_brute_force(n, k, bits, bits_tilde):
    chi = Coloring.from_string(bits)
    chi_tilde = Coloring.from_string(bits_tilde)
    census = brute_pair_partition_census(n, k, chi, chi_tilde)
    for key, expected in census.items():
        assert typed_partition_count(overlap_classes(chi, chi_tilde), key) == expected


def test_count_pair_partitions_known_case():
    chi = Coloring.from_string("0011")
    chi_tilde = Coloring.from_string("0101")
    overlap = overlap_classes(chi, chi_tilde)
    assert overlap == [1, 1, 1, 1]
    assert typed_partition_count(overlap, [((1, 0, 0, 1), 1), ((0, 1, 1, 0), 1)]) == 1


def test_count_pair_partitions_diagonal_reduction():
    # chi = chi_tilde collapses pair types onto the diagonal, recovering the
    # single-coloring typed count
    chi = Coloring.from_string("000111")
    single = typed_partition_count((3, 3), [((1, 2), 1), ((2, 1), 1)])
    pair = typed_partition_count(
        overlap_classes(chi, chi), [((2, 0, 0, 1), 1), ((1, 0, 0, 2), 1)])
    assert pair == single


def enumeration_average(params, count_fn):
    values = []
    for hom in enumerate_uniform_homs(params):
        values.append(count_fn(build_hypergraph(hom)))
    return Fraction(sum(values), len(values))


def test_exact_first_moment_frozen_values():
    assert exact_first_moment(ModelParams(d=1, k=2, n=4)) == 4
    assert exact_first_moment(ModelParams(d=2, k=2, n=4)) == Fraction(8, 3)
    assert exact_first_moment(ModelParams(d=0, k=2, n=4)) == 16
    # at d = 0 every coloring, or every balanced one, is proper, whether or
    # not k divides n
    assert exact_first_moment(ModelParams(d=0, k=3, n=4)) == 16
    assert exact_equitable_first_moment(ModelParams(d=0, k=2, n=4)) == 6
    assert exact_equitable_first_moment(ModelParams(d=0, k=3, n=4)) == 6
    with pytest.raises(ValueError, match="even n"):
        exact_equitable_first_moment(ModelParams(d=0, k=3, n=3))


def test_exact_first_moment_matches_enumeration():
    for d, k, n in [(1, 2, 4), (2, 2, 4), (1, 2, 6), (1, 3, 6), (2, 3, 6)]:
        p = ModelParams(d=d, k=k, n=n)
        expected = enumeration_average(p, lambda g: count_proper(g).value)
        assert exact_first_moment(p) == expected, (d, k, n)


def test_exact_equitable_first_moment_matches_enumeration():
    for d, k, n in [(1, 2, 4), (2, 2, 4), (1, 3, 6), (2, 3, 6)]:
        p = ModelParams(d=d, k=k, n=n)
        expected = enumeration_average(p, lambda g: count_equitable(g).value)
        assert exact_equitable_first_moment(p) == expected, (d, k, n)


def planted_average_at_distance(params, chi, delta):
    values = []
    for hom in enumerate_uniform_homs(params):
        g = build_hypergraph(hom)
        if monochromatic_edge_count(g, chi) == 0:
            values.append(count_at_distance(g, chi, delta).value)
    return Fraction(sum(values), len(values))


# sha256 of the moments' reprs for d in (1, 3), every even n <= MOMENT_MAX_N
# divisible by k, and every even flip count; recorded with the per-formula
# counts before the typed-partition core replaced them, so they pin the
# closed forms well past the n <= 6 that enumeration reaches
MOMENT_DIGESTS = {
    2: "36aa400390898df1832e344283a210a67c2d2624d62acedc38910e1edcbf3076",
    3: "cf44c43726861ef295a21caacc3f1faa563343058b08450ca5b8e25c36682af2",
    4: "f8e8b8279e54c086d624e45cbd5cad46cb37114cb3ada3c8d09a6355076b641f",
    6: "d843ccc47729e2ded659cccccdc1550bb0dd44f80de0c526ce2287d339eb1090",
}


@pytest.mark.parametrize("k", sorted(MOMENT_DIGESTS))
def test_exact_moment_digests(k):
    h = hashlib.sha256()
    for d in (1, 3):
        for n in range(2, MOMENT_MAX_N + 1, 2):
            if n % k:
                continue
            p = ModelParams(d=d, k=k, n=n)
            h.update(repr(exact_first_moment(p)).encode())
            h.update(repr(exact_equitable_first_moment(p)).encode())
            for flips in range(0, n + 1, 2):
                h.update(repr(exact_planted_distance_moment(p, Fraction(flips, n))).encode())
    assert h.hexdigest() == MOMENT_DIGESTS[k]


def test_planted_distance_moment_endpoints():
    p = ModelParams(d=2, k=3, n=12)
    assert exact_planted_distance_moment(p, 0) == 1
    assert exact_planted_distance_moment(p, 1) == 1


def test_planted_distance_moment_matches_enumeration():
    cases = [
        (1, 2, 4, Fraction(1, 2)),
        (2, 2, 4, Fraction(1, 2)),
        (1, 3, 6, Fraction(1, 3)),
        (1, 3, 6, Fraction(2, 3)),
        (2, 2, 6, Fraction(1, 3)),
    ]
    for d, k, n, delta in cases:
        p = ModelParams(d=d, k=k, n=n)
        chi = Coloring.equitable_split(n)
        expected = planted_average_at_distance(p, chi, delta)
        assert exact_planted_distance_moment(p, delta) == expected, (d, k, n, delta)


def test_good_coloring_classification():
    g = four_cycle_graph()
    threshold = exact_equitable_first_moment(ModelParams(d=2, k=2, n=4))
    assert threshold == Fraction(8, 3)
    brute = brute_proper_equitable(g)
    for chi in brute:
        expected = cluster_size(g, chi).value <= threshold
        assert is_good_coloring(g, chi, threshold) == expected
    assert not is_good_coloring(g, Coloring.from_string("1111"), threshold)
    assert not is_good_coloring(g, Coloring.from_string("1000"), threshold)
    assert count_good_colorings(g, threshold).value == sum(
        1 for chi in brute if is_good_coloring(g, chi, threshold)
    )
    # a huge threshold accepts every proper equitable coloring
    assert count_good_colorings(g, 2**4).value == len(brute)


def test_count_report_validation():
    with pytest.raises(ValueError):
        CountReport(-1)


def test_scale_refusals():
    p = ModelParams(d=1, k=2, n=44)
    g = build_hypergraph(random_uniform_images(p, random.Random(0)))
    with pytest.raises(ScaleRefusal):
        count_proper(g)
    with pytest.raises(ScaleRefusal):
        count_proper(g, eps=Fraction(1, 44))
    with pytest.raises(ScaleRefusal):
        exact_first_moment(ModelParams(d=2, k=2, n=26))


def seeded_graph(kind, d, k, n, seed):
    params = ModelParams(d=d, k=k, n=n)
    if kind == "planted":
        chi = Coloring.equitable_split(n)
        return build_hypergraph(sample_planted_hom(params, chi, RngState(seed, 1))), chi
    return build_hypergraph(sample_uniform_hom(params, RngState(seed, 1))), None


def cluster_size_oracle(graph, chi):
    # the two routes cluster_size took before the frontier pass
    radius = cluster_radius(graph.n, graph.k)
    if 4 * radius < graph.n:
        return coloring_search_oracle(graph, equitable=True, ref=chi, diff_max=radius)
    return sum(
        1 for c in coloring_search_oracle(graph, equitable=True, collect=True)
        if sum(a != b for a, b in zip(c, chi)) <= radius
    )


# (4, 3, 24) is the exact-count benchmark shape; k=3 and k=4 clusters take
# the old filter route (4r >= n), k=6 at n=12 the distance-pruned one
@pytest.mark.parametrize("kind,d,k,n,seed", [
    ("uniform", 4, 3, 24, 7),
    ("planted", 4, 3, 24, 7),
    ("uniform", 2, 4, 16, 7),
    ("uniform", 3, 3, 18, 7),
    ("planted", 4, 6, 12, 7),
])
def test_frontier_pass_matches_search_oracle(kind, d, k, n, seed):
    g, chi = seeded_graph(kind, d, k, n, seed)
    for budget in (0, 1, 2):
        assert count_proper(g, Fraction(budget, n)).value == coloring_search_oracle(
            g, budget=budget, halve=True), budget
    equitable = coloring_search_oracle(g, equitable=True, collect=True)
    assert proper_equitable_colorings(g) == equitable
    assert proper_colorings(g) == coloring_search_oracle(g, collect=True)
    assert count_equitable(g).value == coloring_search_oracle(g, equitable=True, halve=True)
    refs = [chi] if chi is not None else [equitable[0], equitable[-1]]
    for ref in refs:
        for flips in range(0, n + 1, 2):
            assert count_at_distance(g, ref, Fraction(flips, n)).value == coloring_search_oracle(
                g, equitable=True, ref=ref, diff_target=flips), flips
        assert cluster_size(g, ref).value == cluster_size_oracle(g, ref)


# (4, 3, 24) is the benchmark shape and (5, 4, 40) the largest count; the
# frontier pass never runs at (20, 6, 120), the core-density shape, which
# only checks the order on long rows of ties
@pytest.mark.parametrize("d,k,n", [(4, 3, 24), (5, 4, 40), (2, 4, 16), (6, 6, 12),
                                   (20, 6, 120)])
def test_frontier_order_matches_rescanning_oracle(d, k, n):
    for seed in range(30):
        for kind in ("uniform", "planted"):
            g, _ = seeded_graph(kind, d, k, n, seed)
            edges, edges_of = edge_lists(g)
            plan, _ = exact_count._frontier_plan(n, k, edges, edges_of)
            assert [v for v, *_ in plan] == frontier_order_oracle(
                n, k, edges, edges_of), (kind, seed)


def test_slot_plan_holds_one_slot_per_open_edge():
    for kind, d, k, n in [("uniform", 4, 3, 24), ("planted", 5, 4, 40), ("uniform", 12, 2, 16)]:
        for seed in range(5):
            g, _ = seeded_graph(kind, d, k, n, seed)
            edges, edges_of = edge_lists(g)
            plan, slots = exact_count._frontier_plan(n, k, edges, edges_of)
            held, colored, peak = set(), [0] * len(edges), 0
            for v, opens, keeps, closes in plan:
                assert set(keeps) | set(closes) <= held
                held -= set(closes)
                assert not held & set(opens) and len(set(opens)) == len(opens)
                held |= set(opens)
                for ei in edges_of[v]:
                    colored[ei] += 1
                peak = max(peak, sum(0 < c < k for c in colored))
            # a closed edge's slot is reused, so no more slots than open edges
            assert not held and slots == peak, (kind, seed)


def frontier_table_cases(n, chi):
    # halve is the oracle's switch: set where the color swap fixes every
    # target and the route does not collect, as the library works it out
    cases = [dict(budget=budget, halve=True) for budget in (0, 1, 2)]
    # budget 1 against the unhalved oracle: the library's halved table is exact
    cases += [dict(budget=1), dict(collect=True),
              dict(targets=[(n // 2, 0)], halve=n % 2 == 0),
              dict(targets=[(n // 2, 0)], collect=True)]
    if n % 2:
        # no equitable chi at odd n
        return cases
    # (n/4, n/4) against an equitable chi is its own swap image
    cases += [dict(targets=[(f, f)], ref=chi, halve=4 * f == n) for f in range(n // 2 + 1)]
    cases += [dict(targets=[(j, j) for j in range(n // 4 + 1)], ref=chi),
              dict(targets=[(2, 1), (0, 3)], ref=chi, budget=2)]
    # the rigidity search's shape: chi on every third vertex, the rest
    # unweighted (ref 2), under a window of targets 1 <= a + b <= n/4
    region_ref = [chi[v] if v % 3 == 0 else 2 for v in range(n)]
    window = [(a, b) for a in range(region_ref.count(0) + 1)
              for b in range(region_ref.count(1) + 1) if 1 <= a + b <= n // 4]
    cases += [dict(targets=window, ref=region_ref, collect=True),
              dict(targets=window, ref=region_ref)]
    return cases


# 32 is the library's word; at 4 slots per word the keys of these small
# shapes take two to ten words. The k=2 draws keep 30 and 32 edges open, so
# at 32 slots per word their counters fill the top of the last word or take
# a word of their own. The odd n = 15 pairs its last vertex with a pad. The
# last three are degenerate: no edges and no slots at d = 0, and one edge
# per generator at d = 1, with a pad vertex at n = 3.
@pytest.mark.parametrize("slots_per_word", [32, 4])
@pytest.mark.parametrize("kind,d,k,n,seed", [
    ("uniform", 4, 3, 24, 1),
    ("uniform", 3, 3, 15, 7),
    ("planted", 4, 3, 24, 2),
    ("uniform", 2, 4, 16, 3),
    ("planted", 3, 3, 18, 4),
    ("planted", 4, 6, 12, 5),
    ("uniform", 2, 2, 8, 6),
    ("planted", 10, 2, 16, 1),
    ("planted", 12, 2, 16, 2),
    ("uniform", 0, 3, 6, 1),
    ("uniform", 1, 3, 3, 1),
    ("planted", 1, 3, 6, 1),
])
def test_frontier_table_matches_dict_oracle(monkeypatch, slots_per_word, kind, d, k, n, seed):
    monkeypatch.setattr(exact_count, "SLOTS_PER_WORD", slots_per_word)
    g, chi = seeded_graph(kind, d, k, n, seed)
    if chi is None and n % 2 == 0:
        chi = proper_equitable_colorings(g)[-1]
    for case in frontier_table_cases(n, chi):
        table = exact_count._frontier_table(
            g, **{key: value for key, value in case.items() if key != "halve"})
        if case.get("collect"):
            table = list(table)
        else:
            assert all(type(value) is int for value in table.values()), case
        assert table == frontier_table_oracle(g, **case), case


def test_counts_are_python_ints():
    g, chi = seeded_graph("planted", 4, 3, 24, 1)
    reports = [count_proper(g), count_proper(g, Fraction(1, 24)), count_equitable(g),
               count_at_distance(g, chi, Fraction(1, 4)), cluster_size(g, chi)]
    assert [type(report.value) for report in reports] == [int] * 5
    assert all(report.value > 0 for report in reports)


def test_frontier_table_refuses_beyond_int64_values(monkeypatch):
    def no_work(*args):
        raise AssertionError("the pass started")

    monkeypatch.setattr(exact_count, "_frontier_plan", no_work)
    g = build_hypergraph(random_uniform_images(ModelParams(d=1, k=2, n=64), random.Random(0)))
    with pytest.raises(ScaleRefusal, match="n <= 62, got n=64"):
        exact_count._frontier_table(g)


# sha256 of the exact-count benchmark draws' counts (seed 1, streams 1..120:
# odd streams count_proper of a uniform draw, even ones count_at_distance
# 1/4 of a planted draw), recorded with the backtracking search
EXACT_COUNT_DRAWS_DIGEST = "b908956905696f229f01afacab0eaa8c7d1a4c70cd0bb1e58c1adc6ee6a44c2b"


def test_exact_count_draws_digest():
    params = ModelParams(d=4, k=3, n=24)
    chi = Coloring.equitable_split(24)
    h = hashlib.sha256()
    for stream in range(1, 121):
        if stream % 2:
            g = build_hypergraph(sample_uniform_hom(params, RngState(1, stream)))
            value = count_proper(g).value
        else:
            g = build_hypergraph(sample_planted_hom(params, chi, RngState(1, stream)))
            value = count_at_distance(g, chi, Fraction(1, 4)).value
        h.update(b"%d\n" % value)
    assert h.hexdigest() == EXACT_COUNT_DRAWS_DIGEST


def test_distance_counts_cover_every_reach_target():
    # the planted benchmark draws at every even flip count: together they
    # are the equitable count, and those within the cluster radius (8 at
    # this shape) are the cluster size
    params = ModelParams(d=4, k=3, n=24)
    chi = Coloring.equitable_split(24)
    radius = cluster_radius(24, 3)
    for stream in range(2, 121, 2):
        g = build_hypergraph(sample_planted_hom(params, chi, RngState(1, stream)))
        by_flips = [count_at_distance(g, chi, Fraction(f, 24)).value for f in range(0, 25, 2)]
        assert sum(by_flips) == count_equitable(g).value, stream
        assert cluster_size(g, chi).value == sum(by_flips[:radius // 2 + 1]), stream


def test_count_proper_pinned_beyond_benchmark_shape():
    # recorded with the backtracking search, which took seconds here
    g = build_hypergraph(sample_uniform_hom(ModelParams(d=3, k=4, n=24), RngState(2, 1)))
    assert count_proper(g).value == 1661782


# the two instances at the largest scale PROPER_SEARCH_MAX_N admits, both
# recorded with the dict-of-states pass (frontier_table_oracle): the uniform
# count keeps at most 28 edges open, the planted one 33, so its keys take
# two words
def test_count_proper_pinned_at_largest_shape():
    g = build_hypergraph(sample_uniform_hom(ModelParams(d=5, k=4, n=40), RngState(2, 1)))
    assert count_proper(g).value == 3_107_177_398


def test_count_at_distance_pinned_at_largest_shape():
    g, chi = seeded_graph("planted", 5, 4, 40, 2)
    assert count_at_distance(g, chi, Fraction(1, 4)).value == 3_913_697


def test_count_good_colorings_forwards_max_n(monkeypatch):
    monkeypatch.setattr(exact_count, "PROPER_SEARCH_MAX_N", 8)
    monkeypatch.setattr(exact_count, "GOOD_SEARCH_MAX_N", 8)
    p = ModelParams(d=4, k=3, n=12)
    g = build_hypergraph(random_uniform_images(p, random.Random(1)))
    with pytest.raises(ScaleRefusal):
        count_good_colorings(g, 22)
    # the bounds are module constants; widen both to n for the comparison
    monkeypatch.setattr(exact_count, "PROPER_SEARCH_MAX_N", 12)
    monkeypatch.setattr(exact_count, "GOOD_SEARCH_MAX_N", 12)
    brute = brute_proper_equitable(g)
    radius = cluster_radius(12, 3)
    expected = sum(
        1 for chi in brute
        if sum(hamming_distance(c, chi) * 12 <= radius for c in brute) <= 22
    )
    # 26 of the 62 proper equitable colorings have clusters of at most 22
    assert 0 < expected < len(brute)
    assert count_good_colorings(g, 22).value == expected
