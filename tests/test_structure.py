"""Core peeling, rigid-set density, expansivity, and rigidity searches."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    expansivity_exhaustive_oracle,
    expansivity_greedy_oracle,
    rigidity_search_oracle,
)

from sofic_lab._errors import ScaleRefusal
from sofic_lab.group_model import ModelParams
from sofic_lab.hypergraph import (
    Coloring,
    LabeledHypergraph,
    build_hypergraph,
    critical_edges,
    monochromatic_edge_count,
)
from sofic_lab import exact_count, structure
from sofic_lab.harness import load_instance
from sofic_lab.samplers import RngState, sample_planted_hom
from sofic_lab.structure import (
    CoreLevel,
    core_decomposition,
    core_decomposition_reference,
    density_report,
    expansivity_scan,
    rigidity_violation_search,
)

EMPTY = frozenset()
FIXTURES = Path(__file__).parent / "fixtures"


def _no_critical_instance():
    # Both edges are split 2/2, so no vertex is alone in its color.
    graph = LabeledHypergraph(8, 4, 1, [[(0, 1, 2, 3), (4, 5, 6, 7)]])
    chi = Coloring((1, 1, 0, 0, 1, 1, 0, 0))
    return graph, chi


def _degree_two_instance():
    graph = LabeledHypergraph(
        6, 3, 2, [[(0, 1, 2), (3, 4, 5)], [(0, 2, 4), (1, 3, 5)]]
    )
    chi = Coloring((1, 1, 0, 1, 0, 0))
    return graph, chi


def _small_core_instance():
    # Vertex 0 supports one edge per label; everything else supports at most one.
    graph = LabeledHypergraph(
        6,
        3,
        3,
        [
            [(0, 1, 2), (3, 4, 5)],
            [(0, 1, 4), (2, 3, 5)],
            [(0, 2, 4), (1, 3, 5)],
        ],
    )
    chi = Coloring((1, 0, 0, 1, 0, 1))
    return graph, chi


def _crowded_pair_instance():
    # Five labels all route an edge through {0, 1}, so that pair owns five
    # supported edges meeting it twice: excess 5 - 4 = 1.
    blocks = {0: (0, 1, 2), 1: (0, 1, 3)}
    rests = {0: (3, 4, 5), 1: (2, 4, 5)}
    labels = [[blocks[pick], rests[pick]] for pick in (0, 1, 0, 1, 0)]
    graph = LabeledHypergraph(6, 3, 5, labels)
    chi = Coloring((1, 0, 0, 0, 1, 1))
    return graph, chi


def _planted_graph(k, d, n, seed):
    params = ModelParams(d=d, k=k, n=n)
    chi = Coloring.equitable_split(n)
    hom = sample_planted_hom(params, chi, RngState(seed))
    return build_hypergraph(hom), chi


def _assert_same_decomposition(graph, chi, l_max=None):
    fast = core_decomposition(graph, chi, l_max=l_max)
    slow = core_decomposition_reference(
        graph.n, graph.k, [e for _, e in graph.edges], chi, l_max=l_max
    )
    assert fast.levels == slow.levels
    assert fast.stabilized_at == slow.stabilized_at
    return fast


def test_no_critical_edges_gives_empty_first_level():
    graph, chi = _no_critical_instance()
    assert critical_edges(graph, chi)[1].tolist() == []
    dec = _assert_same_decomposition(graph, chi)
    assert dec.levels[0] == CoreLevel(frozenset(range(8)), EMPTY, EMPTY)
    assert dec.level(1) == CoreLevel(EMPTY, EMPTY, EMPTY)
    assert dec.stabilized_at == 1
    assert density_report(graph, chi, 0) == 1
    assert density_report(graph, chi, 1) == 0


def test_degree_two_core_is_empty():
    graph, chi = _degree_two_instance()
    dec = _assert_same_decomposition(graph, chi)
    fringe = frozenset({0, 2, 3, 5})
    assert dec.level(1) == CoreLevel(EMPTY, fringe, fringe)
    assert dec.level(2) == CoreLevel(EMPTY, EMPTY, EMPTY)
    assert dec.stabilized_at == 2
    assert dec.rigid_set(1) == EMPTY
    assert density_report(graph, chi, 1) == 0


def test_small_core_instance_levels():
    graph, chi = _small_core_instance()
    dec = _assert_same_decomposition(graph, chi)
    fringe = frozenset({1, 2, 4})
    assert dec.level(1) == CoreLevel(frozenset({0}), fringe, fringe)
    assert dec.level(2) == CoreLevel(EMPTY, EMPTY, EMPTY)
    assert dec.stabilized_at == 2
    assert dec.rigid_set(1) == frozenset({0})
    assert density_report(graph, chi, 1) == Fraction(1, 6)
    # Clamping past the stabilization point is allowed.
    assert dec.level(50) == dec.levels[-1]
    assert density_report(graph, chi, 50) == 0


def test_level_budget_without_stabilization():
    graph, chi = _small_core_instance()
    dec = core_decomposition(graph, chi, l_max=1)
    assert len(dec.levels) == 2
    assert dec.stabilized_at is None
    with pytest.raises(ValueError, match="never stabilized"):
        dec.level(5)
    with pytest.raises(ValueError, match="nonnegative"):
        dec.level(-1)


def test_decomposition_validation():
    graph, chi = _small_core_instance()
    with pytest.raises(ValueError, match="proper"):
        core_decomposition(graph, Coloring((1, 1, 1, 0, 0, 0)))
    with pytest.raises(ValueError, match="entries"):
        core_decomposition(graph, Coloring((0, 1)))
    with pytest.raises(ValueError, match="l_max"):
        core_decomposition(graph, chi, l_max=-1)
    # the level budget is checked before any edge is read
    with pytest.raises(ValueError, match="l_max"):
        core_decomposition(graph, Coloring((1, 1, 1, 0, 0, 0)), l_max=-1)
    pair_graph = LabeledHypergraph(4, 2, 1, [[(0, 1), (2, 3)]])
    with pytest.raises(ValueError, match="k >= 3"):
        core_decomposition(pair_graph, Coloring((0, 1, 0, 1)))
    with pytest.raises(ValueError, match="k >= 3"):
        core_decomposition_reference(4, 2, [(0, 1), (2, 3)], Coloring((0, 1, 0, 1)))
    with pytest.raises(ValueError, match="k-set"):
        core_decomposition_reference(6, 3, [(0, 1)], chi)
    with pytest.raises(ValueError, match="proper"):
        core_decomposition_reference(3, 3, [(0, 1, 2)], Coloring((1, 1, 1)))


def test_each_critical_edge_has_one_support():
    for seed in range(10):
        graph, chi = _planted_graph(3, 3, 12, seed)
        rows, owner = critical_edges(graph, chi)
        # one row per critical edge, in edge-number order
        critical = [edge for _, edge in graph.edges
                    if min(sum(chi[v] == c for v in edge) for c in (0, 1)) == 1]
        assert list(map(tuple, rows.tolist())) == critical
        for edge, v in zip(critical, owner.tolist()):
            assert v in edge
            assert all(chi[u] != chi[v] for u in edge if u != v)


@pytest.mark.parametrize("l_max", [None, 1, 4])
def test_array_peeling_matches_reference_on_planted_instances(l_max):
    # level 4 is the one the core-density benchmark peels to
    for seed in range(20):
        graph, chi = _planted_graph(6, 20, 120, seed)
        dec = _assert_same_decomposition(graph, chi, l_max)
        for earlier, later in zip(dec.levels, dec.levels[1:]):
            assert later.core <= earlier.core
        for level in dec.levels:
            assert level.attached_overlap <= level.attached
            assert not (level.attached & level.core)
    for seed in range(20):
        graph, chi = _planted_graph(3, 3, 12, seed)
        _assert_same_decomposition(graph, chi, l_max)
        graph, chi = _planted_graph(4, 4, 16, seed)
        _assert_same_decomposition(graph, chi, l_max)


def test_expansivity_singletons_never_count():
    graph, chi = _small_core_instance()
    report = expansivity_scan(graph, chi, t_max=1)
    assert report.exhaustive_max_excess == -2
    assert report.violations == ()
    assert len(report.exhaustive_witness) == 1


def test_expansivity_without_critical_edges():
    graph, chi = _no_critical_instance()
    report = expansivity_scan(graph, chi, t_max=2, random_trials=5)
    assert report.exhaustive_max_excess == -2
    assert report.violations == ()
    # No supported edges means nothing to seed the greedy phase with.
    assert report.random_trials == 0
    assert report.random_max_excess is None


def test_expansivity_finds_crowded_pair():
    graph, chi = _crowded_pair_instance()
    assert monochromatic_edge_count(graph, chi) == 0
    report = expansivity_scan(graph, chi, t_max=2)
    assert report.exhaustive_max_excess == 1
    assert report.exhaustive_witness == frozenset({0, 1})
    assert report.violations == (frozenset({0, 1}),)
    # cluster_radius(6, 3) == 2 does not exceed t_max, so no random phase.
    assert report.size_cap == 2
    assert report.random_trials == 0
    _assert_same_decomposition(graph, chi)


def test_expansivity_planted_instances_are_clean():
    for seed in range(5):
        graph, chi = _planted_graph(6, 20, 60, seed)
        report = expansivity_scan(graph, chi, t_max=3)
        assert report.exhaustive_max_excess <= 0
        assert report.violations == ()
        assert report.size_cap == 7


def test_expansivity_takes_rng_state_or_generator_only():
    graph, chi = _planted_graph(6, 20, 60, 3)
    for seed in (11, 12):
        assert expansivity_scan(
            graph, chi, t_max=2, random_trials=4, rng=RngState(seed)
        ) == expansivity_scan(
            graph, chi, t_max=2, random_trials=4, rng=RngState(seed).generator())
    with pytest.raises(TypeError, match="RngState or numpy Generator"):
        expansivity_scan(graph, chi, t_max=2, random_trials=4, rng=11)


def test_expansivity_random_phase_is_deterministic():
    graph, chi = _planted_graph(6, 20, 60, 3)
    first = expansivity_scan(graph, chi, t_max=2, random_trials=4, rng=RngState(11))
    second = expansivity_scan(graph, chi, t_max=2, random_trials=4, rng=RngState(11))
    assert first == second
    assert first.random_trials == 4
    assert first.random_max_excess is not None
    assert first.random_max_excess <= 0
    assert 2 < len(first.random_witness) <= first.size_cap or (
        len(first.random_witness) == 2
    )


# (k, d, n): sparse planted instances with no violations, then dense ones
# with 26-110 violations each at t_max=3. On the dense shapes t_max 4 and 5
# reach the splits with two or more outside vertices or three co-members.
SPARSE_SCAN_SHAPES = [(6, 20, 60), (3, 8, 30), (4, 12, 24), (6, 30, 60)]
DENSE_SCAN_SHAPES = [(3, 12, 12), (4, 20, 12), (3, 16, 18)]


def _assert_scan_matches_oracle(graph, chi, t_max):
    report = expansivity_scan(graph, chi, t_max)
    assert (
        report.exhaustive_max_excess,
        report.exhaustive_witness,
        report.violations,
    ) == expansivity_exhaustive_oracle(graph, chi, t_max)


@pytest.mark.parametrize(
    "shapes, seeds, t_maxes",
    [(SPARSE_SCAN_SHAPES, range(6), (1, 2, 3)), (DENSE_SCAN_SHAPES, range(4), (1, 2, 3, 4, 5))],
    ids=["sparse", "dense"],
)
def test_expansivity_scan_matches_full_walk_oracle(shapes, seeds, t_maxes):
    for k, d, n in shapes:
        for seed in seeds:
            graph, chi = _planted_graph(k, d, n, seed)
            for t_max in t_maxes:
                _assert_scan_matches_oracle(graph, chi, t_max)


def test_expansivity_scan_exact_where_base_n_codes_overflow():
    # 18^16 > 2^63, so a set coded as a base-n integer would wrap; its
    # lexicographic rank stays below C(18, 9). Over 160,000 violations.
    graph, chi = _planted_graph(3, 9, 18, 0)
    _assert_scan_matches_oracle(graph, chi, 16)


# (n, k, d, trials): planted shapes whose cluster radius, 4 to 60, exceeds
# t_max = 2, so the greedy phase runs every trial
GREEDY_SCAN_SHAPES = [(30, 3, 8, 4), (12, 3, 12, 4), (60, 6, 20, 4), (120, 6, 20, 4),
                      (48, 4, 6, 4), (90, 3, 5, 4)]


@pytest.mark.parametrize(
    "n, k, d, trials, seeds",
    [shape + (range(3),) for shape in GREEDY_SCAN_SHAPES] + [(240, 4, 12, 1, [0])],
    ids=["n%d-k%d-d%d" % shape[:3] for shape in GREEDY_SCAN_SHAPES] + ["n240-k4-d12"],
)
def test_expansivity_greedy_phase_matches_dict_oracle(n, k, d, trials, seeds):
    for seed in seeds:
        graph, chi = _planted_graph(k, d, n, seed)
        gen, oracle_gen = RngState(seed, 1).generator(), RngState(seed, 1).generator()
        assert expansivity_scan(graph, chi, 2, trials, gen) == expansivity_greedy_oracle(
            graph, chi, 2, trials, oracle_gen), seed
        # both leave the generator at the same draw
        assert gen.integers(1 << 62) == oracle_gen.integers(1 << 62), seed


def test_expansivity_validation():
    graph, chi = _planted_graph(6, 20, 60, 0)
    with pytest.raises(ValueError, match="t_max"):
        expansivity_scan(graph, chi, t_max=0)
    with pytest.raises(ValueError, match="t_max"):
        expansivity_scan(graph, chi, t_max=61)
    with pytest.raises(ValueError, match="random_trials"):
        expansivity_scan(graph, chi, t_max=2, random_trials=-3)
    with pytest.raises(ScaleRefusal) as err:
        expansivity_scan(graph, chi, t_max=10)
    assert err.value.count == sum(math.comb(60, t) for t in range(1, 11))


def test_expansivity_refuses_before_support_tables(monkeypatch):
    graph, chi = _planted_graph(6, 20, 60, 0)

    def no_edges(*args):
        raise AssertionError("supported edges read before the argument checks")

    monkeypatch.setattr(structure, "critical_edges", no_edges)
    with pytest.raises(ValueError, match="t_max"):
        expansivity_scan(graph, chi, t_max=0)
    with pytest.raises(ValueError, match="random_trials"):
        expansivity_scan(graph, chi, t_max=2, random_trials=-1)
    with pytest.raises(ScaleRefusal):
        expansivity_scan(graph, chi, t_max=10)


def _no_pass(monkeypatch):
    def no_work(*args):
        raise AssertionError("the pass started")

    monkeypatch.setattr(exact_count, "_frontier_plan", no_work)


def test_rigidity_empty_region_and_vacuous_threshold(monkeypatch):
    _no_pass(monkeypatch)
    graph, chi = _small_core_instance()
    assert rigidity_violation_search(graph, chi, (), Fraction(1, 10)) is None
    # rho above 2^(-k/2) makes the window empty: ceil(rho*n) >= 3 > 2 = cluster_radius(6, 3)
    everything = range(6)
    assert rigidity_violation_search(graph, chi, everything, Fraction(9, 10)) is None
    assert rigidity_violation_search(graph, chi, everything, Fraction(9, 25)) is None


def test_rigidity_refuses_beyond_moment_scale_before_any_pass(monkeypatch):
    _no_pass(monkeypatch)
    graph, chi = _planted_graph(3, 2, 30, 0)
    with pytest.raises(ScaleRefusal, match="rigidity_violation_search supports n <= 24, got n=30"):
        rigidity_violation_search(graph, chi, range(30), Fraction(1, 30))


def test_rigidity_search_matches_per_coloring_oracle():
    # fixtures 00-05 (n <= 18): the distinct rigid sets of levels 0-2 and
    # one seeded random third of the vertices, at rho = 1/n, 1/2, 1/4, 1/8
    rng = random.Random(16)
    found = []
    for path in sorted(FIXTURES.glob("rigidity_0[0-5]_*.json")):
        hom, chi = load_instance(str(path))
        graph = build_hypergraph(hom)
        decomposition = core_decomposition(graph, chi)
        regions = {decomposition.rigid_set(level) for level in range(3)}
        regions.add(frozenset(rng.sample(range(graph.n), graph.n // 3)))
        for region in sorted(regions, key=sorted):
            for rho in (Fraction(1, graph.n), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                result = rigidity_violation_search(graph, chi, region, rho)
                assert result == rigidity_search_oracle(graph, chi, region, rho), (path.name, rho)
                found.append(result is not None)
    assert len(found) == 80 and 0 < sum(found) < len(found)


def test_rigidity_search_builds_only_its_witness(monkeypatch):
    # fixture 08 at level 0 and rho 1/24 has 24,463 proper colorings in its
    # window; the search returns the first and builds no Coloring for the rest
    hom, chi = load_instance(str(FIXTURES / "rigidity_08_n24_k3_d2.json"))
    graph = build_hypergraph(hom)
    region = core_decomposition(graph, chi).rigid_set(0)
    rho = Fraction(1, 24)
    expected = rigidity_search_oracle(graph, chi, region, rho)
    built = []

    class CountingColoring(Coloring):
        __slots__ = ()

        def __init__(self, bits):
            built.append(bits)
            super().__init__(bits)

    monkeypatch.setattr(exact_count, "Coloring", CountingColoring)
    witness = rigidity_violation_search(graph, chi, region, rho)
    assert len(built) <= 1
    assert expected is not None and witness == expected


def test_rigidity_witness_on_loose_instance():
    graph, chi = _no_critical_instance()
    witness = rigidity_violation_search(graph, chi, range(8), Fraction(1, 8))
    assert witness is not None
    assert monochromatic_edge_count(graph, witness) == 0
    moved = sum(1 for v in range(8) if chi[v] != witness[v])
    assert 1 <= moved <= 2

    partial = rigidity_violation_search(graph, chi, (0, 1), Fraction(1, 8))
    assert partial is not None
    moved = sum(1 for v in (0, 1) if chi[v] != partial[v])
    assert 1 <= moved <= 2


def test_rigidity_search_agrees_with_float_window():
    from sofic_lab.exact_count import proper_colorings

    cases = [
        (_small_core_instance(), (0,), Fraction(1, 6)),
        (_small_core_instance(), range(6), Fraction(1, 6)),
        (_small_core_instance(), range(6), Fraction(1, 3)),
        (_no_critical_instance(), range(8), Fraction(1, 8)),
        (_no_critical_instance(), (0, 4), Fraction(1, 4)),
    ]
    for (graph, chi), region, rho in cases:
        result = rigidity_violation_search(graph, chi, region, rho)
        upper = graph.n * 2 ** (-graph.k / 2)
        hits = [
            cand
            for cand in proper_colorings(graph)
            if rho * graph.n
            <= sum(1 for v in region if chi[v] != cand[v])
            <= upper
        ]
        assert (result is None) == (not hits)
        if result is not None:
            assert any(cand.bits == result.bits for cand in hits)


def test_rigidity_validation():
    graph, chi = _small_core_instance()
    with pytest.raises(ValueError, match="rho"):
        rigidity_violation_search(graph, chi, range(6), 0)
    with pytest.raises(ValueError, match="region"):
        rigidity_violation_search(graph, chi, (0, 9), Fraction(1, 6))
    with pytest.raises(ValueError, match="proper"):
        rigidity_violation_search(
            graph, Coloring((1, 1, 1, 0, 0, 0)), range(6), Fraction(1, 6)
        )
