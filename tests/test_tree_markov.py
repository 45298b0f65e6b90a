"""Tree windows: pattern counting, exact sampling, pullbacks, core status."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import (
    attach_order_oracle,
    core_density_colors_oracle,
    core_density_objects_oracle,
    count_proper_patterns_brute,
    pullback_pattern,
    pullback_vertex_map,
    random_uniform_images,
    restricted_pattern,
)
from scipy import stats

from sofic_lab._errors import ScaleRefusal
from sofic_lab.analytics import core_fixed_point
from sofic_lab.group_model import (
    IDENTITY,
    ModelParams,
    evaluate_word,
    word_inverse,
    word_product,
)
from sofic_lab.hypergraph import Coloring, build_hypergraph
from sofic_lab.samplers import RngState, sample_planted_hom
from sofic_lab import tree_markov
from sofic_lab.structure import density_report
from sofic_lab.tree_markov import (
    TreeDomain,
    ball_element_count,
    build_ball,
    core_density_estimate,
    count_proper_patterns,
    cylinder_probability,
    enumerate_proper_patterns,
    local_convergence_stat,
    local_pattern_census,
    sample_proper_pattern,
    single_edge_domain,
)


def binomial_tail(n, p, j_min):
    """Exact P(Bin(n, p) >= j_min) as a fraction; oracle for the sampler."""
    p = Fraction(p)
    return sum(
        math.comb(n, j) * p ** j * (1 - p) ** (n - j)
        for j in range(j_min, n + 1)
    )


def _planted(k, d, n, seed):
    params = ModelParams(d=d, k=k, n=n)
    chi = Coloring.equitable_split(n)
    hom = sample_planted_hom(params, chi, RngState(seed))
    return hom, chi


def _is_proper(pattern, domain):
    """Per-edge properness of a 0/1 tuple in domain.elements order: the
    oracle's own test, kept apart from the library's array test."""
    return all(
        len({pattern[domain.index(w)] for w in members}) > 1
        for _, members in domain.edges
    )


def test_ball_shapes():
    p32 = ModelParams(d=2, k=3, n=6)
    singleton = build_ball(p32, 0)
    assert singleton.elements == (IDENTITY,)
    assert singleton.edges == ()

    ball1 = build_ball(p32, 1)
    assert len(ball1) == 5 == ball_element_count(2, 3, 1)
    assert len(ball1.edges) == 2

    ball2 = build_ball(p32, 2)
    assert len(ball2) == 13 == ball_element_count(2, 3, 2)
    assert len(ball2.edges) == 6
    assert set(ball1.elements) <= set(ball2.elements)

    assert len(build_ball(ModelParams(d=3, k=3, n=6), 1)) == 7

    # A single generator has one coset; deeper balls stop growing.
    p1 = ModelParams(d=1, k=4, n=8)
    assert len(build_ball(p1, 2)) == 4 == ball_element_count(1, 4, 2)
    assert len(build_ball(p1, 2).edges) == 1


def test_ball_budget():
    params = ModelParams(d=5, k=3, n=6)
    count = ball_element_count(5, 3, 6)
    assert count == 374491
    with pytest.raises(ScaleRefusal) as err:
        build_ball(params, 6)
    assert err.value.count == count
    assert len(build_ball(params, 2)) == ball_element_count(5, 3, 2)


def test_domain_validation():
    params = ModelParams(d=2, k=3, n=6)
    s0 = ((0, 1),)
    s1 = ((1, 1),)
    far = word_product(params, s0, s1, s0)
    with pytest.raises(ValueError, match="connected"):
        TreeDomain(params, [(0, IDENTITY), (1, far)])
    for label in (-1, 2):
        with pytest.raises(ValueError, match="edge label %d out of range 0..1" % label):
            TreeDomain(params, [(label, IDENTITY)])
    # pairs naming one coset give one edge
    dom = TreeDomain(params, [(0, IDENTITY), (0, s0)])
    assert len(dom.edges) == 1
    singleton = TreeDomain(params, [])
    assert (singleton.elements, singleton.edges, singleton.attach_at) == ((IDENTITY,), (), ())


def test_coset_through_any_member_is_the_edge():
    ball = build_ball(ModelParams(d=3, k=4, n=4), 3)
    assert len(ball.edges) == 3 + 3 * 2 * 3 + 3 * 2 * 3 * 2 * 3
    for label, members in ball.edges:
        for member in members:
            assert tree_markov._coset(4, label, member) == members


def _attach_outcome(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("d,k,radius", [(1, 4, 2), (2, 3, 5), (3, 3, 5), (2, 4, 5), (4, 3, 4),
                                        (3, 5, 3)])
def test_attach_order_matches_rescanning_oracle(d, k, radius):
    params = ModelParams(d=d, k=k, n=k)
    for radius in range(radius + 1):
        ball = build_ball(params, radius)
        assert (ball.edges, ball.attach_at) == attach_order_oracle(ball.edges), radius


def test_attach_order_errors_match_rescanning_oracle():
    params = ModelParams(d=2, k=3, n=6)
    s0 = ((0, 1),)
    s0_sq = ((0, 2),)
    s1 = ((1, 1),)
    s1_sq = ((1, 2),)
    far = word_product(params, s0, s1, s0)
    far_coset = (far, word_product(params, far, s1), word_product(params, far, s1_sq))
    # the far coset is an edge of the radius-4 ball, apart from the radius-2 one
    ball = build_ball(params, 2)
    for edges in ([(0, (IDENTITY, s0, s0_sq)), (1, far_coset)],
                  list(ball.edges) + [(1, far_coset)]):
        generators = [(label, members[0]) for label, members in edges]
        outcome = _attach_outcome(lambda: TreeDomain(params, generators))
        assert outcome == _attach_outcome(lambda: attach_order_oracle(edges))
        assert "not connected" in outcome


def test_count_matches_brute_oracle():
    p32 = ModelParams(d=2, k=3, n=6)
    cases = [
        build_ball(p32, 0),
        single_edge_domain(p32),
        TreeDomain(p32, [(0, IDENTITY), (1, IDENTITY)]),
        build_ball(p32, 2),
        build_ball(ModelParams(d=3, k=3, n=6), 1),
        build_ball(ModelParams(d=2, k=4, n=8), 1),
        single_edge_domain(ModelParams(d=1, k=2, n=4)),
    ]
    for domain in cases:
        assert count_proper_patterns(domain) == count_proper_patterns_brute(domain)

    assert count_proper_patterns(build_ball(p32, 0)) == 2
    assert count_proper_patterns(single_edge_domain(p32)) == 6
    two_edges = TreeDomain(p32, [(0, IDENTITY), (1, IDENTITY)])
    assert count_proper_patterns(two_edges) == 6 * 3
    assert count_proper_patterns(build_ball(p32, 2)) == 6 * 3 ** 5
    assert (
        count_proper_patterns(single_edge_domain(ModelParams(d=1, k=2, n=4))) == 2
    )

    s0 = ((0, 1),)
    three_edges = TreeDomain(
        p32, [(0, IDENTITY), (1, IDENTITY), (1, s0)]
    )
    assert count_proper_patterns(three_edges) == 54
    assert count_proper_patterns_brute(three_edges) == 54

    with pytest.raises(ScaleRefusal):
        count_proper_patterns_brute(build_ball(ModelParams(d=4, k=3, n=6), 2))


def test_cylinder_probabilities():
    p32 = ModelParams(d=2, k=3, n=6)
    singleton = build_ball(p32, 0)
    for bit in (0, 1):
        assert cylinder_probability(singleton, (bit,)) == Fraction(1, 2)

    edge = single_edge_domain(p32)
    patterns = list(enumerate_proper_patterns(edge))
    assert len(patterns) == 6
    total = sum(cylinder_probability(edge, xi) for xi in patterns)
    assert total == 1
    for xi in patterns:
        assert cylinder_probability(edge, xi) == Fraction(1, 6)

    with pytest.warns(UserWarning, match="improper"):
        assert cylinder_probability(edge, (1, 1, 1)) == 0

    with pytest.raises(ValueError, match="cover"):
        cylinder_probability(edge, (1,))
    with pytest.raises(ValueError, match="pattern values must be 0 or 1"):
        cylinder_probability(edge, (0, 2, 1))


def test_sampler_is_uniform():
    # chi^2 against the flat distribution, at the largest Q the invariant
    # covers and at two small ones.
    plans = [
        (build_ball(ModelParams(d=4, k=3, n=6), 1), 162, 10 ** 6, 7),
        (single_edge_domain(ModelParams(d=2, k=3, n=6)), 6, 10 ** 5, 8),
        (
            TreeDomain(
                ModelParams(d=2, k=3, n=6), [(0, IDENTITY), (1, IDENTITY)]
            ),
            18,
            10 ** 5,
            9,
        ),
    ]
    for domain, q, draws, seed in plans:
        assert count_proper_patterns(domain) == q
        gen = RngState(seed).generator()
        counts = Counter()
        for _ in range(draws):
            counts[sample_proper_pattern(domain, gen)] += 1
        assert len(counts) == q
        result = stats.chisquare(list(counts.values()))
        assert result.pvalue > 1e-3, (q, result.pvalue)
        if q <= 18:
            assert set(counts) == set(enumerate_proper_patterns(domain))


def test_sampler_k2_edge():
    domain = single_edge_domain(ModelParams(d=1, k=2, n=4))
    gen = RngState(3).generator()
    seen = Counter()
    for _ in range(200):
        seen[sample_proper_pattern(domain, gen)] += 1
    assert set(seen) == {(0, 1), (1, 0)}


def test_sampler_takes_rng_state_or_generator_only():
    domain = build_ball(ModelParams(d=2, k=3, n=6), 1)
    for seed in range(4):
        assert sample_proper_pattern(domain, RngState(seed)) == sample_proper_pattern(
            domain, RngState(seed).generator())
    with pytest.raises(TypeError, match="RngState or numpy Generator"):
        sample_proper_pattern(domain, 5)


def test_sampler_refuses_k_beyond_int64_before_drawing():
    # an edge's completion draw has modulus 2^(k-1) - 1, which fits int64
    # up to k = 64; a singleton domain draws only the identity's bit
    gen = RngState(0).generator()
    start = repr(gen.bit_generator.state)
    with pytest.raises(ValueError, match="pattern sampling needs k <= 64"):
        sample_proper_pattern(single_edge_domain(ModelParams(d=1, k=66, n=66)), gen)
    assert repr(gen.bit_generator.state) == start
    edge = single_edge_domain(ModelParams(d=1, k=64, n=64))
    xi = sample_proper_pattern(edge, gen)
    assert len(xi) == 64 and 0 < sum(xi) < 64
    singleton = build_ball(ModelParams(d=1, k=66, n=66), 0)
    assert sample_proper_pattern(singleton, gen) in {(0,), (1,)}


def test_markov_consistency_radius2_vs_radius1():
    params = ModelParams(d=2, k=3, n=6)
    small = build_ball(params, 1)
    big = build_ball(params, 2)
    draws = 10 ** 5
    gen_big = RngState(41).generator()
    gen_small = RngState(42).generator()
    from_big = Counter()
    direct = Counter()
    for _ in range(draws):
        from_big[restricted_pattern(sample_proper_pattern(big, gen_big), big, small)] += 1
        direct[sample_proper_pattern(small, gen_small)] += 1
    keys = set(from_big) | set(direct)
    assert len(keys) == 18
    tv = sum(abs(from_big[key] - direct[key]) for key in keys) / (2 * draws)
    assert tv < 0.01
    flat = Fraction(1, 18)
    tv_exact = sum(
        abs(Fraction(from_big[key], draws) - flat) for key in keys
    ) / 2
    assert tv_exact < 0.01


def test_pullback_singleton_and_equivariance():
    hom, chi = _planted(3, 2, 30, 5)
    params = hom.params
    singleton = build_ball(params, 0)
    for v in range(params.n):
        assert pullback_pattern(hom, chi, v, singleton) == (chi[v],)

    domain = build_ball(params, 1)
    probes = build_ball(params, 2).elements
    gen = RngState(6).generator()
    for _ in range(40):
        g = probes[int(gen.integers(len(probes)))]
        v = int(gen.integers(params.n))
        shifted = pullback_pattern(hom, chi, evaluate_word(hom, g, v), domain)
        for h in domain.elements:
            word = word_product(params, word_inverse(params, h), g)
            assert shifted[domain.index(h)] == chi[evaluate_word(hom, word, v)]


def test_pullback_injectivity_and_properness():
    hom, chi = _planted(3, 2, 120, 11)
    domain = build_ball(hom.params, 1)
    injective = 0
    for v in range(hom.params.n):
        window = pullback_vertex_map(hom, v, domain)
        assert window[IDENTITY] == v
        if len(set(window.values())) == len(window):
            injective += 1
            assert _is_proper(pullback_pattern(hom, chi, v, domain), domain)
    census = local_pattern_census(hom, chi, domain)
    assert census.noninjective_count == hom.params.n - injective
    assert sum(census.counts.values()) + census.improper_count == hom.params.n
    assert sum(census.frequency(p) for p in census.counts) <= 1


def test_census_keys_are_proper_patterns():
    hom, chi = _planted(3, 2, 600, 1)
    for domain in (single_edge_domain(hom.params), build_ball(hom.params, 1)):
        census = local_pattern_census(hom, chi, domain)
        assert census.counts
        assert set(census.counts) <= set(enumerate_proper_patterns(domain))


def test_pullback_refuses_a_domain_of_another_k():
    # word_inverse would reduce the exponent 3 of s^3 to 0 under k = 3
    hom, chi = _planted(3, 2, 30, 1)
    domain = single_edge_domain(ModelParams(d=2, k=4, n=4))
    with pytest.raises(ValueError, match="domain has k=4 but the model has k=3"):
        local_pattern_census(hom, chi, domain)
    with pytest.raises(ValueError, match="domain has k=4 but the model has k=3"):
        local_convergence_stat(hom, chi, domain, (0, 1, 1, 1))


def test_local_convergence_singleton_is_exactly_half():
    hom, chi = _planted(3, 2, 60, 2)
    singleton = build_ball(hom.params, 0)
    stat = local_convergence_stat(hom, chi, singleton, (1,))
    assert stat == Fraction(1, 2)
    edge = single_edge_domain(hom.params)
    with pytest.raises(ValueError, match="pattern values must be 0 or 1"):
        local_convergence_stat(hom, chi, edge, (0, 1, 2))
    with pytest.raises(ValueError, match="cover"):
        local_convergence_stat(hom, chi, edge, (0, 1))


def test_local_convergence_single_edge_statistical():
    params = ModelParams(d=2, k=3, n=300)
    domain = single_edge_domain(params)
    xi = next(iter(enumerate_proper_patterns(domain)))
    values = []
    for seed in range(8):
        hom, chi = _planted(3, 2, 300, seed)
        stat = local_convergence_stat(hom, chi, domain, xi)
        census = local_pattern_census(hom, chi, domain)
        assert census.frequency(xi) == stat
        total = sum(census.frequency(p) for p in census.counts)
        assert total + census.improper_fraction() == 1
        values.append(float(stat))
    mean = sum(values) / len(values)
    assert abs(mean - 1 / 6) < 0.035


def test_core_status_exact_marginals_level1():
    exact_core = binomial_tail(5, Fraction(1, 3), 3)
    assert exact_core == Fraction(17, 81)
    exact_union = 1 - Fraction(2, 3) ** 5
    assert exact_union == Fraction(211, 243)

    draws = 40_000
    for estimate, seed in ((core_density_estimate, 21), (core_density_colors_oracle, 22)):
        est = estimate(5, 3, 1, draws, RngState(seed))
        se_core = math.sqrt(float(exact_core * (1 - exact_core)) / draws)
        se_union = math.sqrt(float(exact_union * (1 - exact_union)) / draws)
        assert abs(float(est.core_frequency()) - float(exact_core)) < 4.5 * se_core
        assert abs(float(est.union_frequency()) - float(exact_union)) < 4.5 * se_union
        assert est.overlap_count <= est.attached_count
        assert (
            est.rigid_frequency()
            == est.core_frequency()
            + Fraction(est.attached_count - est.overlap_count, draws)
        )


def test_core_status_level2_and_fixed_point_link():
    trace = core_fixed_point(5, 3).p
    assert abs(float(trace[0]) - 1 / 3) < 1e-15
    assert abs(float(trace[1]) - 1 / 243) < 1e-15

    exact_union2 = 1 - (1 - Fraction(1, 243)) ** 5
    draws = 40_000
    est = core_density_estimate(5, 3, 2, draws, RngState(23))
    se = math.sqrt(float(exact_union2 * (1 - exact_union2)) / draws)
    assert abs(float(est.union_frequency()) - float(exact_union2)) < 4.5 * se
    # P(core at level 2) is about 7e-7 here; a few hits would be suspicious.
    assert est.core_count <= 2


def test_core_status_routes_agree_on_overlap():
    draws = 40_000
    plain = core_density_estimate(5, 3, 1, draws, RngState(31))
    colored = core_density_colors_oracle(5, 3, 1, draws, RngState(32))
    gap = abs(
        float(plain.rigid_frequency()) - float(colored.rigid_frequency())
    )
    assert gap < 0.02
    gap_overlap = abs(
        plain.overlap_count / draws - colored.overlap_count / draws
    )
    assert gap_overlap < 0.02


def test_core_status_matches_finite_peeling():
    # Planted instances are locally tree-like, so the level-1 rigid density
    # should land near the tree value; n=120 keeps finite-size bias small.
    est = core_density_estimate(5, 3, 1, 40_000, RngState(33))
    densities = []
    for seed in range(20):
        params = ModelParams(d=5, k=3, n=120)
        chi = Coloring.equitable_split(120)
        hom = sample_planted_hom(params, chi, RngState(seed))
        densities.append(float(density_report(build_hypergraph(hom), chi, 1)))
    mean = sum(densities) / len(densities)
    assert abs(mean - float(est.rigid_frequency())) < 0.04


def test_core_status_subcritical_regime_dies_out():
    est = core_density_estimate(20, 6, 4, 2000, RngState(12))
    assert est.union_frequency() <= Fraction(1, 100)


def _one_status(d, k, level, rng):
    """(core, attached, overlap) tallies of a single root-status draw."""
    est = core_density_estimate(d, k, level, 1, rng)
    return est.core_count, est.attached_count, est.overlap_count


def test_core_status_validation():
    with pytest.raises(ValueError, match="k >= 3"):
        _one_status(4, 2, 1, RngState(0))
    with pytest.raises(ValueError, match="level"):
        _one_status(4, 3, -1, RngState(0))
    with pytest.raises(ValueError, match="sample"):
        core_density_estimate(4, 3, 1, 0, RngState(0))
    with pytest.raises(ScaleRefusal):
        _one_status(20_000, 3, 1, RngState(0))
    # the support draw's modulus 2^(k-1) - 1 must fit int64
    with pytest.raises(ValueError, match="k <= 64"):
        _one_status(3, 65, 1, RngState(0))
    assert _one_status(3, 64, 1, RngState(0)) == (0, 0, 0)
    # level 0 puts every root in the core; with d = 0 the root has no witness
    # edge, so it is outside
    assert _one_status(4, 3, 0, RngState(0)) == (1, 0, 0)
    assert _one_status(0, 3, 2, RngState(0)) == (0, 0, 0)
    first = core_density_estimate(5, 3, 1, 500, RngState(9))
    second = core_density_estimate(5, 3, 1, 500, RngState(9))
    assert first == second


def test_core_status_accepts_generator_or_rng_state():
    for seed in range(4):
        assert core_density_estimate(
            5, 3, 2, 300, RngState(seed)
        ) == core_density_estimate(5, 3, 2, 300, RngState(seed).generator())
        assert _one_status(5, 3, 1, RngState(seed)) == _one_status(
            5, 3, 1, RngState(seed).generator())


# (d, k, level); the digest covers the (core, attached, overlap) tallies of
# 400 samples per seed and the next draw left on the generator, so it pins
# both the statuses and how much of the stream each batch consumed.
TALLY_CASES = [(20, 6, 4), (5, 3, 2), (5, 3, 1), (8, 4, 3), (12, 5, 4), (12, 4, 2)]
TALLY_DIGEST = "f538d2ab93b84d5ccfa3808a05ae375580740292f269326f539826b78d517ec6"
# The same digest of the colors route, recorded while it was still a library
# route (core_density_estimate with use_colors=True), before it moved to the
# tests as core_density_colors_oracle.
COLORS_TALLY_DIGEST = "3171b82268a8a7f1091b02fd7fead624064ca0b5f901ef7a75acb65614ee0fa0"


def _tally_digest(estimate):
    rows = []
    for d, k, level in TALLY_CASES:
        for seed in range(5):
            gen = RngState(seed).generator()
            est = estimate(d, k, level, 400, gen)
            rows.append((d, k, level, seed, est.core_count, est.attached_count,
                         est.overlap_count, int(gen.integers(2**62))))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_core_density_tally_digest():
    assert _tally_digest(core_density_estimate) == TALLY_DIGEST


def test_core_density_colors_oracle_digest():
    assert _tally_digest(core_density_colors_oracle) == COLORS_TALLY_DIGEST


# The d = 0, 1, 2 cases give nodes with no draws and with too few supports
# for the core, and reach level 5 on small trees.
OBJECT_ROUTE_CASES = TALLY_CASES + [
    (0, 3, 1), (0, 4, 5), (1, 3, 2), (1, 5, 5), (2, 3, 3), (2, 3, 5), (3, 3, 5), (6, 5, 5),
]


@pytest.mark.parametrize("d, k, level", OBJECT_ROUTE_CASES)
def test_core_density_matches_the_object_route(d, k, level):
    for seed in range(3):
        gen = RngState(seed).generator()
        oracle_gen = RngState(seed).generator()
        est = core_density_estimate(d, k, level, 300, gen)
        expected = core_density_objects_oracle(d, k, level, 300, oracle_gen)
        assert _tallies(est) == _tallies(expected), seed
        assert int(gen.integers(2**62)) == int(oracle_gen.integers(2**62)), seed


@pytest.mark.parametrize("d, k, level", [(20, 6, 4), (5, 3, 2), (5, 3, 1)])
def test_core_sampler_builds_only_the_nodes_it_reads(monkeypatch, d, k, level):
    built = []  # one entry per node built: whether it is a root

    class CountingNode(tree_markov._Node):
        __slots__ = ()

        def __init__(self, parent, index, slot):
            built.append(parent is None)
            super().__init__(parent, index, slot)

    monkeypatch.setattr(tree_markov, "_Node", CountingNode)
    sampler = tree_markov._RootStatusSampler(d, k, RngState(3).generator())
    statuses = Counter()
    for _ in range(500):
        before = len(built)
        status = sampler.root_status(level)
        statuses[status] += 1
        if level == 1 and status in ("core", "outside"):
            # a level-1 witness reads no member; only an attached root's
            # overlap check goes past the root
            assert len(built) == before + 1
    roots = sum(built)
    assert roots == 500 and len(built) > roots
    if level == 1:
        assert statuses["core"] and statuses["outside"]
    # every node built also drew: d values for a root, d - 1 for the rest
    assert sampler.used == roots * d + (len(built) - roots) * (d - 1)


def _tallies(est):
    return est.core_count, est.attached_count, est.overlap_count


@pytest.mark.parametrize("d, k, level", [(5, 3, 2), (12, 4, 2)])
def test_core_density_split_calls_continue_the_stream(d, k, level):
    # Each root sample draws afresh, so 150 then 250 samples on one
    # generator are the 400 samples of one call, and leave it in one place.
    gen = RngState(5).generator()
    first = core_density_estimate(d, k, level, 150, gen)
    second = core_density_estimate(d, k, level, 250, gen)
    whole_gen = RngState(5).generator()
    whole = core_density_estimate(d, k, level, 400, whole_gen)
    summed = tuple(a + b for a, b in zip(_tallies(first), _tallies(second)))
    assert summed == _tallies(whole)
    assert int(gen.integers(2**62)) == int(whole_gen.integers(2**62))


def test_core_density_exception_leaves_the_stream_at_the_values_used(monkeypatch):
    # At (20, 6, 4) a sample takes about 40 draws, so the 149 samples before
    # the failing one use more values than one buffer refill holds.
    root_status = tree_markov._RootStatusSampler.root_status
    used = []  # values handed out before each sample

    def fail_on_150th(self, level):
        used.append(self.used)
        if len(used) == 150:
            raise RuntimeError("sample 150")
        return root_status(self, level)

    monkeypatch.setattr(tree_markov._RootStatusSampler, "root_status", fail_on_150th)
    gen = RngState(8).generator()
    with pytest.raises(RuntimeError, match="sample 150"):
        core_density_estimate(20, 6, 4, 400, gen)
    assert used[-1] > 4096
    fresh = RngState(8).generator()
    fresh.integers(2**5 - 1, size=used[-1])
    assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
    monkeypatch.undo()
    clean = RngState(8).generator()
    core_density_estimate(20, 6, 4, 149, clean)
    assert int(gen.integers(2**62)) == int(clean.integers(2**62))


def census_per_vertex_oracle(hom, coloring, domain):
    """Oracle: the census tallied window by window through pullback_vertex_map."""
    counts = Counter()
    improper = noninjective = 0
    for v in range(hom.params.n):
        window = pullback_vertex_map(hom, v, domain)
        if len(set(window.values())) < len(window):
            noninjective += 1
        pattern = tuple(coloring[window[g]] for g in domain.elements)
        if _is_proper(pattern, domain):
            counts[pattern] += 1
        else:
            improper += 1
    return dict(counts), improper, noninjective


def convergence_per_vertex_oracle(hom, coloring, domain, pattern):
    hits = 0
    for v in range(hom.params.n):
        window = pullback_vertex_map(hom, v, domain)
        hits += all(coloring[window[g]] == b for g, b in zip(domain.elements, pattern))
    return Fraction(hits, hom.params.n)


def _oracle_domains(params):
    return [
        build_ball(params, 0),
        single_edge_domain(params),
        single_edge_domain(params, label=2),
        build_ball(params, 1),
        build_ball(params, 3),
    ]


def _assert_census_matches_oracle(hom, coloring, domain, rng):
    """Compare the census and the convergence stat with the per-vertex
    oracles; returns the oracle's improper and non-injective counts."""
    census = local_pattern_census(hom, coloring, domain)
    counts, improper, noninjective = census_per_vertex_oracle(hom, coloring, domain)
    assert census.n == hom.params.n
    assert list(census.counts.items()) == list(counts.items())
    assert census.improper_count == improper
    assert census.noninjective_count == noninjective
    probes = list(counts)[:3] + [tuple(rng.randrange(2) for _ in domain.elements)]
    for pattern in probes:
        assert local_convergence_stat(
            hom, coloring, domain, pattern
        ) == convergence_per_vertex_oracle(hom, coloring, domain, pattern)
    return improper, noninjective


def test_census_and_convergence_match_per_vertex_oracle():
    # small n forces short cycles through the windows, so non-injective and
    # improper windows both occur; the radius-3 ball has 127 elements
    params = ModelParams(d=3, k=3, n=30)
    domains = _oracle_domains(params)
    assert len(domains[-1]) == 127
    rng = random.Random(17)
    seen_improper = seen_noninjective = 0
    for seed in range(3):
        hom = random_uniform_images(params, random.Random(seed))
        colorings = [
            Coloring.equitable_split(params.n),
            [rng.randrange(2) for _ in range(params.n)],
        ]
        for coloring in colorings:
            for domain in domains:
                improper, noninjective = _assert_census_matches_oracle(
                    hom, coloring, domain, rng
                )
                seen_improper += improper
                seen_noninjective += noninjective
    assert seen_improper and seen_noninjective
    # the radius-1 ball at d = 4 has 9 elements, one bit past a byte of a
    # packed window code; the planted (600, 3, 2) draw is the benchmark's
    wide = ModelParams(d=4, k=3, n=30)
    ball = build_ball(wide, 1)
    assert len(ball) == 9
    for seed in range(3):
        hom = random_uniform_images(wide, random.Random(seed))
        for coloring in (
            Coloring.equitable_split(wide.n),
            [rng.randrange(2) for _ in range(wide.n)],
        ):
            _assert_census_matches_oracle(hom, coloring, ball, rng)
    hom, chi = _planted(3, 2, 600, 1)
    for domain in (single_edge_domain(hom.params), build_ball(hom.params, 1)):
        _assert_census_matches_oracle(hom, chi, domain, rng)


def test_census_rejects_non_binary_colorings_and_accepts_booleans():
    # a packed window code reads 2 and -1 as 1 and 256 as 0, so the entries
    # are checked before packing; at the last vertex a bad entry can share
    # its code with earlier windows and never reach the properness test
    hom, chi = _planted(3, 2, 30, 1)
    for domain in (build_ball(hom.params, 0), build_ball(hom.params, 1)):
        for bad in (2, -1, 256):
            coloring = list(chi)
            coloring[-1] = bad
            with pytest.raises(ValueError, match="coloring entries must be 0 or 1"):
                local_pattern_census(hom, coloring, domain)
        flags = [bool(b) for b in chi]
        assert local_pattern_census(hom, flags, domain) == local_pattern_census(
            hom, list(chi), domain
        )


def test_census_rejects_coloring_length_mismatch():
    hom, chi = _planted(3, 2, 30, 1)
    domain = single_edge_domain(hom.params)
    xi = next(iter(enumerate_proper_patterns(domain)))
    for coloring in (list(chi) + [0], list(chi)[:-1]):
        with pytest.raises(ValueError, match="coloring has"):
            local_pattern_census(hom, coloring, domain)
        with pytest.raises(ValueError, match="coloring has"):
            local_convergence_stat(hom, coloring, domain, xi)
