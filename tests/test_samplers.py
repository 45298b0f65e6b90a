import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    all_k_partitions,
    partition_type_counts,
    sample_planted_hom_rejection,
    sample_planted_images_loop_oracle,
    sample_uniform_images_loop_oracle,
    type_count_vectors_recursion_oracle,
    type_draw_float_oracle,
    typed_blocks_loop_oracle,
)
from scipy import stats

from sofic_lab import ScaleRefusal
from sofic_lab.group_model import ModelParams, enumerate_uniform_homs, typed_partition_count
from sofic_lab.hypergraph import (
    Coloring,
    _coloring_array,
    build_hypergraph,
    monochromatic_edge_count,
)
from sofic_lab.samplers import (
    RngState,
    _as_generator,
    _draw_type_counts,
    _monochromatic_orbit_count,
    _type_count_vectors,
    _typed_blocks,
    sample_planted_hom,
    sample_uniform_hom,
)

CHI_SQUARE_ALPHA = 1e-3


def assert_uniform_chi_square(counter, support, n_samples):
    assert set(counter) <= set(support)
    observed = [counter.get(x, 0) for x in support]
    _, pvalue = stats.chisquare(observed)
    assert pvalue > CHI_SQUARE_ALPHA
    assert sum(observed) == n_samples


def typed_partition(chi, k, counts, rng):
    """The blocks of a uniform partition with c_j blocks of j ones, as
    sorted tuples in sorted order."""
    blocks = _typed_blocks(_coloring_array(chi, len(chi)), k, counts, _as_generator(rng))
    return [tuple(row) for row in blocks.tolist()]


def test_rng_state_determinism():
    p = ModelParams(d=2, k=3, n=9)
    state = RngState(seed=17, stream=4)
    assert sample_uniform_hom(p, state) == sample_uniform_hom(p, state)
    assert sample_uniform_hom(p, state) != sample_uniform_hom(p, state.with_stream(5))
    chi = Coloring.equitable_split(12)
    p2 = ModelParams(d=2, k=3, n=12)
    assert sample_planted_hom(p2, chi, state) == sample_planted_hom(p2, chi, state)


def test_rng_state_validation():
    with pytest.raises(ValueError):
        RngState(seed=-1)
    with pytest.raises(ValueError):
        RngState(seed=0, stream=2**64)


def test_uniform_hom_single_cycle_when_k_is_n():
    p = ModelParams(d=2, k=5, n=5)
    hom = sample_uniform_hom(p, RngState(3))
    g = build_hypergraph(hom)
    assert len(g.edges) == 2


def test_uniform_hom_small_frequencies():
    p = ModelParams(d=1, k=2, n=4)
    support = list(enumerate_uniform_homs(p))
    assert len(support) == 3
    gen = RngState(101).generator()
    n_samples = 30000
    counts = Counter(sample_uniform_hom(p, gen) for _ in range(n_samples))
    for hom in support:
        assert abs(counts[hom] / n_samples - 1 / 3) < 0.02


def test_uniform_hom_chi_square():
    p = ModelParams(d=1, k=3, n=6)
    support = list(enumerate_uniform_homs(p))
    assert len(support) == 40
    gen = RngState(2025).generator()
    n_samples = 30000
    counts = Counter(sample_uniform_hom(p, gen) for _ in range(n_samples))
    assert_uniform_chi_square(counts, support, n_samples)


def brute_force_type_census(n, k, chi):
    """Oracle: classify every all-bichromatic k-partition by its type."""
    census = Counter()
    for parts in all_k_partitions(range(n), k):
        t = partition_type_counts(parts, chi, k)
        if t is not None:
            census[t] += 1
    return census


def type_weight(k, counts):
    """Typed partitions at a balanced coloring with c_j blocks of j ones: two
    color classes of n/2 vertices, c_j blocks of shape (j, k-j)."""
    half = k * sum(counts) // 2
    return typed_partition_count((half, half), zip([(j, k - j) for j in range(1, k)], counts))


def test_type_weight_matches_brute_force():
    chi = Coloring.equitable_split(8)
    census = brute_force_type_census(8, 4, chi)
    assert census == {(0, 2, 0): 18, (1, 0, 1): 16}
    for t, count in census.items():
        assert type_weight(4, t) == count

    chi = Coloring.equitable_split(12)
    census = brute_force_type_census(12, 3, chi)
    assert set(census) == {(2, 2)}
    assert type_weight(3, (2, 2)) == census[(2, 2)]


# The type draws give the block counts (c_1..c_{k-1}); the type vector
# (t_0..t_k) of the paper is (0, c_1/n, ..., c_{k-1}/n, 0).


def test_type_vector_k2_unique_atom():
    gen = RngState(7).generator()
    for _ in range(5):
        assert _draw_type_counts(8, 2, gen) == (4,)


def test_type_vector_ratio_k4_n8():
    # exact weights are 18 and 16, so the two types split 18/34 vs 16/34
    gen = RngState(88).generator()
    n_samples = 100000
    counts = Counter(_draw_type_counts(8, 4, gen) for _ in range(n_samples))
    heavy = (0, 2, 0)
    light = (1, 0, 1)
    assert set(counts) == {heavy, light}
    assert abs(counts[heavy] / n_samples - 18 / 34) < 0.02
    assert abs(counts[light] / n_samples - 16 / 34) < 0.02


def test_type_vector_mode_is_dominant_type():
    # k=3 at balanced colorings has a single feasible type, the one sitting
    # on the dominant proportions (1/6, 1/6)
    assert _draw_type_counts(120, 3, RngState(1).generator()) == (20, 20)

    # k=4, n=24: feasible count vectors are (0,6,0),(1,4,1),(2,2,2),(3,0,3);
    # (2,2,2) is the closest lattice point to n times the dominant
    # proportions (1/14, 3/28, 1/14) and must carry the largest weight
    weights = {c: type_weight(4, c) for c in [(0, 6, 0), (1, 4, 1), (2, 2, 2), (3, 0, 3)]}
    assert max(weights, key=weights.get) == (2, 2, 2)
    gen = RngState(55).generator()
    counts = Counter(_draw_type_counts(24, 4, gen) for _ in range(20000))
    assert max(counts, key=counts.get) == (2, 2, 2)


def test_partition_sampler_k2_n4():
    chi = Coloring.from_string("0011")
    gen = RngState(31).generator()
    n_samples = 30000
    counts = Counter(
        tuple(typed_partition(chi, 2, (2,), gen)) for _ in range(n_samples)
    )
    expected = {((0, 2), (1, 3)), ((0, 3), (1, 2))}
    assert set(counts) == expected
    for parts in expected:
        assert abs(counts[parts] / n_samples - 1 / 2) < 0.02


def test_partition_sampler_output_type_is_exact():
    chi = Coloring.equitable_split(12)
    gen = RngState(4).generator()
    for _ in range(20):
        parts = typed_partition(chi, 3, (2, 2), gen)
        assert sorted(v for p in parts for v in p) == list(range(12))
        assert partition_type_counts(parts, chi, 3) == (2, 2)


def test_partition_sampler_uniform_over_type_class():
    chi = Coloring.equitable_split(8)
    support = [
        tuple(parts)
        for parts in all_k_partitions(range(8), 4)
        if partition_type_counts(parts, chi, 4) == (1, 0, 1)
    ]
    assert len(support) == 16
    gen = RngState(66).generator()
    n_samples = 20000
    counts = Counter(
        tuple(typed_partition(chi, 4, (1, 0, 1), gen)) for _ in range(n_samples)
    )
    assert_uniform_chi_square(counts, support, n_samples)


def test_partition_sampler_rejects_bad_types():
    # one block of one 1 and one 0 does not use up two of each color
    with pytest.raises(ValueError, match="infeasible"):
        typed_partition(Coloring.from_string("0011"), 2, (1,), RngState(0))


def test_planted_hom_always_proper():
    cases = [(2, 3, 12), (3, 2, 8), (1, 4, 8)]
    for d, k, n in cases:
        p = ModelParams(d=d, k=k, n=n)
        chi = Coloring.equitable_split(n)
        gen = RngState(909).generator()
        for _ in range(10):
            hom = sample_planted_hom(p, chi, gen)
            assert monochromatic_edge_count(build_hypergraph(hom), chi) == 0


def proper_homs(params, chi):
    return [
        h
        for h in list(enumerate_uniform_homs(params))
        if monochromatic_edge_count(build_hypergraph(h), chi) == 0
    ]


def test_planted_hom_tv_distance_small_case():
    p = ModelParams(d=2, k=2, n=4)
    chi = Coloring.from_string("0011")
    support = proper_homs(p, chi)
    assert len(support) == 4
    gen = RngState(12).generator()
    n_samples = 30000
    counts = Counter(sample_planted_hom(p, chi, gen) for _ in range(n_samples))
    assert set(counts) <= set(support)
    tv = sum(abs(counts[h] / n_samples - 1 / 4) for h in support) / 2
    assert tv < 0.02


def test_planted_hom_chi_square_k3():
    p = ModelParams(d=1, k=3, n=6)
    chi = Coloring.equitable_split(6)
    support = proper_homs(p, chi)
    assert len(support) == 36
    gen = RngState(321).generator()
    n_samples = 30000
    counts = Counter(sample_planted_hom(p, chi, gen) for _ in range(n_samples))
    assert_uniform_chi_square(counts, support, n_samples)


def test_planted_generators_independent():
    p = ModelParams(d=2, k=4, n=8)
    chi = Coloring.equitable_split(8)
    gen = RngState(777).generator()
    n_samples = 10000
    xs, ys = [], []
    for _ in range(n_samples):
        hom = sample_planted_hom(p, chi, gen)
        g = build_hypergraph(hom)
        marks = []
        for label in (0, 1):
            ones = sorted(sum(chi[v] for v in e) for e in g.blocks[label].tolist())
            marks.append(1 if ones == [2, 2] else 0)
        xs.append(marks[0])
        ys.append(marks[1])
    mx, my = sum(xs) / n_samples, sum(ys) / n_samples
    cov = sum(x * y for x, y in zip(xs, ys)) / n_samples - mx * my
    corr = cov / ((mx * (1 - mx)) ** 0.5 * (my * (1 - my)) ** 0.5)
    assert abs(corr) < 0.05


def test_rejection_oracle_is_uniform():
    p = ModelParams(d=2, k=2, n=4)
    chi = Coloring.from_string("0011")
    support = proper_homs(p, chi)
    gen = RngState(5150).generator()
    n_samples = 10000
    counts = Counter(sample_planted_hom_rejection(p, chi, gen) for _ in range(n_samples))
    assert_uniform_chi_square(counts, support, n_samples)


def test_rejection_oracle_scale_refusal():
    p = ModelParams(d=1, k=2, n=42)
    chi = Coloring.equitable_split(42)
    with pytest.raises(ScaleRefusal):
        sample_planted_hom_rejection(p, chi, RngState(0))


def test_type_sampler_input_validation():
    with pytest.raises(ValueError):
        sample_planted_hom(ModelParams(d=1, k=3, n=6), Coloring.from_string("111100"),
                           RngState(0))
    with pytest.raises(ValueError):
        sample_planted_hom(ModelParams(d=1, k=3, n=9), Coloring.from_string("110100100"),
                           RngState(0))


# (d, k, n): k = 2 and k = 6, d = 0 and d = 1, and the shapes the benchmark uses
ORACLE_SHAPES = [
    (0, 3, 6), (1, 2, 10), (1, 6, 12), (2, 3, 24), (4, 3, 24),
    (3, 2, 10), (2, 4, 40), (3, 5, 30), (20, 6, 60), (2, 3, 600),
]
ORACLE_SEEDS = range(12)


def assert_images_equal(hom, oracle_images):
    assert hom.images == tuple(tuple(img) for img in oracle_images)
    assert all(type(x) is int for img in hom.images for x in img)


def assert_same_stream_afterwards(gen, oracle_gen):
    assert gen.integers(2**62) == oracle_gen.integers(2**62)


@pytest.mark.parametrize("n,k", [(120, 6), (24, 3)])
def test_type_draw_matches_float_route_oracle(n, k):
    # the exact inversion draws one double, as the float route's choice does
    for seed in range(2000):
        gen, oracle_gen = RngState(seed).generator(), RngState(seed).generator()
        assert _draw_type_counts(n, k, gen) == type_draw_float_oracle(n, k, oracle_gen)
        assert_same_stream_afterwards(gen, oracle_gen)


def test_type_draw_survives_tiny_weights():
    # 15 of the 501 weights at n=4000, k=4 are below the least normal float
    # relative to the largest; the exact weights keep every type drawable
    gen = RngState(1).generator()
    for _ in range(3):
        counts = _draw_type_counts(4000, 4, gen)
        assert sum(counts) == 1000
        assert sum(j * c for j, c in enumerate(counts, start=1)) == 2000


@pytest.mark.parametrize("d,k,n", ORACLE_SHAPES)
def test_uniform_sampler_matches_loop_oracle(d, k, n):
    p = ModelParams(d=d, k=k, n=n)
    for seed in ORACLE_SEEDS:
        state = RngState(seed, stream=seed % 3)
        gen, oracle_gen = state.generator(), state.generator()
        hom = sample_uniform_hom(p, gen)
        assert_images_equal(hom, sample_uniform_images_loop_oracle(p, oracle_gen))
        assert_same_stream_afterwards(gen, oracle_gen)
        assert sample_uniform_hom(p, state) == hom


@pytest.mark.parametrize("d,k,n", [s for s in ORACLE_SHAPES if s[2] % 2 == 0])
def test_planted_sampler_matches_loop_oracle(d, k, n):
    p = ModelParams(d=d, k=k, n=n)
    shuffled = Coloring(RngState(n).generator().permutation([0, 1] * (n // 2)).tolist())
    for chi in (Coloring.equitable_split(n), shuffled):
        for seed in ORACLE_SEEDS:
            state = RngState(seed, stream=seed % 3)
            gen, oracle_gen = state.generator(), state.generator()
            hom = sample_planted_hom(p, chi, gen)
            assert_images_equal(hom, sample_planted_images_loop_oracle(p, chi, oracle_gen))
            assert_same_stream_afterwards(gen, oracle_gen)


@pytest.mark.parametrize("k,n", [(2, 10), (3, 24), (4, 40), (6, 60)])
def test_partition_sampler_matches_loop_oracle(k, n):
    chi = Coloring(RngState(k).generator().permutation([0, 1] * (n // 2)).tolist())
    for seed in ORACLE_SEEDS:
        counts = _draw_type_counts(n, k, RngState(seed, stream=1).generator())
        gen, oracle_gen = RngState(seed).generator(), RngState(seed).generator()
        parts = typed_partition(chi, k, counts, gen)
        assert parts == typed_blocks_loop_oracle(chi, k, counts, oracle_gen)
        assert all(type(v) is int for part in parts for v in part)
        assert_same_stream_afterwards(gen, oracle_gen)


def test_type_count_vectors_match_recursion_oracle():
    for k in range(2, 7):
        for blocks in range(-1, 9):
            for ones in range(-2, (k - 1) * blocks + 3):
                assert _type_count_vectors(k, blocks, ones) == (
                    type_count_vectors_recursion_oracle(k, blocks, ones)
                ), (k, blocks, ones)
    # the balanced tables behind the benchmark shapes
    for k, n in [(3, 600), (6, 60), (6, 120), (4, 40)]:
        assert _type_count_vectors(k, n // k, n // 2) == (
            type_count_vectors_recursion_oracle(k, n // k, n // 2)
        )


def test_monochromatic_orbit_count_matches_hypergraph():
    rng = np.random.default_rng(5)
    for d, k, n in [(1, 2, 10), (2, 3, 24), (3, 4, 24), (2, 6, 60), (4, 3, 12)]:
        p = ModelParams(d=d, k=k, n=n)
        for seed in range(10):
            hom = sample_uniform_hom(p, RngState(seed))
            images = [np.array(img) for img in hom.images]
            graph = build_hypergraph(hom)
            # sparse ones make monochromatic orbits common, dense ones rare
            for density in (0.1, 0.5, 0.9):
                chi = Coloring((rng.random(n) < density).astype(int).tolist())
                expected = monochromatic_edge_count(graph, chi)
                got = _monochromatic_orbit_count(images, np.array(chi.bits), k)
                assert got == expected


def test_planted_sampler_rejects_unbalanced_coloring():
    p = ModelParams(d=2, k=3, n=12)
    with pytest.raises(ValueError, match="equitable"):
        sample_planted_hom(p, Coloring.from_string("111111100000"), RngState(0))


def test_result_guards_raise_under_optimize():
    # the result guards of the planted draw, the ball size, the peeling and
    # the typed partition count's divisibility must survive python -O, which
    # strips assert statements; every partition count goes through the one
    # core in group_model, so perturbing math there once reaches them all
    child = textwrap.dedent(
        """
        import math
        import sys
        import types
        from fractions import Fraction
        from sofic_lab import exact_count, group_model, samplers, structure, tree_markov
        from sofic_lab.group_model import ModelParams
        from sofic_lab.hypergraph import Coloring, build_hypergraph
        from sofic_lab.samplers import RngState

        def report(label, call, error):
            try:
                call()
            except error as exc:
                print(f"{label}: {exc}")
            else:
                print(f"{label}: no raise")

        def run(module, name, replacement, call, error):
            original = getattr(module, name)
            setattr(module, name, replacement(original))
            try:
                report(name, call, error)
            finally:
                setattr(module, name, original)

        class GrowingCounts:
            # numpy, except that every bincount counts three more than the
            # one before, so the second level's core outgrows the first's
            def __init__(self, module):
                self.module, self.extra = module, 0

            def __getattr__(self, name):
                return getattr(self.module, name)

            def bincount(self, *args, **kwargs):
                self.extra += 3
                return self.module.bincount(*args, **kwargs) + self.extra - 3

        print("optimize", sys.flags.optimize)
        params = ModelParams(d=2, k=3, n=6)
        run(samplers, "_monochromatic_orbit_count", lambda f: lambda *a: 1,
            lambda: samplers.sample_planted_hom(
                params, Coloring.equitable_split(6), RngState(1)),
            RuntimeError)
        run(tree_markov, "ball_element_count", lambda f: lambda *a: f(*a) + 1,
            lambda: tree_markov.build_ball(params, 1),
            RuntimeError)
        chi = Coloring.equitable_split(12)
        graph = build_hypergraph(samplers.sample_planted_hom(
            ModelParams(d=3, k=3, n=12), chi, RngState(0)))
        run(structure, "np", GrowingCounts,
            lambda: structure.core_decomposition(graph, chi),
            RuntimeError)
        run(structure, "itertools",
            lambda m: types.SimpleNamespace(permutations=m.combinations),
            lambda: structure.core_decomposition_reference(
                12, 3, [e for _, e in graph.edges], chi),
            RuntimeError)

        group_model.math = types.SimpleNamespace(
            factorial=lambda x: math.factorial(x) + 1, prod=math.prod)
        # products cached under the real factorial would dodge the stub
        group_model._factorial_product.cache_clear()
        routes = {
            "typed_partition_count": lambda: group_model.typed_partition_count(
                (4, 4), [((2, 2), 2)]),
            "uniform_permutation_count": lambda: group_model.uniform_permutation_count(6, 3),
            "_balanced_type_table": lambda: samplers._balanced_type_table(8, 4),
            "typed_partition_sum": lambda: group_model.typed_partition_sum(
                (3, 3), [(1, 2), (2, 1)]),
            "partition_count": lambda: exact_count.partition_count(6, 3),
            "exact_first_moment": lambda: exact_count.exact_first_moment(params),
            "exact_planted_distance_moment":
                lambda: exact_count.exact_planted_distance_moment(params, Fraction(1, 3)),
        }
        for label, call in routes.items():
            report(label, call, ArithmeticError)
        group_model.math = math
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    expected = [
        "_monochromatic_orbit_count: planted draw has a monochromatic edge",
        "ball_element_count: radius-1 ball has 5 elements, closed form says 6",
        "np: peeling must be monotone",
        "itertools: entanglement must be symmetric",
        "typed_partition_count: typed partition count",
        "uniform_permutation_count: typed partition count",
        "_balanced_type_table: typed partition count",
        "typed_partition_sum: typed partition sum",
        "partition_count: typed partition count",
        "exact_first_moment: typed partition count",
        "exact_planted_distance_moment: typed partition sum",
    ]
    assert len(lines) == 1 + len(expected), proc.stdout
    for line, prefix in zip(lines[1:], expected):
        assert line.startswith(prefix), (line, prefix)
