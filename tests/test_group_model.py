import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    assert_image_array,
    check_uniform_permutation_loop_oracle,
    hom_from_cycles,
    random_uniform_images,
    unchecked_hom,
)

from sofic_lab import ScaleRefusal
from sofic_lab.exact_count import count_proper
from sofic_lab.group_model import (
    IDENTITY,
    ModelParams,
    UniformHom,
    _word_arrays,
    check_sofic,
    enumerate_uniform_homs,
    evaluate_word,
    generator_pair_words,
    generator_word,
    generator_words,
    reduce_word,
    uniform_hom_count,
    uniform_permutation_count,
    word_inverse,
    word_product,
)
from sofic_lab.harness import load_instance
from sofic_lab.hypergraph import Coloring, build_hypergraph
from sofic_lab.samplers import RngState, sample_uniform_hom
from sofic_lab.structure import rigidity_violation_search
from sofic_lab.tree_markov import _word_key

FIXTURES = Path(__file__).parent / "fixtures"


def brute_force_uniform_permutations(n, k):
    """Oracle: filter all n! permutations for the all-orbits-size-k property."""
    out = []
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        ok = True
        for start in range(n):
            if seen[start]:
                continue
            size, v = 0, start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                size += 1
            if size != k:
                ok = False
                break
        if ok:
            out.append(perm)
    return out


def test_reduce_word_relation_collapses():
    p = ModelParams(d=2, k=3, n=3)
    assert reduce_word(p, [(0, 3)]) == IDENTITY
    assert reduce_word(p, [(0, 2), (0, 1)]) == IDENTITY


def test_reduce_word_cascading_merge():
    # s1 s2^2 s2 s1^2 collapses to the identity in two merge steps for k=3.
    p = ModelParams(d=2, k=3, n=3)
    w = reduce_word(p, [(0, 1), (1, 2), (1, 1), (0, 2)])
    assert w == IDENTITY


def test_reduce_word_idempotent():
    p = ModelParams(d=3, k=4, n=4)
    rng = random.Random(7)
    for _ in range(200):
        letters = [
            (rng.randrange(3), rng.randrange(-5, 9)) for _ in range(rng.randrange(8))
        ]
        w = reduce_word(p, letters)
        assert reduce_word(p, w) == w
        # adjacency and exponent-range invariants of the reduced form
        for (g1, e1), (g2, _) in zip(w, w[1:]):
            assert g1 != g2
            assert 1 <= e1 < p.k


def test_reduce_word_rejects_bad_generator():
    p = ModelParams(d=2, k=3, n=3)
    with pytest.raises(ValueError):
        reduce_word(p, [(2, 1)])


def test_word_length():
    p = ModelParams(d=2, k=5, n=5)
    w = reduce_word(p, [(0, 3), (1, 4)])
    assert _word_key(w)[0] == 7
    assert _word_key(IDENTITY)[0] == 0


def test_word_inverse_and_product():
    p = ModelParams(d=3, k=4, n=4)
    rng = random.Random(11)
    for _ in range(100):
        letters = [(rng.randrange(3), rng.randrange(1, 4)) for _ in range(5)]
        w = reduce_word(p, letters)
        assert word_product(p, w, word_inverse(p, w)) == IDENTITY
        assert word_product(p, word_inverse(p, w), w) == IDENTITY


def test_uniform_hom_validation():
    p = ModelParams(d=1, k=2, n=4)
    UniformHom(p, [[1, 0, 3, 2]])
    with pytest.raises(ValueError):
        UniformHom(p, [[0, 1, 3, 2]])  # two fixed points: orbit size 1
    with pytest.raises(ValueError):
        UniformHom(p, [[1, 1, 3, 2]])  # not a permutation
    with pytest.raises(ValueError):
        ModelParams(d=1, k=3, n=4).require_uniform()


def _validation_outcome(check, img, n, k, gen_index=1):
    try:
        check(img, n, k, gen_index)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _consecutive_cycles(n, k):
    """A valid image: k-cycles on consecutive blocks."""
    return [block + (j + 1) % k for block in range(0, n, k) for j in range(k)]


def _rows_outcome(rows, n, k):
    """What the constructor says of the images rows."""
    try:
        UniformHom(ModelParams(d=len(rows), k=k, n=n), [np.array(row) for row in rows])
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _rows_oracle_outcome(rows, n, k):
    """The loop oracle's verdict on the first bad row of the images rows."""
    for i, row in enumerate(rows):
        outcome = _validation_outcome(check_uniform_permutation_loop_oracle, row, n, k, i)
        if outcome is not None:
            return outcome
    return None


def test_uniform_permutation_check_matches_loop_oracle():
    # (img, n, k): valid images, then a wrong length, a repeated entry, an
    # orbit of size 1 and an orbit of size 2k, each placed early and late
    cases = [
        ([1, 2, 0, 4, 5, 3], 6, 3),
        ([1, 0, 3, 2], 4, 2),
        ([1, 2, 0, 4, 5], 6, 3),
        ([1, 2, 0, 4, 5, 3, 0], 6, 3),
        ([1, 2, 0, 4, 4, 3], 6, 3),
        ([0, 2, 1, 3], 4, 2),
        ([1, 0, 2, 3], 4, 2),
        ([1, 2, 3, 0, 5, 4], 6, 2),
        ([1, 0, 3, 4, 5, 2], 6, 2),
        ([1, 2, 3, 4, 5, 0, 7, 8, 6], 9, 3),
        ([1, 2, 0, 4, 5, 6, 7, 8, 3], 9, 3),
        ([-1, 0, 1, 2], 4, 2),
        ([1, 0, 3, 4], 4, 2),
    ]
    for img, n, k in cases:
        good = _consecutive_cycles(n, k)
        # behind one valid image the constructor names generator 1, as the
        # oracle does for the image alone at index 1
        expected = _validation_outcome(check_uniform_permutation_loop_oracle, img, n, k)
        assert _rows_outcome([good, img], n, k) == expected, (img, n, k)
        # the whole-array check names the first bad generator wherever it
        # sits: behind two valid images, before a bad one, and first
        for rows in ([good, good, img], [good, img, [0] * n], [img, good]):
            assert _rows_outcome(rows, n, k) == _rows_oracle_outcome(rows, n, k), (rows, n, k)
    rng = random.Random(8)
    for _ in range(300):
        n, k = rng.choice([(6, 2), (6, 3), (8, 4), (12, 3), (12, 6)])
        img = rng.sample(range(n), n)
        expected = _validation_outcome(check_uniform_permutation_loop_oracle, img, n, k)
        assert _rows_outcome([_consecutive_cycles(n, k), img], n, k) == expected, (img, n, k)
        rows = [rng.sample(range(n), n) if rng.random() < 0.3 else _consecutive_cycles(n, k)
                for _ in range(rng.randrange(1, 5))]
        assert _rows_outcome(rows, n, k) == _rows_oracle_outcome(rows, n, k), (rows, n, k)


def test_uniform_hom_rejects_non_integer_entries_first():
    p = ModelParams(d=1, k=3, n=3)
    for bad in ([1.0, 2.0, 0.0], [1, 2, 0.5], ["1", "2", "0"], [True, False, True]):
        with pytest.raises(ValueError, match="must hold integers"):
            UniformHom(p, [bad])
    with pytest.raises(ValueError, match="not a permutation"):
        UniformHom(p, [np.array([2**64 - 1, 0, 1], dtype=np.uint64)])
    # the entry type is checked before the image count
    with pytest.raises(ValueError, match="must hold integers"):
        UniformHom(p, [[1, 2, 0], [1.0, 2.0, 0.0]])


def test_uniform_hom_stores_one_read_only_intp_array():
    p = ModelParams(d=2, k=3, n=6)
    images = [np.array([1, 2, 0, 4, 5, 3]), np.array([2, 0, 1, 5, 3, 4], dtype=np.uint64)]
    hom = UniformHom(p, images)
    assert_image_array(hom)
    assert hom.images.tolist() == [img.tolist() for img in images]
    with pytest.raises(ValueError, match="read-only"):
        hom.images[0, 0] = 2
    lists = UniformHom(p, [img.tolist() for img in images])
    assert hom == lists and hash(hom) == hash(lists)
    # the constructor keeps a copy of its own, and leaves the caller's
    # array as it was
    stacked = np.array([img.tolist() for img in images])
    copied = UniformHom(p, stacked)
    stacked[0] = [2, 0, 1, 5, 3, 4]
    assert stacked.flags.writeable
    assert copied == hom
    data = json.loads(json.dumps(hom.to_json_dict()))
    assert data["images"] == [img.tolist() for img in images]
    loaded = UniformHom.from_json_dict(data)
    assert_image_array(loaded)
    assert loaded == hom
    # no generators: a (0, n) array and a (k, 0, n) table, by construction,
    # by enumeration and from JSON
    empty = ModelParams(d=0, k=3, n=6)
    bare_json = {"n": 6, "k": 3, "d": 0, "images": []}
    for bare in ([UniformHom(empty, []), UniformHom.from_json_dict(bare_json)]
                 + list(enumerate_uniform_homs(empty))):
        assert_image_array(bare)
        assert bare.images.shape == (0, 6)
        assert bare.to_json_dict()["images"] == []


def test_evaluate_word_basics():
    p = ModelParams(d=1, k=3, n=3)
    hom = hom_from_cycles(p, [[(0, 1, 2)]])
    assert evaluate_word(hom, IDENTITY, 1) == 1
    assert evaluate_word(hom, generator_word(0), 0) == 1
    # k-fold application of a generator returns the start vertex
    w = ((0, 1),) * 1
    v = 2
    for _ in range(p.k):
        v = evaluate_word(hom, w, v)
    assert v == 2


def test_evaluate_word_homomorphism_property():
    p = ModelParams(d=2, k=3, n=6)
    hom = hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)], [(0, 3, 1), (2, 5, 4)]])
    rng = random.Random(3)
    for _ in range(200):
        letters1 = [(rng.randrange(2), rng.randrange(1, 3)) for _ in range(3)]
        letters2 = [(rng.randrange(2), rng.randrange(1, 3)) for _ in range(3)]
        w1 = reduce_word(p, letters1)
        w2 = reduce_word(p, letters2)
        v = rng.randrange(6)
        lhs = evaluate_word(hom, word_product(p, w1, w2), v)
        rhs = evaluate_word(hom, w1, evaluate_word(hom, w2, v))
        assert lhs == rhs


def test_enumeration_small_counts_against_oracle():
    # Frozen oracle values: (k=2,d=1,n=4) -> 3, (k=3,d=1,n=3) -> 2,
    # (k=3,d=2,n=3) -> 4. The brute-force filter recomputes the first two.
    assert len(brute_force_uniform_permutations(4, 2)) == 3
    assert len(brute_force_uniform_permutations(3, 3)) == 2

    homs = list(enumerate_uniform_homs(ModelParams(d=1, k=2, n=4)))
    assert len(homs) == 3
    assert len(set(homs)) == 3

    assert len(list(enumerate_uniform_homs(ModelParams(d=1, k=3, n=3)))) == 2
    assert len(list(enumerate_uniform_homs(ModelParams(d=2, k=3, n=3)))) == 4


@pytest.mark.parametrize(
    "d,k,n",
    [(1, 2, 4), (1, 2, 6), (2, 2, 4), (1, 3, 6), (2, 3, 6), (1, 4, 4), (3, 2, 4)],
)
def test_enumeration_matches_closed_formula(d, k, n):
    params = ModelParams(d=d, k=k, n=n)
    expected = uniform_hom_count(params)
    b = n // k
    assert expected == (
        math.factorial(n)
        * math.factorial(k - 1) ** b
        // (math.factorial(k) ** b * math.factorial(b))
    ) ** d
    seen = set()
    count = 0
    for hom in enumerate_uniform_homs(params):
        count += 1
        assert_image_array(hom)
        seen.add(hom)
        for img in hom.images.tolist():
            # orbit traversal: every orbit of every generator has size k
            visited = [False] * n
            for start in range(n):
                if visited[start]:
                    continue
                size, v = 0, start
                while not visited[v]:
                    visited[v] = True
                    v = img[v]
                    size += 1
                assert size == k
    assert count == expected
    assert len(seen) == expected


def test_enumeration_refuses_large():
    with pytest.raises(ScaleRefusal):
        list(enumerate_uniform_homs(ModelParams(d=4, k=2, n=20)))


def test_uniform_permutation_count_oracle():
    for n, k in [(4, 2), (6, 2), (6, 3), (4, 4), (8, 2)]:
        assert uniform_permutation_count(n, k) == len(
            brute_force_uniform_permutations(n, k)
        )


def test_check_sofic_identity_only():
    p = ModelParams(d=1, k=3, n=3)
    hom = hom_from_cycles(p, [[(0, 1, 2)]])
    report = check_sofic(hom, [IDENTITY], 0.5)
    assert report.trace_fraction == 1
    assert report.mult_fraction == 1
    assert report.is_sofic


def test_check_sofic_single_cycle():
    p = ModelParams(d=1, k=3, n=3)
    hom = hom_from_cycles(p, [[(0, 1, 2)]])
    report = check_sofic(hom, generator_words(p), 0.5)
    assert report.trace_fraction == 1  # a k-cycle has no fixed points
    assert report.is_sofic


def test_check_sofic_mult_is_always_one_for_homs():
    p = ModelParams(d=2, k=3, n=6)
    hom = hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)], [(0, 3, 1), (2, 5, 4)]])
    words = generator_words(p) + generator_pair_words(p)
    report = check_sofic(hom, words, 0.1)
    assert report.mult_fraction == 1


def test_check_sofic_detects_fixed_points():
    # sigma(s1 s2) fixes vertices when the two cycles undo each other.
    p = ModelParams(d=2, k=2, n=4)
    hom = hom_from_cycles(p, [[(0, 1), (2, 3)], [(1, 0), (3, 2)]])
    report = check_sofic(hom, generator_words(p) + generator_pair_words(p), 0.1)
    assert report.trace_fraction == 0  # s1 s2 is the identity permutation here
    assert not report.is_trace_preserving


def test_float_fractions_are_read_through_their_repr():
    # a float argument means the decimal it prints as, as on the command
    # line: Fraction(0.15) is below 3/20 and Fraction(0.1) above 1/10, which
    # moves a floor, a strict comparison and a ceiling at these instances
    graph = build_hypergraph(sample_uniform_hom(ModelParams(d=3, k=2, n=20), RngState(0)))
    assert count_proper(graph, eps=0.15) == count_proper(graph, eps=Fraction(3, 20))
    assert count_proper(graph, eps=0.15).value == 22

    p = ModelParams(d=2, k=3, n=30)
    hom = sample_uniform_hom(p, RngState(63))
    words = generator_words(p) + generator_pair_words(p)
    report = check_sofic(hom, words, 0.1)
    assert report.trace_fraction == Fraction(9, 10)
    assert report.delta == Fraction(1, 10)
    assert not report.is_sofic

    hom, chi = load_instance(str(FIXTURES / "rigidity_07_n20_k4_d3.json"))
    graph = build_hypergraph(hom)
    found = rigidity_violation_search(graph, chi, {15, 19}, 0.1)
    assert found == rigidity_violation_search(graph, chi, {15, 19}, Fraction(1, 10))
    assert found == Coloring.from_string("01000000110100100110")


def test_json_roundtrip():
    p = ModelParams(d=2, k=2, n=4)
    hom = hom_from_cycles(p, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])
    data = hom.to_json_dict()
    assert data["n"] == 4 and data["k"] == 2 and data["d"] == 2
    assert UniformHom.from_json_dict(data) == hom


def check_sofic_per_vertex_oracle(hom, words, delta):
    """Oracle: both sofic statistics vertex by vertex through evaluate_word,
    re-reducing every product at every vertex."""
    params = hom.params
    n = params.n
    mult_ok = trace_ok = 0
    for v in range(n):
        if all(
            evaluate_word(hom, word_product(params, g, h), v)
            == evaluate_word(hom, g, evaluate_word(hom, h, v))
            for g in words
            for h in words
        ):
            mult_ok += 1
        if all(evaluate_word(hom, w, v) != v for w in words if w):
            trace_ok += 1
    mult, trace = Fraction(mult_ok, n), Fraction(trace_ok, n)
    delta = Fraction(delta)
    return (mult, trace, mult > 1 - delta, trace > 1 - delta)


def _report_tuple(report):
    return (
        report.mult_fraction,
        report.trace_fraction,
        report.is_multiplicative,
        report.is_trace_preserving,
    )


def _oracle_word_sets(params):
    gens = generator_words(params)
    pairs = generator_pair_words(params)
    longer = reduce_word(params, [(0, params.k - 1), (params.d - 1, 1), (0, 1)])
    return [
        gens + pairs,
        [IDENTITY] + gens,
        gens + gens[:1] + [IDENTITY, longer],
        [IDENTITY],
        [],
    ]


@pytest.mark.parametrize("d,k,n", [(2, 3, 60), (3, 3, 30), (2, 2, 4)])
def test_check_sofic_matches_per_vertex_oracle(d, k, n):
    params = ModelParams(d=d, k=k, n=n)
    for seed in range(4):
        hom = random_uniform_images(params, random.Random(seed))
        for words in _oracle_word_sets(params):
            for delta in (Fraction(1, 10), Fraction(1, 2)):
                report = check_sofic(hom, words, delta)
                assert report.n == n and report.delta == delta
                assert _report_tuple(report) == check_sofic_per_vertex_oracle(
                    hom, words, delta
                )
                assert type(report.mult_fraction.numerator) is int
                assert type(report.trace_fraction.numerator) is int


@pytest.mark.parametrize("k", [3, 4])
def test_check_sofic_word_plan_matches_oracle_across_calls(k):
    # the word plan is kept per (params, words): (0, 2) squared is (0, 1) at
    # k = 3 but (0, 4) is the identity at k = 4, so a plan shared between
    # the two shapes would compose the wrong product; two word sets
    # alternate, each given as a list and as a tuple
    params = ModelParams(d=2, k=k, n=60)
    hom = random_uniform_images(params, random.Random(k))
    sets = [generator_words(params) + [((0, 2),)],
            [((0, 2),), IDENTITY] + generator_pair_words(params)]
    for _ in range(2):
        for words in sets:
            expected = check_sofic_per_vertex_oracle(hom, words, Fraction(1, 10))
            for given in (list(words), tuple(words)):
                assert _report_tuple(check_sofic(hom, given, Fraction(1, 10))) == expected


def test_check_sofic_matches_oracle_when_s1_s2_is_identity():
    p = ModelParams(d=2, k=2, n=4)
    hom = hom_from_cycles(p, [[(0, 1), (2, 3)], [(1, 0), (3, 2)]])
    words = generator_words(p) + generator_pair_words(p)
    report = check_sofic(hom, words, 0.1)
    assert _report_tuple(report) == check_sofic_per_vertex_oracle(hom, words, 0.1)
    assert report.trace_fraction == 0


def test_check_sofic_generic_on_non_homomorphic_images():
    # images that are not disjoint k-cycles break sigma(gh) = sigma(g)sigma(h)
    # for products that wrap exponents mod k, so mult_fraction drops below 1
    p = ModelParams(d=2, k=3, n=12)
    rng = random.Random(3)
    for _ in range(5):
        images = [rng.sample(range(p.n), p.n) for _ in range(p.d)]
        hom = unchecked_hom(p, images)
        # (s1^2, s1^2) is the only pair of the short set that can fail,
        # so each order puts it at one end of the pair loop
        short = [generator_word(1), ((0, 2),)]
        wide = generator_words(p) + [((1, 2), (0, 1))] + short[1:]
        for ordered in (short, short[::-1], wide):
            report = check_sofic(hom, ordered, 0.1)
            assert _report_tuple(report) == check_sofic_per_vertex_oracle(
                hom, ordered, 0.1
            )
            assert report.mult_fraction < 1


def test_word_image_matches_evaluate_word():
    p = ModelParams(d=3, k=3, n=30)
    hom = random_uniform_images(p, random.Random(9))

    def stepwise(word, v):
        # e single image steps per syllable (g, e), without the orbit table
        for g, e in reversed(word):
            for _ in range(e % p.k):
                v = int(hom.images[g, v])
        return v

    # syllables built directly are not reduced: exponents 0, -1 and k + 1
    unreduced = [((0, 4), (1, -1), (2, 0), (0, 2)), ((1, 3),)]
    for word in _oracle_word_sets(p)[2] + generator_pair_words(p) + unreduced:
        expected = [stepwise(word, v) for v in range(p.n)]
        assert [evaluate_word(hom, word, v) for v in range(p.n)] == expected
        assert _word_arrays(hom, [word])[0].tolist() == expected


@pytest.mark.parametrize("bad", [-1, 2])
def test_word_evaluation_rejects_bad_generator(bad):
    p = ModelParams(d=2, k=3, n=6)
    hom = hom_from_cycles(p, [[(0, 1, 2), (3, 4, 5)], [(0, 3, 1), (2, 5, 4)]])
    word = ((0, 1), (bad, 1))
    with pytest.raises(ValueError, match="generator index"):
        evaluate_word(hom, word, 0)
    with pytest.raises(ValueError, match="generator index"):
        _word_arrays(hom, [IDENTITY, word])
    with pytest.raises(ValueError, match="generator index"):
        check_sofic(hom, [generator_word(0), word], 0.1)
