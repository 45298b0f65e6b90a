"""Shared test utilities: small hand-built homomorphisms, random instances,
the loop oracles for the array samplers and the full-walk expansivity
oracle."""

import itertools
from collections import defaultdict
from fractions import Fraction

from sofic_lab.analytics import bichromatic_pair_types
from sofic_lab.group_model import UniformHom, typed_partition_count
from sofic_lab.hypergraph import (
    build_hypergraph,
    critical_edges,
    monochromatic_edge_count,
)
from sofic_lab.samplers import RngState, sample_type_vector


def hom_from_cycles(params, cycles_per_gen):
    """Build a uniform homomorphism from explicit cycle lists per generator."""
    images = []
    for cycles in cycles_per_gen:
        img = list(range(params.n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        images.append(img)
    return UniformHom(params, images)


def all_k_partitions(elements, k):
    """Yield every partition of the elements into blocks of size k.

    The smallest remaining element anchors each block, so each partition
    appears exactly once.
    """
    elements = sorted(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for others in itertools.combinations(rest, k - 1):
        chosen = set(others)
        remaining = [x for x in rest if x not in chosen]
        for tail in all_k_partitions(remaining, k):
            yield [(first,) + others] + tail


def partition_type_counts(parts, chi, k):
    """Block counts (c_1..c_{k-1}) by ones per block, or None if any block
    is monochromatic."""
    counts = [0] * (k + 1)
    for p in parts:
        counts[sum(chi[v] for v in p)] += 1
    if counts[0] or counts[k]:
        return None
    return tuple(counts[1:k])


def random_uniform_images(params, rng):
    """One independent shuffle-and-cut draw per generator, via random.Random.

    Deliberately separate from the package sampler so tests built on this do
    not inherit its bugs.
    """
    images = []
    for _ in range(params.d):
        verts = list(range(params.n))
        rng.shuffle(verts)
        img = list(range(params.n))
        for start in range(0, params.n, params.k):
            block = verts[start : start + params.k]
            rest = block[1:]
            rng.shuffle(rest)
            cyc = [block[0]] + rest
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        images.append(img)
    return UniformHom(params, images)


def type_count_vectors_recursion_oracle(k, blocks, ones):
    """Oracle for samplers._type_count_vectors: the recursion that tries
    every value of every coordinate, c_{k-1} included."""
    out = []
    vec = []

    def rec(j, blocks_left, ones_left):
        if j == k:
            if blocks_left == 0 and ones_left == 0:
                out.append(tuple(vec))
            return
        for c in range(min(blocks_left, ones_left // j) + 1):
            vec.append(c)
            rec(j + 1, blocks_left - c, ones_left - j * c)
            vec.pop()

    rec(1, blocks, ones)
    return out


def pair_count_sum_recursion_oracle(n, k, flips):
    """Oracle for the planted second moment's pair sum: the recursion over
    the bichromatic pair atoms that adds one typed_partition_count per
    feasible type map of balanced colorings at the given flip count."""
    overlap = [n // 2 - flips // 2, flips // 2, flips // 2, n // 2 - flips // 2]
    atoms = [eps.as_tuple() for eps in bichromatic_pair_types(k)]
    chosen = []
    total = 0

    def rec(i, blocks_left, rem):
        nonlocal total
        if i == len(atoms):
            if blocks_left == 0 and not any(rem):
                total += typed_partition_count(overlap, chosen)
            return
        eps = atoms[i]
        cmax = blocks_left
        for pos in range(4):
            if eps[pos]:
                cmax = min(cmax, rem[pos] // eps[pos])
        rec(i + 1, blocks_left, rem)
        for c in range(1, cmax + 1):
            for pos in range(4):
                rem[pos] -= eps[pos]
            chosen.append((eps, c))
            rec(i + 1, blocks_left - c, rem)
            chosen.pop()
        for pos in range(4):
            rem[pos] += cmax * eps[pos]

    rec(0, n // k, overlap[:])
    return total


def _oracle_generator(rng):
    return rng.generator() if isinstance(rng, RngState) else rng


def cycle_on_block_oracle(block, gen, img):
    """Write a uniform k-cycle on the block into img, one permutation call
    per block: the per-block draw the array samplers must reproduce."""
    rest = list(block[1:])
    order = gen.permutation(len(rest))
    cyc = [block[0]] + [rest[i] for i in order]
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        img[int(a)] = int(b)


def sample_uniform_images_loop_oracle(params, rng):
    """Per-block loop oracle for samplers.sample_uniform_hom: the image
    lists, drawn from the same stream in the same order."""
    gen = _oracle_generator(rng)
    images = []
    for _ in range(params.d):
        order = gen.permutation(params.n)
        img = [0] * params.n
        for start in range(0, params.n, params.k):
            cycle_on_block_oracle(list(order[start : start + params.k]), gen, img)
        images.append(img)
    return images


def sample_bichromatic_partition_loop_oracle(n, chi, type_vector, rng):
    """Per-block loop oracle for samplers.sample_bichromatic_partition."""
    gen = _oracle_generator(rng)
    k = len(type_vector) - 1
    counts = [int(Fraction(t) * n) for t in type_vector]
    ones = [v for v in range(n) if chi[v] == 1]
    zeros = [v for v in range(n) if chi[v] == 0]
    ones = [ones[i] for i in gen.permutation(len(ones))]
    zeros = [zeros[i] for i in gen.permutation(len(zeros))]
    parts = []
    pos_one = pos_zero = 0
    for j in range(1, k):
        c = counts[j]
        if not c:
            continue
        one_blocks = [ones[pos_one + j * i : pos_one + j * (i + 1)] for i in range(c)]
        zero_blocks = [
            zeros[pos_zero + (k - j) * i : pos_zero + (k - j) * (i + 1)]
            for i in range(c)
        ]
        pos_one += j * c
        pos_zero += (k - j) * c
        match = gen.permutation(c)
        for i in range(c):
            parts.append(tuple(sorted(one_blocks[i] + zero_blocks[match[i]])))
    return sorted(parts)


def sample_planted_images_loop_oracle(params, chi, rng):
    """Per-block loop oracle for samplers.sample_planted_hom: type vector,
    typed partition and one cycle per block, each generator in turn, with
    properness checked on the rebuilt hypergraph."""
    gen = _oracle_generator(rng)
    images = []
    for _ in range(params.d):
        t = sample_type_vector(params.n, params.k, chi, gen)
        img = [0] * params.n
        for part in sample_bichromatic_partition_loop_oracle(params.n, chi, t, gen):
            cycle_on_block_oracle(part, gen, img)
        images.append(img)
    hom = UniformHom(params, images)
    if monochromatic_edge_count(build_hypergraph(hom), chi):
        raise RuntimeError("planted draw has a monochromatic edge")
    return images


def check_uniform_permutation_loop_oracle(img, n, k, gen_index):
    """Orbit-walking oracle for group_model._check_uniform_permutation."""
    if len(img) != n or sorted(img) != list(range(n)):
        raise ValueError("image of generator %d is not a permutation of 0..%d" % (gen_index, n - 1))
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        size = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = img[v]
            size += 1
        if size != k:
            raise ValueError(
                "generator %d has an orbit of size %d, want exactly %d"
                % (gen_index, size, k)
            )


def expansivity_exhaustive_oracle(graph, chi, t_max):
    """Full-walk oracle for the exhaustive phase of
    structure.expansivity_scan: score every set of size 1..t_max from
    scratch, in combinations order. Returns (max excess, witness,
    violations)."""
    full = []
    by_support = defaultdict(list)
    for ce, (idx, v) in enumerate(critical_edges(graph, chi)):
        full.append(frozenset(graph.edges[idx][1]))
        by_support[v].append(ce)

    def excess(subset):
        owned = set()
        for v in subset:
            owned.update(by_support.get(v, ()))
        heavy = sum(1 for ce in owned if len(full[ce] & subset) >= 2)
        return heavy - 2 * len(subset)

    best = None
    best_witness = None
    violations = []
    for t in range(1, t_max + 1):
        for combo in itertools.combinations(range(graph.n), t):
            subset = frozenset(combo)
            val = excess(subset)
            if best is None or val > best:
                best, best_witness = val, subset
            if val > 0:
                violations.append(subset)
    return best, best_witness, tuple(violations)
