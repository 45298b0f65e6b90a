"""Random generation under the uniform and planted models.

The uniform model is the uniform measure on homomorphisms whose generator
images are disjoint products of k-cycles. The planted model conditions that
measure on a fixed equitable coloring being proper; it factorizes into
independent per-generator draws, which is what makes direct sampling cheap:
draw a block-type vector with its exact weight, build a uniform partition of
that type, then place an independent uniform k-cycle on every block.

All samplers are pure given an RngState: the same (seed, stream) pair always
reproduces the same output. Passing a live numpy Generator instead chains
draws within one experiment.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._errors import ScaleRefusal
from .group_model import ModelParams, UniformHom
from .hypergraph import build_hypergraph, monochromatic_edge_count

REJECTION_ORACLE_MAX_N = 40

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class RngState:
    """Seed plus stream counter for a splittable counter-based generator."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not 0 <= value <= _UINT64_MASK:
                raise ValueError("%s must fit in 64 unsigned bits" % name)

    def generator(self):
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def with_stream(self, stream):
        return RngState(self.seed, stream)


def _as_generator(rng):
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngState or numpy Generator")


def _cycle_on_block(block, gen, img):
    """Write a uniform k-cycle on the given block into img.

    Fixing the first element as cycle leader and permuting the rest hits each
    of the (k-1)! cyclic orders exactly once.
    """
    rest = list(block[1:])
    order = gen.permutation(len(rest))
    cyc = [block[0]] + [rest[i] for i in order]
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        img[int(a)] = int(b)


def sample_uniform_hom(params: ModelParams, rng) -> UniformHom:
    """One exactly-uniform draw: shuffle, cut into k-blocks, cycle each block.

    Every unordered k-partition arises from the same number of shuffles, and
    the cycles are independent and uniform per block, so the output measure
    is exactly the uniform one.
    """
    params.require_uniform()
    gen = _as_generator(rng)
    images = []
    for _ in range(params.d):
        order = gen.permutation(params.n)
        img = [0] * params.n
        for start in range(0, params.n, params.k):
            _cycle_on_block(list(order[start : start + params.k]), gen, img)
        images.append(img)
    return UniformHom(params, images)


def _type_count_vectors(k, blocks, ones):
    """Integer vectors (c_1..c_{k-1}) with sum c_j = blocks, sum j*c_j = ones."""
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


def type_weight(k, counts):
    """Exact number of typed balanced partitions with c_j blocks of j ones.

    This is (n/2)!^2 divided by prod_j j!^c_j (k-j)!^c_j c_j!, where
    n = k * sum(counts); one factorial per color class, one overcount factor
    per block interior, and one c_j! for reordering equal-type blocks (the
    matching between one-side and zero-side blocks absorbs the other).
    """
    ones = sum(j * c for j, c in zip(range(1, k), counts))
    zeros = sum((k - j) * c for j, c in zip(range(1, k), counts))
    num = math.factorial(ones) * math.factorial(zeros)
    den = 1
    for j, c in zip(range(1, k), counts):
        den *= (math.factorial(j) * math.factorial(k - j)) ** c * math.factorial(c)
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def _balanced_type_table(n, k):
    """All balanced bichromatic types at scale n with exact and float weights."""
    if n % k or n % 2:
        raise ValueError("need n divisible by both k and 2")
    types = _type_count_vectors(k, n // k, n // 2)
    if not types:
        raise ValueError("no bichromatic type exists for n=%d, k=%d" % (n, k))
    weights = [type_weight(k, c) for c in types]
    wmax = max(weights)
    probs = np.empty(len(weights))
    for i, w in enumerate(weights):
        x = float(Fraction(w, wmax))
        # Correctly rounded division keeps the relative error at or below
        # 2^-53 whenever the result is a normal float, so the 1e-12 guard
        # reduces to catching underflow.
        if w and x < sys.float_info.min:
            raise ValueError(
                "type weights for n=%d, k=%d are too skewed to collapse to "
                "floats within 1e-12 relative error" % (n, k)
            )
        probs[i] = x
    probs /= probs.sum()
    return tuple(types), tuple(weights), probs


def sample_type_vector(n, k, chi, rng):
    """Draw a block-type vector with probability proportional to its weight.

    Returns (t_0..t_k) as exact fractions of n, with t_0 = t_k = 0. chi must
    be equitable; the type distribution depends on it only through that.
    """
    gen = _as_generator(rng)
    if len(chi) != n:
        raise ValueError("coloring length mismatch")
    if 2 * sum(chi) != n:
        raise ValueError("type sampling requires an equitable coloring")
    types, _, probs = _balanced_type_table(n, k)
    idx = int(gen.choice(len(types), p=probs))
    counts = types[idx]
    return (Fraction(0),) + tuple(Fraction(c, n) for c in counts) + (Fraction(0),)


def _counts_from_type(n, k, type_vector):
    if len(type_vector) != k + 1:
        raise ValueError("type vector must have k+1 entries")
    counts = []
    for t in type_vector:
        c = Fraction(t) * n
        if c.denominator != 1 or c < 0:
            raise ValueError("type entry %r is not a count at scale n=%d" % (t, n))
        counts.append(int(c))
    if counts[0] or counts[k]:
        raise ValueError("bichromatic types need t_0 = t_k = 0")
    return counts


def sample_bichromatic_partition(n, chi, type_vector, rng):
    """Uniform k-partition of the given type: all blocks bichromatic, c_j of
    them with exactly j ones.

    Shuffle-and-cut each color class into blocks of the prescribed sizes,
    then match one-side blocks of size j to zero-side blocks of size k-j by
    a uniform matching. Each typed partition arises from the same number of
    (shuffle, shuffle, matching) triples, so the output is exactly uniform.
    """
    gen = _as_generator(rng)
    k = len(type_vector) - 1
    counts = _counts_from_type(n, k, type_vector)
    ones = [v for v in range(n) if chi[v] == 1]
    zeros = [v for v in range(n) if chi[v] == 0]
    need_ones = sum(j * c for j, c in enumerate(counts))
    need_zeros = sum((k - j) * c for j, c in enumerate(counts))
    if need_ones != len(ones) or need_zeros != len(zeros):
        raise ValueError(
            "type is infeasible for this coloring: needs %d ones and %d zeros"
            % (need_ones, need_zeros)
        )
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


def sample_planted_hom(params: ModelParams, chi, rng) -> UniformHom:
    """One exactly-uniform draw from the planted model for the coloring chi.

    Independently per generator: type vector, then typed partition, then a
    uniform k-cycle per block.
    """
    params.require_uniform()
    params.require_equitable()
    gen = _as_generator(rng)
    if len(chi) != params.n:
        raise ValueError("coloring length mismatch")
    images = []
    for _ in range(params.d):
        t = sample_type_vector(params.n, params.k, chi, gen)
        parts = sample_bichromatic_partition(params.n, chi, t, gen)
        img = [0] * params.n
        for part in parts:
            _cycle_on_block(part, gen, img)
        images.append(img)
    hom = UniformHom(params, images)
    if monochromatic_edge_count(build_hypergraph(hom), chi):
        raise RuntimeError("planted draw has a monochromatic edge")
    return hom


def sample_planted_hom_rejection(params: ModelParams, chi, rng, max_tries=100000):
    """Cross-check oracle: per-generator rejection, no type tables involved.

    The planted measure is the uniform one conditioned on the product event
    "every generator's orbits are bichromatic", so conditioning each
    generator independently reproduces it. Refuses n beyond the oracle range
    since acceptance probabilities degenerate.
    """
    if params.n > REJECTION_ORACLE_MAX_N:
        raise ScaleRefusal(
            "rejection oracle supports n <= %d, got n=%d"
            % (REJECTION_ORACLE_MAX_N, params.n),
            count=params.n,
        )
    params.require_uniform()
    params.require_equitable()
    gen = _as_generator(rng)
    single = ModelParams(d=1, k=params.k, n=params.n)
    images = []
    for _ in range(params.d):
        for _ in range(max_tries):
            candidate = sample_uniform_hom(single, gen)
            if monochromatic_edge_count(build_hypergraph(candidate), chi) == 0:
                images.append(list(candidate.images[0]))
                break
        else:
            raise RuntimeError("rejection sampler exceeded %d tries" % max_tries)
    return UniformHom(params, images)
