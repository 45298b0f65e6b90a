"""Random generation under the uniform and planted models.

The uniform model is the uniform measure on homomorphisms whose generator
images are disjoint products of k-cycles. The planted model conditions that
measure on a fixed equitable coloring being proper; it factorizes into
independent per-generator draws, which is what makes direct sampling cheap:
draw a block-type vector with its exact weight, build a uniform partition of
that type, then place an independent uniform k-cycle on every block.

Each generator's partition is a block array, and one `Generator.permuted`
call draws the cycle orders of all its blocks. That call consumes the stream
exactly as one `permutation(k - 1)` per block would, so the array samplers
reproduce the per-block draws bit for bit. The planted draw's properness is
checked from the image arrays, not from a rebuilt hypergraph.

All samplers are pure given an RngState: the same (seed, stream) pair always
reproduces the same output. Passing a live numpy Generator instead chains
draws within one experiment.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .group_model import ModelParams, UniformHom, typed_partition_count
from .hypergraph import _coloring_array

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


def _cycle_images(blocks, gen):
    """Image array of an independent uniform k-cycle on every row of blocks.

    Each row's first element leads its cycle, and one permuted call orders
    the other k-1 elements of every row; fixing the leader hits each of the
    (k-1)! cyclic orders exactly once. The call consumes the stream exactly
    as one gen.permutation(k - 1) per row, in row order, would.
    """
    m, k = blocks.shape
    cols = np.empty((m, k), dtype=np.intp)
    cols[:] = np.arange(k)
    gen.permuted(cols[:, 1:], axis=1, out=cols[:, 1:])
    cycles = blocks[np.arange(m)[:, None], cols]
    img = np.empty(blocks.size, dtype=np.intp)
    img[cycles[:, :-1]] = cycles[:, 1:]
    img[cycles[:, -1]] = cycles[:, 0]
    return img


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
        images.append(_cycle_images(order.reshape(-1, params.k), gen))
    return UniformHom(params, images)


def _type_count_vectors(k, blocks, ones):
    """Integer vectors (c_1..c_{k-1}) >= 0 with sum c_j = blocks and
    sum j*c_j = ones, in lexicographic order.

    Only c_1..c_{k-3} are enumerated; the two constraints then fix c_{k-2}
    and c_{k-1}, which are kept when both are nonnegative.
    """
    if k == 2:
        return [(blocks,)] if blocks == ones >= 0 else []
    out = []
    vec = []

    def rec(j, blocks_left, ones_left):
        if j == k - 2:
            last = ones_left - (k - 2) * blocks_left
            if 0 <= last <= blocks_left:
                out.append(tuple(vec) + (blocks_left - last, last))
            return
        for c in range(min(blocks_left, ones_left // j) + 1):
            vec.append(c)
            rec(j + 1, blocks_left - c, ones_left - j * c)
            vec.pop()

    rec(1, blocks, ones)
    return out


@lru_cache(maxsize=None)
def _balanced_type_table(n, k):
    """All balanced bichromatic types at scale n with their cumulative weights.

    A type with c_j blocks of j ones weighs as many partitions as it has:
    two color classes of n/2 vertices, c_j blocks of shape (j, k-j). The
    weights stay exact integers, so no type is lost to float underflow.
    """
    if n % k or n % 2:
        raise ValueError("need n divisible by both k and 2")
    types = _type_count_vectors(k, n // k, n // 2)
    if not types:
        raise ValueError("no bichromatic type exists for n=%d, k=%d" % (n, k))
    shapes = [(j, k - j) for j in range(1, k)]
    weights = (typed_partition_count((n // 2, n // 2), zip(shapes, c)) for c in types)
    return tuple(types), tuple(accumulate(weights))


def _draw_type_counts(n, k, gen):
    """Block counts (c_1..c_{k-1}) drawn with probability proportional to
    their weight at a balanced coloring.

    One gen.random() double u = m/2^53 is inverted against the exact
    cumulative weights: the type is the first whose cumulative weight
    exceeds u times the total, which is floor(m * total / 2^53) in
    integers. That draws one double, as Generator.choice over the
    normalized float weights does.
    """
    types, cum = _balanced_type_table(n, k)
    m = int(gen.random() * 2**53)
    return types[bisect_right(cum, m * cum[-1] >> 53)]


def _typed_blocks(chi, k, counts, gen):
    """Blocks of a uniform k-partition with c_j blocks of j ones, as the
    rows of an array; each row is sorted and rows go by least vertex.

    Shuffle both color classes, cut the ones into c_j blocks of size j and
    the zeros into c_j blocks of size k-j for each j in turn, and match them
    by a uniform permutation. The blocks are disjoint, so ordering rows by
    their least vertex is the sorted order of the blocks as tuples.
    """
    ones = np.flatnonzero(chi == 1)
    zeros = np.flatnonzero(chi == 0)
    need_ones = sum(j * c for j, c in enumerate(counts, start=1))
    need_zeros = sum((k - j) * c for j, c in enumerate(counts, start=1))
    if need_ones != ones.size or need_zeros != zeros.size:
        raise ValueError(
            "type is infeasible for this coloring: needs %d ones and %d zeros"
            % (need_ones, need_zeros)
        )
    ones = ones[gen.permutation(ones.size)]
    zeros = zeros[gen.permutation(zeros.size)]
    rows = []
    pos_one = pos_zero = 0
    for j, c in enumerate(counts, start=1):
        if not c:
            continue
        one_blocks = ones[pos_one : pos_one + j * c].reshape(c, j)
        zero_blocks = zeros[pos_zero : pos_zero + (k - j) * c].reshape(c, k - j)
        pos_one += j * c
        pos_zero += (k - j) * c
        rows.append(np.concatenate((one_blocks, zero_blocks[gen.permutation(c)]), axis=1))
    # the values are distinct, so every sort kind gives this order; the
    # stable kind pages in less sort code on first use (about 0.1 MB of peak
    # RSS against 0.5 MB for the default kind, measured on x86-64)
    blocks = np.sort(np.concatenate(rows), axis=1, kind="stable")
    return blocks[np.argsort(blocks[:, 0], kind="stable")]


def _monochromatic_orbit_count(images, chi, k):
    """Number of generator orbits on which chi is constant.

    Read from the image arrays: v lies on a monochromatic orbit when chi
    agrees at v, img v, ..., img^(k-1) v, and each orbit has k such v.
    """
    total = 0
    for img in images:
        same = np.ones(img.size, dtype=bool)
        cur = np.arange(img.size)
        for _ in range(k - 1):
            cur = img[cur]
            same &= chi[cur] == chi
        total += int(np.count_nonzero(same)) // k
    return total


def sample_planted_hom(params: ModelParams, chi, rng) -> UniformHom:
    """One exactly-uniform draw from the planted model for the coloring chi.

    Independently per generator: type vector, then typed partition, then a
    uniform k-cycle per block.
    """
    params.require_uniform()
    params.require_equitable()
    gen = _as_generator(rng)
    chi = _coloring_array(chi, params.n)
    if 2 * int(chi.sum()) != params.n:
        raise ValueError("type sampling requires an equitable coloring")
    images = []
    for _ in range(params.d):
        counts = _draw_type_counts(params.n, params.k, gen)
        blocks = _typed_blocks(chi, params.k, counts, gen)
        images.append(_cycle_images(blocks, gen))
    hom = UniformHom(params, images)
    if _monochromatic_orbit_count(images, chi, params.k):
        raise RuntimeError("planted draw has a monochromatic edge")
    return hom
