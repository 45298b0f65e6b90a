"""Random generation under the uniform and planted models.

The uniform model is the uniform measure on homomorphisms whose generator
images are disjoint products of k-cycles. The planted model conditions that
measure on a fixed equitable coloring being proper; it factorizes into
independent per-generator draws, which is what makes direct sampling cheap:
draw a block-type vector with its exact weight, build a uniform partition of
that type, then place an independent uniform k-cycle on every block.

A draw loops over the generators making only the stream calls: the type
double, shuffles of the point classes and block matches, and one
`Generator.permuted` call for the cycle orders of all the generator's
blocks. Each consumes the stream exactly as the per-block `permutation`
calls it stands for, so per-block draws are reproduced bit for bit. One
stream-free array pass over all d generators then builds the images. The
planted draw's properness is read off the homomorphism's orbit table.

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
        # one 128-bit key, seed in the low word: a list of the two would pass
        # a value of 2^63 or more through a float and merge distinct keys
        return np.random.Generator(np.random.Philox(key=self.seed | self.stream << 64))


def _as_generator(rng):
    if isinstance(rng, RngState):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngState or numpy Generator")


def _cycle_images(blocks, cols):
    """(d, n) images of the cycles that cols, of shape (d, m, k), puts on
    the blocks of flat ids i*n + v. A row of cols is 0, then an order of
    1..k-1: fixing the leader gives each cyclic order exactly once.
    """
    d, m, k = blocks.shape
    cycles = blocks.take(cols + np.arange(0, blocks.size, k).reshape(d, m, 1))
    img = np.empty(blocks.size, dtype=np.intp)
    img[cycles] = cycles.take(np.arange(1, k + 1) % k, axis=2)
    return img.reshape(d, m * k) - np.arange(0, blocks.size, m * k)[:, None]


def sample_uniform_hom(params: ModelParams, rng) -> UniformHom:
    """One exactly-uniform draw: shuffle, cut into k-blocks, cycle each block.

    Every unordered k-partition arises from the same number of shuffles, and
    the cycles are independent and uniform per block, so the output measure
    is exactly the uniform one.
    """
    params.require_uniform()
    gen = _as_generator(rng)
    d, k, n = params.d, params.k, params.n
    order = np.arange(d * n).reshape(d, n)
    cols = np.arange(k)[None].repeat(d * n // k, axis=0).reshape(d, n // k, k)
    for i in range(d):
        gen.shuffle(order[i])
        gen.permuted(cols[i, :, 1:], axis=1, out=cols[i, :, 1:])
    return UniformHom(params, _cycle_images(order.reshape(cols.shape), cols))


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


def _typed_blocks(ones, zeros, match, counts):
    """Generator i's typed partition as row i of a (d, m, k) array of flat
    ids i*n + v, each block sorted and the blocks by least vertex.

    Type counts[i] = (c_1..c_{k-1}) cuts the shuffled classes ones[i] and
    zeros[i] in type order into c_j blocks of j ones and of k-j zeros; the
    r-th ones block takes zeros block match[i, r] - i*m. Reads no stream.
    Together the classes hold every flat id below d*n once.

    No row is sorted: every flat vertex gets its block's number by two
    scatters, one stable argsort of those numbers lists each block's
    members in ascending order, and the blocks are read in order of their
    least vertex, the first of each block met in vertex order.
    """
    k = counts.shape[1] + 1
    need = counts.dot(np.arange(1, k)), counts.dot(np.arange(k - 1, 0, -1))
    bad = (need[0] != ones.shape[1]) | (need[1] != zeros.shape[1])
    if bad.any():
        raise ValueError("type is infeasible for this coloring: needs %d ones and %d zeros"
                         % (need[0][bad.argmax()], need[1][bad.argmax()]))
    # zeros run r fills block r and ones run r block match[r]; the block
    # numbers are held in the fewest bytes, where numpy's stable sort is a
    # radix sort
    rows = match.size
    width = np.repeat(np.arange(counts.size) % (k - 1) + 1, counts.ravel())
    block = np.empty(rows * k, dtype=np.min_scalar_type(rows))
    block[ones.ravel()] = np.repeat(match.ravel(), width)
    block[zeros.ravel()] = np.repeat(np.arange(rows), k - width)
    members = np.argsort(block, kind="stable").reshape(rows, k)
    leader = np.zeros(rows * k, dtype=bool)
    leader[members[:, 0]] = True
    return members.take(block[leader], axis=0).reshape(*match.shape, k)


def _monochromatic_orbit_count(orbits, chi):
    """Number of generator orbits on which chi is constant.

    Read from the (k, d, n) orbit table: position (i, v) lies on a
    monochromatic orbit when chi is the same at every orbits[j, i, v], and
    each orbit has k such positions.
    """
    colors = chi[orbits]
    same = (colors == colors[0]).all(axis=0)
    return int(np.count_nonzero(same)) // len(orbits)


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
    d, k, n = params.d, params.k, params.n
    m = n // k
    ones, zeros = (np.arange(0, d * n, n)[:, None] + np.flatnonzero(chi == b) for b in (1, 0))
    counts = np.empty((d, k - 1), dtype=np.intp)
    match = np.arange(d * m).reshape(d, m)
    cols = np.arange(k)[None].repeat(d * m, axis=0).reshape(d, m, k)
    for i in range(d):
        counts[i] = type_counts = _draw_type_counts(n, k, gen)
        gen.shuffle(ones[i])
        gen.shuffle(zeros[i])
        for s, c in zip(accumulate(type_counts, initial=0), type_counts):
            gen.shuffle(match[i, s : s + c])  # s + gen.permutation(c)
        gen.permuted(cols[i, :, 1:], axis=1, out=cols[i, :, 1:])
    hom = UniformHom(params, _cycle_images(_typed_blocks(ones, zeros, match, counts), cols))
    if _monochromatic_orbit_count(hom.orbits, chi):
        raise RuntimeError("planted draw has a monochromatic edge")
    return hom
