"""The exact coloring measure on windows of the Cayley hyper-tree.

Vertices of the tree are reduced words; the edge with a given generator
label through a word is that word's left coset under the generator, so
edges meet in at most one vertex and every finite connected window is a
hyper-tree. A window is built from generator words: TreeDomain takes
(label, word) pairs, each naming the label-coset through its word, and
builds each coset once; build_ball and single_edge_domain are its two
builders. Proper 2-colorings of such a window can be counted in closed
form (each edge after the first attaches at a single already-colored
vertex and contributes a factor 2^(k-1)-1), sampled exactly, and compared
against pullbacks of colored finite instances. A pattern is a tuple of
0/1 ints, one per domain element in domain.elements order; it carries no
words, so patterns of two domains with the same bits compare equal.

The root-status sampler at the end estimates how often the tree root lands
in the core / attached / overlap sets of the peeling hierarchy without
materializing a ball: it lazily expands only the edges the status
computation actually inspects. It draws every edge's support position but
keeps only the supported edges, the only ones the status code reads. A
node holds just its supports, sliced from the draw buffer; an edge is
(owner, index into the owner's supports); members are built one at a time
on first read, and a level-1 witness reads no member.
"""

import heapq
import itertools
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from ._errors import ScaleRefusal
from .group_model import (
    IDENTITY,
    _word_arrays,
    word_inverse,
)
from .hypergraph import _coloring_array
from .samplers import _as_generator

DEFAULT_BALL_MAX_ELEMENTS = 100_000
BRUTE_PATTERN_MAX_ELEMENTS = 20
CORE_SAMPLER_MAX_DEGREE = 10_000
# a completion or support draw's modulus 2^(k-1) - 1 must fit numpy's int64
DRAW_MAX_K = 64


def _word_key(word):
    return (sum(e for _, e in word), word)


class TreeDomain:
    """A finite window of the hyper-tree: the identity and the generator
    cosets named by the (label, word) pairs, each pair naming the
    label-coset through its word.

    Each coset is built once, pairs naming the same coset give one edge, and
    the elements are the identity and the union of the edges. The union
    must be connected to the identity; the attach order found along the way
    (each edge meeting the already-covered part in exactly one vertex) is
    kept for counting and sampling.
    """

    __slots__ = ("d", "k", "elements", "edges", "attach_at", "_index")

    def __init__(self, params, generators):
        cosets = set()
        for label, word in generators:
            if not 0 <= label < params.d:
                raise ValueError("edge label %d out of range 0..%d" % (label, params.d - 1))
            cosets.add((label, _coset(params.k, label, word)))
        # a coset is in _word_key order, so its base alone sorts it
        edges = sorted(cosets, key=lambda edge: (edge[0], _word_key(edge[1][0])))

        # Each step attaches the first edge, in sorted order, that meets the
        # covered part: the least position on a heap of the edges meeting it.
        touching = {}
        for pos, (_, members) in enumerate(edges):
            for w in members:
                touching.setdefault(w, []).append(pos)
        attach_order = []
        attach_at = []
        meeting = list(touching.get(IDENTITY, ()))
        covered = {IDENTITY}
        while meeting:
            pos = heapq.heappop(meeting)
            label, members = edges[pos]
            met = [w for w in members if w in covered]
            if len(met) > 1:
                raise RuntimeError("coset %r closes a hyper-cycle" % (members,))
            attach_order.append((label, members))
            attach_at.append(met[0])
            for w in members:
                if w != met[0]:
                    covered.add(w)
                    for other in touching[w]:
                        if other != pos:
                            heapq.heappush(meeting, other)
        if len(attach_order) < len(edges):
            raise ValueError("domain is not connected to the identity")

        # every edge attached, so the covered part is the whole union
        elements = tuple(sorted(covered, key=_word_key))
        object.__setattr__(self, "d", params.d)
        object.__setattr__(self, "k", params.k)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "edges", tuple(attach_order))
        object.__setattr__(self, "attach_at", tuple(attach_at))
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(elements)})

    def __setattr__(self, name, value):
        raise AttributeError("TreeDomain is immutable")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, word):
        return word in self._index

    def index(self, word):
        return self._index[word]


def _coset(k, label, member):
    """The k elements of the generator coset through the given word, in
    _word_key order: the base, which is the word with any trailing label
    syllable dropped, then base * s^e for e = 1..k-1, each one longer."""
    base = member[:-1] if member and member[-1][0] == label else member
    return (base,) + tuple(base + ((label, e),) for e in range(1, k))


def ball_element_count(d, k, radius):
    """Closed-form element count of the radius-r ball (r edge-layers)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    total = 1
    layer = d * (k - 1)
    for _ in range(radius):
        total += layer
        layer *= (d - 1) * (k - 1)
    return total


def build_ball(params, radius):
    """The ball of the given edge-layer radius around the identity."""
    count = ball_element_count(params.d, params.k, radius)
    if count > DEFAULT_BALL_MAX_ELEMENTS:
        raise ScaleRefusal(
            "radius-%d ball has %d elements (budget %d)"
            % (radius, count, DEFAULT_BALL_MAX_ELEMENTS)
        )
    generators = []
    frontier = [IDENTITY]
    for _ in range(radius):
        # each new coset through g: every label but the one g arrived by
        pairs = [(label, g) for g in frontier for label in range(params.d)
                 if not g or label != g[-1][0]]
        generators += pairs
        frontier = [g + ((label, e),) for label, g in pairs for e in range(1, params.k)]
    domain = TreeDomain(params, generators)
    if len(domain) != count:
        raise RuntimeError(
            "radius-%d ball has %d elements, closed form says %d"
            % (radius, len(domain), count)
        )
    return domain


def single_edge_domain(params, label=0):
    """The domain of the one generator-label edge through the identity."""
    return TreeDomain(params, [(label, IDENTITY)])


def _edge_positions(domain):
    """The (E, k) array of the domain positions of each edge's members."""
    positions = [[domain.index(w) for w in members] for _, members in domain.edges]
    return np.array(positions, dtype=np.intp).reshape(len(positions), domain.k)


def _proper_columns(domain, bits):
    """Which columns of a (|domain|, m) 0/1 array are proper patterns: a
    column is proper when no edge row of it is constant."""
    on_edges = bits[_edge_positions(domain)]
    return (on_edges.min(axis=1) != on_edges.max(axis=1)).all(axis=0)


def _checked_pattern(domain, pattern):
    """A pattern given from outside, one 0 or 1 per domain element in
    domain.elements order, checked and returned as a tuple of ints."""
    pattern = tuple(pattern)
    if len(pattern) != len(domain):
        raise ValueError(
            "pattern does not cover the domain: %d values for %d elements"
            % (len(pattern), len(domain))
        )
    if not all(b in (0, 1) for b in pattern):
        raise ValueError("pattern values must be 0 or 1")
    return tuple(int(b) for b in pattern)


def count_proper_patterns(domain):
    """Number of proper patterns, via the attach-order recursion.

    A lone vertex has 2 patterns; a first edge has 2^k - 2 proper colorings;
    every further edge is glued at one already-colored vertex and multiplies
    the count by 2^(k-1) - 1 (all completions except the monochromatic one).
    """
    if not domain.edges:
        return 2
    k = domain.k
    count = 2 ** k - 2
    for _ in domain.edges[1:]:
        count *= 2 ** (k - 1) - 1
    return count


def enumerate_proper_patterns(domain):
    """Yield every proper pattern by brute force; oracle-scale domains only."""
    if len(domain) > BRUTE_PATTERN_MAX_ELEMENTS:
        raise ScaleRefusal(
            "brute-force enumeration over %d elements refused" % len(domain)
        )
    member_indices = _edge_positions(domain).tolist()
    for bits in itertools.product((0, 1), repeat=len(domain)):
        if all(len({bits[i] for i in idxs}) > 1 for idxs in member_indices):
            yield bits


def cylinder_probability(domain, pattern):
    """Measure of the set of tree colorings extending the pattern.

    Every proper pattern has the same cylinder mass 1/Q, Q the proper
    pattern count; an improper pattern's cylinder contains no proper
    coloring at all, so its probability is 0 (warned, since it usually
    means a pullback went through a short cycle).
    """
    bits = _checked_pattern(domain, pattern)
    if not _proper_columns(domain, np.array(bits)[:, None])[0]:
        warnings.warn("improper pattern has an empty cylinder", stacklevel=2)
        return Fraction(0)
    return Fraction(1, count_proper_patterns(domain))


def sample_proper_pattern(domain, rng):
    """One exact draw from the uniform distribution on proper patterns.

    The identity gets a fair bit; each edge in attach order is completed
    uniformly among the 2^(k-1) - 1 assignments of its k-1 new vertices
    that avoid going monochromatic. Multiplying the choice counts gives
    exactly the proper-pattern total, so the draw is uniform.
    """
    k = domain.k
    if domain.edges and k > DRAW_MAX_K:
        raise ValueError(
            "pattern sampling needs k <= %d on a domain with edges, got k=%d"
            % (DRAW_MAX_K, k)
        )
    gen = _as_generator(rng)
    bits = [0] * len(domain)
    bits[domain.index(IDENTITY)] = int(gen.integers(2))
    if domain.edges:
        draws = gen.integers(2 ** (k - 1) - 1, size=len(domain.edges))
    else:
        draws = ()
    for ((label, members), attach), draw in zip(
        zip(domain.edges, domain.attach_at), draws
    ):
        completion = int(draw)
        if bits[domain.index(attach)] == 0:
            completion += 1  # skip the all-zero completion
        j = 0
        for w in members:
            if w == attach:
                continue
            bits[domain.index(w)] = (completion >> j) & 1
            j += 1
    return tuple(bits)


@dataclass(frozen=True)
class PatternCensus:
    """Pullback statistics of one colored instance over a tree window.

    A pattern is a tuple of 0/1 ints, one per domain element in
    domain.elements order, so patterns of two domains with the same bits
    compare equal; counts maps each proper pattern to the number of base
    vertices whose window reads it, in order of first appearance.
    """

    n: int
    counts: dict
    improper_count: int
    noninjective_count: int

    def frequency(self, pattern):
        return Fraction(self.counts.get(pattern, 0), self.n)

    def improper_fraction(self):
        return Fraction(self.improper_count, self.n)


def _pullback_windows(hom, coloring, domain):
    """The windows at every base vertex at once, as |domain| x n matrices.

    Row i of the vertex matrix is sigma(g_i^{-1}) for the i-th domain
    element, so column v lists the vertices under the window at v (the
    identity sits over v itself, and the list need not be injective when
    the finite model has short cycles through v); the color matrix reads
    the coloring through it.
    """
    params = hom.params
    if domain.k != params.k:
        # word_inverse would reduce the domain's exponents mod the model's k
        raise ValueError(
            "domain has k=%d but the model has k=%d" % (domain.k, params.k)
        )
    colors = _coloring_array(coloring, params.n)
    inverses = [word_inverse(params, g) for g in domain.elements]
    vertices = _word_arrays(hom, inverses)
    return vertices, colors[vertices]


def local_pattern_census(hom, coloring, domain):
    """Pull the window back at every vertex and tally the proper patterns.

    Improper pullbacks are counted in one bucket (their patterns are not
    kept); non-injective windows are tallied separately and can be proper.
    Windows are grouped by one code per column, the column's bits packed
    into bytes and padded to whole uint64 words, so equal codes are equal
    colorings (_coloring_array has checked that every entry is 0 or 1).
    One stable lexsort of the codes puts equal ones together, each run in
    column order, so a run's first column is its window's first
    appearance. The distinct windows, in that order, are tested for
    properness in one array pass.
    """
    n = hom.params.n
    vertices, colors = _pullback_windows(hom, coloring, domain)
    ordered = np.sort(vertices, axis=0)
    noninjective = int(np.count_nonzero((ordered[1:] == ordered[:-1]).any(axis=0)))
    packed = np.packbits(colors.astype(np.uint8), axis=0)
    codes = np.zeros((n, -(-len(packed) // 8) * 8), dtype=np.uint8)
    codes[:, : len(packed)] = packed.T
    codes = codes.view(np.uint64)
    order = np.lexsort(codes.T)
    codes = codes[order]
    # the run bounds: every start of a run of equal codes, then n
    bounds = np.ones(n + 1, dtype=bool)
    bounds[1:n] = (codes[1:] != codes[:-1]).any(axis=1)
    bounds = np.flatnonzero(bounds)
    first = order[bounds[:-1]]
    by_first = np.argsort(first)
    windows = colors[:, first[by_first]]
    tallies = (bounds[1:] - bounds[:-1])[by_first]
    proper = _proper_columns(domain, windows)
    return PatternCensus(
        n=n,
        counts=dict(zip(map(tuple, windows[:, proper].T.tolist()), tallies[proper].tolist())),
        improper_count=int(tallies[~proper].sum()),
        noninjective_count=noninjective,
    )


def local_convergence_stat(hom, coloring, domain, pattern):
    """Fraction of base vertices whose window reads off the given pattern.

    For a local-convergence check this is compared against the cylinder
    probability 1/Q of the pattern under the tree measure.
    """
    target = np.array(_checked_pattern(domain, pattern))
    _, colors = _pullback_windows(hom, coloring, domain)
    hits = int(np.count_nonzero((colors == target[:, None]).all(axis=0)))
    return Fraction(hits, hom.params.n)


class _Node:
    __slots__ = ("parent", "index", "slot", "supports", "members", "core_memo")

    def __init__(self, parent, index, slot):
        self.parent = parent
        self.index = index
        self.slot = slot
        self.supports = None
        self.members = {}
        self.core_memo = {}


class _RootStatusSampler:
    """Lazily sampled support field around the tree root.

    Under the tree measure the support position of every edge is
    independent and uniform over the k positions with probability
    1/(2^(k-1)-1) each (unsupported otherwise), so one categorical draw per
    edge suffices. Only the supported edges are kept: the status code never
    looks inside an unsupported one, so dropping it after its draw leaves
    every status, and the stream, as they were. A node holds only its
    supports, the kept values of its own draws in draw order, sliced from
    the buffer; its edge i is (node, i), and the node that edge i of
    ``parent`` holds at position ``slot`` is (parent, i, slot). Member j of
    an edge is built on first read, one at a time, into ``members`` of the
    edge's owner, so a witness check that fails stops before it builds the
    later members. A level-1 witness reads no member at all: every vertex
    is in the level-0 core. The tests keep the object route, one edge
    object per supported edge with all its members built at once, as
    core_density_objects_oracle, and the slower colors route, which samples
    each edge's proper completion and reads the support off its colors, as
    core_density_colors_oracle.

    A node's d or d-1 draws come from a buffer refilled by one large
    ``integers`` call, whose kept positions one ``flatnonzero`` lists.
    Numpy draws bounded integers one value at a time from the bit
    generator's 32-bit stream, so the values are those that per-node calls
    would return; ``used`` counts the values handed out, which is what
    per-node calls would have taken from the stream. The caller replays
    exactly that many to leave the generator where they would have left it.
    """

    def __init__(self, d, k, gen):
        self.d = d
        self.k = k
        self.modulus = 2 ** (k - 1) - 1
        self.gen = gen
        self.buffer = np.empty(0, dtype=np.int64)
        self.kept = []  # buffer positions of the values below k
        self.kept_values = []
        self.pos = 0
        self.used = 0

    def _supports(self, node):
        """The node's supports, drawn on first read."""
        if node.supports is None:
            count = self.d if node.parent is None else self.d - 1
            pos = self.pos
            if pos + count > len(self.buffer):
                self.buffer = np.concatenate((
                    self.buffer[pos:],
                    self.gen.integers(self.modulus, size=max(4096, count)),
                ))
                kept = np.flatnonzero(self.buffer < self.k)
                self.kept = kept.tolist()
                self.kept_values = self.buffer[kept].tolist()
                pos = 0
            self.pos = pos + count
            self.used += count
            lo = bisect_left(self.kept, pos)
            node.supports = self.kept_values[lo : bisect_left(self.kept, self.pos, lo)]
        return node.supports

    def _member(self, owner, i, j):
        """Vertex j of the owner's edge i; vertex 0 is the owner."""
        if j == 0:
            return owner
        node = owner.members.get((i, j))
        if node is None:
            node = owner.members[i, j] = _Node(owner, i, j)
        return node

    def _in_core(self, node, level):
        if level == 0:
            return True
        hit = node.core_memo.get(level)
        if hit is not None:
            return hit
        # own edges in draw order, then the one the node hangs from
        supports = self._supports(node)
        if level == 1:
            count = supports.count(0)
        else:
            count = 0
            for i, s in enumerate(supports):
                if s == 0 and self._is_witness(node, i, 0, level):
                    count += 1
                    if count == 3:
                        break
        parent = node.parent
        if (
            count < 3
            and parent is not None
            and parent.supports[node.index] == node.slot
            and self._is_witness(parent, node.index, node.slot, level)
        ):
            count += 1
        node.core_memo[level] = count >= 3
        return count >= 3

    def _is_witness(self, owner, i, pos, level):
        return level == 1 or all(
            self._in_core(self._member(owner, i, j), level - 1)
            for j in range(self.k)
            if j != pos
        )

    def root_status(self, level):
        if level == 0:
            return "core"
        root = _Node(None, None, None)
        supports = self._supports(root)
        witnesses = [
            i
            for i, s in enumerate(supports)
            if s == 0 and self._is_witness(root, i, 0, level)
        ]
        if len(witnesses) >= 3:
            return "core"
        if not witnesses:
            return "outside"
        # The root is attached; it lands in the overlap part when some other
        # attached vertex has a witness edge meeting one of the root's.
        # Candidate edges all pass through a member of a root witness edge.
        for i, s in enumerate(supports):
            if s and self._is_witness(root, i, s, level) and not self._in_core(
                self._member(root, i, s), level
            ):
                return "attached_overlap"
        for i in witnesses:
            for j in range(1, self.k):
                u = self._member(root, i, j)
                # u's own edges; the one it hangs from is the root's witness
                for f, s in enumerate(self._supports(u)):
                    if self._is_witness(u, f, s, level) and not self._in_core(
                        self._member(u, f, s), level
                    ):
                        return "attached_overlap"
        return "attached"


@dataclass(frozen=True)
class CoreDensityEstimate:
    """Monte Carlo tally of the root's peeling status at one level."""

    d: int
    k: int
    level: int
    samples: int
    core_count: int
    attached_count: int  # includes the overlap part
    overlap_count: int

    def core_frequency(self):
        return Fraction(self.core_count, self.samples)

    def union_frequency(self):
        """Frequency of core-or-attached."""
        return Fraction(self.core_count + self.attached_count, self.samples)

    def rigid_frequency(self):
        return Fraction(
            self.core_count + self.attached_count - self.overlap_count,
            self.samples,
        )

    def rigid_stderr(self):
        p = float(self.rigid_frequency())
        return sqrt(p * (1.0 - p) / self.samples)


def core_density_estimate(d, k, level, samples, rng):
    """Tally the root's peeling status at the given level over independent
    samples of the tree's support field; the generator is left where
    per-node draws would have left it."""
    _check_core_sampler_args(d, k, level)
    if samples < 1:
        raise ValueError("need at least one sample")
    gen = _as_generator(rng)
    start = gen.bit_generator.state
    sampler = _RootStatusSampler(d, k, gen)
    core = attached = overlap = 0
    try:
        for _ in range(samples):
            status = sampler.root_status(level)
            if status == "core":
                core += 1
            elif status == "attached":
                attached += 1
            elif status == "attached_overlap":
                attached += 1
                overlap += 1
    finally:
        # The buffer drew ahead; rewind and take exactly the values used.
        gen.bit_generator.state = start
        gen.integers(sampler.modulus, size=sampler.used)
    return CoreDensityEstimate(
        d=d,
        k=k,
        level=level,
        samples=samples,
        core_count=core,
        attached_count=attached,
        overlap_count=overlap,
    )


def _check_core_sampler_args(d, k, level):
    if k < 3:
        raise ValueError("supporting vertices are undefined for k=2; need k >= 3")
    if k > DRAW_MAX_K:
        raise ValueError("core sampling needs k <= %d, got k=%d" % (DRAW_MAX_K, k))
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > CORE_SAMPLER_MAX_DEGREE:
        raise ScaleRefusal("core sampling at degree %d refused" % d)
    if level < 0:
        raise ValueError("level must be nonnegative")
