"""Exact counting at oracle scale.

Counts proper and near-proper colorings of labeled hypergraphs with one
forward pass over the vertices (_frontier_table), evaluates the closed-form
typed-partition counts, and combines them into exact model moments.
Everything here is big-integer or big-rational arithmetic; no floating point
enters any value.

The pass colors the vertices in a greedy order that keeps few edges open (an
open edge has a colored and an uncolored vertex). Its state holds each open
edge that is still monochromatic, with its color, and two weights against a
reference coloring: a, the ref-0 vertices colored 1, and b, the ref-1
vertices colored 0. A layer of states is a uint64 key array with an int64
value array beside it, and states with the same key are merged, so the cost
grows with the number of states on the frontier, not with the number of
colorings. Each step colors two vertices, all four color pairs at once, so
that the fixed cost of each numpy call is paid once per pair of vertices.
Each count reads coefficients of the final (a, b) table:

- count_proper: the whole table (no weights tracked; with eps > 0 the state
  also counts the monochromatic edges closed, up to floor(eps * n)).
- count_equitable: the entry a = n/2 against the all-0 reference.
- count_at_distance at f flips: the entry (f/2, f/2) against chi.
- cluster_size: the entries (j, j) with 2j <= floor(n * 2^(-k/2)).

The two collect functions and the rigidity search (structure.py, against
chi on its region only) run the same pass with each coloring kept as an int,
and list them lexicographically over a breadth-first vertex order, 0 first.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._errors import ScaleRefusal
from .analytics import bichromatic_pair_types
from .group_model import ModelParams, typed_partition_count, typed_partition_sum
from .hypergraph import Coloring, monochromatic_edge_count

PROPER_SEARCH_MAX_N = 40
BUDGET_SEARCH_MAX_N = 32
MOMENT_MAX_N = 24
GOOD_SEARCH_MAX_N = 16
# the frontier pass keeps its values in int64, which hold 2^n up to n = 62
TABLE_MAX_N = 62
# state key slots per uint64 word, two bits each
SLOTS_PER_WORD = 32


@dataclass(frozen=True)
class CountReport:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("counts cannot be negative")


def _check_scale(n, bound, what):
    if n > bound:
        raise ScaleRefusal(
            "%s supports n <= %d, got n=%d" % (what, bound, n), count=n
        )


def _search_rank(n, edges, edges_of):
    """Position of each vertex in the breadth-first order over shared edges,
    roots in index order. Collected colorings are listed lexicographically
    over this order, 0 first."""
    rank = [-1] * n
    pos = 0
    for root in range(n):
        if rank[root] >= 0:
            continue
        rank[root] = pos
        queue = deque([root])
        pos += 1
        while queue:
            for ei in edges_of[queue.popleft()]:
                for w in edges[ei]:
                    if rank[w] < 0:
                        rank[w] = pos
                        pos += 1
                        queue.append(w)
    return rank


def _frontier_plan(n, k, edges, edges_of):
    """The pass's plan: per step of a greedy vertex order, the vertex and the
    slots of the edges it opens, keeps open and closes; and the number of
    slots used.

    Each step takes the vertex that leaves the fewest open edges (edges with
    some but not all vertices colored), ties by index. A vertex's score is
    the change in that number if it were colored next; coloring v changes
    only the scores of the members of v's edges, so only those are updated.
    An edge takes the least free slot when it opens and frees it when it
    closes."""
    # an edge's share of each member's score, by its number of colored vertices
    share = [(c == 0) - (c == k - 1) for c in range(k + 1)]
    colored = [0] * len(edges)
    score = [share[0] * len(es) for es in edges_of]
    # a colored vertex's score: a score is at most the vertex's incidences
    # and later moves by at most two per incidence, so it stays past others
    done = 3 * k * len(edges) + 1
    slot_of = [0] * len(edges)
    free = []
    slots = 0
    plan = []
    for _ in range(n):
        # index takes the first minimum, so ties go by index
        v = score.index(min(score))
        score[v] = done
        opens, keeps, closes = [], [], []
        for ei in edges_of[v]:
            c = colored[ei]
            if c == 0:
                opens.append(ei)
            elif c == k - 1:
                closes.append(slot_of[ei])
            else:
                keeps.append(slot_of[ei])
            colored[ei] = c + 1
            step = share[c + 1] - share[c]
            if step:
                for u in edges[ei]:
                    score[u] += step
        # a slot freed here may take an edge opened here: the step clears
        # the closed slots before it marks the opened ones
        for s in closes:
            heapq.heappush(free, s)
        for ei in opens:
            if free:
                slot_of[ei] = heapq.heappop(free)
            else:
                slot_of[ei] = slots
                slots += 1
        plan.append((v, [slot_of[ei] for ei in opens], keeps, closes))
    return plan, slots


def _frontier_table(graph, targets=None, ref=None, budget=0, collect=False):
    """Colorings with at most budget monochromatic edges, tabulated by the
    weights (a, b): a counts the ref-0 vertices colored 1 and b the ref-1
    vertices colored 0, ref-2 vertices neither (ref defaults to all 0).

    One forward pass colors the vertices in _frontier_plan's order, two per
    step. A state holds the color of every open edge that is still
    monochromatic (two bits in the slot the edge holds while open, see
    _frontier_plan; 0 once it is bichromatic), then a and b, then the number
    of monochromatic edges closed so far. A layer is an (m, W) uint64 array
    of state keys, slot s in word s // SLOTS_PER_WORD and the counters in the
    last word, beside an int64 array of values. A vertex colored c masks a
    key with m and adds a; the pair's step applies the four color pairs
    (c1, c2) at once as one mask m1 & m2 and one add (a1 & m2) + a2. The
    edges that close monochromatic in the pair are one popcount of the old
    key against the closing bits of both vertices, h1 | m1 & h2, in each
    word that holds any, plus popcount(a1 & h2) for an edge the first vertex
    opens and the second closes. These constants are Python ints, built by
    one loop over the vertices and one over the pairs, and one np.array call
    converts them all. Then the budget and weight tests set the top bit of
    the last word in every pruned state, and the states left are sorted and
    np.add.reduceat merges each run of equal keys. With targets, every state
    that can no longer reach a target (a, b) with the vertices left is
    pruned, so the table holds target entries only. The tests run once per
    pair, after its second vertex: a state that fails after the first fails
    after the second, since the budget count only grows and reach only
    shrinks, and the weight fields have room for two values past their
    largest target. An odd plan ends with a pad vertex that changes nothing
    and takes color 0 only.

    The color swap maps (a, b) to (ref 0s - a, ref 1s - b). When it fixes
    every target (always, with none) and the pass does not collect, every
    entry is its own swap image: the first vertex takes color 0 only and the
    table doubles. collect: the values are the colorings themselves, one row
    each and never merged, returned lazily as Colorings in value order,
    which is lexicographic over _search_rank.
    """
    n, k = graph.n, graph.k
    # a value counts colorings of up to n vertices and must fit an int64
    _check_scale(n, TABLE_MAX_N, "the frontier pass")
    edges = graph.blocks.reshape(-1, k).tolist()
    edges_of = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)
    plan, slots = _frontier_plan(n, k, edges, edges_of)
    ref = [0] * n if ref is None else list(ref)
    halve = not collect and all(
        2 * a == ref.count(0) and 2 * b == ref.count(1) for a, b in targets or ())
    wa = wb = 0
    if targets:
        # two spare values each: a weight up to two past its target is pruned
        wa = (max(a for a, _ in targets) + 2).bit_length()
        wb = (max(b for _, b in targets) + 2).bit_length()
    wm = budget.bit_length()
    # the counters sit after the last slot, or open a word of their own;
    # the top bit of that word marks a pruned state
    cw = max(slots - 1, 0) // SLOTS_PER_WORD
    a_shift = 2 * (slots - SLOTS_PER_WORD * cw)
    if a_shift + wa + wb + wm > 63:
        cw, a_shift = cw + 1, 0
    width = cw + 1
    b_shift = a_shift + wa
    mono_shift = np.uint64(b_shift + wb)
    pruned = 1 << 63
    # an odd plan ends with a pad vertex n that touches no edge, is
    # unweighted and takes color 0 only
    pad = n % 2
    plan += [(n, [], [], [])] * pad
    ref.append(2)
    # color 1 sets the vertex's bit of a collected coloring
    bit_of = [0] * (n + 1)
    if collect:
        rank = _search_rank(n, edges, edges_of)
        bit_of = [1 << n - 1 - r for r in rank] + [0]
    # color c adds weight[ref[v]][c] to the weight index a | b << wa
    one = 1 << 64 * cw + a_shift if targets else 0
    weight = [(0, one), (one << wa, 0), (0, 0)]
    # the constants as ints, a key's word w at bit 64 * w
    at = [1 << 64 * (s // SLOTS_PER_WORD) + 2 * (s % SLOTS_PER_WORD) for s in range(slots)]
    word = (1 << 64) - 1
    ones = (1 << 64 * width) - 1
    verts = []
    for v, opens, keeps, closes in plan:
        kept = opened = closed = 0
        for s in keeps:
            kept |= at[s]
        for s in opens:
            opened |= at[s]
        for s in closes:
            closed |= at[s]
        drop = ones ^ 3 * (kept | closed)
        w0, w1 = weight[ref[v]]
        # by color c, m, a, h and the coloring bit: an edge stays (or closes)
        # monochromatic only if its bit of color c is set
        verts.append(((drop | kept, opened | w0, closed, 0),
                      (drop | kept << 1, opened << 1 | w1, closed << 1, bit_of[v])))
    # by pair and color pair (c1, c2) at 2 * c1 + c2; an edge that closes in
    # a pair leaves a bit in some h, so hit_words[j] is empty iff none does
    consts, hit_words = [], []
    for first, second in zip(verts[0::2], verts[1::2]):
        hits = 0
        for m1, a1, h1, l1 in first:
            for m2, a2, h2, l2 in second:
                h = h1 | m1 & h2
                hits |= h
                consts += (m1 & m2, (a1 & m2) + a2, h, (a1 & h2).bit_count(), l1 | l2)
        hit_words.append([w for w in range(width) if hits >> 64 * w & word])
    if width > 1:
        consts = [x >> 64 * w & word for x in consts for w in range(width)]
    consts = np.array(consts, dtype=np.uint64).reshape(-1, 4, 5, 1, width)
    # by pair and color pair, a (1, W) row each
    mask, add, hit, added_hits, lift = consts.transpose(2, 0, 1, 3, 4)
    added_hits = added_hits[..., 0]
    lift = lift[..., 0].view(np.int64)
    # by monochromatic edges closed: pruned past the budget
    over = np.array([0] * (budget + 1) + [pruned] * 2 * graph.d, dtype=np.uint64)
    mono_mask = np.uint64(~(-1 << wm))
    if targets:
        # per pair, by the weights a | b << wa after it: pruned unless some
        # target is still in reach with the vertices left. A weight w is in
        # reach of t with l vertices of its reference color left if
        # 0 <= t - w <= l, one unsigned comparison.
        refs = [ref[v] for v, *_ in plan]
        left = np.array([(refs[j:].count(0), refs[j:].count(1))
                         for j in range(2, len(refs) + 1, 2)], dtype=np.uint64)
        gap = np.array(targets).T[:, None, :, None] - np.arange(1 << max(wa, wb))
        near_a, near_b = gap.view(np.uint64) <= left.T[:, :, None, None]
        reach = near_b[:, :, :1 << wb].transpose(0, 2, 1) @ near_a[:, :, :1 << wa]
        unreachable = np.where(reach, np.uint64(0), np.uint64(pruned)).reshape(len(reach), -1)
        weight_shift = np.uint64(a_shift)
        weight_mask = np.uint64(~(-1 << wa + wb))
    keys = np.zeros((1, width), dtype=np.uint64)
    values = np.array([0 if collect else 1], dtype=np.int64)
    for j in range(len(mask)):
        # the new states by color pair, (pairs, m, W); the first vertex of a
        # halved count and the pad vertex take color 0 only
        pairs = slice(0, 2 if halve and j == 0 else 4, 2 if pad and j == len(mask) - 1 else 1)
        layer = keys & mask[j, pairs]
        layer += add[j, pairs]
        last = layer[:, :, cw]
        if hit_words[j]:
            # the closing edges still monochromatic in their vertex's color,
            # one popcount of the old key for both vertices per word that
            # holds closing bits
            hits = added_hits[j, pairs]
            for w in hit_words[j]:
                hits = hits + np.bitwise_count(keys[:, w] & hit[j, pairs, :, w])
            if budget:
                last += hits << mono_shift
                hits = hits + ((keys[:, cw] >> mono_shift) & mono_mask)
            last |= over[hits]
        if targets:
            last |= unreachable[j][(last >> weight_shift) & weight_mask]
        values = (values | lift[j, pairs]).ravel()
        keys = layer.reshape(-1, width)
        del layer, last
        if hit_words[j] or targets:
            # drop the pruned states: a uint64 test, since numpy keeps freed
            # bool arrays of each small size and the process would grow
            live = (~keys[:, cw] >> np.uint64(63)).nonzero()[0]
            keys = keys[live]
            values = values[live]
            del live
            if not len(values):
                return iter(()) if collect else {}
        if collect:
            continue
        # sort equal keys together
        perm = keys[:, 0].argsort() if width == 1 else np.lexsort(keys.T)
        keys = keys[perm]
        values = values[perm]
        del perm
        # merge each run of equal keys into its first row
        starts = np.empty(len(values), dtype=np.uint64)
        starts[0] = 1
        np.bitwise_or.reduce(keys[1:] ^ keys[:-1], axis=1, out=starts[1:])
        starts = starts.nonzero()[0]
        values = np.add.reduceat(values, starts)
        keys = keys[starts]
    if collect:
        # each row's colors read off by one shift-and-mask
        rows = np.sort(values)[:, None] >> np.array([n - 1 - r for r in rank]) & 1
        return map(Coloring, rows.tolist())
    a = (keys[:, cw] >> np.uint64(a_shift)) & np.uint64(~(-1 << wa))
    b = (keys[:, cw] >> np.uint64(b_shift)) & np.uint64(~(-1 << wb))
    out = {}
    for ab, val in zip(zip(a.tolist(), b.tolist()), values.tolist()):
        out[ab] = out.get(ab, 0) + val
    return {ab: 2 * val if halve else val for ab, val in out.items()}


def count_proper(graph, eps=0):
    """Number of colorings with at most eps * n monochromatic edges."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps >= Fraction(graph.d, graph.k):
        # the total edge count d*n/k is inside the budget, so every
        # coloring qualifies
        return CountReport(2**graph.n)
    budget = math.floor(eps * graph.n)
    bound = PROPER_SEARCH_MAX_N if budget == 0 else BUDGET_SEARCH_MAX_N
    _check_scale(graph.n, bound, "count_proper")
    return CountReport(_frontier_table(graph, budget=budget).get((0, 0), 0))


def _equitable_target(graph):
    if graph.n % 2:
        raise ValueError("equitable colorings need even n")
    return graph.n // 2, 0


def count_equitable(graph):
    """Number of proper equitable colorings."""
    _check_scale(graph.n, PROPER_SEARCH_MAX_N, "count_equitable")
    target = _equitable_target(graph)
    return CountReport(_frontier_table(graph, targets=[target]).get(target, 0))


def proper_equitable_colorings(graph):
    """All proper equitable colorings, materialized."""
    _check_scale(graph.n, MOMENT_MAX_N, "proper_equitable_colorings")
    target = _equitable_target(graph)
    return list(_frontier_table(graph, targets=[target], collect=True))


def proper_colorings(graph):
    """All proper colorings (equitable or not), materialized."""
    _check_scale(graph.n, MOMENT_MAX_N, "proper_colorings")
    return list(_frontier_table(graph, collect=True))


def _require_proper_equitable(graph, chi):
    # the count refuses a wrong-length coloring before anything reads it
    bad = monochromatic_edge_count(graph, chi)
    if not chi.is_equitable():
        raise ValueError("reference coloring must be equitable")
    if bad:
        raise ValueError("reference coloring must be proper")


def _flip_count(n, delta):
    flips = Fraction(delta) * n
    if flips.denominator != 1 or not 0 <= flips <= n:
        raise ValueError("delta=%s is not a flip count at scale n=%d" % (delta, n))
    flips = int(flips)
    if flips % 2:
        raise ValueError("equitable pairs need an even flip count, got %d" % flips)
    return flips


def count_at_distance(graph, chi, delta):
    """Proper equitable colorings at Hamming distance exactly delta from chi."""
    _check_scale(graph.n, PROPER_SEARCH_MAX_N, "count_at_distance")
    _require_proper_equitable(graph, chi)
    flips = _flip_count(graph.n, delta)
    # an equitable coloring at flips f from chi moves f/2 vertices each way
    target = flips // 2, flips // 2
    return CountReport(_frontier_table(graph, targets=[target], ref=chi).get(target, 0))


def cluster_radius(n, k):
    """floor(n * 2^(-k/2)) without floating point."""
    return math.isqrt(n * n // 2**k)


def cluster_size(graph, chi):
    """Proper equitable colorings within Hamming distance 2^(-k/2) of chi."""
    _check_scale(graph.n, PROPER_SEARCH_MAX_N, "cluster_size")
    _require_proper_equitable(graph, chi)
    targets = [(j, j) for j in range(cluster_radius(graph.n, graph.k) // 2 + 1)]
    return CountReport(sum(_frontier_table(graph, targets=targets, ref=chi).values()))


def partition_count(n, k):
    """Number of partitions of an n-set into blocks of size k."""
    if n % k:
        raise ValueError("k must divide n")
    return typed_partition_count((n,), [((k,), n // k)])


def _bichromatic_partition_count(n, k, ones):
    """Number of k-partitions with every block bichromatic for a coloring
    with the given number of ones."""
    return typed_partition_sum((ones, n - ones), [(j, k - j) for j in range(1, k)])


def exact_first_moment(params: ModelParams):
    """E[number of proper colorings] under the uniform model, exactly.

    Grouping colorings by their number of ones, each contributes the d-th
    power of the single-generator bichromatic-partition probability.
    """
    _check_scale(params.n, MOMENT_MAX_N, "exact_first_moment")
    if params.d == 0:
        return Fraction(2**params.n)
    params.require_uniform()
    n, k = params.n, params.k
    total_parts = partition_count(n, k)
    result = Fraction(0)
    for ones in range(n + 1):
        good = _bichromatic_partition_count(n, k, ones)
        result += math.comb(n, ones) * Fraction(good, total_parts) ** params.d
    return result


def exact_equitable_first_moment(params: ModelParams):
    """E[number of proper equitable colorings] under the uniform model."""
    _check_scale(params.n, MOMENT_MAX_N, "exact_equitable_first_moment")
    params.require_equitable()
    if params.d == 0:
        return Fraction(math.comb(params.n, params.n // 2))
    params.require_uniform()
    n, k = params.n, params.k
    good = _bichromatic_partition_count(n, k, n // 2)
    return math.comb(n, n // 2) * Fraction(good, partition_count(n, k)) ** params.d


def exact_planted_distance_moment(params: ModelParams, delta):
    """E[number of proper equitable colorings at distance delta] under the
    planted model, exactly.

    All second colorings at a given distance contribute equally, so the
    moment is the count of candidates times the d-th power of the
    per-generator conditional probability.
    """
    _check_scale(params.n, MOMENT_MAX_N, "exact_planted_distance_moment")
    params.require_uniform()
    params.require_equitable()
    n, k = params.n, params.k
    flips = _flip_count(n, delta)
    proper_single = _bichromatic_partition_count(n, k, n // 2)
    # overlap classes (0,0), (0,1), (1,0), (1,1) of two balanced colorings
    same, moved = n // 2 - flips // 2, flips // 2
    pair_single = typed_partition_sum((same, moved, moved, same), bichromatic_pair_types(k))
    candidates = math.comb(n // 2, moved) ** 2
    return candidates * Fraction(pair_single, proper_single) ** params.d


def is_good_coloring(graph, chi, threshold):
    """Equitable, proper, and cluster no larger than the threshold."""
    # the count refuses a wrong-length coloring before anything reads it
    proper = monochromatic_edge_count(graph, chi) == 0
    if not chi.is_equitable() or not proper:
        return False
    return cluster_size(graph, chi).value <= Fraction(threshold)


def count_good_colorings(graph, threshold):
    """Number of good colorings, by full enumeration."""
    _check_scale(graph.n, GOOD_SEARCH_MAX_N, "count_good_colorings")
    value = sum(
        1 for chi in proper_equitable_colorings(graph)
        if cluster_size(graph, chi).value <= Fraction(threshold)
    )
    return CountReport(value)
