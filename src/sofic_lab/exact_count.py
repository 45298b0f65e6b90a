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
vertices colored 0. States with the same key are merged, so the cost grows
with the number of states on the frontier, not with the number of colorings:
count_proper at (d, k, n) = (5, 4, 40) holds about 260 MB at its peak. Each
count reads coefficients of the final (a, b) table:

- count_proper: the whole table (no weights tracked; with eps > 0 the state
  also counts the monochromatic edges closed, up to floor(eps * n)).
- count_equitable: the entry a = n/2 against the all-0 reference.
- count_at_distance at f flips: the entry (f/2, f/2) against chi.
- cluster_size: the entries (j, j) with 2j <= floor(n * 2^(-k/2)).

The two collect functions run the same pass with each coloring kept as an
int, and list them lexicographically over a breadth-first vertex order, 0
first.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from ._errors import ScaleRefusal
from .analytics import bichromatic_pair_types
from .group_model import ModelParams, typed_partition_count, typed_partition_sum
from .hypergraph import Coloring, monochromatic_edge_count

PROPER_SEARCH_MAX_N = 40
BUDGET_SEARCH_MAX_N = 32
MOMENT_MAX_N = 24
GOOD_SEARCH_MAX_N = 16


@dataclass(frozen=True)
class CountReport:
    value: int
    method: str
    elapsed: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("counts cannot be negative")
        if self.method not in ("enumeration", "closed_form"):
            raise ValueError("unknown counting method %r" % self.method)


def _check_scale(n, bound, what):
    if n > bound:
        raise ScaleRefusal(
            "%s supports n <= %d, got n=%d" % (what, bound, n), count=n
        )


def _frontier_order(n, k, edges, edges_of):
    """Greedy vertex order: each step takes the vertex that leaves the fewest
    open edges (edges with some but not all vertices colored)."""
    colored = [0] * len(edges)
    left = set(range(n))
    order = []
    while left:
        v = min(left, key=lambda u: (
            sum((colored[ei] == 0) - (colored[ei] == k - 1) for ei in edges_of[u]), u))
        left.remove(v)
        order.append(v)
        for ei in edges_of[v]:
            colored[ei] += 1
    return order


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


def _frontier_table(graph, targets=None, ref=None, budget=0, halve=False,
                    collect=False):
    """Colorings with at most budget monochromatic edges, tabulated by the
    weights (a, b): a counts the ref-0 vertices colored 1 and b the ref-1
    vertices colored 0 (ref defaults to all 0, so a is the number of ones).

    One forward pass colors the vertices in _frontier_order. A state packs
    into one int the color of every open edge that is still monochromatic
    (two bits per edge; bichromatic edges drop out), then a and b, then the
    number of monochromatic edges closed so far. With targets, the weights
    are tracked and every state that can no longer reach a target (a, b) with
    the vertices left is pruned, so the table holds target entries only.

    halve: color the first vertex 0 and double; valid only for counts that
    are invariant under a color swap. collect: the values are the colorings
    themselves, sorted by _search_rank, instead of their number.
    """
    n = graph.n
    edges = graph.blocks.reshape(-1, graph.k).tolist()
    edges_of = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)
    order = _frontier_order(n, graph.k, edges, edges_of)
    ref = [0] * n if ref is None else list(ref)
    wa = wb = 0
    if targets:
        # one spare value each: a weight one past its target is pruned
        wa = (max(a for a, _ in targets) + 1).bit_length()
        wb = (max(b for _, b in targets) + 1).bit_length()
        left = [ref.count(0), ref.count(1)]
    a_shift = 2 * len(edges)
    b_shift = a_shift + wa
    mono_shift = b_shift + wb
    weights = ~(-1 << wa + wb)
    if collect:
        rank = _search_rank(n, edges, edges_of)
    colored = [0] * len(edges)
    table = {0: [0] if collect else 1}
    for i, v in enumerate(order):
        opens = keeps = closes = 0
        for ei in edges_of[v]:
            bit = 1 << 2 * ei
            if colored[ei] == 0:
                opens |= bit
            elif colored[ei] == graph.k - 1:
                closes |= bit
            else:
                keeps |= bit
            colored[ei] += 1
        allowed = None
        if targets:
            left[ref[v]] -= 1
            allowed = {
                a | b << wa
                for ta, tb in targets
                for a in range(max(0, ta - left[0]), ta + 1)
                for b in range(max(0, tb - left[1]), tb + 1)
            }
        drop = ~((keeps | closes) * 3)
        new = {}
        get = new.get
        for c in (0,) if halve and i == 0 else (0, 1):
            # an edge stays monochromatic only if it already was in color c
            mask = drop | keeps << c
            close = closes << c
            add = opens << c
            if targets and c != ref[v]:
                add += 1 << (a_shift if c else b_shift)
            lift = 1 << n - 1 - rank[v] if collect and c else 0
            for key, val in table.items():
                y = (key & mask) + add
                hit = key & close
                if hit:
                    hit = hit.bit_count()
                    if (y >> mono_shift) + hit > budget:
                        continue
                    y += hit << mono_shift
                if allowed is not None and (y >> a_shift) & weights not in allowed:
                    continue
                if lift:
                    val = [x | lift for x in val]
                old = get(y)
                new[y] = val if old is None else old + val
        table = new
    out = {}
    for key, val in table.items():
        ab = (key >> a_shift) & ~(-1 << wa), (key >> b_shift) & ~(-1 << wb)
        out[ab] = out[ab] + val if ab in out else val
    if collect:
        shifts = [n - 1 - r for r in rank]
        return {ab: [Coloring((x >> s) & 1 for s in shifts) for x in sorted(val)]
                for ab, val in out.items()}
    return {ab: 2 * val if halve else val for ab, val in out.items()}


def count_proper(graph, eps=0):
    """Number of colorings with at most eps * n monochromatic edges."""
    start = perf_counter()
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps >= Fraction(graph.d, graph.k):
        # the total edge count d*n/k is inside the budget, so every
        # coloring qualifies
        return CountReport(2**graph.n, "closed_form", perf_counter() - start)
    budget = math.floor(eps * graph.n)
    bound = PROPER_SEARCH_MAX_N if budget == 0 else BUDGET_SEARCH_MAX_N
    _check_scale(graph.n, bound, "count_proper")
    value = _frontier_table(graph, budget=budget, halve=True).get((0, 0), 0)
    return CountReport(value, "enumeration", perf_counter() - start)


def _equitable_target(graph):
    if graph.n % 2:
        raise ValueError("equitable colorings need even n")
    return graph.n // 2, 0


def count_equitable(graph):
    """Number of proper equitable colorings."""
    start = perf_counter()
    _check_scale(graph.n, PROPER_SEARCH_MAX_N, "count_equitable")
    target = _equitable_target(graph)
    value = _frontier_table(graph, targets=[target], halve=True).get(target, 0)
    return CountReport(value, "enumeration", perf_counter() - start)


def proper_equitable_colorings(graph):
    """All proper equitable colorings, materialized."""
    _check_scale(graph.n, MOMENT_MAX_N, "proper_equitable_colorings")
    target = _equitable_target(graph)
    return _frontier_table(graph, targets=[target], collect=True).get(target, [])


def proper_colorings(graph):
    """All proper colorings (equitable or not), materialized."""
    _check_scale(graph.n, MOMENT_MAX_N, "proper_colorings")
    return _frontier_table(graph, collect=True).get((0, 0), [])


def _require_proper_equitable(graph, chi):
    if len(chi) != graph.n:
        raise ValueError("coloring length mismatch")
    if not chi.is_equitable():
        raise ValueError("reference coloring must be equitable")
    if monochromatic_edge_count(graph, chi) != 0:
        raise ValueError("reference coloring must be proper")


def _flip_count(n, delta):
    flips = Fraction(delta) * n
    if flips.denominator != 1 or not 0 <= flips <= n:
        raise ValueError("delta=%r is not a flip count at scale n=%d" % (delta, n))
    flips = int(flips)
    if flips % 2:
        raise ValueError("equitable pairs need an even flip count, got %d" % flips)
    return flips


def count_at_distance(graph, chi, delta):
    """Proper equitable colorings at Hamming distance exactly delta from chi."""
    start = perf_counter()
    _check_scale(graph.n, PROPER_SEARCH_MAX_N, "count_at_distance")
    _require_proper_equitable(graph, chi)
    flips = _flip_count(graph.n, delta)
    # an equitable coloring at flips f from chi moves f/2 vertices each way
    target = flips // 2, flips // 2
    value = _frontier_table(graph, targets=[target], ref=chi).get(target, 0)
    return CountReport(value, "enumeration", perf_counter() - start)


def cluster_radius(n, k):
    """floor(n * 2^(-k/2)) without floating point."""
    return math.isqrt(n * n // 2**k)


def cluster_size(graph, chi):
    """Proper equitable colorings within Hamming distance 2^(-k/2) of chi."""
    start = perf_counter()
    _check_scale(graph.n, PROPER_SEARCH_MAX_N, "cluster_size")
    _require_proper_equitable(graph, chi)
    targets = [(j, j) for j in range(cluster_radius(graph.n, graph.k) // 2 + 1)]
    value = sum(_frontier_table(graph, targets=targets, ref=chi).values())
    return CountReport(value, "enumeration", perf_counter() - start)


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
    params.require_uniform()
    params.require_equitable()
    if params.d == 0:
        return Fraction(math.comb(params.n, params.n // 2))
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
    pair_single = typed_partition_sum(
        (same, moved, moved, same), [eps.as_tuple() for eps in bichromatic_pair_types(k)])
    candidates = math.comb(n // 2, moved) ** 2
    return candidates * Fraction(pair_single, proper_single) ** params.d


def is_good_coloring(graph, chi, threshold):
    """Equitable, proper, and cluster no larger than the threshold."""
    if len(chi) != graph.n:
        raise ValueError("coloring length mismatch")
    if not chi.is_equitable():
        return False
    if monochromatic_edge_count(graph, chi) != 0:
        return False
    return cluster_size(graph, chi).value <= Fraction(threshold)


def count_good_colorings(graph, threshold):
    """Number of good colorings, by full enumeration."""
    start = perf_counter()
    _check_scale(graph.n, GOOD_SEARCH_MAX_N, "count_good_colorings")
    value = sum(
        1 for chi in proper_equitable_colorings(graph)
        if cluster_size(graph, chi).value <= Fraction(threshold)
    )
    return CountReport(value, "enumeration", perf_counter() - start)
