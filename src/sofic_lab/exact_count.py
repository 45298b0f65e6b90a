"""Exact enumeration and closed-form counting at oracle scale.

Counts proper and near-proper colorings of labeled hypergraphs by
backtracking, evaluates the closed-form typed-partition counts, and combines
them into exact model moments. Everything here is big-integer or big-rational
arithmetic; no floating point enters any value.
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
from .samplers import _counts_at_scale

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


def _constraint_order(n, edges):
    """Visit vertices so each new one shares edges with colored ones."""
    edges_of = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for ei in edges_of[v]:
                for w in edges[ei]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
    return order, edges_of


class _ColoringSearch:
    """Backtracking count of colorings under edge and side constraints.

    budget: number of monochromatic edges allowed. At zero budget an edge
    with k-1 vertices one color forces its last vertex, and the search
    propagates such forcings to a fixed point.

    equitable: require exactly n/2 ones. ref with diff_target or diff_max:
    constrain the Hamming distance (as a flip count) to the reference.

    halve: explore only colorings giving the first vertex color 0 and double
    the result; valid only when all active constraints are swap-invariant.
    """

    def __init__(self, graph, budget=0, equitable=False, ref=None,
                 diff_target=None, diff_max=None, collect=False, halve=False):
        self.n, self.k = graph.n, graph.k
        self.edges = [e for _, e in graph.edges]
        self.m = len(self.edges)
        self.order, self.edges_of = _constraint_order(self.n, self.edges)
        self.budget_left = budget
        self.equitable = equitable
        self.half = self.n // 2
        if equitable and self.n % 2:
            raise ValueError("equitable search needs even n")
        self.ref = ref
        self.diff_target = diff_target
        self.diff_max = diff_max
        self.collect = collect
        self.halve = halve
        if halve and (ref is not None or collect):
            raise ValueError("halving is only valid for swap-invariant counts")
        self.color = [-1] * self.n
        self.tot = [0] * self.m
        self.ones = [0] * self.m
        # an edge is live while it is incomplete and could still complete
        # monochromatically
        self.live_flag = [True] * self.m
        self.live = self.m
        self.colored = 0
        self.ones_used = 0
        self.zeros_used = 0
        self.diff_used = 0
        self.count = 0
        self.found = []

    def _edge_live(self, ei):
        t, o = self.tot[ei], self.ones[ei]
        return t < self.k and (o == 0 or o == t)

    def _assign(self, v, c, trail):
        """Color v, update all bookkeeping; False means a constraint broke.

        Bookkeeping is completed even on failure so one undo pass reverts it.
        """
        self.color[v] = c
        trail.append(v)
        self.colored += 1
        self.ones_used += c
        self.zeros_used += 1 - c
        ok = True
        if self.ref is not None and c != self.ref[v]:
            self.diff_used += 1
        for ei in self.edges_of[v]:
            was = self.live_flag[ei]
            self.tot[ei] += 1
            self.ones[ei] += c
            now = self._edge_live(ei)
            self.live_flag[ei] = now
            self.live += now - was
            if self.tot[ei] == self.k and self.ones[ei] in (0, self.k):
                self.budget_left -= 1
                if self.budget_left < 0:
                    ok = False
        if self.equitable and (self.ones_used > self.half or self.zeros_used > self.half):
            ok = False
        if self.ref is not None:
            limit = self.diff_max if self.diff_max is not None else self.diff_target
            if self.diff_used > limit:
                ok = False
            if self.diff_target is not None:
                if self.diff_target - self.diff_used > self.n - self.colored:
                    ok = False
        return ok

    def _undo(self, trail):
        for v in reversed(trail):
            c = self.color[v]
            for ei in self.edges_of[v]:
                was = self.live_flag[ei]
                if self.tot[ei] == self.k and self.ones[ei] in (0, self.k):
                    self.budget_left += 1
                self.tot[ei] -= 1
                self.ones[ei] -= c
                now = self._edge_live(ei)
                self.live_flag[ei] = now
                self.live += now - was
            self.color[v] = -1
            self.colored -= 1
            self.ones_used -= c
            self.zeros_used -= 1 - c
            if self.ref is not None and c != self.ref[v]:
                self.diff_used -= 1

    def _forced(self, ei):
        if self.tot[ei] != self.k - 1 or not self.live_flag[ei]:
            return None
        for v in self.edges[ei]:
            if self.color[v] == -1:
                return v, (1 if self.ones[ei] == 0 else 0)
        raise AssertionError("live edge with k-1 colored must have a free vertex")

    def _assign_propagate(self, v, c, trail):
        if not self._assign(v, c, trail):
            return False
        if self.budget_left > 0:
            return True
        queue = deque(self.edges_of[v])
        while queue:
            forced = self._forced(queue.popleft())
            if forced is None:
                continue
            w, wc = forced
            if not self._assign(w, wc, trail):
                return False
            queue.extend(self.edges_of[w])
        return True

    def _free_completions(self):
        """Closed-form count of the remaining free colorings once no edge
        can complete monochromatically."""
        free = [v for v in range(self.n) if self.color[v] == -1]
        if self.ref is None and not self.equitable:
            return 1 << len(free)
        if self.ref is None:
            return math.comb(len(free), self.half - self.ones_used)
        r1 = sum(self.ref[v] for v in free)
        r0 = len(free) - r1
        a = self.half - self.ones_used
        lo = self.diff_target if self.diff_target is not None else 0
        hi = self.diff_target if self.diff_target is not None else self.diff_max
        total = 0
        # x of the r1 reference-ones stay 1; the flip count is r1-x plus a-x
        for x in range(max(0, a - r0), min(r1, a) + 1):
            diff = self.diff_used + (r1 - x) + (a - x)
            if lo <= diff <= hi:
                total += math.comb(r1, x) * math.comb(r0, a - x)
        return total

    def _leaf_ok(self):
        if self.equitable and self.ones_used != self.half:
            return False
        if self.diff_target is not None and self.diff_used != self.diff_target:
            return False
        return True

    def _dfs(self, idx):
        while idx < self.n and self.color[self.order[idx]] != -1:
            idx += 1
        if idx == self.n:
            if self._leaf_ok():
                self.count += 1
                if self.collect:
                    self.found.append(Coloring(self.color))
            return
        # once the budget absorbs every live edge the rest is a closed form;
        # under halving the first vertex must already be pinned to 0
        if (not self.collect and self.budget_left >= self.live
                and not (self.halve and self.colored == 0)):
            self.count += self._free_completions()
            return
        v = self.order[idx]
        first = self.halve and self.colored == 0
        for c in (0,) if first else (0, 1):
            trail = []
            if self._assign_propagate(v, c, trail):
                self._dfs(idx + 1)
            self._undo(trail)

    def run(self):
        self._dfs(0)
        return 2 * self.count if self.halve else self.count


def count_proper(graph, eps=0, max_n=None):
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
    _check_scale(graph.n, max_n if max_n is not None else bound, "count_proper")
    value = _ColoringSearch(graph, budget=budget, halve=True).run()
    return CountReport(value, "enumeration", perf_counter() - start)


def count_equitable(graph, max_n=None):
    """Number of proper equitable colorings."""
    start = perf_counter()
    _check_scale(graph.n, max_n if max_n is not None else PROPER_SEARCH_MAX_N,
                 "count_equitable")
    value = _ColoringSearch(graph, equitable=True, halve=True).run()
    return CountReport(value, "enumeration", perf_counter() - start)


def proper_equitable_colorings(graph, max_n=None):
    """All proper equitable colorings, materialized."""
    _check_scale(graph.n, max_n if max_n is not None else MOMENT_MAX_N,
                 "proper_equitable_colorings")
    search = _ColoringSearch(graph, equitable=True, collect=True)
    search.run()
    return search.found


def proper_colorings(graph, max_n=None):
    """All proper colorings (equitable or not), materialized."""
    _check_scale(graph.n, max_n if max_n is not None else MOMENT_MAX_N,
                 "proper_colorings")
    search = _ColoringSearch(graph, collect=True)
    search.run()
    return search.found


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


def count_at_distance(graph, chi, delta, max_n=None):
    """Proper equitable colorings at Hamming distance exactly delta from chi."""
    start = perf_counter()
    _check_scale(graph.n, max_n if max_n is not None else PROPER_SEARCH_MAX_N,
                 "count_at_distance")
    _require_proper_equitable(graph, chi)
    flips = _flip_count(graph.n, delta)
    value = _ColoringSearch(graph, equitable=True, ref=chi, diff_target=flips).run()
    return CountReport(value, "enumeration", perf_counter() - start)


def cluster_radius(n, k):
    """floor(n * 2^(-k/2)) without floating point."""
    return math.isqrt(n * n // 2**k)


def cluster_size(graph, chi, max_n=None):
    """Proper equitable colorings within Hamming distance 2^(-k/2) of chi.

    Small radii use the distance-pruned search directly; otherwise the full
    proper-equitable family is enumerated and filtered, whichever space is
    smaller.
    """
    start = perf_counter()
    _check_scale(graph.n, max_n if max_n is not None else PROPER_SEARCH_MAX_N,
                 "cluster_size")
    _require_proper_equitable(graph, chi)
    radius = cluster_radius(graph.n, graph.k)
    if 4 * radius < graph.n:
        value = _ColoringSearch(graph, equitable=True, ref=chi, diff_max=radius).run()
    else:
        found = proper_equitable_colorings(graph, max_n=graph.n)
        value = sum(
            1 for c in found
            if sum(a != b for a, b in zip(c, chi)) <= radius
        )
    return CountReport(value, "enumeration", perf_counter() - start)


def partition_count(n, k):
    """Number of partitions of an n-set into blocks of size k."""
    if n % k:
        raise ValueError("k must divide n")
    return typed_partition_count((n,), [((k,), n // k)])


def count_partitions_of_type(n, chi, type_vector):
    """Exact number of k-partitions with c_j = t_j * n blocks of j ones.

    Evaluates (pn)!((1-p)n)! / prod_j j!^c_j (k-j)!^c_j c_j! where pn is the
    number of ones of chi; unlike the balanced sampler table this admits
    monochromatic block types (j = 0 or k) and any color split.
    """
    if len(chi) != n:
        raise ValueError("coloring length mismatch")
    k = len(type_vector) - 1
    counts = _counts_at_scale(type_vector, n)
    ones = sum(chi)
    if sum(counts) * k != n:
        raise ValueError("type does not describe n/k blocks")
    if sum(j * c for j, c in enumerate(counts)) != ones:
        raise ValueError("type needs %d ones, coloring has %d"
                         % (sum(j * c for j, c in enumerate(counts)), ones))
    return typed_partition_count(
        (ones, n - ones), [((j, k - j), c) for j, c in enumerate(counts)])


def count_pair_partitions(n, chi, chi_tilde, type_map):
    """Exact number of k-partitions whose pair-type histogram equals type_map.

    type_map sends a PairTypeMatrix to the fraction of vertices its blocks
    carry (so values must sum to 1/k). The count is
    prod N_ij! / (prod_eps c_eps! prod_eps prod_ij e_ij!^c_eps).
    """
    if len(chi) != n or len(chi_tilde) != n:
        raise ValueError("coloring length mismatch")
    k = None
    for eps in type_map:
        if k is None:
            k = eps.total()
        elif eps.total() != k:
            raise ValueError("pair types must share a single k")
    counts = _counts_at_scale(type_map.values(), n, "type weight")
    items = [(eps.as_tuple(), c) for eps, c in zip(type_map, counts)]
    if k is None or n % k:
        raise ValueError("empty type map or k does not divide n")
    if sum(c for _, c in items) != n // k:
        raise ValueError("pair types must describe exactly n/k blocks")
    overlap = [[0, 0], [0, 0]]
    for a, b in zip(chi, chi_tilde):
        overlap[a][b] += 1
    for i in (0, 1):
        for j in (0, 1):
            supplied = sum(c * shape[2 * i + j] for shape, c in items)
            if supplied != overlap[i][j]:
                raise ValueError(
                    "overlap class (%d,%d): types supply %d vertices, "
                    "colorings have %d" % (i, j, supplied, overlap[i][j])
                )
    return typed_partition_count(overlap[0] + overlap[1], items)


def _bichromatic_partition_count(n, k, ones):
    """Number of k-partitions with every block bichromatic for a coloring
    with the given number of ones."""
    return typed_partition_sum((ones, n - ones), [(j, k - j) for j in range(1, k)])


def exact_first_moment(params: ModelParams, max_n=None):
    """E[number of proper colorings] under the uniform model, exactly.

    Grouping colorings by their number of ones, each contributes the d-th
    power of the single-generator bichromatic-partition probability.
    """
    _check_scale(params.n, max_n if max_n is not None else MOMENT_MAX_N,
                 "exact_first_moment")
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


def exact_equitable_first_moment(params: ModelParams, max_n=None):
    """E[number of proper equitable colorings] under the uniform model."""
    _check_scale(params.n, max_n if max_n is not None else MOMENT_MAX_N,
                 "exact_equitable_first_moment")
    params.require_uniform()
    params.require_equitable()
    if params.d == 0:
        return Fraction(math.comb(params.n, params.n // 2))
    n, k = params.n, params.k
    good = _bichromatic_partition_count(n, k, n // 2)
    return math.comb(n, n // 2) * Fraction(good, partition_count(n, k)) ** params.d


def exact_planted_distance_moment(params: ModelParams, delta, max_n=None):
    """E[number of proper equitable colorings at distance delta] under the
    planted model, exactly.

    All second colorings at a given distance contribute equally, so the
    moment is the count of candidates times the d-th power of the
    per-generator conditional probability.
    """
    _check_scale(params.n, max_n if max_n is not None else MOMENT_MAX_N,
                 "exact_planted_distance_moment")
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


def is_good_coloring(graph, chi, threshold, max_n=None):
    """Equitable, proper, and cluster no larger than the threshold."""
    if len(chi) != graph.n:
        raise ValueError("coloring length mismatch")
    if not chi.is_equitable():
        return False
    if monochromatic_edge_count(graph, chi) != 0:
        return False
    return cluster_size(graph, chi, max_n=max_n).value <= Fraction(threshold)


def count_good_colorings(graph, threshold, max_n=None):
    """Number of good colorings, by full enumeration."""
    start = perf_counter()
    _check_scale(graph.n, max_n if max_n is not None else GOOD_SEARCH_MAX_N,
                 "count_good_colorings")
    value = sum(
        1 for chi in proper_equitable_colorings(graph, max_n=graph.n)
        if cluster_size(graph, chi).value <= Fraction(threshold)
    )
    return CountReport(value, "enumeration", perf_counter() - start)
