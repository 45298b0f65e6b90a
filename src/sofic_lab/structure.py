"""Which vertices of a properly colored instance are locked in place.

A vertex supports an edge when it is the only vertex of its color there;
recoloring it would make the edge monochromatic. Vertices supporting three
or more edges whose remaining vertices are themselves well-supported form a
core that survives iterated peeling, and vertices hanging off the core by a
single supported edge are attached to it. The rigid set (core plus attached
minus the attached vertices whose witness edges overlap) is the region on
which any alternative proper coloring must either agree almost everywhere
or differ on a macroscopic fraction.

Everything here is exact: levels are frozensets, densities are fractions,
and the rigidity window test uses integer arithmetic only.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._errors import ScaleRefusal
from .exact_count import MOMENT_MAX_N, _check_scale, _frontier_table, cluster_radius
from .hypergraph import critical_edges, monochromatic_edge_count
from .samplers import RngState, _as_generator

EXPANSIVITY_MAX_SUBSETS = 2_000_000
# vertex entries of the sets that one chunk of supported edges lays out
_SCAN_CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class CoreLevel:
    """One peeling stage: the core, the attached set, and its overlap part."""

    core: frozenset
    attached: frozenset
    attached_overlap: frozenset

    def rigid(self):
        """Core plus attached, minus attached vertices with entangled edges."""
        return (self.core | self.attached) - self.attached_overlap


@dataclass(frozen=True)
class CoreDecomposition:
    """All computed peeling levels for one colored instance.

    ``levels[0]`` is always (V, empty, empty). ``stabilized_at`` is the first
    level from which the decomposition repeats forever, or None if the level
    budget ran out first; in the stabilized case ``level(l)`` clamps to the
    final level for any larger l.
    """

    n: int
    levels: tuple
    stabilized_at: int  # or None

    def level(self, l):
        if l < 0:
            raise ValueError("level index must be nonnegative")
        if l < len(self.levels):
            return self.levels[l]
        if self.stabilized_at is not None:
            return self.levels[-1]
        raise ValueError(
            "level %d was not computed and the decomposition never stabilized"
            % l
        )

    def rigid_set(self, l):
        return self.level(l).rigid()


def _members(mask):
    return frozenset(np.flatnonzero(mask).tolist())


def _check_proper(graph, chi):
    bad = monochromatic_edge_count(graph, chi)
    if bad:
        raise ValueError(
            "structure analysis needs a proper coloring; %d edges are monochromatic"
            % bad
        )


def core_decomposition(graph, chi, l_max=None):
    """Iterated peeling of the well-supported core, with attached fringes.

    Level l+1 keeps the vertices supporting at least three edges whose other
    vertices all sit in level l; the attached set at level l+1 collects the
    vertices outside the new core that still support one such edge, and the
    overlap part marks attached vertices whose witness edges touch another
    attached vertex's witness edge. Peeling is monotone, so the run either
    stabilizes (detected by three identical consecutive levels) or stops at
    ``l_max`` (default n + 2, enough for any instance that stabilizes).
    """
    if l_max is None:
        l_max = graph.n + 2
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    _check_proper(graph, chi)
    # supports depend only on the coloring: each level only tracks which rows
    # still lie inside the shrinking core
    rows, owner = critical_edges(graph, chi)
    # an edge is live while every member but its owner sits in the core
    is_owner = rows == owner[:, None]
    core = np.ones(graph.n, dtype=bool)
    levels = [CoreLevel(_members(core), frozenset(), frozenset())]
    stabilized_at = None
    while len(levels) <= l_max:
        live = (core[rows] | is_owner).all(axis=1)
        live_count = np.bincount(owner[live], minlength=graph.n)
        new_core = live_count >= 3
        if (new_core & ~core).any():
            raise RuntimeError("peeling must be monotone")
        attached = (live_count >= 1) & ~new_core
        # An attached vertex joins the overlap part when one of its live
        # witness edges holds a vertex that another attached vertex's live
        # witness edge holds too: a vertex covered by two distinct owners,
        # which is where the least and the greatest covering owner differ.
        witness = live & attached[owner]
        members, owners = rows[witness], owner[witness]
        least = np.full(graph.n, graph.n)
        most = np.full(graph.n, -1)
        np.minimum.at(least, members, owners[:, None])
        np.maximum.at(most, members, owners[:, None])
        shared = least < most
        overlap = np.zeros(graph.n, dtype=bool)
        overlap[owners[shared[members].any(axis=1)]] = True
        levels.append(
            CoreLevel(_members(new_core), _members(attached), _members(overlap))
        )
        if len(levels) >= 3 and levels[-1] == levels[-2] == levels[-3]:
            stabilized_at = len(levels) - 3
            break
        core = new_core
    return CoreDecomposition(graph.n, tuple(levels), stabilized_at)


def core_decomposition_reference(n, k, edges, chi, l_max=None):
    """Slow recomputation of every level straight from the definitions.

    Works on a bare list of vertex tuples and re-derives supports and live
    edges from scratch at every level, sharing no bookkeeping with
    :func:`core_decomposition`; intended for cross-checking it. Edge labels
    are irrelevant here, so none are taken.
    """
    if k < 3:
        raise ValueError("supporting vertices are undefined for k=2; need k >= 3")
    edge_sets = []
    for edge in edges:
        es = frozenset(edge)
        if len(es) != k or not all(0 <= v < n for v in es):
            raise ValueError("edge %r is not a k-set of vertices" % (tuple(edge),))
        edge_sets.append(es)
    supported_by = defaultdict(list)
    for es in edge_sets:
        if len({chi[v] for v in es}) == 1:
            raise ValueError("reference decomposition needs a proper coloring")
        for v in es:
            if all(chi[u] != chi[v] for u in es - {v}):
                supported_by[v].append(es)

    everything = frozenset(range(n))
    levels = [CoreLevel(everything, frozenset(), frozenset())]
    if l_max is None:
        l_max = n + 2
    core = everything
    stabilized_at = None
    while stabilized_at is None and len(levels) <= l_max:
        new_core = frozenset(
            v
            for v in everything
            if sum(1 for es in supported_by.get(v, ()) if es - {v} <= core) >= 3
        )
        attached = frozenset(
            v
            for v in everything - new_core
            if any(es - {v} <= core for es in supported_by.get(v, ()))
        )
        witness = {
            v: [es for es in supported_by[v] if es - {v} <= core]
            for v in attached
        }
        entangled = set()
        for v, w in itertools.permutations(sorted(attached), 2):
            if any(ev & ew for ev in witness[v] for ew in witness[w]):
                entangled.add((v, w))
        if any((w, v) not in entangled for v, w in entangled):
            raise RuntimeError("entanglement must be symmetric")
        levels.append(
            CoreLevel(new_core, attached, frozenset(v for v, _ in entangled))
        )
        if len(levels) >= 3 and levels[-1] == levels[-2] == levels[-3]:
            stabilized_at = len(levels) - 3
            break
        core = new_core
    return CoreDecomposition(n, tuple(levels), stabilized_at)


def density_report(graph, chi, level):
    """Exact density of the rigid set at the given level, as a fraction."""
    decomposition = core_decomposition(graph, chi, l_max=level)
    return Fraction(len(decomposition.rigid_set(level)), graph.n)


@dataclass(frozen=True)
class ExpansivityReport:
    """Outcome of the supported-edge expansion scan.

    The excess of a vertex set T is (number of supported edges that are
    owned by some vertex of T and meet T in at least two vertices) minus
    2|T|; positive excess contradicts the expected sparsity of supported
    edges around small sets. The exhaustive phase covers every T up to
    ``exhaustive_cap``; the random phase, if any trials ran, reports the
    best excess its greedy trajectories saw up to ``size_cap``.
    """

    exhaustive_cap: int
    exhaustive_max_excess: int
    exhaustive_witness: frozenset
    violations: tuple
    size_cap: int
    random_trials: int
    random_max_excess: int  # or None when no trials ran
    random_witness: frozenset  # or None


def _combinations_table(size, r):
    """Every r-subset of range(size) as one row, in combinations order."""
    table = np.array(list(itertools.combinations(range(size), r)), dtype=np.intp)
    return table.reshape(math.comb(size, r), r)


def _lex_ranks(sets, n, binom):
    """Rank of each row of ``sets`` among the t-subsets of range(n), in
    ``itertools.combinations`` order.

    Reflecting every vertex (w = n-1-v) turns lexicographic order into
    reversed colexicographic order, whose rank is sum_j C(w_j, j+1) over the
    reflected row sorted ascending. That sum is below C(n, t), so the ranks
    are exact in int64.
    """
    t = sets.shape[1]
    reflected = np.sort((n - 1) - sets, axis=1)
    colex = np.zeros(len(sets), dtype=np.int64)
    for j in range(t):
        colex += binom[j + 1][reflected[:, j]]
    return math.comb(n, t) - 1 - colex


def _unrank(ranks, n, t, binom):
    """The t-subsets of range(n) at the given ranks, one ascending row each;
    the inverse of :func:`_lex_ranks`."""
    colex = math.comb(n, t) - 1 - ranks
    columns = []
    for i in range(t, 0, -1):
        w = np.searchsorted(binom[i], colex, side="right") - 1
        colex = colex - binom[i][w]
        columns.append((n - 1) - w)
    return np.stack(columns, axis=1)


def expansivity_scan(graph, chi, t_max, random_trials=0, rng=None):
    """Measure how many supported edges concentrate on small vertex sets.

    Exhaustively scores every set of size 1..t_max (refusing if that means
    more than EXPANSIVITY_MAX_SUBSETS subsets), then runs seeded greedy
    growth from random supported edges for sizes up to the cluster radius
    ``cluster_radius(n, k)``.

    The exhaustive phase counts edge by edge: a supported edge is heavy in
    T exactly when T holds its owner, a co-members and b outside vertices
    with a >= 1. For each split (a, b), fixed ``combinations`` index tables
    pick those sets out of every edge's co-member and outside rows at once,
    and each set is counted under its lexicographic rank among the
    (1+a+b)-subsets of range(n), in one ``bincount`` of length C(n, 1+a+b).
    Ranks are exact: they stay below the subset count that the refusal
    bounds, where base-n codes would overflow int64 (n^t_max > 2^63 already
    at n=18, t_max=16). Every set no edge reaches scores -2|T|, so walking
    the reached sets by size and then rank, which is ``combinations`` order,
    from the witness {0} at -2 gives the same maximum, witness and violation
    order as scoring all sets would.

    The greedy phase is a documented heuristic: each trial starts from a
    supported edge's owner and one co-vertex and repeatedly adds the
    candidate vertex with the best excess gain, ties to the largest,
    recording the best excess seen along the trajectory. The candidates are
    the members of the edges that meet the set S. Adding u makes heavy the
    edges u owns that meet S and the edges owned in S that meet S in their
    owner alone and hold u, so two ``bincount`` calls over the edges give
    every gain, and excess(S + u) = excess(S) + gain[u] - 2.
    """
    _check_proper(graph, chi)
    n = graph.n
    if not 1 <= t_max <= n:
        raise ValueError("t_max must be between 1 and n")
    if random_trials < 0:
        raise ValueError("random_trials must be nonnegative")
    subset_count = sum(math.comb(n, t) for t in range(1, t_max + 1))
    if subset_count > EXPANSIVITY_MAX_SUBSETS:
        raise ScaleRefusal(
            "exhaustive scan would enumerate %d subsets" % subset_count,
            count=subset_count,
        )
    gen = _as_generator(rng if rng is not None else RngState(0))
    rows, owner = critical_edges(graph, chi)
    edge_count, k = rows.shape
    # binom[i][c] = C(c, i); no entry exceeds the refusal's subset count
    binom = np.array(
        [[math.comb(c, i) for c in range(n)] for i in range(t_max + 1)],
        dtype=np.int64,
    )
    splits = [
        (a, b, _combinations_table(k - 1, a), _combinations_table(n - k, b))
        for a in range(1, min(k - 1, t_max - 1) + 1)
        for b in range(min(n - k, t_max - 1 - a) + 1)
    ]
    counts = [np.zeros(math.comb(n, t), dtype=np.int64) for t in range(t_max + 1)]
    widest = max([n] + [len(pick) * len(extra) * (1 + a + b) for a, b, pick, extra in splits])
    step = max(1, _SCAN_CHUNK_ENTRIES // widest)
    vertex = np.min_scalar_type(n)
    for lo in range(0, edge_count, step):
        chunk, owners = rows[lo : lo + step], owner[lo : lo + step]
        m = len(chunk)
        others = chunk[chunk != owners[:, None]].reshape(m, k - 1)
        absent = np.ones((m, n), dtype=bool)
        absent[np.arange(m)[:, None], chunk] = False
        outside = np.nonzero(absent)[1].reshape(m, n - k)
        for a, b, pick, extra in splits:
            sets = np.empty((m, len(pick), len(extra), 1 + a + b), dtype=vertex)
            sets[..., 0] = owners[:, None, None]
            sets[..., 1 : 1 + a] = others[:, pick][:, :, None, :]
            sets[..., 1 + a :] = outside[:, extra][:, None, :, :]
            ranks = _lex_ranks(sets.reshape(-1, 1 + a + b), n, binom)
            counts[1 + a + b] += np.bincount(ranks, minlength=len(counts[1 + a + b]))
    best, best_witness = -2, frozenset({0})
    violations = []
    for t in range(2, t_max + 1):
        # only sets scoring above the starting -2 can move the maximum or be
        # violations
        reached = np.flatnonzero(counts[t] > 2 * t - 2)
        scores = counts[t][reached] - 2 * t
        if len(reached) and scores.max() > best:
            top = int(np.argmax(scores))
            best = int(scores[top])
            best_witness = frozenset(_unrank(reached[top : top + 1], n, t, binom)[0].tolist())
        violations.extend(
            frozenset(row) for row in _unrank(reached[scores > 0], n, t, binom).tolist()
        )

    size_cap = cluster_radius(n, k)
    random_best = None
    random_witness = None
    trials_run = 0
    if random_trials > 0 and size_cap > t_max and edge_count:
        owners = np.unique(owner)
        for _ in range(random_trials):
            trials_run += 1
            v = int(owners[gen.integers(len(owners))])
            mine = np.flatnonzero(owner == v)
            partners = rows[mine[gen.integers(len(mine))]]
            partners = partners[partners != v]
            inside = np.zeros(n, dtype=bool)
            inside[[v, partners[gen.integers(len(partners))]]] = True
            hits = inside[rows].sum(axis=1)
            held = inside[owner]
            current = int(np.count_nonzero(held & (hits >= 2))) - 4
            if random_best is None or current > random_best:
                random_best, random_witness = current, _members(inside)
            for _ in range(size_cap - 2):
                meets = hits > 0
                pool = np.zeros(n, dtype=bool)
                pool[rows[meets]] = True
                pool &= ~inside
                if not pool.any():
                    break
                gain = np.bincount(owner[meets], minlength=n) + np.bincount(
                    rows[held & (hits == 1)].ravel(), minlength=n
                )
                candidates = np.flatnonzero(pool)
                # the best gain, ties to the largest vertex
                chosen = candidates[len(candidates) - 1 - np.argmax(gain[candidates][::-1])]
                current += int(gain[chosen]) - 2
                inside[chosen] = True
                hits = inside[rows].sum(axis=1)
                held = inside[owner]
                if current > random_best:
                    random_best, random_witness = current, _members(inside)
        if random_best is not None and random_best > 0:
            violations.append(random_witness)
    return ExpansivityReport(
        exhaustive_cap=t_max,
        exhaustive_max_excess=best,
        exhaustive_witness=best_witness,
        violations=tuple(violations),
        size_cap=size_cap,
        random_trials=trials_run,
        random_max_excess=random_best,
        random_witness=random_witness,
    )


def rigidity_violation_search(graph, chi, region, rho):
    """Look for a proper coloring that half-moves the region.

    The region is rigid at threshold rho when every proper coloring either
    disagrees with chi on fewer than rho*n region vertices or on more than
    2^(-k/2)*n of them. One frontier pass, weighted by chi on the region
    only, collects the proper colorings whose disagreement count D lands in
    the forbidden middle window ceil(rho*n) <= D <= cluster_radius(n, k);
    this returns the first in the order of proper_colorings, or None when
    the region is rigid. Every bound is an integer, so no float enters.
    """
    _check_proper(graph, chi)
    region = frozenset(region)
    if not all(0 <= v < graph.n for v in region):
        raise ValueError("region contains vertices outside 0..n-1")
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = graph.n
    _check_scale(n, MOMENT_MAX_N, "rigidity_violation_search")
    ref = [chi[v] if v in region else 2 for v in range(n)]
    low, high = math.ceil(rho * n), cluster_radius(n, graph.k)
    targets = [(a, b) for a in range(ref.count(0) + 1) for b in range(ref.count(1) + 1)
               if low <= a + b <= high]
    if not targets:
        return None
    return next(_frontier_table(graph, targets=targets, ref=ref, collect=True), None)
