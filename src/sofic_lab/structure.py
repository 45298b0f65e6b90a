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
from .exact_count import cluster_radius, proper_colorings
from .hypergraph import critical_edges, monochromatic_edge_count
from .samplers import RngState, _as_generator

EXPANSIVITY_MAX_SUBSETS = 2_000_000


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


def _supported_edges(graph, chi):
    """Member rows and support vertex of every critical edge.

    ``rows[i]`` is the sorted vertex row of the i-th critical edge, in
    edge-number order, and ``owner[i]`` is the vertex supporting it. Supports
    depend only on the coloring, so the peeling computes them once and then
    only tracks which rows still lie inside the shrinking core.
    """
    supports = np.array(critical_edges(graph, chi), dtype=np.intp).reshape(-1, 2)
    rows = graph.blocks.reshape(-1, graph.k)[supports[:, 0]]
    return rows, supports[:, 1]


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
    rows, owner = _supported_edges(graph, chi)
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


def expansivity_scan(graph, chi, t_max, random_trials=0, rng=None):
    """Measure how many supported edges concentrate on small vertex sets.

    Exhaustively scores every set of size 1..t_max (refusing if that means
    more than EXPANSIVITY_MAX_SUBSETS subsets), then runs seeded greedy
    growth from random supported edges for sizes up to the cluster radius
    ``cluster_radius(n, k)``.

    The exhaustive phase counts edge by edge: a supported edge is heavy in
    T exactly when T holds its owner and one more of its vertices, so each
    edge adds one to the sets of size 2..t_max it makes heavy, and every set
    no edge reaches scores -2|T|. Walking the reached sets in
    ``combinations`` order from the witness {0} at -2 gives the same
    maximum, witness and violation order as scoring all sets would. The
    dict holds at most ``subset_count`` keys, and that count is still what
    the refusal bounds.

    The greedy phase is a documented heuristic: each trial starts from a
    supported edge's owner and one co-vertex and repeatedly adds the
    candidate vertex with the best excess gain, recording the best excess
    seen along the trajectory.
    """
    _check_proper(graph, chi)
    if not 1 <= t_max <= graph.n:
        raise ValueError("t_max must be between 1 and n")
    if random_trials < 0:
        raise ValueError("random_trials must be nonnegative")
    subset_count = sum(math.comb(graph.n, t) for t in range(1, t_max + 1))
    if subset_count > EXPANSIVITY_MAX_SUBSETS:
        raise ScaleRefusal(
            "exhaustive scan would enumerate %d subsets" % subset_count,
            count=subset_count,
        )
    gen = _as_generator(rng if rng is not None else RngState(0))
    rows, owner = _supported_edges(graph, chi)
    rows, owner = rows.tolist(), owner.tolist()
    full = [frozenset(verts) for verts in rows]
    by_support = defaultdict(list)
    covering = defaultdict(list)
    for ce, (v, verts) in enumerate(zip(owner, rows)):
        by_support[v].append(ce)
        for u in verts:
            covering[u].append(ce)

    def excess(subset):
        owned = set()
        for v in subset:
            owned.update(by_support.get(v, ()))
        heavy = sum(1 for ce in owned if len(full[ce] & subset) >= 2)
        return heavy - 2 * len(subset)

    heavy_count = defaultdict(int)
    for v, row, verts in zip(owner, rows, full):
        others = [u for u in row if u != v]
        outside = [u for u in range(graph.n) if u not in verts]
        for a in range(1, min(len(others), t_max - 1) + 1):
            for inside in itertools.combinations(others, a):
                for b in range(t_max - a):
                    for extra in itertools.combinations(outside, b):
                        heavy_count[tuple(sorted((v,) + inside + extra))] += 1
    best, best_witness = -2, frozenset({0})
    violations = []
    # Only sets scoring above the starting -2 can move the maximum or be
    # violations.
    contenders = [
        key for key, count in heavy_count.items() if count > 2 * len(key) - 2
    ]
    for key in sorted(contenders, key=lambda key: (len(key), key)):
        val = heavy_count[key] - 2 * len(key)
        if val > best:
            best, best_witness = val, frozenset(key)
        if val > 0:
            violations.append(frozenset(key))

    size_cap = cluster_radius(graph.n, graph.k)
    random_best = None
    random_witness = None
    trials_run = 0
    if random_trials > 0 and size_cap > t_max and by_support:
        owners = sorted(by_support)
        for _ in range(random_trials):
            trials_run += 1
            v = owners[int(gen.integers(len(owners)))]
            ce = by_support[v][int(gen.integers(len(by_support[v])))]
            partner_pool = sorted(full[ce] - {v})
            subset = {v, partner_pool[int(gen.integers(len(partner_pool)))]}
            current = excess(subset)
            if random_best is None or current > random_best:
                random_best, random_witness = current, frozenset(subset)
            while len(subset) < size_cap:
                pool = set()
                for u in subset:
                    for cd in covering.get(u, ()):
                        pool.update(full[cd])
                pool -= subset
                if not pool:
                    break
                gains = [(excess(subset | {u}), u) for u in sorted(pool)]
                gain, chosen = max(gains)
                subset.add(chosen)
                if gain > random_best:
                    random_best, random_witness = gain, frozenset(subset)
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
    2^(-k/2)*n of them. This enumerates all proper colorings and returns
    the first one whose disagreement count D lands in the forbidden middle
    window rho*n <= D <= 2^(-k/2)*n, or None when the region is rigid. Both
    window comparisons are exact: the upper one is D^2 * 2^k <= n^2 in
    integers, so no floating point is involved.
    """
    _check_proper(graph, chi)
    region = frozenset(region)
    if not all(0 <= v < graph.n for v in region):
        raise ValueError("region contains vertices outside 0..n-1")
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = graph.n
    for candidate in proper_colorings(graph):
        disagreements = sum(1 for v in region if chi[v] != candidate[v])
        if (
            Fraction(disagreements) >= rho * n
            and disagreements * disagreements * 2 ** graph.k <= n * n
        ):
            return candidate
    return None
