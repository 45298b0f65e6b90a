"""Shared test utilities: small hand-built homomorphisms, random instances,
the loop oracles for the array samplers, the float-route type draw, the
rejection sampler of the planted model, the orbit walk of the hypergraph
build, Hamming distance, pair types and the test-only views of the type matrix and of patterns by
hand, the brute-force pattern count and the per-vertex pullback of tree windows, the full-walk
expansivity oracle, the backtracking coloring-search oracle, the
colors-route oracle of the tree root-status sampler, and the per-point
oracles of the distance-rate scan and the core fixed point."""

import functools
import itertools
import math
from collections import defaultdict, deque
from fractions import Fraction

import mpmath as mp
import numpy as np

from sofic_lab.analytics import (
    _FIXED_POINT_MAX_LEVELS,
    _FIXED_POINT_TOLERANCE,
    _cross_entropy2,
    _eta,
    _log_edge_factor,
    DistanceRateScan,
    DistanceScanRow,
    FixedPointTrace,
    bichromatic_pair_types,
    proper_rate,
    working_precision,
)
from sofic_lab._errors import ScaleRefusal
from sofic_lab.group_model import (
    ModelParams,
    UniformHom,
    evaluate_word,
    typed_partition_count,
    word_inverse,
)
from sofic_lab.hypergraph import (
    Coloring,
    PairTypeMatrix,
    build_hypergraph,
    critical_edges,
    monochromatic_edge_count,
)
from sofic_lab.samplers import (
    RngState,
    _as_generator,
    _draw_type_counts,
    _type_count_vectors,
    sample_uniform_hom,
)
from sofic_lab.tree_markov import (
    CoreDensityEstimate,
    Pattern,
    _check_core_sampler_args,
    enumerate_proper_patterns,
)

REJECTION_ORACLE_MAX_N = 40
REJECTION_ORACLE_MAX_TRIES = 100_000


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


def typed_blocks_loop_oracle(chi, k, counts, rng):
    """Per-block loop oracle for samplers._typed_blocks: the partition with
    c_j blocks of j ones for counts (c_1..c_{k-1}), as sorted tuples in
    sorted order."""
    gen = _oracle_generator(rng)
    n = len(chi)
    ones = [v for v in range(n) if chi[v] == 1]
    zeros = [v for v in range(n) if chi[v] == 0]
    ones = [ones[i] for i in gen.permutation(len(ones))]
    zeros = [zeros[i] for i in gen.permutation(len(zeros))]
    parts = []
    pos_one = pos_zero = 0
    for j, c in enumerate(counts, start=1):
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


def type_draw_float_oracle(n, k, rng):
    """Float-route oracle for samplers._draw_type_counts: each type weight
    as a float relative to the largest, normalized, and one
    Generator.choice over them. A weight below the least normal float
    relative to the largest loses its precision (at n=4000, k=4, 15 of the
    501 do), so this route only serves shapes where none does."""
    types, probs = _float_type_table(n, k)
    return types[int(_oracle_generator(rng).choice(len(types), p=probs))]


@functools.lru_cache(maxsize=None)
def _float_type_table(n, k):
    types = _type_count_vectors(k, n // k, n // 2)
    shapes = [(j, k - j) for j in range(1, k)]
    weights = [typed_partition_count((n // 2, n // 2), zip(shapes, c)) for c in types]
    probs = np.array([float(Fraction(w, max(weights))) for w in weights])
    return types, probs / probs.sum()


def sample_planted_images_loop_oracle(params, chi, rng):
    """Per-block loop oracle for samplers.sample_planted_hom: type vector,
    typed partition and one cycle per block, each generator in turn, with
    properness checked on the rebuilt hypergraph."""
    gen = _oracle_generator(rng)
    images = []
    for _ in range(params.d):
        counts = _draw_type_counts(params.n, params.k, gen)
        img = [0] * params.n
        for part in typed_blocks_loop_oracle(chi, params.k, counts, gen):
            cycle_on_block_oracle(part, gen, img)
        images.append(img)
    hom = UniformHom(params, images)
    if monochromatic_edge_count(build_hypergraph(hom), chi):
        raise RuntimeError("planted draw has a monochromatic edge")
    return images


def sample_planted_hom_rejection(params, chi, rng):
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
        for _ in range(REJECTION_ORACLE_MAX_TRIES):
            candidate = sample_uniform_hom(single, gen)
            if monochromatic_edge_count(build_hypergraph(candidate), chi) == 0:
                images.append(list(candidate.images[0]))
                break
        else:
            raise RuntimeError(
                "rejection sampler exceeded %d tries" % REJECTION_ORACLE_MAX_TRIES
            )
    return UniformHom(params, images)


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


def orbit_edges_oracle(hom):
    """Oracle for build_hypergraph: walk each generator's orbits from every
    unseen vertex, and sort the (label, sorted orbit) pairs."""
    edges = []
    for label, img in enumerate(hom.images):
        seen = [False] * hom.params.n
        for start in range(hom.params.n):
            if seen[start]:
                continue
            orbit = []
            v = start
            while not seen[v]:
                seen[v] = True
                orbit.append(v)
                v = img[v]
            edges.append((label, tuple(sorted(orbit))))
    return tuple(sorted(edges))


def type_row_mean(matrix, i):
    """p for row i of a GeneratorTypeMatrix: the sum of j * rows[i][j]."""
    return sum(j * x for j, x in enumerate(matrix.rows[i]))


def shared_row_mean(matrix):
    """The row mean of a GeneratorTypeMatrix, which a type matrix of the
    model has in common across its rows; raises when the rows differ."""
    means = {type_row_mean(matrix, i) for i in range(matrix.d)}
    if len(means) != 1:
        raise ValueError("rows have differing means; matrix is out of model")
    return means.pop()


def restricted_pattern(pattern, words):
    """The pattern's assignment on the given words only."""
    return Pattern({w: pattern[w] for w in words})


def hamming_distance(c1, c2):
    """Normalized disagreement count, an exact fraction in [0, 1]."""
    if len(c1) != len(c2):
        raise ValueError("colorings have different lengths")
    diff = sum(1 for a, b in zip(c1, c2) if a != b)
    return Fraction(diff, len(c1))


def pair_type_matrix(edge, chi, chi_tilde):
    """Overlap counts of one part against two colorings."""
    counts = [[0, 0], [0, 0]]
    for v in edge:
        counts[chi[v]][chi_tilde[v]] += 1
    return PairTypeMatrix(counts[0][0], counts[0][1], counts[1][0], counts[1][1])


def pair_type_map(graph, chi, chi_tilde, label):
    """The empirical pair-type distribution of one generator's partition.

    Requires every part of the label's partition to be bichromatic under both
    colorings. Returns a map from PairTypeMatrix to the fraction of vertices
    (1/n per part ... n/k parts total, so values sum to 1/k).
    """
    t = {}
    for edge in map(tuple, graph.blocks[label].tolist()):
        eps = pair_type_matrix(edge, chi, chi_tilde)
        if not eps.is_bichromatic_pair():
            raise ValueError(
                "part %r of label %d is not bichromatic under both colorings (type %r)"
                % (edge, label, eps.as_tuple())
            )
        t[eps] = t.get(eps, Fraction(0)) + Fraction(1, graph.n)
    return t


def count_proper_patterns_brute(domain):
    """Oracle for tree_markov.count_proper_patterns: every pattern tried."""
    return sum(1 for _ in enumerate_proper_patterns(domain))


def pullback_vertex_map(hom, v, domain):
    """Which finite-model vertex sits under each tree element at v.

    Element g maps to the image of v under g^{-1}; the identity maps to v
    itself. The map need not be injective when the finite model has short
    cycles through v. This per-vertex route is the oracle for the window
    matrices of local_pattern_census and local_convergence_stat.
    """
    params = hom.params
    return {
        g: evaluate_word(hom, word_inverse(params, g), v)
        for g in domain.elements
    }


def pullback_pattern(hom, coloring, v, domain):
    """Read a finite coloring through the tree window at v."""
    window = pullback_vertex_map(hom, v, domain)
    return Pattern({g: coloring[u] for g, u in window.items()})


def expansivity_exhaustive_oracle(graph, chi, t_max):
    """Full-walk oracle for the exhaustive phase of
    structure.expansivity_scan: score every set of size 1..t_max from
    scratch, in combinations order. Returns (max excess, witness,
    violations)."""
    full = []
    by_support = defaultdict(list)
    edges = graph.edges
    for ce, (idx, v) in enumerate(critical_edges(graph, chi)):
        full.append(frozenset(edges[idx][1]))
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


def coloring_search_oracle(graph, **constraints):
    """Backtracking oracle for the exact_count frontier pass: the count under
    the given constraints (see _ColoringSearch), or with collect=True the
    colorings in search order, which is lexicographic over _constraint_order
    with 0 first."""
    search = _ColoringSearch(graph, **constraints)
    count = search.run()
    return search.found if constraints.get("collect") else count


class _ColorNode:
    __slots__ = ("incoming", "slot", "color", "fresh", "core_memo")

    def __init__(self, incoming, slot, color):
        self.incoming = incoming
        self.slot = slot
        self.color = color
        self.fresh = None
        self.core_memo = {}


class _ColorEdge:
    __slots__ = ("members", "support")


class _ColorsRootStatusSampler:
    """The colors route of tree_markov's root-status sampler: sample the
    proper completion of every edge given its already-colored vertex, then
    read the support position off the colors. Every edge is built, members
    and all, and the root's color is drawn first."""

    def __init__(self, d, k, gen):
        self.d = d
        self.k = k
        self.modulus = 2 ** (k - 1) - 1
        self.gen = gen

    def _colored_edge(self, owner, completion):
        edge = _ColorEdge()
        k = self.k
        if owner.color == 0:
            completion += 1
        bits = [(completion >> j) & 1 for j in range(k - 1)]
        colors = [owner.color] + bits
        ones = sum(colors)
        if ones == 1:
            edge.support = colors.index(1)
        elif ones == k - 1:
            edge.support = colors.index(0)
        else:
            edge.support = None
        edge.members = (owner,) + tuple(
            _ColorNode(edge, j + 1, bits[j]) for j in range(k - 1)
        )
        return edge

    def _edges_of(self, node):
        if node.fresh is None:
            count = self.d if node.incoming is None else self.d - 1
            draws = (
                self.gen.integers(self.modulus, size=count).tolist() if count else ()
            )
            node.fresh = tuple(self._colored_edge(node, r) for r in draws)
        pairs = [(edge, 0) for edge in node.fresh]
        if node.incoming is not None:
            pairs.append((node.incoming, node.slot))
        return pairs

    def _in_core(self, node, level):
        if level == 0:
            return True
        hit = node.core_memo.get(level)
        if hit is not None:
            return hit
        count = 0
        for edge, pos in self._edges_of(node):
            if edge.support == pos and self._is_witness(edge, pos, level):
                count += 1
                if count == 3:
                    break
        node.core_memo[level] = count >= 3
        return count >= 3

    def _is_witness(self, edge, pos, level):
        return all(
            self._in_core(member, level - 1)
            for j, member in enumerate(edge.members)
            if j != pos
        )

    def root_status(self, level):
        if level == 0:
            return "core"
        root = _ColorNode(None, None, int(self.gen.integers(2)))
        root_edges = [edge for edge, _ in self._edges_of(root)]
        witnesses = [
            edge
            for edge in root_edges
            if edge.support == 0 and self._is_witness(edge, 0, level)
        ]
        if len(witnesses) >= 3:
            return "core"
        if not witnesses:
            return "outside"
        for edge in root_edges:
            s = edge.support
            if s and self._is_witness(edge, s, level) and not self._in_core(
                edge.members[s], level
            ):
                return "attached_overlap"
        for e in witnesses:
            for u in e.members[1:]:
                for f, _ in self._edges_of(u):
                    if f is e or f.support is None:
                        continue
                    s = f.support
                    partner = f.members[s]
                    if self._is_witness(f, s, level) and not self._in_core(
                        partner, level
                    ):
                        return "attached_overlap"
        return "attached"


def core_density_colors_oracle(d, k, level, samples, rng):
    """Colors-route oracle for tree_markov.core_density_estimate: the same
    tally, with every edge's support read off a sampled proper completion
    instead of drawn directly. The routes agree in distribution only; they
    consume the stream differently."""
    _check_core_sampler_args(d, k, level)
    sampler = _ColorsRootStatusSampler(d, k, _as_generator(rng))
    core = attached = overlap = 0
    for _ in range(samples):
        status = sampler.root_status(level)
        if status == "core":
            core += 1
        elif status == "attached":
            attached += 1
        elif status == "attached_overlap":
            attached += 1
            overlap += 1
    return CoreDensityEstimate(
        d=d,
        k=k,
        level=level,
        samples=samples,
        core_count=core,
        attached_count=attached,
        overlap_count=overlap,
    )


def _pair_distance_rate_oracle(x, d, k):
    return _eta(x) + _eta(1 - x) + mp.mpf(d) / k * _log_edge_factor(x, k)


def _bias_to_distance_with_derivative_oracle(b, k):
    base = 1 - mp.mpf(2) ** (2 - k)
    half_pow = (b / 2) ** (k - 1)
    num = b * base + 2 * (b / 2) ** k
    den = base + 2 * (b / 2) ** k + 2 * ((1 - b) / 2) ** k
    num_d = base + k * half_pow
    den_d = k * half_pow - k * ((1 - b) / 2) ** (k - 1)
    return num / den, (num_d * den - num * den_d) / den**2


def _solve_bias_oracle(x, k):
    # Newton inside a bracket with the slope computed on every evaluation,
    # the final residual check included
    tol = mp.mpf(10) ** -13
    lo, hi = mp.mpf(0), mp.mpf(1)
    b = x
    for _ in range(200):
        value, derivative = _bias_to_distance_with_derivative_oracle(b, k)
        residual = value - x
        if abs(residual) <= tol:
            return b
        if residual < 0:
            lo = b
        else:
            hi = b
        if derivative > 0:
            b = b - residual / derivative
        else:
            b = (lo + hi) / 2
        if not lo < b < hi:
            b = (lo + hi) / 2
    raise RuntimeError("bias inversion did not converge")


def _planted_distance_rate_oracle(x, b, d, k):
    h_x = _eta(x) + _eta(1 - x)
    h_b = _eta(b) + _eta(1 - b)
    cross = _cross_entropy2(x, b)
    closed = (1 - mp.mpf(d)) * h_x + d * cross + mp.mpf(d) / k * _log_edge_factor(b, k)
    alternate = (
        _pair_distance_rate_oracle(b, d, k)
        - (h_b - cross)
        + (mp.mpf(d) - 1) * (cross - h_x)
    )
    if not abs(closed - alternate) <= mp.mpf(10) ** -9:
        raise ArithmeticError("planted rate routes disagree at distance %s" % x)
    return closed


def scan_row_oracle(x, d, k, proper):
    """Oracle for one row of analytics.distance_rate_scan at distance x in
    (0, 1), under the caller's working precision: the bias solved with the
    Newton slope computed alongside every map value, and each rate
    evaluated on its own with every logarithm taken afresh."""
    b = _solve_bias_oracle(x, k)
    return DistanceScanRow(
        delta=x,
        delta0=b,
        planted_rate=_planted_distance_rate_oracle(x, b, d, k),
        pair_rate=_pair_distance_rate_oracle(x, d, k),
        proper_rate=proper,
    )


def distance_rate_scan_oracle(d, k, grid_points, precision=None):
    """analytics.distance_rate_scan with every row from scan_row_oracle."""
    with working_precision(precision):
        lo = mp.mpf(2) ** (-mp.mpf(k) / 2)
        hi = 1 - lo
        proper = proper_rate(d, k, precision=mp.mp.prec)
        rows = [
            scan_row_oracle(lo + (hi - lo) * i / (grid_points - 1), d, k, proper)
            for i in range(grid_points)
        ]
        ranked = sorted(range(grid_points), key=lambda i: rows[i].planted_rate)
        best, runner_up = rows[ranked[-1]], rows[ranked[-2]]
        return DistanceRateScan(
            rows=tuple(rows),
            argmax_delta=best.delta,
            max_rate=best.planted_rate,
            margin=best.planted_rate - runner_up.planted_rate,
        )


def _binomial_tail_at_least_oracle(n, j_min, t):
    if n < j_min or t == 0:
        return mp.mpf(0)
    if t == 1:
        return mp.mpf(1)
    log_t = mp.log(t)
    log_1mt = mp.log(1 - t)
    head = mp.mpf(0)
    for j in range(j_min):
        log_term = (
            mp.loggamma(n + 1)
            - mp.loggamma(j + 1)
            - mp.loggamma(n - j + 1)
            + j * log_t
            + (n - j) * log_1mt
        )
        head += mp.exp(log_term)
    return 1 - head


def core_fixed_point_oracle(d, k, precision=None):
    """Oracle for analytics.core_fixed_point: the same recursion with every
    log-gamma term recomputed at every level."""
    with working_precision(precision):
        lambda0 = 1 / (mp.mpf(2) ** (k - 1) - 1)
        trace = [lambda0]
        converged = False
        while len(trace) <= _FIXED_POINT_MAX_LEVELS:
            survival = _binomial_tail_at_least_oracle(d - 1, 3, trace[-1])
            trace.append(lambda0 * survival ** (k - 1))
            if abs(trace[-1] - trace[-2]) < _FIXED_POINT_TOLERANCE:
                converged = True
                break
        p_inf = trace[-1]
        return FixedPointTrace(
            p=tuple(trace),
            p_inf=p_inf,
            mu_core=_binomial_tail_at_least_oracle(d, 3, p_inf),
            mu_core_attached=1 - (1 - p_inf) ** d,
            converged=converged,
        )
