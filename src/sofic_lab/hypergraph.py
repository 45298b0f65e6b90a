"""Generator-labeled k-uniform hypergraphs and 2-coloring statistics.

Every uniform homomorphism induces a hypergraph on its vertex set whose edges
are the orbits of the generator subgroups, one perfect k-partition per
generator label. Colorings are 0/1 vectors; this module evaluates them:
monochromatic and critical edges, and the per-generator and pairwise type
statistics that drive the moment computations.
"""

from dataclasses import dataclass
from fractions import Fraction

from .group_model import UniformHom


class Coloring:
    """A 0/1 coloring of vertices 0..n-1, immutable."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("coloring entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Coloring is immutable")

    @classmethod
    def from_string(cls, s):
        return cls(int(c) for c in s)

    @classmethod
    def equitable_split(cls, n):
        """The canonical equitable coloring: first half 0, second half 1."""
        if n % 2:
            raise ValueError("equitable coloring needs even n")
        return cls([0] * (n // 2) + [1] * (n // 2))

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, v):
        return self.bits[v]

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other):
        return isinstance(other, Coloring) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return "Coloring(%s)" % "".join(str(b) for b in self.bits)

    def ones(self):
        return sum(self.bits)

    def is_equitable(self):
        return 2 * self.ones() == len(self.bits)

    def flipped(self):
        """The color-swapped coloring 1 - chi."""
        return Coloring(1 - b for b in self.bits)


class LabeledHypergraph:
    """Vertex set 0..n-1 plus generator-labeled k-edges.

    For each label the edges form a perfect partition of the vertex set into
    blocks of size k; this is validated at construction. Edges are stored
    sorted (by label, then least vertex) so all counts and reports are
    reproducible.
    """

    __slots__ = ("n", "k", "d", "edges")

    def __init__(self, n, k, d, edges):
        edges = sorted(
            (int(label), tuple(sorted(edge))) for label, edge in edges
        )
        if n % k != 0:
            raise ValueError("n must be a multiple of k")
        per_label = {i: [] for i in range(d)}
        for label, edge in edges:
            if label not in per_label:
                raise ValueError("edge label %r out of range 0..%d" % (label, d - 1))
            if len(edge) != k or len(set(edge)) != k:
                raise ValueError("edge %r must have k=%d distinct vertices" % (edge, k))
            per_label[label].append(edge)
        for label, label_edges in per_label.items():
            covered = sorted(v for e in label_edges for v in e)
            if covered != list(range(n)):
                raise ValueError("label %d edges do not partition the vertex set" % label)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edges", tuple(edges))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledHypergraph is immutable")

    def label_edges(self, label):
        return [e for lab, e in self.edges if lab == label]

    def __repr__(self):
        return "LabeledHypergraph(n=%d, k=%d, d=%d, %d edges)" % (
            self.n,
            self.k,
            self.d,
            len(self.edges),
        )


def build_hypergraph(hom: UniformHom) -> LabeledHypergraph:
    """Orbits of each generator, one labeled edge per orbit."""
    p = hom.params
    edges = []
    for i, img in enumerate(hom.images):
        seen = [False] * p.n
        for start in range(p.n):
            if seen[start]:
                continue
            orbit = []
            v = start
            while not seen[v]:
                seen[v] = True
                orbit.append(v)
                v = img[v]
            edges.append((i, tuple(orbit)))
    return LabeledHypergraph(p.n, p.k, p.d, edges)


def monochromatic_edge_count(graph, coloring):
    if len(coloring) != graph.n:
        raise ValueError("coloring length %d != vertex count %d" % (len(coloring), graph.n))
    count = 0
    for _, edge in graph.edges:
        first = coloring[edge[0]]
        if all(coloring[v] == first for v in edge[1:]):
            count += 1
    return count


def critical_edges(graph, coloring):
    """All (edge index, supporting vertex) pairs.

    An edge is critical when exactly one of its vertices carries its color;
    that vertex supports the edge. Undefined for k=2, where a bichromatic
    edge would have two one-color vertices.
    """
    if graph.k == 2:
        raise ValueError("supporting vertices are undefined for k=2; need k >= 3")
    out = []
    for idx, (_, edge) in enumerate(graph.edges):
        ones = [v for v in edge if coloring[v] == 1]
        if len(ones) == 1:
            out.append((idx, ones[0]))
        elif len(ones) == graph.k - 1:
            zeros = [v for v in edge if coloring[v] == 0]
            out.append((idx, zeros[0]))
    return out


@dataclass(frozen=True)
class PairTypeMatrix:
    """Overlap counts of one part against two colorings.

    e[i][j] = number of part vertices with first coloring i and second
    coloring j. Sum is k; membership in the bichromatic family additionally
    needs 0 < e10+e11 < k and 0 < e01+e11 < k.
    """

    e00: int
    e01: int
    e10: int
    e11: int

    def total(self):
        return self.e00 + self.e01 + self.e10 + self.e11

    def is_bichromatic_pair(self):
        k = self.total()
        return 0 < self.e10 + self.e11 < k and 0 < self.e01 + self.e11 < k

    def as_tuple(self):
        return (self.e00, self.e01, self.e10, self.e11)


class GeneratorTypeMatrix:
    """Per-generator histogram of color-1 counts over edges.

    entry(i, j) is the fraction of vertices contributed by label-i edges with
    exactly j ones, i.e. (number of such edges)/n. Rows sum to 1/k. The row
    mean p(i) = sum_j j*entry(i,j) equals the global fraction of 1-colored
    vertices, hence is the same for every row.
    """

    __slots__ = ("d", "k", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("need at least one row")
        k = len(rows[0]) - 1
        for row in rows:
            if len(row) != k + 1:
                raise ValueError("rows must all have k+1 entries")
            if any(x < 0 for x in row):
                raise ValueError("type entries must be nonnegative")
        object.__setattr__(self, "d", len(rows))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorTypeMatrix is immutable")

    def entry(self, i, j):
        return self.rows[i][j]

    def row_sum(self, i):
        return sum(self.rows[i])

    def row_mean(self, i):
        """p for row i: the sum of j * entry(i, j)."""
        return sum(j * x for j, x in enumerate(self.rows[i]))

    def shared_mean(self):
        p = self.row_mean(0)
        for i in range(1, self.d):
            if self.row_mean(i) != p:
                raise ValueError("rows have differing means; matrix is out of model")
        return p

    def __eq__(self, other):
        return isinstance(other, GeneratorTypeMatrix) and self.rows == other.rows

    def __repr__(self):
        return "GeneratorTypeMatrix(%r)" % (self.rows,)


def generator_type(graph, coloring):
    """The full d x (k+1) type matrix of a coloring."""
    if len(coloring) != graph.n:
        raise ValueError("coloring length mismatch")
    rows = [[0] * (graph.k + 1) for _ in range(graph.d)]
    for label, edge in graph.edges:
        ones = sum(coloring[v] for v in edge)
        rows[label][ones] += 1
    return GeneratorTypeMatrix(
        [[Fraction(c, graph.n) for c in row] for row in rows]
    )
