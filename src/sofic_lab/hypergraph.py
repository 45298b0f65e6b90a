"""Generator-labeled k-uniform hypergraphs and 2-coloring statistics.

Every uniform homomorphism induces a hypergraph on its vertex set whose edges
are the orbits of the generator subgroups, one perfect k-partition per
generator label. Colorings are 0/1 vectors; this module evaluates them:
monochromatic and critical edges, and the generator type matrix whose
entropy functional (analytics.type_rate) gives the first-moment rate.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .group_model import UniformHom


class Coloring:
    """A 0/1 coloring of vertices 0..n-1, immutable.

    Every entry must equal 0 or 1 (bools and numpy integers do; 0.9 and 2
    do not) and is stored as a Python int in ``bits``. The colors as a
    read-only intp array are built by _coloring_array on first read and
    kept in ``_colors``, so a coloring read by several calls is converted
    once. A copy or a pickle is rebuilt from ``bits`` and carries no array.
    """

    __slots__ = ("bits", "_colors")

    def __init__(self, bits):
        bits = tuple(bits)
        if not {0, 1}.issuperset(bits):
            raise ValueError("coloring entries must be 0 or 1")
        object.__setattr__(self, "bits", tuple(map(int, bits)))
        object.__setattr__(self, "_colors", None)

    def __setattr__(self, name, value):
        raise AttributeError("Coloring is immutable")

    def __reduce__(self):
        return Coloring, (self.bits,)

    @classmethod
    def from_string(cls, s):
        """The coloring written as a string of 0s and 1s, one per vertex."""
        if not set(s) <= {"0", "1"}:
            raise ValueError("a coloring is a string of 0s and 1s, got %r" % (s,))
        return cls(map(int, s))

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


def _coloring_array(coloring, n):
    """The colors of vertices 0..n-1 as a read-only intp array of 0s and 1s.

    A Coloring's array is built on its first read and kept on it; any other
    sequence is checked entry by entry as a Coloring is, every call.
    """
    if len(coloring) != n:
        raise ValueError(
            "coloring has %d entries for %d vertices" % (len(coloring), n)
        )
    if not isinstance(coloring, Coloring):
        coloring = Coloring(coloring)
    if coloring._colors is None:
        colors = np.array(coloring.bits, dtype=np.intp)
        colors.flags.writeable = False
        object.__setattr__(coloring, "_colors", colors)
    return coloring._colors


@dataclass(frozen=True, eq=False)
class LabeledHypergraph:
    """Vertex set 0..n-1 plus generator-labeled k-edges.

    The edges of each label partition the vertex set into n/k blocks of size
    k, so they are stored as one read-only integer array ``blocks`` of shape
    (d, n/k, k): blocks[i] holds the label-i edges, each row sorted and the
    rows ordered by least vertex. Edge number i * n/k + j is blocks[i, j], so
    all counts and reports are reproducible. build_hypergraph is the only
    builder: it reads the blocks off a checked orbit table, so the record
    checks nothing itself.
    """

    n: int
    k: int
    d: int
    blocks: np.ndarray

    @property
    def edges(self):
        """All edges as (label, vertex tuple) pairs, in edge-number order."""
        return tuple(
            (label, tuple(row))
            for label, rows in enumerate(self.blocks.tolist())
            for row in rows
        )

    def __repr__(self):
        return "LabeledHypergraph(n=%d, k=%d, d=%d, %d edges)" % (
            self.n,
            self.k,
            self.d,
            self.d * self.n // self.k,
        )


def build_hypergraph(hom: UniformHom) -> LabeledHypergraph:
    """Orbits of each generator, one labeled edge per orbit.

    Column (i, v) of the orbit table hom.orbits lists the orbit of v under
    generator i; each orbit is kept once, at its least vertex, so the rows
    come label by label in order of least vertex. The table's check makes
    every orbit a k-set, so each label's rows partition the vertex set.
    """
    p = hom.params
    least = hom.orbits.min(axis=0) == np.arange(p.n)
    blocks = np.sort(hom.orbits.transpose(1, 2, 0)[least], axis=1)
    blocks = blocks.reshape(p.d, p.n // p.k, p.k)
    blocks.flags.writeable = False
    return LabeledHypergraph(p.n, p.k, p.d, blocks)


def _edge_colors(graph, coloring):
    """The colors on every edge, one row per edge in edge-number order."""
    chi = _coloring_array(coloring, graph.n)
    return chi[graph.blocks.reshape(-1, graph.k)]


def monochromatic_edge_count(graph, coloring):
    """Number of edges whose k vertices all carry the same color."""
    ones = _edge_colors(graph, coloring).sum(axis=1)
    return int(np.count_nonzero((ones == 0) | (ones == graph.k)))


def critical_edges(graph, coloring):
    """Member rows and support vertex of every critical edge, as two arrays.

    An edge is critical when exactly one of its vertices carries its color;
    that vertex supports the edge. ``rows[i]`` is the sorted vertex row of
    the i-th critical edge (a row of ``blocks``), in edge-number order, and
    ``owner[i]`` is the vertex supporting it. Undefined for k=2, where a
    bichromatic edge would have two one-color vertices.
    """
    if graph.k == 2:
        raise ValueError("supporting vertices are undefined for k=2; need k >= 3")
    colors = _edge_colors(graph, coloring)
    ones = colors.sum(axis=1)
    idx = np.flatnonzero((ones == 1) | (ones == graph.k - 1))
    # the support carries color 1 when it is the only 1, color 0 otherwise
    lone = (ones[idx] == 1)[:, None]
    pos = np.argmax(colors[idx] == lone, axis=1)
    rows = graph.blocks.reshape(-1, graph.k)[idx]
    return rows, rows[np.arange(len(idx)), pos]


def generator_type(graph, coloring):
    """The d x (k+1) generator type matrix of a coloring, a tuple of d rows
    of Fractions: rows[i][j] = (number of label-i edges with j ones) / n.
    Each row sums to 1/k, and its mean sum_j j*rows[i][j] is the fraction
    of 1-colored vertices."""
    d, k = graph.d, graph.k
    ones = _edge_colors(graph, coloring).sum(axis=1)
    # edge e has label e // (n/k); shift each label's counts to its own row
    labels = np.arange(ones.size) // (graph.n // k)
    rows = np.bincount(labels * (k + 1) + ones, minlength=d * (k + 1))
    fractions = {c: Fraction(c, graph.n) for c in set(rows.tolist())}
    return tuple(
        tuple(fractions[c] for c in row) for row in rows.reshape(d, k + 1).tolist()
    )
