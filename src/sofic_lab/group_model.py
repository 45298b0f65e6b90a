"""Free products of cyclic groups acting on finite sets.

The group here is the free product of d copies of the cyclic group of order k,
with generators s_1, ..., s_d (indexed 0..d-1 in code). Uniform homomorphisms
send every generator to a permutation that is a disjoint union of k-cycles.
This module owns word reduction, word evaluation, enumeration of all uniform
homomorphisms at small scale, and the sofic-approximation checker.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._errors import ScaleRefusal

DEFAULT_ENUMERATION_BOUND = 10**7


@dataclass(frozen=True)
class ModelParams:
    """The triple (d, k, n): generator count, generator order, vertex count.

    k >= 2 always. d = 0 is allowed as the degenerate free product of no
    factors, so counting operations can express the unconstrained case. n
    must be a positive multiple of k whenever a uniform homomorphism is to
    exist, and additionally even whenever an equitable coloring is required;
    the relevant constructors enforce the divisibility they need rather than
    this class enforcing both up front.
    """

    d: int
    k: int
    n: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("generator count d must be >= 0, got %r" % (self.d,))
        if self.k < 2:
            raise ValueError("generator order k must be >= 2, got %r" % (self.k,))
        if self.n < 1:
            raise ValueError("vertex count n must be positive, got %r" % (self.n,))

    def require_uniform(self):
        if self.n % self.k != 0:
            raise ValueError(
                "uniform homomorphisms need k | n; got n=%d, k=%d" % (self.n, self.k)
            )

    def require_equitable(self):
        if self.n % 2 != 0:
            raise ValueError("equitable colorings need even n; got n=%d" % self.n)


class ReducedWord:
    """A reduced word: syllables (generator, exponent) with exponent in 1..k-1
    and no two adjacent syllables sharing a generator. The empty word is the
    identity. Instances are immutable and hashable; construction does not
    re-reduce, use reduce_word for that."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        object.__setattr__(self, "syllables", tuple(syllables))

    def __setattr__(self, name, value):
        raise AttributeError("ReducedWord is immutable")

    def is_identity(self):
        return not self.syllables

    def length(self):
        """Word length: the sum of the syllable exponents."""
        return sum(e for _, e in self.syllables)

    def __eq__(self, other):
        return isinstance(other, ReducedWord) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        if not self.syllables:
            return "ReducedWord(identity)"
        parts = []
        for g, e in self.syllables:
            parts.append("s%d" % (g + 1) if e == 1 else "s%d^%d" % (g + 1, e))
        return "ReducedWord(%s)" % " ".join(parts)


IDENTITY = ReducedWord()


def reduce_word(params, letters):
    """Normalize a sequence of (generator, exponent) letters to reduced form.

    Exponents may be any integers; they are taken mod k, adjacent syllables on
    the same generator are merged, and vanishing syllables are dropped (which
    can cascade). Generator indices must lie in 0..d-1.
    """
    k = params.k
    stack = []
    for g, e in letters:
        if not 0 <= g < params.d:
            raise ValueError("generator index %r out of range 0..%d" % (g, params.d - 1))
        e %= k
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = (stack[-1][1] + e) % k
            stack.pop()
            if merged:
                stack.append((g, merged))
        else:
            stack.append((g, e))
    return ReducedWord(stack)


def word_inverse(params, word):
    k = params.k
    return ReducedWord(tuple((g, k - e) for g, e in reversed(word.syllables)))


def word_product(params, *words):
    """Product of reduced words, re-reduced (left to right)."""
    letters = []
    for w in words:
        letters.extend(w.syllables)
    return reduce_word(params, letters)


def generator_word(i):
    return ReducedWord(((i, 1),))


def generator_words(params):
    """The d words s_1, ..., s_d."""
    return [generator_word(i) for i in range(params.d)]


def generator_pair_words(params):
    """All length-two products s_i s_j with i != j."""
    return [
        ReducedWord(((i, 1), (j, 1)))
        for i in range(params.d)
        for j in range(params.d)
        if i != j
    ]


class UniformHom:
    """A homomorphism sending each generator to a disjoint union of k-cycles.

    images[i][v] is the image of vertex v under generator i, stored as a
    Python int whatever integer type the caller passed. Validity (integer
    entries, each image a permutation with all orbits of size exactly k) is
    checked once at construction; operations after that assume it.
    """

    __slots__ = ("params", "images")

    def __init__(self, params, images, _trusted=False):
        # _trusted skips conversion and validation, for enumeration, which
        # passes valid images of Python ints
        params.require_uniform()
        if _trusted:
            images = tuple(tuple(img) for img in images)
        else:
            images = [_index_array(img, i) for i, img in enumerate(images)]
        if len(images) != params.d:
            raise ValueError(
                "expected %d generator images, got %d" % (params.d, len(images))
            )
        if not _trusted:
            for i, img in enumerate(images):
                _check_uniform_permutation(img, params.n, params.k, i)
            images = tuple(tuple(img.tolist()) for img in images)
        self.params = params
        self.images = images

    def apply(self, gen, v, power=1):
        """sigma(s_gen)^power applied to v; power may be any integer."""
        img = self.images[gen]
        power %= self.params.k
        for _ in range(power):
            v = img[v]
        return v

    def __eq__(self, other):
        return (
            isinstance(other, UniformHom)
            and self.params == other.params
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.params, self.images))

    def __repr__(self):
        return "UniformHom(d=%d, k=%d, n=%d)" % (
            self.params.d,
            self.params.k,
            self.params.n,
        )

    def to_json_dict(self):
        """Canonical on-disk form: {"n":..., "k":..., "d":..., "images":[[...]]}."""
        return {
            "n": self.params.n,
            "k": self.params.k,
            "d": self.params.d,
            "images": [list(img) for img in self.images],
        }

    @classmethod
    def from_json_dict(cls, data):
        params = ModelParams(d=int(data["d"]), k=int(data["k"]), n=int(data["n"]))
        return cls(params, data["images"])


def _index_array(img, gen_index):
    arr = np.asarray(img)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(
            "image of generator %d must hold integers, got %s entries"
            % (gen_index, arr.dtype)
        )
    return arr.astype(np.intp, copy=False)


def _check_uniform_permutation(img, n, k, gen_index):
    """Raise ValueError unless the index array img is a permutation of
    0..n-1 whose orbits all have size exactly k.

    Every orbit has size k exactly when img^j has no fixed point for
    0 < j < k and img^k is the identity; only on failure are the orbits
    walked, to report the first bad one by least vertex.
    """
    if (
        img.shape != (n,)
        or img.min() < 0
        or img.max() >= n
        or np.count_nonzero(np.bincount(img, minlength=n)) != n
    ):
        raise ValueError("image of generator %d is not a permutation of 0..%d" % (gen_index, n - 1))
    identity = np.arange(n)
    power = img
    for _ in range(1, k):
        if (power == identity).any():
            break
        power = img[power]
    else:
        if (power == identity).all():
            return
    img = img.tolist()
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


def _check_generators(params, word):
    for g, _ in word.syllables:
        if not 0 <= g < params.d:
            raise ValueError("generator index %r out of range 0..%d" % (g, params.d - 1))


def evaluate_word(hom, word, v):
    """Apply sigma(word) to vertex v, rightmost syllable first.

    The per-vertex route, kept as the oracle for the composed arrays of
    check_sofic and the local pattern census.
    """
    if not 0 <= v < hom.params.n:
        raise ValueError("vertex %r out of range 0..%d" % (v, hom.params.n - 1))
    _check_generators(hom.params, word)
    for g, e in reversed(word.syllables):
        v = hom.apply(g, v, e)
    return v


def _word_arrays(hom, words):
    """sigma(w) for each word as a numpy index array.

    Each starts from the identity and applies the generator images syllable
    by syllable from the right, e times each, by fancy indexing; element v
    is sigma(w) applied to v. Every generator index is validated first.
    """
    params = hom.params
    words = list(words)
    for w in words:
        _check_generators(params, w)
    generators = [np.array(img, dtype=np.intp) for img in hom.images]
    arrays = []
    for w in words:
        perm = np.arange(params.n)
        for g, e in reversed(w.syllables):
            for _ in range(e % params.k):
                perm = generators[g][perm]
        arrays.append(perm)
    return arrays


@dataclass(frozen=True)
class SoficReport:
    n: int
    delta: Fraction
    mult_fraction: Fraction
    trace_fraction: Fraction
    is_multiplicative: bool
    is_trace_preserving: bool
    is_sofic: bool


def check_sofic(hom, words, delta):
    """Check the two sofic-approximation statistics over a finite word set.

    mult_fraction is the fraction of vertices v with
    sigma(gh)v = sigma(g)(sigma(h)v) for every pair g, h in the set, computed
    generically from the images even though a genuine homomorphism always
    scores 1. trace_fraction is the fraction of v moved by every non-identity
    word in the set. Each statistic passes when strictly greater than
    1 - delta, and the report flags both plus their conjunction.

    Each distinct word and each distinct product gh is reduced and composed
    into a whole permutation array once; both statistics are then
    vertex-wise ANDs of array comparisons.
    """
    params = hom.params
    n = params.n
    delta = Fraction(delta)
    words = list(dict.fromkeys(words))

    pairs = [(g, h, word_product(params, g, h)) for g in words for h in words]
    composed = list(dict.fromkeys(words + [gh for _, _, gh in pairs]))
    images = dict(zip(composed, _word_arrays(hom, composed)))

    mult = np.ones(n, dtype=bool)
    for g, h, gh in pairs:
        mult &= images[gh] == images[g][images[h]]
    moved = np.ones(n, dtype=bool)
    identity = np.arange(n)
    for w in words:
        if not w.is_identity():
            moved &= images[w] != identity

    mult_fraction = Fraction(int(np.count_nonzero(mult)), n)
    trace_fraction = Fraction(int(np.count_nonzero(moved)), n)
    is_mult = mult_fraction > 1 - delta
    is_trace = trace_fraction > 1 - delta
    return SoficReport(
        n=n,
        delta=delta,
        mult_fraction=mult_fraction,
        trace_fraction=trace_fraction,
        is_multiplicative=is_mult,
        is_trace_preserving=is_trace,
        is_sofic=is_mult and is_trace,
    )


@lru_cache(maxsize=256)
def _factorial_product(sizes):
    """prod_i N_i!, cached because a type table reuses its classes and shapes."""
    return math.prod(math.factorial(size) for size in sizes)


def _exact_quotient(num, den, what):
    count, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("%s %d/%d is not an integer" % (what, num, den))
    return count


def typed_partition_count(class_sizes, block_types):
    """Exact number of partitions of a set split into classes of the given
    sizes N_i into blocks of prescribed shapes.

    block_types pairs each shape e, a block with e_i elements from class i,
    with its number of blocks c; together the blocks must fill every class.
    The count is prod_i N_i! / prod_(e,c) c! prod_i e_i!^c: lay each class
    out in order and cut it into the blocks' class-i parts, then divide out
    the orders within every part and among blocks of equal shape.
    """
    den = math.prod(math.factorial(c) * _factorial_product(tuple(shape)) ** c
                    for shape, c in block_types)
    return _exact_quotient(_factorial_product(tuple(class_sizes)), den,
                           "typed partition count")


def typed_partition_sum(class_sizes, shapes):
    """Sum of typed_partition_count over every way of filling the classes
    with blocks whose shapes, all of one size k, are in shapes.

    With m = n/k blocks the sum is
    prod_i N_i! / (m! k!^m) * [x^N] (sum_e multinomial(k; e) x^e)^m, since the
    multinomial theorem gives each block-count vector c the coefficient
    m!/prod_e c_e! * prod_e multinomial(k; e)^c_e.  Exponents that overshoot
    a class size are dropped as the power is built.
    """
    sizes = tuple(class_sizes)
    k = sum(shapes[0])
    m, rest = divmod(sum(sizes), k)
    if rest or any(sum(shape) != k for shape in shapes):
        raise ValueError("shapes need one block size k, and k must divide n")
    atoms = [(shape, math.factorial(k) // _factorial_product(tuple(shape))) for shape in shapes]
    power = {(0,) * len(sizes): 1}
    for _ in range(m):
        product = {}
        for exponent, coeff in power.items():
            for shape, weight in atoms:
                key = tuple(a + e for a, e in zip(exponent, shape))
                if all(a <= size for a, size in zip(key, sizes)):
                    product[key] = product.get(key, 0) + coeff * weight
        power = product
    return _exact_quotient(
        _factorial_product(sizes) * power.get(sizes, 0),
        math.factorial(m) * math.factorial(k) ** m, "typed partition sum")


def uniform_permutation_count(n, k):
    """Number of permutations of [n] that split into n/k disjoint k-cycles:
    the k-partitions of [n], times (k-1)! cyclic orders per block."""
    if n % k != 0:
        return 0
    b = n // k
    return typed_partition_count((n,), [((k,), b)]) * math.factorial(k - 1) ** b


def uniform_hom_count(params):
    """Closed-form size of the set of uniform homomorphisms."""
    params.require_uniform()
    return uniform_permutation_count(params.n, params.k) ** params.d


def _k_cycles_on(block):
    """All k-cycles on a sorted vertex block, as {v: next} dicts."""
    lead, rest = block[0], block[1:]
    for order in itertools.permutations(rest):
        cycle = (lead,) + order
        yield {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}


def _uniform_permutations(n, k):
    """Yield every disjoint-k-cycle permutation of [n], each exactly once.

    Blocks are built with the least unused vertex as leader, so each unordered
    partition into k-sets appears once, then every cycle on every block.
    """

    def build(remaining, mapping):
        if not remaining:
            yield tuple(mapping[v] for v in range(n))
            return
        lead = remaining[0]
        rest = remaining[1:]
        for companions in itertools.combinations(rest, k - 1):
            block = (lead,) + companions
            leftover = tuple(v for v in rest if v not in companions)
            for cyc in _k_cycles_on(block):
                mapping.update(cyc)
                yield from build(leftover, mapping)

    yield from build(tuple(range(n)), {})


def enumerate_uniform_homs(params):
    """Yield every uniform homomorphism exactly once.

    Refuses when the closed-form total exceeds DEFAULT_ENUMERATION_BOUND,
    since the stream is materialized per generator.
    """
    params.require_uniform()
    total = uniform_hom_count(params)
    if total > DEFAULT_ENUMERATION_BOUND:
        raise ScaleRefusal(
            "enumeration of %d uniform homomorphisms exceeds bound %d"
            % (total, DEFAULT_ENUMERATION_BOUND),
            count=total,
        )
    per_generator = list(_uniform_permutations(params.n, params.k))
    for combo in itertools.product(per_generator, repeat=params.d):
        yield UniformHom(params, combo, _trusted=True)
