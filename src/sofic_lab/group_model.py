"""Free products of cyclic groups acting on finite sets.

The group here is the free product of d copies of the cyclic group of order k,
with generators s_1, ..., s_d (indexed 0..d-1 in code). Uniform homomorphisms
send every generator to a permutation that is a disjoint union of k-cycles.
A reduced word is the plain tuple of its (generator, exponent) syllables,
exponents in 1..k-1 and no two adjacent syllables on one generator; the
identity IDENTITY is the empty tuple (). reduce_word is the one normalizer:
nothing else reduces or validates a tuple built by hand.
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


IDENTITY = ()


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
    return tuple(stack)


def word_inverse(params, word):
    k = params.k
    return tuple((g, k - e) for g, e in reversed(word))


def word_product(params, *words):
    """Product of reduced words, re-reduced (left to right)."""
    return reduce_word(params, itertools.chain.from_iterable(words))


def generator_word(i):
    return ((i, 1),)


def generator_words(params):
    """The d words s_1, ..., s_d."""
    return [generator_word(i) for i in range(params.d)]


def generator_pair_words(params):
    """All length-two products s_i s_j with i != j."""
    return [
        ((i, 1), (j, 1))
        for i in range(params.d)
        for j in range(params.d)
        if i != j
    ]


class UniformHom:
    """A homomorphism sending each generator to a disjoint union of k-cycles.

    orbits is one read-only np.intp table of shape (k, d, n) holding the
    powers of every generator image: orbits[j, i, v] is img_i^j(v), so
    orbits[0] is the identity and the column orbits[:, i, v] lists the
    orbit of v under generator i. images is orbits[1], the (d, n) array of
    the images themselves. The constructor copies the images, whatever
    integer type the caller passed, and checks them once (integer entries,
    each image a permutation with all orbits of size exactly k); operations
    after that assume it.
    """

    __slots__ = ("params", "images", "orbits")

    def __init__(self, params, images):
        params.require_uniform()
        rows = [np.asarray(img) for img in images]
        for i, row in enumerate(rows):
            if row.size and row.dtype.kind not in "iu":
                raise ValueError(
                    "image of generator %d must hold integers, got %s entries"
                    % (i, row.dtype)
                )
        if len(rows) != params.d:
            raise ValueError(
                "expected %d generator images, got %d" % (params.d, len(rows))
            )
        self.params = params
        self.orbits = _orbit_table(rows, params.n, params.k)
        self.images = self.orbits[1]

    def __eq__(self, other):
        return (
            isinstance(other, UniformHom)
            and self.params == other.params
            and np.array_equal(self.images, other.images)
        )

    def __hash__(self):
        return hash((self.params, self.images.tobytes()))

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
            "images": self.images.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data):
        """The homomorphism of the on-disk form; other keys are ignored."""
        if not isinstance(data, dict):
            raise ValueError("an instance must be a JSON object, got %s" % type(data).__name__)
        for key in ("n", "k", "d", "images"):
            if key not in data:
                raise ValueError("instance is missing %r" % key)
        for key in ("n", "k", "d"):
            if not isinstance(data[key], int) or isinstance(data[key], bool):
                raise ValueError("instance %r must be an integer, got %r" % (key, data[key]))
        if not isinstance(data["images"], list):
            raise ValueError("instance 'images' must be a list, got %r" % (data["images"],))
        return cls(ModelParams(d=data["d"], k=data["k"], n=data["n"]), data["images"])


def _orbit_table(rows, n, k):
    """The powers img^0..img^(k-1) of the integer rows as one read-only
    (k, d, n) intp table, once the whole table passes the check: entries in
    0..n-1, no fixed point in powers 1..k-1 and the identity as the k-th
    power. That makes each row a permutation (the (k-1)-th power inverts
    it) whose orbits all have size exactly k. Each power past the first is
    one gather of the one before: img^j(v) is img^(j-1) read at img(v),
    which is entry i*n + img_i(v) of the flattened (d, n) power. Only on
    failure are the rows walked, each orbit from its least vertex, to name
    the first bad generator and orbit.
    """
    d = len(rows)
    if all(row.shape == (n,) for row in rows):
        images = np.array(rows, dtype=np.intp).reshape(d, n)
        if images.min(initial=0) >= 0 and images.max(initial=0) < n:
            flat = (images + np.arange(0, d * n, n)[:, None]).ravel()
            powers = np.empty((k, d * n), dtype=np.intp)
            powers.reshape(k, d, n)[0] = np.arange(n)
            powers[1] = images.ravel()
            for j in range(2, k):
                powers[j] = powers[j - 1][flat]
            if (not (powers[1:] == powers[0]).any()
                    and np.array_equal(powers[-1][flat], powers[0])):
                powers.flags.writeable = False
                return powers.reshape(k, d, n)
    for i, row in enumerate(rows):
        if row.shape != (n,) or not np.array_equal(np.sort(row), np.arange(n)):
            raise ValueError("image of generator %d is not a permutation of 0..%d" % (i, n - 1))
        img = row.tolist()
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
                    "generator %d has an orbit of size %d, want exactly %d" % (i, size, k)
                )
    raise RuntimeError("the whole-table and per-row image checks disagree")


def _check_generators(params, word):
    for g, _ in word:
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
    for g, e in reversed(word):
        v = hom.orbits[e % hom.params.k, g, v]
    return int(v)


def _word_arrays(hom, words):
    """sigma(w) for each word as a numpy index array.

    Each starts from the identity and applies the syllables from the right,
    one gather of the power orbits[e % k, g] per syllable (g, e); element v
    is sigma(w) applied to v. Every generator index is validated first.
    """
    params = hom.params
    words = list(words)
    for w in words:
        _check_generators(params, w)
    arrays = []
    for w in words:
        perm = np.arange(params.n)
        for g, e in reversed(w):
            perm = hom.orbits[e % params.k, g][perm]
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
        if w:
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


def _uniform_permutations(n, k):
    """Yield every disjoint-k-cycle permutation of [n], each exactly once.

    Blocks are built with the least unused vertex as leader, so each unordered
    partition into k-sets appears once, then every cycle on every block: the
    leader, then each order of the other k-1 vertices.
    """

    def build(remaining, image):
        if not remaining:
            yield tuple(image)
            return
        lead, rest = remaining[0], remaining[1:]
        for companions in itertools.combinations(rest, k - 1):
            leftover = tuple(v for v in rest if v not in companions)
            for order in itertools.permutations(companions):
                cycle = (lead,) + order
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    image[a] = b
                yield from build(leftover, image)

    yield from build(tuple(range(n)), [0] * n)


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
    per_generator = np.array(list(_uniform_permutations(params.n, params.k)), dtype=np.intp)
    for combo in itertools.product(range(len(per_generator)), repeat=params.d):
        yield UniformHom(params, per_generator[list(combo)])
