"""Closed-form rates, optimizers, and fixed points for the coloring model.

Everything in this module evaluates formulas; nothing samples and nothing
touches a hypergraph.  The functions cover the exponential growth rate of
proper equitable colorings, the entropy functional over generator type
matrices and its maximizer, the bias parameter of the planted pair measure
and its inversion, the pair-distance rate curves, and the fixed-point
iteration that estimates the core density of a random instance.

Results are mpmath floats, 128 bits by default because the interesting
regimes (k near 25, degree counts in the hundreds of millions) involve rates
of order 2^-k and identity checks at tolerances of order 2^-2k, which double
precision cannot resolve.  Five functions take a ``precision`` keyword in
bits, the ones the CLI's ``--precision`` reaches: proper_rate,
pair_distance_rate, planted_distance_rate, distance_rate_scan and
core_fixed_point.  Every other public function runs at 128 bits, inside a
working_precision block of its own, whatever precision its caller is in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath as mp

DEFAULT_PRECISION_BITS = 128

# Newton/bisection iteration cap for the bias inversion.
_MAX_SOLVER_ITERATIONS = 200

# Bits of precision beyond d.bit_length() that the planted rate's two routes,
# sums of terms of size about d, need to agree to 1e-9: on the 2001-point
# scan at k = 17..26 a margin of 30 always passed, and 29 failed at k = 21..23.
_ROUTE_MARGIN_BITS = 30


def _resolve_precision(precision: int | None) -> int:
    if precision is None:
        precision = DEFAULT_PRECISION_BITS
    precision = int(precision)
    if precision < 53:
        raise ValueError(
            f"working precision must be at least 53 bits, got {precision}"
        )
    return precision


def working_precision(precision: int | None = None):
    """Context manager selecting the mpmath precision for a computation.

    ``precision`` is a bit count; when omitted, the 128-bit default applies.
    """
    return mp.workprec(_resolve_precision(precision))


def _to_mpf(value) -> mp.mpf:
    # Fractions convert exactly; everything else goes through mpf directly.
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def _check_k(k: int) -> None:
    if k != int(k) or k < 2:
        raise ValueError(f"edge size k must be an integer >= 2, got {k}")


def _check_d(d: int) -> None:
    if d != int(d) or d < 0:
        raise ValueError(f"generator count d must be an integer >= 0, got {d}")


# ---------------------------------------------------------------------------
# entropies


def entropy2(x) -> mp.mpf:
    """Binary entropy -x log x - (1-x) log(1-x) for x in [0, 1]."""
    with working_precision():
        v = _to_mpf(x)
        if not 0 <= v <= 1:
            raise ValueError(f"binary entropy needs an argument in [0, 1], got {x}")
        return _cross_entropy2(v, v)


def cross_entropy2(x, x0) -> mp.mpf:
    """Binary cross entropy -x log x0 - (1-x) log(1-x0).

    Equals entropy2(x) when x0 == x, and exceeds it otherwise; the excess is
    the Kullback-Leibler divergence of x from x0.
    """
    with working_precision():
        v = _to_mpf(x)
        v0 = _to_mpf(x0)
        if not 0 <= v <= 1 or not 0 <= v0 <= 1:
            raise ValueError(
                f"cross entropy needs arguments in [0, 1], got {x}, {x0}"
            )
        return _cross_entropy2(v, v0)


def _cross_entropy2(v: mp.mpf, v0: mp.mpf) -> mp.mpf:
    # 0 log 0 = 0: a zero weight drops its term
    total = mp.mpf(0)
    for weight, arg in ((v, v0), (1 - v, 1 - v0)):
        if weight == 0:
            continue
        if arg == 0:
            return mp.inf
        total -= weight * mp.log(arg)
    return total


# ---------------------------------------------------------------------------
# first-moment rate and the type functional


def proper_rate(d: int, k: int, precision: int | None = None) -> mp.mpf:
    """Exponential growth rate of the expected number of proper equitable
    colorings: log 2 + (d/k) log(1 - 2^(1-k)).

    Positive rate means the expected count grows; for fixed k the rate
    decreases linearly in d and crosses zero near d/k = log(2) 2^(k-1).
    """
    _check_d(d)
    _check_k(k)
    with working_precision(precision):
        return mp.log(2) + mp.mpf(d) / k * mp.log(1 - mp.mpf(2) ** (1 - k))


def dominant_type(k: int) -> tuple[Fraction, ...]:
    """The type vector maximizing the first-moment rate functional, exactly.

    Entry j is binomial(k, j) / (k (2^k - 2)) for interior j, zero at the
    ends.  Entries sum to 1/k and the implied density of ones is 1/2.
    """
    _check_k(k)
    scale = k * (2**k - 2)
    inner = [Fraction(math.comb(k, j), scale) for j in range(1, k)]
    return (Fraction(0), *inner, Fraction(0))


def type_rate(rows, d: int, k: int) -> mp.mpf:
    """Entropy functional whose maximum over generator type matrices gives
    the first-moment rate.

    ``rows`` is a generator type matrix: d rows of k+1 nonnegative entries,
    row i giving the distribution of ones-counts over the edges of generator
    i, as hypergraph.generator_type returns it.  Each row must sum to 1/k and
    all rows must share the same implied density of ones, both within 1e-9.
    """
    _check_d(d)
    if d == 0:
        raise ValueError("a generator type matrix needs d >= 1 rows, got d = 0")
    _check_k(k)
    rows = [tuple(row) for row in rows]
    if len(rows) != d:
        raise ValueError(f"expected {d} rows, got {len(rows)}")
    with working_precision():
        tol = mp.mpf(10) ** -9
        matrix = [[_to_mpf(entry) for entry in row] for row in rows]
        means = []
        for row in matrix:
            if len(row) != k + 1:
                raise ValueError(f"rows must have {k + 1} entries, got {len(row)}")
            if min(row) < 0:
                raise ValueError(f"type entries must be nonnegative, got {min(row)}")
            total = mp.fsum(row)
            if abs(total - mp.mpf(1) / k) > tol:
                raise ValueError(f"row sums to {total}, expected 1/{k}")
            means.append(mp.fsum(j * row[j] for j in range(k + 1)))
        density = mp.fsum(means) / d
        for mean in means:
            if abs(mean - density) > tol:
                raise ValueError(
                    "rows imply different densities of ones; "
                    f"saw {mean} against {density}"
                )
        value = mp.fsum(-x * mp.log(x) for row in matrix for x in row if x)
        value += (1 - mp.mpf(d)) * _cross_entropy2(density, density)
        value -= mp.mpf(d) / k * mp.log(k)
        log_binom = [mp.log(mp.mpf(math.comb(k, j))) for j in range(k + 1)]
        value += mp.fsum(
            row[j] * log_binom[j] for row in matrix for j in range(k + 1)
        )
        return value


def balance_polynomial(x, d: int, k: int) -> mp.mpf:
    """Polynomial whose interior root pins the ones-density of critical type
    vectors to 1/2.

    The direct form is sum over j in [1, k-1] of
    (k x - j) binomial(k, j) ((1-x)/x)^(j (1-d)/d).  It is negative on
    (0, 1/2); the tests check it against the product form used to show the
    root is unique.
    """
    _check_k(k)
    if d != int(d) or d < 2:
        raise ValueError(f"the balance polynomial needs d >= 2, got {d}")
    with working_precision():
        v = _to_mpf(x)
        if not 0 < v < 1:
            raise ValueError(f"argument must lie strictly inside (0, 1), got {x}")
        y = ((1 - v) / v) ** (mp.mpf(1 - d) / d)
        return mp.fsum(
            (k * v - j) * math.comb(k, j) * y**j for j in range(1, k)
        )


# ---------------------------------------------------------------------------
# the bias parameter of the planted pair measure


def _bias_map_terms(b: mp.mpf, k: int, base: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """Numerator and denominator of the bias-to-distance map at b, whose
    value is their quotient; ``base`` is 1 - 2^(2-k)."""
    tails = 2 * (b / 2) ** k
    num = b * base + tails
    den = base + tails + 2 * ((1 - b) / 2) ** k
    return num, den


def _bias_map_slope(
    b: mp.mpf, k: int, base: mp.mpf, num: mp.mpf, den: mp.mpf
) -> mp.mpf:
    """Derivative of the bias-to-distance map at b, from the terms that
    _bias_map_terms returned there."""
    half_pow = (b / 2) ** (k - 1)
    num_d = base + k * half_pow
    den_d = k * half_pow - k * ((1 - b) / 2) ** (k - 1)
    return (num_d * den - num * den_d) / den**2


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def _poly_derivative(p: list[int]) -> list[int]:
    return [j * a for j, a in enumerate(p)][1:]


def _bias_map_polynomials(k: int) -> tuple[list[int], list[int]]:
    """Integer coefficients, lowest degree first, of N and D with the
    bias-to-distance map equal to N(b) / D(b).

    Scaling numerator and denominator by 2^(k-1) clears every fraction:
    N = c b + b^k and D = c + b^k + (1 - b)^k with c = 2^(k-1) - 2.
    """
    c = 2 ** (k - 1) - 2
    num = [0, c] + [0] * (k - 2) + [1]
    den = [(-1) ** j * math.comb(k, j) for j in range(k + 1)]
    den[0] += c
    den[k] += 1
    return num, den


def _bias_map_derivative_numerator(k: int) -> list[int]:
    """P = N'D - ND', so the map's derivative is P / D^2."""
    num, den = _bias_map_polynomials(k)
    left = _poly_mul(_poly_derivative(num), den)
    right = _poly_mul(num, _poly_derivative(den))
    # both products have 2k coefficients, since N and D both have k + 1
    return [a - c for a, c in zip(left, right)]


def _certify_positive_on_unit_interval(coeffs: Sequence[int]) -> None:
    """Prove that the integer polynomial sum coeffs[j] b^j is positive on
    the open interval (0, 1), or raise ArithmeticError.

    The proof is the Bernstein-coefficient test of Descartes/Vincent root
    isolation: in degree n the polynomial is sum beta_i C(n, i) b^i (1-b)^(n-i)
    with C(n, i) beta_i = sum over j <= i of C(n-j, i-j) coeffs[j], an exact
    integer.  Every basis term is positive on (0, 1), so nonnegative scaled
    coefficients that are not all zero make the polynomial positive there.
    The test is sufficient, not necessary: a failure raises rather than
    concluding that a root exists.  Zero leading coefficients only raise the
    degree, and degree elevation keeps nonnegative coefficients nonnegative.
    """
    n = len(coeffs) - 1
    scaled = [
        sum(math.comb(n - j, i - j) * coeffs[j] for j in range(i + 1))
        for i in range(n + 1)
    ]
    for i, value in enumerate(scaled):
        if value < 0:
            raise ArithmeticError(
                f"Bernstein coefficient {i} of {n} is negative ({value}); "
                "positivity on (0, 1) is not certified"
            )
    if not any(scaled):
        raise ArithmeticError("the zero polynomial is not positive on (0, 1)")


@functools.cache
def _certify_bias_map_monotone(k: int) -> None:
    # Inverting the bias-to-distance map needs it to be injective.  With
    # D >= b^k + (1-b)^k > 0 the derivative has the sign of P, and P > 0 on
    # (0, 1) makes the map strictly increasing on [0, 1].  The proof is
    # exact integer arithmetic, so it holds at every working precision.
    _certify_positive_on_unit_interval(_bias_map_derivative_numerator(k))


def distance_of_bias(delta0, k: int) -> mp.mpf:
    """Expected normalized distance of a planted pair with disagreement bias
    delta0.

    This is the forward rational map; it fixes 0, 1/2, and 1, and is
    strictly increasing in between.  That monotonicity is proved exactly for
    each k, not sampled: bias_of_distance certifies it with integer
    arithmetic before it inverts the map.
    """
    _check_k(k)
    with working_precision():
        b = _to_mpf(delta0)
        if not 0 <= b <= 1:
            raise ValueError(f"bias must lie in [0, 1], got {delta0}")
        num, den = _bias_map_terms(b, k, 1 - mp.mpf(2) ** (2 - k))
        return num / den


def bias_of_distance(delta, k: int) -> mp.mpf:
    """Invert the bias-to-distance map: find the disagreement bias whose
    planted pair measure concentrates at normalized distance delta.

    The inversion rests on an exact certificate, computed once per k and
    independent of the working precision: the map's derivative is P / D^2
    for an integer polynomial P whose Bernstein coefficients on [0, 1] are
    checked to be nonnegative and not all zero, so the map is strictly
    increasing.  Raises ArithmeticError if that check fails.

    Solved by Newton iteration inside a maintained bracket, seeded at the
    target distance itself (the two differ by O(2^-k)); the residual of the
    returned bias is at most 1e-13.  Raises RuntimeError if 200 iterations
    do not get there, which a strictly monotone map never triggers.
    """
    _check_k(k)
    with working_precision():
        x = _to_mpf(delta)
        if not 0 <= x <= 1:
            raise ValueError(f"distance must lie in [0, 1], got {delta}")
        return _solve_bias(x, _point_constants(k))


class _PointConstants(NamedTuple):
    """The constants that the per-point helpers read for one k, built once
    per public call at its working precision rather than at every point."""

    k: int
    bias_base: mp.mpf  # 1 - 2^(2-k), the base of _bias_map_terms
    edge_norm: mp.mpf  # 2^(k-1) - 1, the normalizer of _log_edge_factor
    solve_tol: mp.mpf  # 1e-13, the residual the bias solver accepts
    route_tol: mp.mpf  # 1e-9, the gap the planted rate's two routes may show


def _point_constants(k: int) -> _PointConstants:
    return _PointConstants(
        k,
        1 - mp.mpf(2) ** (2 - k),
        mp.mpf(2) ** (k - 1) - 1,
        mp.mpf(10) ** -13,
        mp.mpf(10) ** -9,
    )


def _solve_bias(x: mp.mpf, consts: _PointConstants) -> mp.mpf:
    k = consts.k
    _certify_bias_map_monotone(k)
    if x == 0 or x == 1:
        return x
    lo, hi = mp.mpf(0), mp.mpf(1)
    b = x
    for _ in range(_MAX_SOLVER_ITERATIONS):
        num, den = _bias_map_terms(b, k, consts.bias_base)
        residual = num / den - x
        if abs(residual) <= consts.solve_tol:
            return b
        if residual < 0:
            lo = b
        else:
            hi = b
        # the slope is only needed for a step, so the final check skips it
        derivative = _bias_map_slope(b, k, consts.bias_base, num, den)
        if derivative > 0:
            b = b - residual / derivative
        else:
            b = (lo + hi) / 2
        if not lo < b < hi:
            b = (lo + hi) / 2
    raise RuntimeError(
        f"bias inversion for distance {x} at k={k} did not converge in "
        f"{_MAX_SOLVER_ITERATIONS} iterations"
    )


# ---------------------------------------------------------------------------
# distance rate curves


def _log_edge_factor(b: mp.mpf, consts: _PointConstants) -> mp.mpf:
    # log of the per-edge survival probability of a pair at bias b: the
    # chance a uniformly colored edge is proper under both colorings of an
    # independently b-flipped pair, normalized by the single-coloring case.
    k = consts.k
    return mp.log(1 - (1 - b**k - (1 - b) ** k) / consts.edge_norm)


class _RateTerms(NamedTuple):
    """The logarithms the rate formulas read at one argument v in [0, 1],
    each evaluated once, so that every formula sharing a term reads the same
    mpf.  The logs of 0 are -inf; the entropy keeps 0 log 0 = 0."""

    entropy: mp.mpf  # eta(v) + eta(1 - v)
    log: mp.mpf  # log v
    log_complement: mp.mpf  # log(1 - v)
    log_edge: mp.mpf  # _log_edge_factor(v, consts)


def _rate_terms(v: mp.mpf, consts: _PointConstants) -> _RateTerms:
    log_v = mp.log(v)
    log_complement = mp.log(1 - v)
    entropy = (0 if v == 0 else -v * log_v) + (
        0 if v == 1 else -(1 - v) * log_complement
    )
    return _RateTerms(entropy, log_v, log_complement, _log_edge_factor(v, consts))


def _pair_distance_rate(terms: _RateTerms, ratio: mp.mpf) -> mp.mpf:
    # ratio is d / k
    return terms.entropy + ratio * terms.log_edge


def pair_distance_rate(x, d: int, k: int, precision: int | None = None) -> mp.mpf:
    """Growth rate of the expected number of proper-coloring pairs at
    normalized distance x, per vertex: H(x) + (d/k) log of the per-edge
    survival factor.

    At x = 1/2 this equals proper_rate(d, k) plus itself, i.e. the pair rate
    splits as twice the single rate; the function is symmetric about 1/2.
    """
    _check_d(d)
    _check_k(k)
    with working_precision(precision):
        v = _to_mpf(x)
        if not 0 <= v <= 1:
            raise ValueError(f"argument must lie in [0, 1], got {x}")
        return _pair_distance_rate(_rate_terms(v, _point_constants(k)), mp.mpf(d) / k)


def _planted_distance_rate(
    x: mp.mpf,
    at_x: _RateTerms,
    at_b: _RateTerms,
    d: int,
    ratio: mp.mpf,
    consts: _PointConstants,
) -> mp.mpf:
    # at_x and at_b are the terms at x and at its solved bias b in (0, 1),
    # passed in so a caller that already holds them evaluates no log twice;
    # ratio is d / k.
    h_x = at_x.entropy
    h_b = at_b.entropy
    # the binary cross entropy -x log b - (1-x) log(1-b)
    cross = -(x * at_b.log) - (1 - x) * at_b.log_complement
    closed = (1 - mp.mpf(d)) * h_x + d * cross + ratio * at_b.log_edge
    # Second route: start from the pair rate at the bias and trade entropy
    # terms.  The two expressions are algebraically equal, so any gap here
    # means a transcription error in one of them.
    alternate = (
        _pair_distance_rate(at_b, ratio)
        - (h_b - cross)
        + (mp.mpf(d) - 1) * (cross - h_x)
    )
    if not abs(closed - alternate) <= consts.route_tol:
        raise ArithmeticError(
            f"planted rate routes disagree at distance {x}: {closed} vs {alternate}"
        )
    return closed


def _check_route_precision(d: int) -> None:
    need = int(d).bit_length() + _ROUTE_MARGIN_BITS
    if mp.mp.prec < need:
        raise ValueError(f"working precision {mp.mp.prec} bits cannot pass the 1e-9 "
                         f"route check at d={d}; need at least {need} bits")


def planted_distance_rate(
    delta, d: int, k: int, precision: int | None = None
) -> mp.mpf:
    """Growth rate of the expected number of proper colorings at normalized
    distance delta from a planted one.

    Computed from the closed form in terms of the solved bias, with an
    independent second route through pair_distance_rate required to agree to
    1e-9 (ArithmeticError otherwise).  The endpoint values at 0 and 1 are
    continuity limits.  A precision too low for that check raises ValueError.
    """
    _check_d(d)
    _check_k(k)
    with working_precision(precision):
        _check_route_precision(d)
        x = _to_mpf(delta)
        if not 0 <= x <= 1:
            raise ValueError(f"distance must lie in [0, 1], got {delta}")
        if x == 0 or x == 1:
            return mp.mpf(0)
        consts = _point_constants(k)
        at_b = _rate_terms(_solve_bias(x, consts), consts)
        return _planted_distance_rate(
            x, _rate_terms(x, consts), at_b, d, mp.mpf(d) / k, consts
        )


# ---------------------------------------------------------------------------
# the optimal pair type


class PairTypeMatrix(NamedTuple):
    """Overlap counts of one part against two colorings: eij is the number
    of part vertices with first coloring i and second coloring j."""

    e00: int
    e01: int
    e10: int
    e11: int


def bichromatic_pair_types(k: int) -> tuple[PairTypeMatrix, ...]:
    """All overlap matrices of a k-edge that are bichromatic on both sides.

    These are the nonnegative integer 2x2 matrices summing to k in which
    both colorings split the edge properly (0 < e10 + e11 < k and
    0 < e01 + e11 < k); they index the support of the optimal pair type.
    """
    _check_k(k)
    return tuple(
        PairTypeMatrix(e00, e01, e10, k - e00 - e01 - e10)
        for e00 in range(k + 1)
        for e01 in range(k + 1 - e00)
        for e10 in range(k + 1 - e00 - e01)
        if 0 < k - e00 - e01 < k and 0 < k - e00 - e10 < k
    )


@dataclass(frozen=True)
class PairTypeOptimum:
    """Maximizing distribution over bichromatic overlap matrices for pairs
    of proper colorings at a prescribed distance.

    ``weights`` maps each admissible overlap matrix to its optimal weight;
    the weights sum to 1/k, both half-sum marginals are 1/2, and the
    disagreement mass equals the prescribed distance.  ``normalizer`` is the
    common scale factor in front of the product form.
    """

    delta: mp.mpf
    delta0: mp.mpf
    normalizer: mp.mpf
    weights: dict[PairTypeMatrix, mp.mpf]


def optimal_pair_type(delta, k: int) -> PairTypeOptimum:
    """Solve for the distribution of edge overlap matrices that dominates
    the pair count at normalized distance delta.

    Each weight is proportional to ((1-b)/2)^(agreeing entries) times
    (b/2)^(disagreeing entries) times a multinomial coefficient, where b is
    the solved bias.  Construction identities are checked to 1e-10 and raise
    ArithmeticError when they fail.
    """
    _check_k(k)
    with working_precision():
        x = _to_mpf(delta)
        if not 0 < x < 1:
            raise ValueError(
                f"distance must lie strictly inside (0, 1), got {delta}"
            )
        consts = _point_constants(k)
        b = _solve_bias(x, consts)
        agree = (1 - b) / 2
        disagree = b / 2
        normalizer = 1 / (k * _bias_map_terms(b, k, consts.bias_base)[1])
        weights = {
            m: normalizer
            * agree ** (m.e00 + m.e11)
            * disagree ** (m.e01 + m.e10)
            * (math.factorial(k) // math.prod(map(math.factorial, m)))
            for m in bichromatic_pair_types(k)
        }
        tol = mp.mpf(10) ** -10
        for what, mass, target in (
            ("weights sum to", lambda m: 1, mp.mpf(1) / k),
            ("left marginal came out as", lambda m: m.e10 + m.e11, mp.mpf(1) / 2),
            ("right marginal came out as", lambda m: m.e01 + m.e11, mp.mpf(1) / 2),
            ("disagreement mass came out as", lambda m: m.e01 + m.e10, x),
        ):
            value = mp.fsum(mass(m) * w for m, w in weights.items())
            if not abs(value - target) <= tol:
                raise ArithmeticError(f"{what} {value}, expected {target}")
        return PairTypeOptimum(
            delta=x, delta0=b, normalizer=normalizer, weights=weights
        )


# ---------------------------------------------------------------------------
# entropy gaps between a distance and its bias


@dataclass(frozen=True)
class EntropyGapReport:
    """Entropy bookkeeping for a distance and its solved bias.

    ``epsilon_hat`` is the relative shrinkage 1 - delta/delta0.
    ``entropy_gap`` is binary entropy at the bias minus the cross entropy;
    it equals delta0 * epsilon_hat * log((1-delta0)/delta0) exactly.
    ``kl_divergence`` is the cross entropy minus binary entropy at the
    distance, which is the divergence of delta from delta0 and nonnegative.
    """

    delta: mp.mpf
    delta0: mp.mpf
    epsilon_hat: mp.mpf
    entropy_gap: mp.mpf
    kl_divergence: mp.mpf


def entropy_gap_report(delta, k: int) -> EntropyGapReport:
    """Quantify how far the solved bias sits from the given distance in
    entropy terms, for distances in (0, 1/2].

    The gap identity is checked to 1e-10 and the divergence for sign; either
    failure raises ArithmeticError."""
    _check_k(k)
    with working_precision():
        x = _to_mpf(delta)
        if not 0 < x <= mp.mpf(1) / 2:
            raise ValueError(
                f"distance must lie in (0, 1/2] for the gap report, got {delta}"
            )
        b = _solve_bias(x, _point_constants(k))
        epsilon_hat = 1 - x / b
        cross = _cross_entropy2(x, b)
        entropy_gap = _cross_entropy2(b, b) - cross
        identity = b * epsilon_hat * mp.log((1 - b) / b)
        tol = mp.mpf(10) ** -10
        if not abs(entropy_gap - identity) <= tol:
            raise ArithmeticError(
                f"entropy gap {entropy_gap} does not match the identity value "
                f"{identity}"
            )
        kl = cross - _cross_entropy2(x, x)
        if not kl >= -(mp.mpf(10) ** -25):
            raise ArithmeticError(f"divergence came out negative: {kl}")
        return EntropyGapReport(
            delta=x,
            delta0=b,
            epsilon_hat=epsilon_hat,
            entropy_gap=entropy_gap,
            kl_divergence=kl,
        )


# ---------------------------------------------------------------------------
# scanning the planted rate curve


class DistanceScanRow(NamedTuple):
    delta: mp.mpf
    delta0: mp.mpf
    planted_rate: mp.mpf
    pair_rate: mp.mpf
    proper_rate: mp.mpf


@dataclass(frozen=True)
class DistanceRateScan:
    """Planted rate curve sampled on a grid, with its maximum located.

    ``margin`` is the drop from the best grid value to the second best;
    a healthy regime shows the maximum at 1/2 with positive margin.
    """

    rows: tuple[DistanceScanRow, ...]
    argmax_delta: mp.mpf
    max_rate: mp.mpf
    margin: mp.mpf


def distance_rate_scan(
    d: int,
    k: int,
    grid_points: int = 2001,
    precision: int | None = None,
) -> DistanceRateScan:
    """Evaluate the planted distance rate on an even grid spanning
    [2^(-k/2), 1 - 2^(-k/2)] and report the argmax and its margin.

    Each row carries the distance, the solved bias, the planted rate, the
    pair rate at the same distance, and the first-moment rate for reference.
    The grid is symmetric about 1/2 and so is the curve, so only the lower
    half (rows 0 to ceil(N/2) - 1) is solved, each row bit-identical to the
    single-point functions at its distance.  Row N-1-i is the reflection of
    row i: delta and delta0 become 1 - delta and 1 - delta0, and the rates
    are kept.  A reflected row differs from a direct solve at its own grid
    point by rounding alone; the tests hold it within 4 * 2^-prec in delta
    and delta0 and 8 * d * 2^-prec in the rates.
    A precision too low for the route check raises ValueError up front.
    """
    _check_d(d)
    _check_k(k)
    if grid_points < 3:
        raise ValueError(f"need at least 3 grid points, got {grid_points}")
    with working_precision(precision):
        _check_route_precision(d)
        lo = mp.mpf(2) ** (-mp.mpf(k) / 2)
        hi = 1 - lo
        base_rate = proper_rate(d, k, precision=mp.mp.prec)
        consts = _point_constants(k)
        ratio = mp.mpf(d) / k
        rows = []
        for i in range((grid_points + 1) // 2):
            x = lo + (hi - lo) * i / (grid_points - 1)
            b = _solve_bias(x, consts)
            at_x = _rate_terms(x, consts)
            at_b = _rate_terms(b, consts)
            rows.append(
                DistanceScanRow(
                    delta=x,
                    delta0=b,
                    planted_rate=_planted_distance_rate(
                        x, at_x, at_b, d, ratio, consts
                    ),
                    pair_rate=_pair_distance_rate(at_x, ratio),
                    proper_rate=base_rate,
                )
            )
        # delta(1 - b) = 1 - delta(b) and every rate term is symmetric about
        # 1/2, so row N-1-i of the symmetric grid reflects row i
        rows += [
            row._replace(delta=1 - row.delta, delta0=1 - row.delta0)
            for row in reversed(rows[: grid_points // 2])
        ]
        ranked = sorted(range(grid_points), key=lambda i: rows[i].planted_rate)
        best = rows[ranked[-1]]
        runner_up = rows[ranked[-2]]
        return DistanceRateScan(
            rows=tuple(rows),
            argmax_delta=best.delta,
            max_rate=best.planted_rate,
            margin=best.planted_rate - runner_up.planted_rate,
        )


# ---------------------------------------------------------------------------
# the degree-to-edge-size ratio parametrization


def offset_window_top() -> mp.mpf:
    """Upper end of the offset window, (1 - log 2) / 2; offsets must stay
    strictly between zero and this for the large-k regime to apply."""
    with working_precision():
        return (1 - mp.log(2)) / 2


def ratio_from_offset(k: int, eta) -> mp.mpf:
    """The degree ratio d/k pinned by an offset eta:
    (log 2 / 2) 2^k - (1 + log 2) / 2 + eta."""
    _check_k(k)
    with working_precision():
        e = _to_mpf(eta)
        return mp.log(2) / 2 * mp.mpf(2) ** k - (1 + mp.log(2)) / 2 + e


@dataclass(frozen=True)
class DegreeChoice:
    """An integer generator count realizing an offset, with the offset
    re-solved after rounding.  ``in_window`` records whether the implied
    offset stays inside the open window (0, (1 - log 2)/2)."""

    d: int
    implied_eta: mp.mpf
    in_window: bool


def degrees_from_offset(k: int, eta) -> DegreeChoice:
    """Round the offset-parametrized ratio to an integer generator count and
    report the offset that count actually realizes."""
    _check_k(k)
    with working_precision():
        ratio = ratio_from_offset(k, eta)
        d = int(mp.nint(ratio * k))
        implied = _to_mpf(eta) + (d - ratio * k) / k
        in_window = bool(0 < implied < offset_window_top())
        return DegreeChoice(d=d, implied_eta=implied, in_window=in_window)


# ---------------------------------------------------------------------------
# core density fixed point


@dataclass(frozen=True)
class FixedPointTrace:
    """Iterates of the core-density recursion and the quantities read off
    its limit.

    ``p`` starts at the per-direction root survival probability and
    decreases monotonically.  ``mu_core`` estimates the density of the
    maximal 3-core; ``mu_core_attached`` adds the vertices hanging off it.
    """

    p: tuple[mp.mpf, ...]
    p_inf: mp.mpf
    mu_core: mp.mpf
    mu_core_attached: mp.mpf
    converged: bool


def _log_binomial_heads(n: int, j_min: int) -> tuple[mp.mpf, ...] | None:
    """log binomial(n, j) for j < j_min, as lgamma(n+1) - lgamma(j+1) -
    lgamma(n-j+1); None when n < j_min, where every tail is 0."""
    if n < j_min:
        return None
    log_n = mp.loggamma(n + 1)
    return tuple(
        log_n - mp.loggamma(j + 1) - mp.loggamma(n - j + 1) for j in range(j_min)
    )


def _binomial_tail_at_least(
    n: int, log_heads: tuple[mp.mpf, ...] | None, t: mp.mpf
) -> mp.mpf:
    """P(Bin(n, t) >= j_min) for small j_min, via log-space terms, from
    log_heads = _log_binomial_heads(n, j_min)."""
    if log_heads is None or t == 0:
        return mp.mpf(0)
    if t == 1:
        return mp.mpf(1)
    log_t = mp.log(t)
    log_1mt = mp.log(1 - t)
    head = mp.mpf(0)
    for j, log_binomial in enumerate(log_heads):
        head += mp.exp(log_binomial + j * log_t + (n - j) * log_1mt)
    return 1 - head


# Built at import under mpmath's default 53-bit precision, so the level at
# which the iteration stops does not depend on a call's working precision.
_FIXED_POINT_TOLERANCE = mp.mpf("1e-12")
_FIXED_POINT_MAX_LEVELS = 256


def core_fixed_point(
    d: int,
    k: int,
    precision: int | None = None,
) -> FixedPointTrace:
    """Iterate the recursion for the probability that a direction survives
    into the depth-l core, and read core densities off the limit.

    Starting from the single-edge survival probability 1/(2^(k-1) - 1), each
    step multiplies by the chance that a binomial(d-1) count of surviving
    neighbors reaches 3, raised to the k-1 other edge slots.  The sequence
    decreases monotonically (checked exactly each step; an increase raises
    ArithmeticError) and the iteration
    stops once consecutive iterates differ by less than 1e-12 or after 256
    steps.
    """
    if d != int(d) or d < 1:
        raise ValueError(f"generator count d must be an integer >= 1, got {d}")
    _check_k(k)
    with working_precision(precision):
        lambda0 = 1 / (mp.mpf(2) ** (k - 1) - 1)
        trace = [lambda0]
        converged = False
        # the log-binomial terms do not depend on the level, so each
        # binomial count gets its terms once per call
        log_heads = _log_binomial_heads(d - 1, 3)
        while len(trace) <= _FIXED_POINT_MAX_LEVELS:
            survival = _binomial_tail_at_least(d - 1, log_heads, trace[-1])
            nxt = lambda0 * survival ** (k - 1)
            if not nxt <= trace[-1]:
                raise ArithmeticError(
                    f"core recursion increased from {trace[-1]} to {nxt}"
                )
            trace.append(nxt)
            if abs(trace[-1] - trace[-2]) < _FIXED_POINT_TOLERANCE:
                converged = True
                break
        p_inf = trace[-1]
        mu_core = _binomial_tail_at_least(d, _log_binomial_heads(d, 3), p_inf)
        mu_core_attached = 1 - (1 - p_inf) ** d
        return FixedPointTrace(
            p=tuple(trace),
            p_inf=p_inf,
            mu_core=mu_core,
            mu_core_attached=mu_core_attached,
            converged=converged,
        )

