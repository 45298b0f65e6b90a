import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from helpers import core_fixed_point_oracle, distance_rate_scan_oracle, ranked_scan
from sofic_lab import analytics
from sofic_lab.analytics import (
    DegreeChoice,
    PairTypeMatrix,
    balance_polynomial,
    bias_of_distance,
    bichromatic_pair_types,
    core_fixed_point,
    cross_entropy2,
    degrees_from_offset,
    distance_of_bias,
    distance_rate_scan,
    dominant_type,
    entropy2,
    entropy_gap_report,
    offset_window_top,
    optimal_pair_type,
    pair_distance_rate,
    planted_distance_rate,
    proper_rate,
    ratio_from_offset,
    type_rate,
    working_precision,
)


def test_proper_rate_known_values():
    assert abs(proper_rate(2, 2)) <= mp.mpf("1e-30")
    with working_precision():
        log2 = mp.log(2)
        hand = mp.log(2) + mp.mpf(10) / 3 * mp.log(mp.mpf(3) / 4)
    assert abs(proper_rate(0, 7) - log2) <= mp.mpf("1e-30")
    assert abs(proper_rate(10, 3) - hand) <= mp.mpf("1e-30")
    # more constraints per vertex can only hurt
    assert proper_rate(5, 4) > proper_rate(6, 4)
    with pytest.raises(ValueError):
        proper_rate(2, 1)
    with pytest.raises(ValueError):
        proper_rate(-1, 3)


def test_proper_rate_large_k_offset_window():
    # in the window parametrization the rate collapses to (1 - 2 eta) 2^-k
    # up to a 2^-2k error; check with the offset implied by the rounded d
    choice = degrees_from_offset(25, 0.12)
    assert choice.in_window
    rate = proper_rate(choice.d, 25)
    with working_precision():
        target = (1 - 2 * choice.implied_eta) * mp.mpf(2) ** -25
        tol = mp.mpf(2) ** (-2 * 25 + 6)
    assert abs(rate - target) <= tol


def test_entropy_functions():
    with working_precision():
        log2 = mp.log(2)
    assert abs(entropy2(0.5) - log2) <= mp.mpf("1e-30")
    assert entropy2(0) == 0
    assert entropy2(1) == 0
    for x in (0.1, 0.37, 0.5, 0.93):
        assert abs(cross_entropy2(x, x) - entropy2(x)) <= mp.mpf("1e-30")
    # cross entropy dominates entropy; the excess is a divergence
    assert cross_entropy2(0.3, 0.4) > entropy2(0.3)
    assert cross_entropy2(0.3, 0) == mp.inf
    assert cross_entropy2(0, 0) == 0
    with pytest.raises(ValueError):
        entropy2(1.5)
    with pytest.raises(ValueError):
        cross_entropy2(0.5, -1)


def test_type_rate_matches_proper_rate_at_dominant_type():
    for k in range(3, 13):
        star = dominant_type(k)
        for d in (2, 3, 10, 40):
            gap = type_rate([star] * d, d, k) - proper_rate(d, k)
            assert abs(gap) <= mp.mpf("1e-10"), (d, k, gap)


def test_type_rate_hand_value():
    value = type_rate([(0, Fraction(1, 2), 0)], 1, 2)
    with working_precision():
        expected = mp.log(2) / 2
    assert abs(value - expected) <= mp.mpf("1e-30")


def test_type_rate_validation():
    with pytest.raises(ValueError):
        type_rate([(0, 0.5, 0.1)], 1, 2)
    # equal row sums but different implied densities of ones
    with pytest.raises(ValueError):
        type_rate(
            [
                (0, Fraction(1, 3), 0, 0),
                (0, 0, Fraction(1, 3), 0),
            ],
            2,
            3,
        )
    with pytest.raises(ValueError):
        type_rate([(0, 0.5, 0), (0, 0.5, 0)], 1, 2)
    with pytest.raises(ValueError):
        type_rate([(0, Fraction(1, 2), 0, 0)], 1, 2)
    # d = 0 has no rows to average the density of ones over
    with pytest.raises(ValueError, match="d >= 1"):
        type_rate([], 0, 3)


def test_type_rate_row_averaging_never_decreases():
    rng = random.Random(20260823)
    k, d = 6, 4
    star = [float(x) for x in dominant_type(k)]
    ones = [1.0] * (k - 1)
    slots = [float(j) for j in range(1, k)]

    def project_out(vec, direction):
        dot = sum(a * b for a, b in zip(vec, direction))
        norm = sum(a * a for a in direction)
        return [a - dot / norm * b for a, b in zip(vec, direction)]

    slots_perp = project_out(slots, ones)
    floor = min(star[1:k])
    for _ in range(10):
        rows = []
        for _ in range(d):
            raw = [rng.uniform(-1, 1) for _ in range(k - 1)]
            raw = project_out(raw, ones)
            raw = project_out(raw, slots_perp)
            scale = floor * 0.4 / max(abs(a) for a in raw)
            rows.append(
                [0.0]
                + [star[j] + scale * raw[j - 1] for j in range(1, k)]
                + [0.0]
            )
        mean_row = [sum(row[j] for row in rows) / d for j in range(k + 1)]
        spread = type_rate(rows, d, k)
        pooled = type_rate([mean_row] * d, d, k)
        assert pooled > spread - mp.mpf("1e-20")
    # identical rows: averaging changes nothing
    same = [star] * d
    assert abs(type_rate(same, d, k) - type_rate(same, d, k)) <= mp.mpf("1e-25")


def test_dominant_type_exact_values():
    assert dominant_type(3) == (
        Fraction(0),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(0),
    )
    assert dominant_type(2) == (Fraction(0), Fraction(1, 2), Fraction(0))
    for k in (2, 3, 5, 8, 12):
        star = dominant_type(k)
        assert sum(star) == Fraction(1, k)
        assert sum(j * x for j, x in enumerate(star)) == Fraction(1, 2)
        assert star[0] == 0 and star[k] == 0


def balance_polynomial_product_form(x, d, k):
    """The product form of balance_polynomial that shows its interior root
    is unique, at the same default working precision."""
    with working_precision():
        v = mp.mpf(x)
        y = ((1 - v) / v) ** (mp.mpf(1 - d) / d)
        return k * ((v * (1 + y) - y) * (1 + y) ** (k - 1) - v + (1 - v) * y**k)


def test_balance_polynomial():
    for d, k in ((2, 3), (7, 4), (10, 5)):
        assert abs(balance_polynomial(0.5, d, k)) <= mp.mpf("1e-30")
    assert balance_polynomial(0.3, 10, 5) < 0
    d, k = 10, 5
    for x in (0.1, 0.25, 0.4):
        direct = balance_polynomial(x, d, k)
        factored = balance_polynomial_product_form(x, d, k)
        assert abs(direct - factored) <= mp.mpf("1e-20")
        with working_precision():
            v = mp.mpf(x)
            mirror_factor = (v / (1 - v)) ** (mp.mpf(k * (1 - d)) / d)
        mirrored = balance_polynomial(1 - x, d, k)
        assert abs(mirrored + mirror_factor * direct) <= mp.mpf("1e-9")
    with pytest.raises(ValueError):
        balance_polynomial(0, 10, 5)
    with pytest.raises(ValueError):
        balance_polynomial(1, 10, 5)
    with pytest.raises(ValueError):
        balance_polynomial(0.5, 1, 5)


def test_bias_distance_roundtrips():
    for k in (3, 10, 25):
        for delta in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            b = bias_of_distance(delta, k)
            assert abs(distance_of_bias(b, k) - mp.mpf(delta)) <= mp.mpf("1e-12")
        for b0 in (0.05, 0.2, 0.5, 0.8, 0.95):
            x = distance_of_bias(b0, k)
            assert abs(bias_of_distance(x, k) - mp.mpf(b0)) <= mp.mpf("1e-10")
    assert bias_of_distance(0, 6) == 0
    assert bias_of_distance(1, 6) == 1
    assert abs(bias_of_distance(0.5, 6) - mp.mpf("0.5")) <= mp.mpf("1e-30")
    assert distance_of_bias(0, 6) == 0
    assert distance_of_bias(1, 6) == 1
    with pytest.raises(ValueError):
        distance_of_bias(-0.1, 6)
    with pytest.raises(ValueError):
        bias_of_distance(1.1, 6)


def bias_map_grid_oracle(k, points=1000):
    """Sampled oracle for the monotonicity certificate: is the
    bias-to-distance map strictly increasing along an even grid on [0, 1]?"""
    with working_precision():
        values = [distance_of_bias(mp.mpf(i) / points, k) for i in range(points + 1)]
    return all(a < b for a, b in zip(values, values[1:]))


def test_bias_map_certificate_holds():
    for k in range(2, 41):
        analytics._certify_positive_on_unit_interval(
            analytics._bias_map_derivative_numerator(k)
        )


def test_bias_map_certificate_agrees_with_grid_oracle():
    for k in (3, 6, 25):
        assert bias_map_grid_oracle(k)
        analytics._certify_bias_map_monotone(k)


def test_bias_map_polynomials_match_the_map():
    # ties the certified polynomials to the map the solver inverts: N/D is
    # the map and P/D^2 its derivative, at exact rational points
    def evaluate(coeffs, b):
        return sum(c * b**j for j, c in enumerate(coeffs))

    for k in range(2, 41):
        num, den = analytics._bias_map_polynomials(k)
        slope = analytics._bias_map_derivative_numerator(k)
        for i in range(1, 21):
            b = Fraction(i, 21)
            with working_precision():
                point = mp.mpf(i) / 21
                base = 1 - mp.mpf(2) ** (2 - k)
                num_b, den_b = analytics._bias_map_terms(point, k, base)
                value = num_b / den_b
                derivative = analytics._bias_map_slope(point, k, base, num_b, den_b)
                exact_value = evaluate(num, b) / evaluate(den, b)
                exact_slope = evaluate(slope, b) / evaluate(den, b) ** 2
                assert abs(value - analytics._to_mpf(exact_value)) <= mp.mpf("1e-30")
                assert abs(derivative - analytics._to_mpf(exact_slope)) <= mp.mpf(
                    "1e-30"
                )


def test_positivity_certificate_rejects_unproven_polynomials():
    certify = analytics._certify_positive_on_unit_interval
    certify([0, 1, -1])  # b (1 - b): zero at both ends, positive inside
    certify([3])
    for coeffs in ([-1, 2], [1, -4, 4], [0], [0, 0, 0]):
        # 2b - 1 changes sign at 1/2, (2b - 1)^2 touches zero there
        with pytest.raises(ArithmeticError):
            certify(coeffs)


def test_result_guards_raise_under_optimize():
    # the guards must survive python -O, which strips assert statements
    child = textwrap.dedent(
        """
        import sys
        from sofic_lab import analytics

        def run(name, replacement, call):
            original = getattr(analytics, name)
            setattr(analytics, name, replacement(original))
            try:
                call()
            except ArithmeticError as exc:
                print(f"{name}: {exc}")
            else:
                print(f"{name}: no raise")
            finally:
                setattr(analytics, name, original)

        def shift_where(test, amount):
            # shift the cross entropies whose arguments (v, v0) pass test
            return lambda f: lambda v, v0: f(v, v0) + (amount if test(v, v0) else 0)

        print("optimize", sys.flags.optimize)
        run("_pair_distance_rate", lambda f: lambda *a: f(*a) + 1e-6,
            lambda: analytics.planted_distance_rate(0.3, 20, 6))
        run("_pair_distance_rate", lambda f: lambda *a: f(*a) + 1e-6,
            lambda: analytics.distance_rate_scan(20, 6, grid_points=5))
        run("bichromatic_pair_types", lambda f: lambda k: f(k)[:-1],
            lambda: analytics.optimal_pair_type(0.3, 4))
        # the cross entropy of the distance against its bias only
        run("_cross_entropy2", shift_where(lambda v, v0: v != v0, 1e-6),
            lambda: analytics.entropy_gap_report(0.1, 10))
        # the entropy at the distance only, which the divergence subtracts
        run("_cross_entropy2", shift_where(lambda v, v0: v0 == 0.1, 1),
            lambda: analytics.entropy_gap_report(0.1, 10))
        run("_binomial_tail_at_least", lambda f: lambda *a: 2,
            lambda: analytics.core_fixed_point(50, 6))
        run("_bias_map_derivative_numerator", lambda f: lambda k: [-1, 2],
            lambda: analytics.bias_of_distance(0.3, 7))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    expected = [
        "_pair_distance_rate: planted rate routes disagree",
        "_pair_distance_rate: planted rate routes disagree",
        "bichromatic_pair_types: weights sum to",
        "_cross_entropy2: entropy gap",
        "_cross_entropy2: divergence came out negative",
        "_binomial_tail_at_least: core recursion increased",
        "_bias_map_derivative_numerator: Bernstein coefficient 0 of 1 is negative",
    ]
    assert len(lines) == 1 + len(expected), proc.stdout
    for line, prefix in zip(lines[1:], expected):
        assert line.startswith(prefix), (line, prefix)


def test_pair_distance_rate():
    for d, k in ((20, 6), (5, 3)):
        assert abs(pair_distance_rate(0.5, d, k) - proper_rate(d, k)) <= mp.mpf(
            "1e-30"
        )
        # exact mirror arguments, so symmetry holds to working precision
        for x in (Fraction(1, 10), Fraction(27, 100), Fraction(11, 25)):
            sym = pair_distance_rate(x, d, k) - pair_distance_rate(1 - x, d, k)
            assert abs(sym) <= mp.mpf("1e-30")
    assert pair_distance_rate(0, 20, 6) == 0
    assert pair_distance_rate(1, 20, 6) == 0
    with pytest.raises(ValueError):
        pair_distance_rate(-0.1, 20, 6)


def test_planted_distance_rate():
    for d, k in ((20, 6), (12, 4)):
        assert abs(
            planted_distance_rate(0.5, d, k) - proper_rate(d, k)
        ) <= mp.mpf("1e-12")
        for delta in (0.1, 0.2, 0.3, 0.45):
            sym = planted_distance_rate(delta, d, k) - planted_distance_rate(
                1 - delta, d, k
            )
            assert abs(sym) <= mp.mpf("1e-9")
    assert planted_distance_rate(0, 20, 6) == 0
    assert planted_distance_rate(1, 20, 6) == 0
    with pytest.raises(ValueError):
        planted_distance_rate(2, 20, 6)


def test_pair_rate_beats_proper_rate_near_zero_at_large_k():
    # tiny distances carry more pair mass than independence would allow,
    # which is the second-moment obstruction the bias analysis removes
    choice = degrees_from_offset(25, 0.12)
    with working_precision():
        x = mp.mpf(2) ** -25
    gap = pair_distance_rate(x, choice.d, 25) - proper_rate(choice.d, 25)
    assert gap > 0


def test_bichromatic_pair_types_enumeration():
    assert set(bichromatic_pair_types(2)) == {
        (0, 1, 1, 0),
        (1, 0, 0, 1),
    }
    assert len(bichromatic_pair_types(4)) == 19
    for k in (2, 3, 4, 6):
        expected = set()
        for e in itertools.product(range(k + 1), repeat=4):
            if sum(e) != k:
                continue
            if 0 < e[2] + e[3] < k and 0 < e[1] + e[3] < k:
                expected.add(e)
        assert set(bichromatic_pair_types(k)) == expected


def test_optimal_pair_type_constraints():
    for k, delta in ((3, 0.2), (4, 0.3), (7, 0.45), (5, 0.5)):
        opt = optimal_pair_type(delta, k)
        assert set(opt.weights) == set(bichromatic_pair_types(k))
        assert all(w > 0 for w in opt.weights.values())
        assert opt.normalizer > 0
        assert 0 < opt.delta0 < 1
        total = mp.fsum(opt.weights.values())
        left = mp.fsum((m.e10 + m.e11) * w for m, w in opt.weights.items())
        right = mp.fsum((m.e01 + m.e11) * w for m, w in opt.weights.items())
        moved = mp.fsum((m.e01 + m.e10) * w for m, w in opt.weights.items())
        assert abs(total - mp.mpf(1) / k) <= mp.mpf("1e-10")
        assert abs(left - mp.mpf("0.5")) <= mp.mpf("1e-10")
        assert abs(right - mp.mpf("0.5")) <= mp.mpf("1e-10")
        assert abs(moved - mp.mpf(delta)) <= mp.mpf("1e-10")
    with pytest.raises(ValueError):
        optimal_pair_type(0, 4)
    with pytest.raises(ValueError):
        optimal_pair_type(1, 4)


def test_optimal_pair_type_symmetry_at_half():
    opt = optimal_pair_type(0.5, 5)
    for m, w in opt.weights.items():
        swapped_off = PairTypeMatrix(m.e00, m.e10, m.e01, m.e11)
        swapped_diag = PairTypeMatrix(m.e11, m.e01, m.e10, m.e00)
        assert abs(w - opt.weights[swapped_off]) <= mp.mpf("1e-25")
        assert abs(w - opt.weights[swapped_diag]) <= mp.mpf("1e-25")


def test_optimal_pair_type_is_a_constrained_maximum():
    # perturb inside the constraint set and watch the objective drop
    k, delta = 4, 0.3
    opt = optimal_pair_type(delta, k)
    atoms = sorted(opt.weights)
    t = np.array([float(opt.weights[m]) for m in atoms])
    log_coeff = np.array(
        [
            math.log(
                math.factorial(k)
                // (
                    math.factorial(m.e00)
                    * math.factorial(m.e01)
                    * math.factorial(m.e10)
                    * math.factorial(m.e11)
                )
            )
            for m in atoms
        ]
    )

    def objective(vec):
        return float(np.sum(-vec * np.log(vec) + vec * log_coeff))

    constraints = np.array(
        [
            [1.0] * len(atoms),
            [m.e10 + m.e11 for m in atoms],
            [m.e01 + m.e11 for m in atoms],
            [m.e01 + m.e10 for m in atoms],
        ]
    )
    _, singular, vt = np.linalg.svd(constraints, full_matrices=True)
    rank = int(np.sum(singular > 1e-9))
    null_basis = vt[rank:]
    assert null_basis.shape[0] == len(atoms) - rank
    base = objective(t)
    rng = np.random.default_rng(20260823)
    step = 1e-5
    for _ in range(100):
        coeffs = rng.normal(size=null_basis.shape[0])
        direction = coeffs @ null_basis
        direction /= np.linalg.norm(direction)
        for sign in (1.0, -1.0):
            moved = t + sign * step * direction
            assert np.all(moved > 0)
            assert objective(moved) <= base + 1e-8


def test_entropy_gap_report():
    calm = entropy_gap_report(0.5, 5)
    assert abs(calm.epsilon_hat) <= mp.mpf("1e-12")
    assert abs(calm.entropy_gap) <= mp.mpf("1e-12")
    assert abs(calm.kl_divergence) <= mp.mpf("1e-12")
    report = entropy_gap_report(0.1, 10)
    identity = report.delta0 * report.epsilon_hat * mp.log(
        (1 - report.delta0) / report.delta0
    )
    assert abs(report.entropy_gap - identity) <= mp.mpf("1e-10")
    assert report.kl_divergence >= 0
    assert report.delta0 >= report.delta
    with working_precision():
        for k in (10, 15, 20):
            shrink_cap = mp.mpf(2) ** (-k + 4)
            for delta in (0.05, 0.15, 0.3, 0.5):
                rep = entropy_gap_report(delta, k)
                assert rep.epsilon_hat <= shrink_cap, (k, delta, rep.epsilon_hat)
                assert rep.epsilon_hat >= 0
    for bad in (0, 0.6, -1):
        with pytest.raises(ValueError):
            entropy_gap_report(bad, 8)


def test_distance_rate_scan_large_k_regime():
    choice = degrees_from_offset(25, 0.12)
    scan = distance_rate_scan(choice.d, 25, grid_points=401)
    assert len(scan.rows) == 401
    assert abs(scan.argmax_delta - mp.mpf("0.5")) <= mp.mpf("1e-9")
    assert scan.margin > 0
    assert abs(scan.max_rate - planted_distance_rate(0.5, choice.d, 25)) <= mp.mpf(
        "1e-20"
    )
    base = proper_rate(choice.d, 25)
    for i, row in enumerate(scan.rows):
        assert row.planted_rate <= scan.max_rate
        assert row.proper_rate == base
        mirrored = scan.rows[len(scan.rows) - 1 - i]
        assert abs(row.planted_rate - mirrored.planted_rate) <= mp.mpf("1e-9")
    # spot check a row against direct evaluation
    probe = scan.rows[57]
    assert abs(probe.pair_rate - pair_distance_rate(probe.delta, choice.d, 25)) <= mp.mpf(
        "1e-20"
    )
    assert abs(probe.delta0 - bias_of_distance(probe.delta, 25)) <= mp.mpf("1e-20")


def test_distance_rate_scan_shape():
    scan = distance_rate_scan(20, 6, grid_points=21)
    assert len(scan.rows) == 21
    with working_precision():
        lo = mp.mpf(2) ** (-mp.mpf(6) / 2)
    assert abs(scan.rows[0].delta - lo) <= mp.mpf("1e-30")
    assert abs(scan.rows[-1].delta - (1 - lo)) <= mp.mpf("1e-30")
    assert scan.margin >= 0
    assert scan.argmax_delta in {row.delta for row in scan.rows}
    with pytest.raises(ValueError):
        distance_rate_scan(20, 6, grid_points=2)


def _reflected(row, precision=None):
    """The row at 1 - delta that distance_rate_scan builds from this one."""
    with working_precision(precision):
        return row._replace(delta=1 - row.delta, delta0=1 - row.delta0)


def _mirrored(scan, precision=None):
    """The scan with its upper half replaced by the reflection of its lower
    half, and the argmax, max_rate and margin read off again."""
    grid = len(scan.rows)
    lower = list(scan.rows[: (grid + 1) // 2])
    upper = [_reflected(row, precision) for row in reversed(lower[: grid // 2])]
    with working_precision(precision):
        return ranked_scan(lower + upper)


def test_distance_rate_scan_rows_equal_direct_solves():
    # the scan reuses each solved row's bias; that must not change a digit,
    # and each upper row is the exact reflection of its mirror row
    choice = degrees_from_offset(25, 0.12)
    for d, k, grid in ((20, 6, 21), (choice.d, 25, 41)):
        scan = distance_rate_scan(d, k, grid_points=grid)
        half = (grid + 1) // 2
        for row in scan.rows[:half]:
            assert row.delta0 == bias_of_distance(row.delta, k)
            assert row.planted_rate == planted_distance_rate(row.delta, d, k)
        for i in range(half, grid):
            assert scan.rows[i] == _reflected(scan.rows[grid - 1 - i])


@pytest.mark.parametrize("grid", [6, 20])
def test_distance_rate_scan_even_grid_ties_its_middle_rows(grid):
    scan = distance_rate_scan(20, 6, grid_points=grid)
    low, high = scan.rows[grid // 2 - 1], scan.rows[grid // 2]
    assert high == _reflected(low)
    assert high.planted_rate == low.planted_rate == scan.max_rate
    assert scan.margin == 0


def test_distance_rate_scan_three_points():
    k = 6
    scan = distance_rate_scan(20, k, grid_points=3)
    with working_precision():
        lo = mp.mpf(2) ** (-mp.mpf(k) / 2)
        hi = 1 - lo
        mid = lo + (hi - lo) * 1 / 2
    assert [row.delta for row in scan.rows[:2]] == [lo, mid]
    assert scan.rows[1].delta0 == bias_of_distance(mid, k)
    assert scan.rows[2] == _reflected(scan.rows[0])


# the rate-scan benchmark shapes: k = 17..25 at the degree of offset 0.12,
# grids of 33, 41 and 49 points, plus two small-k shapes
ORACLE_SCAN_SHAPES = [
    (degrees_from_offset(k, 0.12).d, k, grid)
    for k in range(17, 26)
    for grid in (33, 41, 49)
] + [(20, 6, 21), (5, 3, 11)]


def _assert_scans_equal(scan, oracle, precision=None):
    expected_scan = _mirrored(oracle, precision)
    assert len(scan.rows) == len(expected_scan.rows)
    for row, expected in zip(scan.rows, expected_scan.rows):
        for field in analytics.DistanceScanRow._fields:
            assert getattr(row, field) == getattr(expected, field), field
    assert scan.argmax_delta == expected_scan.argmax_delta
    assert scan.max_rate == expected_scan.max_rate
    assert scan.margin == expected_scan.margin


def _assert_reflection_near_oracle(scan, oracle, d, precision=None):
    # a reflected row and a direct solve at 1 - delta differ by rounding
    # alone (2 and 2.72 d units of 2^-prec at most on these shapes); the
    # maximum sits on the solved midpoint of an odd grid, so the argmax
    # and max_rate do not move
    with working_precision(precision):
        unit = mp.mpf(2) ** -mp.mp.prec
    half = (len(scan.rows) + 1) // 2
    for row, direct in zip(scan.rows[half:], oracle.rows[half:]):
        for field, bound in (("delta", 4), ("delta0", 4), ("planted_rate", 8 * d),
                             ("pair_rate", 8 * d), ("proper_rate", 8 * d)):
            assert abs(getattr(row, field) - getattr(direct, field)) <= bound * unit, field
    assert scan.argmax_delta == oracle.argmax_delta
    assert scan.max_rate == oracle.max_rate
    assert mp.sign(scan.margin) == mp.sign(oracle.margin)


def _assert_traces_equal(trace, oracle):
    for field in ("p", "p_inf", "mu_core", "mu_core_attached", "converged"):
        assert getattr(trace, field) == getattr(oracle, field), field


@pytest.mark.parametrize("d,k,grid", ORACLE_SCAN_SHAPES, ids=str)
def test_distance_rate_scan_and_fixed_point_equal_oracles(d, k, grid):
    # shared logs, a lazy slope and hoisted log-binomials must not move a
    # bit; the upper half is held to the oracle's reflected lower half
    scan = distance_rate_scan(d, k, grid_points=grid)
    oracle = distance_rate_scan_oracle(d, k, grid)
    _assert_scans_equal(scan, oracle)
    _assert_reflection_near_oracle(scan, oracle, d)
    _assert_traces_equal(core_fixed_point(d, k), core_fixed_point_oracle(d, k))


@pytest.mark.parametrize("precision", [53, 256])
def test_distance_rate_scan_and_fixed_point_equal_oracles_at_precision(precision):
    # at 53 bits the route check fails on the k = 21 and k = 25 shapes (in
    # the oracle too), so a small-k shape serves both precisions
    scan = distance_rate_scan(20, 6, grid_points=21, precision=precision)
    oracle = distance_rate_scan_oracle(20, 6, 21, precision=precision)
    _assert_scans_equal(scan, oracle, precision)
    _assert_reflection_near_oracle(scan, oracle, 20, precision)
    _assert_traces_equal(core_fixed_point(20, 6, precision=precision),
                         core_fixed_point_oracle(20, 6, precision=precision))


def test_rate_scan_refuses_a_precision_its_route_check_cannot_pass(monkeypatch):
    # at 53 bits the degrees of eta = 0.12 leave 33 and 31 bits beyond the
    # bit length of d at k = 17 and 19, and those run; at k = 21 they leave
    # 29, where the 1e-9 route check failed, so the call is refused before
    # any bias is solved
    for k in (17, 19):
        d = degrees_from_offset(k, 0.12).d
        distance_rate_scan(d, k, grid_points=17, precision=53)
        planted_distance_rate(0.3, d, k, precision=53)
    counts = {}
    _count_calls(monkeypatch, analytics, "_solve_bias", counts)
    d = degrees_from_offset(21, 0.12).d
    for call in (lambda: distance_rate_scan(d, 21, precision=53),
                 lambda: planted_distance_rate(0.3, d, 21, precision=53)):
        with pytest.raises(ValueError, match="need at least 54 bits"):
            call()
    assert counts == {}
    distance_rate_scan(d, 21, grid_points=17, precision=54)
    assert counts["_solve_bias"] == 9


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_distance_rate_scan_evaluates_each_term_once(monkeypatch):
    counts = {}
    for name in ("_log_edge_factor", "_bias_map_terms", "_bias_map_slope"):
        _count_calls(monkeypatch, analytics, name, counts)
    d, k, grid = degrees_from_offset(25, 0.12).d, 25, 41
    distance_rate_scan(d, k, grid_points=grid)
    solved = (grid + 1) // 2
    # one edge factor at the distance and one at its bias, on the solved half
    assert counts["_log_edge_factor"] == 2 * solved
    # every solve ends on a value whose residual passes without a slope
    assert counts["_bias_map_slope"] == counts["_bias_map_terms"] - solved
    assert counts["_bias_map_slope"] > 0


def test_core_fixed_point_loggamma_calls_do_not_grow_with_levels(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, mp, "loggamma", counts)
    calls_and_levels = []
    for d, k in ((6, 3), (50, 6), (772231, 17)):  # 5, 4 and 8 levels
        counts.clear()
        trace = core_fixed_point(d, k)
        calls_and_levels.append((counts["loggamma"], len(trace.p)))
    assert len({levels for _, levels in calls_and_levels}) > 1
    assert {calls for calls, _ in calls_and_levels} == {14}


def test_offset_maps():
    with working_precision():
        expected = mp.log(2) / 2 * 2**25 - (1 + mp.log(2)) / 2 + mp.mpf(0.12)
    assert abs(ratio_from_offset(25, 0.12) - expected) <= mp.mpf("1e-30")
    choice = degrees_from_offset(25, 0.12)
    assert isinstance(choice, DegreeChoice)
    with working_precision():
        assert choice.d == int(mp.nint(ratio_from_offset(25, 0.12) * 25))
        # the implied offset reproduces d exactly, and rounding d moved the
        # offset by at most 1/(2k)
        reproduced = ratio_from_offset(25, choice.implied_eta) * 25
        assert abs(reproduced - choice.d) <= mp.mpf("1e-20")
    assert abs(choice.implied_eta - mp.mpf(0.12)) <= 0.02
    assert choice.in_window
    small = degrees_from_offset(2, 0.12)
    assert not small.in_window
    with working_precision():
        top = (1 - mp.log(2)) / 2
    assert abs(offset_window_top() - top) <= mp.mpf("1e-30")


def test_core_fixed_point_degenerate_degrees():
    for d in (1, 2, 3):
        trace = core_fixed_point(d, 5)
        assert trace.p_inf == 0
        assert trace.p[1] == 0
        assert trace.converged
        assert trace.mu_core == 0
    with pytest.raises(ValueError):
        core_fixed_point(0, 5)
    with pytest.raises(ValueError):
        core_fixed_point(5, 1)


def test_core_fixed_point_monotone_and_bounded():
    for d, k in ((50, 6), (10, 4), (300, 8)):
        trace = core_fixed_point(d, k)
        with working_precision():
            lambda0 = 1 / (mp.mpf(2) ** (k - 1) - 1)
        assert trace.p[0] == lambda0
        for earlier, later in zip(trace.p, trace.p[1:]):
            assert later <= earlier
        assert 0 <= trace.p_inf <= lambda0
        assert 0 <= trace.mu_core <= trace.mu_core_attached <= 1
        assert trace.converged


def test_core_fixed_point_large_k_regime():
    choice = degrees_from_offset(25, 0.12)
    trace = core_fixed_point(choice.d, 25)
    with working_precision():
        lambda0 = 1 / (mp.mpf(2) ** 24 - 1)
        lam = choice.d * lambda0
        lower = lambda0 * (1 - lam**2 * mp.exp(1 - lam)) ** 24
    assert trace.converged
    assert lower <= trace.p_inf <= lambda0
    assert 0.99 < trace.mu_core <= trace.mu_core_attached < 1


def test_working_precision_controls():
    with working_precision():
        assert mp.mp.prec == 128
    with working_precision(256):
        assert mp.mp.prec == 256
    with pytest.raises(ValueError):
        working_precision(40)
    # per-call override is honored
    assert abs(proper_rate(2, 2, precision=96)) <= mp.mpf("1e-25")
