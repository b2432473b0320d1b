"""Numeric measures: root finder, one-variable Mahler measure, limit measures.

The reference constant below was frozen from a 40-digit evaluation of
log of the largest root modulus of x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1
(the smallest known measure above 0 for an integer polynomial).
"""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from groupdet import (
    LaurentPoly,
    RootFindingFailed,
    ZeroPolynomial,
    ZeroSlice,
    d_infinity_h_fourcomponent,
    d_infinity_h_measure,
    d_infinity_measure,
    heisenberg_infinite_measure,
    mahler_measure,
    polynomial_roots,
)
from groupdet._roots import _aberth

LEHMER_COEFFS = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
LEHMER_LOG = 0.16235761200773813943


# -- root finder ---------------------------------------------------------------


def test_roots_of_factored_quadratic():
    roots = sorted(polynomial_roots([-6, 1, 1]), key=lambda z: z.real)
    assert roots[0] == pytest.approx(-3, abs=1e-10)
    assert roots[1] == pytest.approx(2, abs=1e-10)


def test_roots_of_unity():
    roots = polynomial_roots([1, 0, 0, 0, -1])  # 1 - x^4... roots of x^4 = 1/1
    assert sorted(round(abs(r), 8) for r in roots) == [1.0] * 4


def test_origin_roots_split_off_exactly():
    roots = polynomial_roots([0, 0, 0, -2, 1])  # x^3 (x - 2)
    zeros = [r for r in roots if r == 0]
    assert len(zeros) == 3
    (other,) = [r for r in roots if r != 0]
    assert other == pytest.approx(2, abs=1e-10)


def _assert_same_root_sets(ours, ref, tol):
    # order-insensitive matching: conjugate pairs make lexicographic
    # sorting unstable, so pair each root with its nearest counterpart
    assert len(ours) == len(ref)
    remaining = list(ref)
    for a in ours:
        dists = [abs(a - b) for b in remaining]
        k = dists.index(min(dists))
        assert dists[k] < tol * max(1.0, abs(remaining[k]))
        remaining.pop(k)


def test_roots_match_numpy_on_random_inputs():
    rng = random.Random(90)
    for _ in range(40):
        deg = rng.randint(1, 12)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, -3])]
        _assert_same_root_sets(polynomial_roots(coeffs),
                               list(np.roots(coeffs[::-1])), 1e-7)


def test_root_finding_failure_is_reported():
    with pytest.raises(RootFindingFailed):
        polynomial_roots(LEHMER_COEFFS, max_iter=1)


def test_batched_kernel_matches_loop_and_numpy():
    rng = random.Random(94)
    rows = [[complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(10)] + [1]
            for _ in range(30)]
    roots, sweeps = _aberth(np.array(rows))
    alone = [_aberth(np.array([r])) for r in rows]
    # the rows leave the batch at different sweeps
    assert len({n for _, n in alone}) > 1
    assert sweeps == max(n for _, n in alone)
    for r, z, (z1, _) in zip(rows, roots, alone):
        # a row's roots do not depend on the batch it is solved in
        assert np.array_equal(z, z1[0])
        assert np.array_equal(z, polynomial_roots(r))
        _assert_same_root_sets(list(z), list(np.roots(r[::-1])), 1e-9)


def test_batched_kernel_reports_the_row_that_does_not_converge():
    # x^10 - 1 converges within 6 sweeps, Lehmer's polynomial does not
    rows = np.array([[-1] + [0] * 9 + [1], LEHMER_COEFFS], dtype=np.complex128)
    assert _aberth(rows[:1], max_iter=6)[1] <= 6
    with pytest.raises(RootFindingFailed, match="after 6 iterations on degree 10"):
        _aberth(rows, max_iter=6)


def test_zero_polynomial_has_no_roots():
    with pytest.raises(ZeroPolynomial):
        polynomial_roots([0, 0])


def _log_measure_of_roots(roots):
    # log measure of a monic polynomial from its roots (Jensen's formula)
    return sum(math.log(abs(r)) for r in roots if abs(r) > 1.0)


def test_backends_agree():
    # the one Aberth kernel against numpy's companion-matrix eigenvalues
    ours = polynomial_roots(LEHMER_COEFFS)
    _assert_same_root_sets(ours, list(np.roots(LEHMER_COEFFS[::-1])), 1e-12)
    assert abs(_log_measure_of_roots(ours) - LEHMER_LOG) < 1e-12


# -- one-variable measure --------------------------------------------------------


def test_lehmer_value():
    assert mahler_measure(LEHMER_COEFFS) == pytest.approx(LEHMER_LOG, abs=1e-11)


def test_cyclotomic_polynomials_measure_zero():
    for coeffs in ([(-1), 1], [1, 1], [1, 1, 1], [1, 0, 0, 0, 1],
                   [1, 1, 1, 1, 1], [1, -1, 1]):
        assert abs(mahler_measure(list(coeffs))) < 1e-9


def test_measure_multiplicative_on_products():
    rng = random.Random(91)
    for _ in range(25):
        da, db = rng.randint(1, 7), rng.randint(1, 7)
        a = [rng.randint(-5, 5) for _ in range(da)] + [rng.choice([1, 2, 3])]
        b = [rng.randint(-5, 5) for _ in range(db)] + [rng.choice([1, 2, 3])]
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        assert mahler_measure(prod) == \
            pytest.approx(mahler_measure(a) + mahler_measure(b), abs=1e-8)


def test_monic_measure_is_nonnegative():
    rng = random.Random(92)
    for _ in range(30):
        deg = rng.randint(1, 10)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [1]
        assert mahler_measure(coeffs) >= -1e-9


def test_monomial_shift_invariance():
    f = LaurentPoly({0: 3, 2: -1, 5: 4})
    shifted = LaurentPoly({-3: 3, -1: -1, 2: 4})
    assert mahler_measure(f) == pytest.approx(mahler_measure(shifted), abs=1e-12)


def test_measure_of_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        mahler_measure([0])


def test_measure_accepts_equivalent_input_forms():
    a = mahler_measure([2, 0, -1])
    b = mahler_measure({0: 2, 2: -1})
    c = mahler_measure(LaurentPoly([2, 0, -1]))
    assert a == b == c


# -- Laurent polynomial helper ----------------------------------------------------


def test_laurent_arithmetic():
    f = LaurentPoly({-1: 1, 1: 2})      # x^-1 + 2x
    g = LaurentPoly({0: 3})
    lo, dense = (f * g).dense()
    assert (lo, dense) == (-1, [3, 0, 6])
    lo, dense = (f * f).dense()
    assert lo == -2
    assert dense == [1, 0, 4, 0, 4]     # (x^-1 + 2x)^2 = x^-2 + 4 + 4x^2


def test_laurent_reciprocal():
    f = LaurentPoly([1, 2, 3])          # 1 + 2x + 3x^2
    r = f.reciprocal()
    lo, dense = r.dense()
    assert lo == -2
    assert dense == [3, 2, 1]


# -- two-part infinite measures -----------------------------------------------------


def test_dinf_reference_point():
    # f = x^2 - 1, g = x^5 + x^4 - 1 reproduces half the reference
    # constant: the combination f f~ - g g~ is the degree-10 minimal case
    got = d_infinity_measure(LaurentPoly([-1, 0, 1]),
                             LaurentPoly([-1, 0, 0, 0, 1, 1]))
    assert got == pytest.approx(LEHMER_LOG / 2, abs=1e-10)


def test_dinf_with_zero_g_is_plain_measure():
    rng = random.Random(93)
    for _ in range(15):
        deg = rng.randint(1, 8)
        f = [rng.randint(-4, 4) for _ in range(deg)] + [rng.choice([1, 2])]
        assert d_infinity_measure(LaurentPoly(f), LaurentPoly([])) == \
            pytest.approx(mahler_measure(f), abs=1e-8)


def test_dinf_degenerate_combination_rejected():
    f = LaurentPoly([1, 2, 1])
    with pytest.raises(ZeroPolynomial):
        d_infinity_measure(f, f)  # f f~ - f f~ = 0


def test_dinfh_fourcomponent_reduction():
    f = LaurentPoly([2, 0, 1])
    g = LaurentPoly([1, -1])
    zero = LaurentPoly([])
    assert d_infinity_h_fourcomponent(f, g, zero, zero) == \
        pytest.approx(d_infinity_h_measure(f, g), abs=1e-12)


def test_dinfh_is_average_of_two_measures():
    f = LaurentPoly([3, 1])
    g = LaurentPoly([1, 1])
    a = f * f.reciprocal() - g * g.reciprocal()
    b = f * f.reciprocal() + g * g.reciprocal()
    expect = 0.25 * (mahler_measure(a) + mahler_measure(b))
    assert d_infinity_h_measure(f, g) == pytest.approx(expect, abs=1e-12)


# -- the binomial Heisenberg limit ----------------------------------------------------


def test_heisenberg_limit_closed_forms():
    # mean over the z-circle of log max(1, |3 + z|, ...) collapses by
    # Jensen's formula to log 3 / log 2 / log 6 for these inputs
    assert heisenberg_infinite_measure({(1, 0): 1, (0, 1): 1, (0, 0): 3},
                                       {(0, 0): 1}, points=64).value == \
        pytest.approx(math.log(3), abs=1e-9)
    assert heisenberg_infinite_measure({(0, 0): 2}, {(0, 0): 1}, points=16).value == \
        pytest.approx(math.log(2), abs=1e-12)
    # (y + 3)(z + 2): slice measure log|3| + log max(1, |z + 2|)
    f0 = {(1, 1): 1, (1, 0): 2, (0, 1): 3, (0, 0): 6}
    assert heisenberg_infinite_measure(f0, {(0, 0): 2}, points=64).value == \
        pytest.approx(math.log(6), abs=1e-9)


def test_heisenberg_limit_takes_slice_maximum():
    # the larger of the two parts wins pointwise: max(log 2, log 5) = log 5
    got = heisenberg_infinite_measure({(0, 0): 2}, {(0, 0): 5}, points=8).value
    assert got == pytest.approx(math.log(5), abs=1e-12)


def test_heisenberg_limit_pure_y_unit():
    assert heisenberg_infinite_measure({(1, 0): 1}, {(0, 0): 1}, points=8).value == \
        pytest.approx(0.0, abs=1e-12)


def test_heisenberg_limit_zero_slice_detected():
    # f0 = (1 + z) y + (1 + z) vanishes identically on the slice z = -1,
    # t = 32 of 64; the part z - i vanishes first, at z = i (t = 16)
    f0 = {(1, 0): 1, (1, 1): 1, (0, 0): 1, (0, 1): 1}
    with pytest.raises(ZeroSlice, match="angle 32/64 "):
        heisenberg_infinite_measure(f0, {(0, 0): 1}, points=64)
    with pytest.raises(ZeroSlice, match="angle 16/64 "):
        heisenberg_infinite_measure(f0, {(0, 1): 1, (0, 0): -1j}, points=64)


def test_heisenberg_limit_mixes_slice_degrees():
    # f0 = (1 + z) y^2 + y + 2 drops to degree 1 at z = -1, so one grid
    # holds slices of two degrees; the reference solves each slice alone
    f0 = {(2, 0): 1, (2, 1): 1, (1, 0): 1, (0, 0): 2}
    points = 64
    per_slice = []
    for t in range(points):
        zv = cmath.exp(2j * math.pi * t / points)
        per_slice.append(max(mahler_measure([2, 1] if 2 * t == points else [2, 1, 1 + zv]), 0.0))
    got = heisenberg_infinite_measure(f0, {(0, 0): 1}, points=points)
    assert got.value == pytest.approx(sum(per_slice) / points, abs=1e-12)
    assert got.slices == points  # the constant part needs no roots
    assert got.max_iterations >= 1
    even = sum(per_slice[::2]) / (points // 2)
    assert got.error_estimate == pytest.approx(abs(sum(per_slice) / points - even), abs=1e-12)
    assert heisenberg_infinite_measure(f0, {(0, 0): 1}, points=63).error_estimate is None


def test_heisenberg_limit_memory_does_not_grow_with_points():
    # one unchunked (points, 5, 5) complex block would take 13 MB alone
    rng = random.Random(95)
    f0, fk = ({(ey, ez): rng.choice([-3, -2, -1, 1, 2, 3]) for ey in range(6) for ez in range(3)}
              for _ in range(2))
    heisenberg_infinite_measure(f0, fk, points=16)
    tracemalloc.start()
    try:
        got = heisenberg_infinite_measure(f0, fk, points=32768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.slices == 2 * 32768
    assert peak < 4 << 20


def test_heisenberg_limit_zero_input_rejected():
    with pytest.raises(ZeroPolynomial):
        heisenberg_infinite_measure({}, {(0, 0): 1})
