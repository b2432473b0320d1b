"""Congruence checks, the value-attaining construction, and sharp families."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    InexactDivision,
    InvalidParameter,
    PreconditionViolated,
    achieve_construction,
    check_measure_congruence,
    check_power_sum_congruence,
    check_symmetric_power_divisibility,
    circulant_det,
    h3_family_polys,
    h3_family_values,
    heisenberg_divisibility_check,
    heisenberg_measure,
    heisenberg_sharp_family,
    is_power_residue,
    p_valuation,
    random_heisenberg_poly,
    s1_classification_check,
    smallest_non_fermat_base,
    zp2_divisibility_check,
    zp2_sharp_family,
)
from groupdet.verify import _newton_power_sums, random_symmetric_instance


# -- valuations and residues -------------------------------------------------


def test_p_valuation():
    assert p_valuation(0, 3) == math.inf
    assert p_valuation(1, 3) == 0
    assert p_valuation(18, 3) == 2
    assert p_valuation(-54, 3) == 3
    assert p_valuation(250, 5) == 3


def test_is_power_residue():
    assert is_power_residue(26, 3, 3)       # 26^2 = 676 = 25*27 + 1
    assert not is_power_residue(2, 3, 3)
    assert not is_power_residue(6, 3, 3)    # not coprime
    assert is_power_residue(1, 7, 3)


def test_s1_classification():
    assert s1_classification_check(26, 3)
    assert s1_classification_check(28, 3)   # 28 = 27 + 1
    assert not s1_classification_check(2, 3)
    assert not s1_classification_check(9, 3)


# -- main congruence ----------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_measure_congruence_random(p):
    rng = random.Random(80 + p)
    for _ in range(20):
        rep = check_measure_congruence(random_heisenberg_poly(rng, p, 5))
        assert rep.holds
        assert rep.lhs_residue == rep.m % p ** 3
        assert rep.rhs_residue == pow(rep.base, p ** 3, p ** 3)


# -- the explicit value construction ------------------------------------------


def test_achieve_reference_value():
    poly, value = achieve_construction(2, 1, 3)
    assert value == 539 == 2 ** 9 + 27
    assert heisenberg_measure(poly).m == 539


def test_achieve_minus_twenty_six():
    _, value = achieve_construction(1, -1, 3)
    assert value == -26


@pytest.mark.parametrize("p", [3])
def test_achieve_grid(p):
    for a in (1, 2, 4):
        for m in range(-2, 3):
            _, value = achieve_construction(a, m, p)
            assert value == a ** (p * p) + m * p ** 3


def test_achieve_validation():
    with pytest.raises(InvalidParameter):
        achieve_construction(0, 1, 3)
    with pytest.raises(InvalidParameter):
        achieve_construction(1, 1, 4)
    with pytest.raises(InvalidParameter):
        achieve_construction(1, 1, 2)
    with pytest.raises(PreconditionViolated):
        achieve_construction(3, 1, 3)


# -- divisibility bounds and their sharpness ----------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_zp2_divisibility_random(p):
    rng = random.Random(81 + p)
    for _ in range(15):
        grid = [[rng.randint(-4, 4) for _ in range(p)] for _ in range(p)]
        total = sum(sum(r) for r in grid)
        grid[0][0] -= total % p  # force p | F(1,1)
        rep = zp2_divisibility_check(grid, p)
        assert rep.applicable
        assert rep.meets_bound
        assert rep.actual_valuation >= p + 3


def test_zp2_check_not_applicable_when_coprime():
    rep = zp2_divisibility_check([[1, 1], [0, 0], [0, 0]], 3)  # F(1,1) = 2
    assert not rep.applicable
    assert rep.meets_bound  # vacuously


@pytest.mark.parametrize("k", [0, 1, 2])
def test_zp2_sharp_family_exact(k):
    _, rep = zp2_sharp_family(5, k)
    assert rep.exact
    assert rep.actual_valuation == 5 + 3 + k


def test_zp2_sharp_family_validation():
    with pytest.raises(InvalidParameter):
        zp2_sharp_family(3)
    with pytest.raises(InvalidParameter):
        zp2_sharp_family(5, -1)
    with pytest.raises(PreconditionViolated):
        zp2_sharp_family(5, 0, units=(5, 1, 1))


def test_heisenberg_divisibility_random():
    rng = random.Random(82)
    hits = 0
    while hits < 20:
        f = random_heisenberg_poly(rng, 3, 4)
        shift = f.value_at_one() % 3
        if shift:
            f.add_term(0, 0, 0, -shift)  # force 3 | F(1,1,1)
        rep = heisenberg_divisibility_check(f)
        assert rep.applicable and rep.meets_bound
        assert rep.actual_valuation >= 12
        hits += 1


def test_smallest_non_fermat_base():
    assert smallest_non_fermat_base(5) == 2
    assert smallest_non_fermat_base(7) == 2
    # the two known primes where 2 satisfies the Fermat-quotient
    # coincidence; the next base works
    assert smallest_non_fermat_base(1093) == 3
    assert smallest_non_fermat_base(3511) == 3
    with pytest.raises(InvalidParameter):
        smallest_non_fermat_base(4)


def test_heisenberg_sharp_family_p5():
    f, rep = heisenberg_sharp_family(5)
    assert rep.exact
    assert rep.actual_valuation == 28 == 5 * 5 + 3
    assert rep.value == heisenberg_measure(f).m


# -- the five explicit order-27 families --------------------------------------


def test_families_match_closed_forms_small_range():
    for m in range(-2, 3):
        for fv in h3_family_values(m):
            assert fv.matches, (fv.label, m)


def test_family_claimed_values():
    by_label = {fv.label: fv.claimed for fv in h3_family_values(2)}
    assert by_label["z+y-y2+(y+1)x"] == 3 ** 12 * 19
    assert by_label["1+2x+x2*phi(y)"] == 3 ** 12 * 20
    assert by_label["1+2x+(z+x2)phi(y)"] == 3 ** 13 * 7
    assert by_label["1+2x-x*phi(y)"] == 3 ** 14 * 2
    assert by_label["1+y-y2+(y+1)x+phi(x)phi(y)+(z-1)phi(y)+(z-1)2x*phi(y)"] \
        == 3 ** 12 * 22


def test_negated_family_inputs_negate_values():
    # odd group order makes the determinant an odd function of F
    for label, poly in h3_family_polys(1):
        neg = poly.__class__.from_terms(
            3, [(e, -c) for e, c in poly.nonzero_terms()])
        assert heisenberg_measure(neg).m == -heisenberg_measure(poly).m


# -- power-sum congruence and symmetric-power divisibility ---------------------


def test_power_sum_congruence_simple_case():
    # f = 1 + y at p = 3: constant of f^3 mod y^3-1 is 2, circulant
    # determinant of (1,1,0) is 2, and 2 = 2 mod 9
    assert circulant_det([1, 1, 0], 3) == 2
    assert check_power_sum_congruence([1, 1], 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_power_sum_congruence_random(p):
    rng = random.Random(83 + p)
    for _ in range(25):
        coeffs = [rng.randint(-6, 6) for _ in range(p)]
        assert check_power_sum_congruence(coeffs, p)


def test_symmetric_power_divisibility_worked_case():
    # P = 1 + 3y + 3y^2 at p = 3: E_1 = 0 and E_2 = 27, both multiples of 27
    assert check_symmetric_power_divisibility([1, 3, 3], 3)


def test_symmetric_power_preconditions():
    with pytest.raises(PreconditionViolated):
        check_symmetric_power_divisibility([1, 3, 3], 5)   # 5 does not divide 3
    with pytest.raises(PreconditionViolated):
        check_symmetric_power_divisibility([2, 3, 3], 3)   # constant != 1
    with pytest.raises(PreconditionViolated):
        check_symmetric_power_divisibility([1, 3, 0, 3, 3, 3], 3)  # degree >= p


@pytest.mark.parametrize("p", [3, 5])
def test_symmetric_power_divisibility_random(p):
    rng = random.Random(84 + p)
    for _ in range(20):
        coeffs = random_symmetric_instance(rng, p, 4)
        assert check_symmetric_power_divisibility(coeffs, p)


def test_newton_power_sums_known_roots():
    # prod(1 + a y) for a in {2, 3}: e = (5, 6), s_k = 2^k + 3^k
    s = _newton_power_sums((5, 6), 4)
    assert s == [5, 13, 35, 97]
    # single root 1 + 7y
    assert _newton_power_sums((7,), 3) == [7, 49, 343]


def test_random_instance_shapes():
    rng = random.Random(85)
    f = random_heisenberg_poly(rng, 5, 3)
    assert all(abs(c) <= 3 for c in f.flat())
    for _ in range(20):
        coeffs = random_symmetric_instance(rng, 7, 5)
        assert coeffs[0] == 1
        assert len(coeffs) <= 7
        assert all(c % 7 == 0 for c in coeffs[1:])
        assert any(coeffs[1:])


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), height=st.integers(1, 4), seed=st.integers(0, 2 ** 32))
def test_congruence_and_coprime_residue_property(p, height, seed):
    # M = F(1,1,1)^(p^3) mod p^3, so a coprime M is a (p^2)-th power mod p^3
    f = random_heisenberg_poly(random.Random(seed), p, height)
    m = heisenberg_measure(f).m
    mod = p ** 3
    assert m % mod == pow(f.value_at_one(), mod, mod)
    if m % p:
        assert pow(m, p - 1, mod) == 1
