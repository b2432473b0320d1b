"""Arithmetic in Z[w] for w a primitive p-th root of unity.

Canonical coordinates are the power basis 1, w, ..., w^(p-2); every
frozen tuple below was reduced by hand from w^(p-1) = -(1 + w + ... +
w^(p-2)).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from groupdet import CycInt, InexactDivision, is_prime
from groupdet.cyclotomic import eval_bivariate_at_roots
from groupdet.errors import PrimeMismatch


def _random_elt(rng, p, height=5):
    return CycInt(p, [rng.randint(-height, height) for _ in range(p - 1)])


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 1093}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert is_prime(1093)


def test_square_of_one_minus_root():
    # (1 - w)^2 = 1 - 2w + w^2 and w^2 = -1 - w at p = 3, so (0, -3)
    p = 3
    u = CycInt.from_int(p, 1) - CycInt.root(p)
    assert (u * u).coeffs == (0, -3)


def test_root_times_root():
    # w * w at p = 3 lands on the reduced representative -1 - w
    w = CycInt.root(3)
    assert (w * w).coeffs == (-1, -1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_minimal_polynomial_vanishes(p):
    for k in range(1, p):
        s = CycInt.zero(p)
        for i in range(p):
            s = s + CycInt.root(p, k) ** i
        assert not s
    # ... while at 1 the same sum is p
    assert sum((CycInt.one(p) for _ in range(p)), CycInt.zero(p)) \
        == CycInt.from_int(p, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ring_axioms_random(p):
    rng = random.Random(100 + p)
    for _ in range(60):
        a, b, c = (_random_elt(rng, p) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == CycInt.zero(p)
        assert a * CycInt.one(p) == a


def test_power_matches_repeated_multiplication():
    rng = random.Random(5)
    for p in (3, 5):
        a = _random_elt(rng, p, 3)
        acc = CycInt.one(p)
        for e in range(8):
            assert a ** e == acc
            acc = acc * a


def test_from_exponent_vector():
    # vec[k] counts w^k: 2 + w - 3 w^2 at p = 3 reduces to (5, 4)
    v = CycInt.from_exponent_vector(3, [2, 1, -3])
    assert v == CycInt.from_int(3, 2) + CycInt.root(3) * 1 \
        - (CycInt.root(3) ** 2) * 3
    assert v.coeffs == (5, 4)


def test_galois_maps_are_ring_maps():
    rng = random.Random(6)
    p = 5
    for _ in range(20):
        a, b = _random_elt(rng, p), _random_elt(rng, p)
        for k in range(1, p):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    w = CycInt.root(p)
    assert w.galois(3) == w ** 3


def test_norm_and_conjugates():
    p = 5
    u = CycInt.from_int(p, 1) - CycInt.root(p)
    # u times its conjugates is the norm, and N(1 - w) = p
    assert u * u.conjugates_product() == CycInt.from_int(p, p)
    assert u.norm() == p
    rng = random.Random(7)
    for _ in range(20):
        a = _random_elt(rng, p, 3)
        assert (a * a.conjugates_product()).as_integer() == a.norm()


def test_as_integer():
    assert CycInt.from_int(7, -12).as_integer() == -12
    assert CycInt.root(7).as_integer() is None


def test_divexact_roundtrip():
    rng = random.Random(9)
    for p in (3, 5, 7):
        for _ in range(30):
            a = _random_elt(rng, p)
            b = _random_elt(rng, p)
            if not b:
                continue
            assert (a * b).divexact(b) == a


def test_divexact_rejects_inexact():
    p = 5
    w = CycInt.root(p)
    two = CycInt.from_int(p, 2)
    with pytest.raises(InexactDivision):
        (w + CycInt.one(p)).divexact(two)


def test_divexact_with_a_warm_divisor_still_certifies(monkeypatch):
    p = 5
    rng = random.Random(10)
    d = CycInt.from_int(p, 2) + CycInt.root(p)  # norm 11, not a unit
    a = _random_elt(rng, p)
    assert (a * d).divexact(d) == a
    assert d.norm() == 11
    zero = CycInt.zero(p)
    assert zero.norm() == 0
    # both divisors now carry their clearing data; recomputing it fails
    def recompute(self):
        raise RuntimeError("clearing data recomputed")

    monkeypatch.setattr(CycInt, "conjugates_product", recompute)
    b = _random_elt(rng, p)
    assert (b * d).divexact(d) == b
    with pytest.raises(InexactDivision):
        (a * d + 1).divexact(d)
    with pytest.raises(ZeroDivisionError):
        a.divexact(zero)
    with pytest.raises(ZeroDivisionError):
        a.divexact(zero)


def test_mixed_primes_rejected():
    with pytest.raises(PrimeMismatch):
        CycInt.root(3) + CycInt.root(5)
    with pytest.raises(PrimeMismatch):
        CycInt.root(3) * CycInt.root(5)


def test_eval_bivariate_at_roots_one_row():
    # z^2 + 2 at z = w^k, p = 5: a grid with the single row y^0
    p = 5
    coeffs = [2, 0, 1]
    for k in range(p):
        expect = CycInt.root(p, k) ** 2 + CycInt.from_int(p, 2)
        assert eval_bivariate_at_roots([coeffs], 0, k, p) == expect
    assert eval_bivariate_at_roots([coeffs], 0, 0, p).as_integer() == 3


def test_integer_coercion_in_arithmetic():
    p = 3
    w = CycInt.root(p)
    assert w + 1 == CycInt(p, [1, 1])
    assert 1 - w == CycInt(p, [1, -1])
    assert w * 2 == CycInt(p, [0, 2])


@st.composite
def _cycint_triples(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    coords = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=p - 1, max_size=p - 1)
    return tuple(CycInt(p, draw(coords)) for _ in range(3))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_cycint_triples())
def test_ring_axioms_property(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a and a + b == b + a
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a * b).divexact(b) == a
