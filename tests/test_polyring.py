"""Integer polynomials in one variable, plus modular folding helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from groupdet import IntPoly
from groupdet.errors import InexactDivision
from groupdet.polyring import mul_fold_cyclic, pow_fold_cyclic


def _random_poly(rng, maxdeg=6, height=8):
    return IntPoly([rng.randint(-height, height)
                    for _ in range(rng.randint(0, maxdeg + 1))])


def test_normalization():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert not IntPoly([])
    assert IntPoly([5]).degree == 0
    assert IntPoly([]).degree == -1
    assert IntPoly([7, 1]).constant == 7


def test_arithmetic_against_convolution():
    rng = random.Random(41)
    for _ in range(100):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = a * b
        expect = [0] * (len(a.coeffs) + len(b.coeffs))
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                expect[i + j] += x * y
        assert c == IntPoly(expect)
        assert a + b == IntPoly([x + y for x, y in
                                 zip(a.padded(8), b.padded(8))])
        assert a - b == IntPoly([x - y for x, y in
                                 zip(a.padded(8), b.padded(8))])


def test_divexact_roundtrip_and_failure():
    rng = random.Random(42)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if not b:
            continue
        assert (a * b).divexact(b) == a
    with pytest.raises(InexactDivision):
        IntPoly([1, 1]).divexact(IntPoly([0, 1]))  # (1 + y) / y
    with pytest.raises(InexactDivision):
        IntPoly([1, 3]).divexact(IntPoly([2]))     # odd coefficient / 2


def test_fold():
    # y^3 = 1: 1 + y + 4 y^3 + y^5 folds to (1+4) + y + y^2
    f = IntPoly([1, 1, 0, 4, 0, 1])
    assert f.fold(3) == IntPoly([5, 1, 1])
    assert f.fold(1) == IntPoly([7])
    assert IntPoly([]).fold(4) == IntPoly([])


def test_eval_int():
    f = IntPoly([1, -2, 3])  # 1 - 2y + 3y^2
    assert f.eval_int(0) == 1
    assert f.eval_int(2) == 9
    assert f.eval_int(-1) == 6


def test_padded():
    assert IntPoly([1, 2]).padded(4) == [1, 2, 0, 0]
    with pytest.raises(ValueError):
        IntPoly([1, 2, 3]).padded(2)


def test_mul_fold_cyclic_matches_mul_then_fold():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
        got = mul_fold_cyclic(a, b, n)
        expect = (IntPoly(a) * IntPoly(b)).fold(n).padded(n)
        assert got == expect


def test_pow_fold_cyclic():
    # (1 + y)^3 mod y^3 - 1 = 1 + 3y + 3y^2 + y^3 -> 2 + 3y + 3y^2
    assert pow_fold_cyclic([1, 1], 3, 3) == [2, 3, 3]
    assert pow_fold_cyclic([1, 1], 0, 3) == [1, 0, 0]
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(1, 5)
        e = rng.randint(0, 6)
        a = [rng.randint(-3, 3) for _ in range(rng.randint(1, n + 2))]
        acc = IntPoly([1])
        for _ in range(e):
            acc = (acc * IntPoly(a)).fold(n)
        assert pow_fold_cyclic(a, e, n) == acc.fold(n).padded(n)


def test_rsub_with_int():
    assert 3 - IntPoly([1, 1]) == IntPoly([2, -1])
    assert IntPoly([1, 1]) + 2 == IntPoly([3, 1])


_polys = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9).map(IntPoly)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms_property(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a and a + b == b + a
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a * b).divexact(b) == a
