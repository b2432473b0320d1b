"""The one integer polynomial product: cyclic products, folded powers and
the correlation f f~."""

import random

from hypothesis import given, settings, strategies as st

from groupdet.polyring import mul_fold_cyclic, pow_fold_cyclic, times_reciprocal


def _convolve(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fold(f, n):
    out = [0] * n
    for e, c in enumerate(f):
        out[e % n] += c
    return out


def test_arithmetic_against_convolution():
    # a cyclic length of at least len(a) + len(b) - 1 never wraps: the
    # infinite dihedral measures rely on this for the plain product
    rng = random.Random(41)
    for _ in range(100):
        a = [rng.randint(-8, 8) for _ in range(rng.randint(1, 7))]
        b = [rng.randint(-8, 8) for _ in range(rng.randint(1, 7))]
        n = len(a) + len(b) - 1 + rng.randint(0, 2)
        assert mul_fold_cyclic(a, b, n) == _convolve(a, b) + [0] * (n - len(a) - len(b) + 1)


def test_fold():
    # y^3 = 1: 1 + y + 4 y^3 + y^5 folds to (1+4) + y + y^2
    f = [1, 1, 0, 4, 0, 1]
    assert mul_fold_cyclic(f, [1], 3) == [5, 1, 1]
    assert mul_fold_cyclic(f, [1], 1) == [7]
    assert mul_fold_cyclic([], [1], 4) == [0, 0, 0, 0]


def test_mul_fold_cyclic_matches_mul_then_fold():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
        assert mul_fold_cyclic(a, b, n) == _fold(_convolve(a, b), n)


def test_pow_fold_cyclic():
    # (1 + y)^3 mod y^3 - 1 = 1 + 3y + 3y^2 + y^3 -> 2 + 3y + 3y^2
    assert pow_fold_cyclic([1, 1], 3, 3) == [2, 3, 3]
    assert pow_fold_cyclic([1, 1], 0, 3) == [1, 0, 0]
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(1, 5)
        e = rng.randint(0, 6)
        a = [rng.randint(-3, 3) for _ in range(rng.randint(1, n + 2))]
        acc = [1]
        for _ in range(e):
            acc = _fold(_convolve(acc, a), n)
        assert pow_fold_cyclic(a, e, n) == _fold(acc, n)


def test_times_reciprocal():
    # (1 + 2y + 3y^2)(1 + 2/y + 3/y^2) = 3/y^2 + 8/y + 14 + 8y + 3y^2:
    # modulo y^5 - 1 nothing wraps and y^-d sits at index 5 - d
    assert times_reciprocal([1, 2, 3], 5) == [14, 8, 3, 3, 8]
    # modulo y^2 - 1, f folds to 4 + 2y first: (4 + 2y)(4 + 2/y) = 20 + 16y
    assert times_reciprocal([1, 2, 3], 2) == [20, 16]
    rng = random.Random(45)
    for _ in range(30):
        m = rng.randint(1, 7)
        f = [rng.randint(-5, 5) for _ in range(rng.randint(0, 9))]
        expect = [0] * m
        for i, x in enumerate(f):
            for j, y in enumerate(f):
                expect[(i - j) % m] += x * y
        assert times_reciprocal(f, m) == expect


_polys = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_polys, _polys, _polys, st.integers(1, 7))
def test_ring_axioms_property(a, b, c, n):
    def mul(x, y):
        return mul_fold_cyclic(x, y, n)

    def add(x, y):
        return [u + v for u, v in zip(_fold(x, n), _fold(y, n))]

    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, [1]) == _fold(a, n)
