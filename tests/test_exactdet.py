"""Bareiss determinant: cofactor oracle, algebraic identities, entry rings."""

import random

import pytest

from groupdet import CycInt, InexactDivision, det_bareiss
from groupdet.polyring import IntPoly


def _det_cofactor(rows):
    """Textbook cofactor expansion; only sane for n <= 6."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, c in enumerate(rows[0]):
        if not c:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = c * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_against_cofactor_expansion():
    rng = random.Random(20240901)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n)
        assert det_bareiss(m) == _det_cofactor(m)


def test_permutation_matrix_gives_sign():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        m = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        # count inversions for the expected sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        assert det_bareiss(m) == (-1) ** inv


def test_row_scaling_scales_determinant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = _random_matrix(rng, n)
        d = det_bareiss(m)
        c = rng.choice([-3, -1, 2, 5])
        k = rng.randrange(n)
        scaled = [row[:] for row in m]
        scaled[k] = [c * x for x in scaled[k]]
        assert det_bareiss(scaled) == c * d


def test_row_swap_flips_sign():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = _random_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        swapped = [row[:] for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_bareiss(swapped) == -det_bareiss(m)


def test_zero_column_short_circuits_to_zero():
    m = [[1, 0, 2], [3, 0, 4], [5, 0, 6]]
    assert det_bareiss(m) == 0


def test_singular_after_elimination():
    # rank-1 matrix: zero determinant discovered mid-elimination
    m = [[i * j for j in range(1, 5)] for i in range(1, 5)]
    assert det_bareiss(m) == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        det_bareiss([])
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])


def test_large_matrix_known_determinant():
    # L (unit lower) times U (upper) has determinant prod(diag(U));
    # n = 14 exercises the big-integer conversion path.
    rng = random.Random(31)
    n = 14
    lower = [[rng.randint(-4, 4) if j < i else (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
    diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
    upper = [[rng.randint(-4, 4) if j > i else (diag[i] if i == j else 0)
              for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    expect = 1
    for d in diag:
        expect *= d
    assert det_bareiss(prod) == expect
    assert isinstance(det_bareiss(prod), int)


def test_cyclotomic_entries_galois_equivariance():
    # det(sigma(A)) = sigma(det(A)) for the coefficient-permuting maps
    rng = random.Random(33)
    p = 5
    for _ in range(10):
        a = [[CycInt(p, [rng.randint(-3, 3) for _ in range(p - 1)])
              for _ in range(3)] for _ in range(3)]
        d = det_bareiss(a)
        for k in range(1, p):
            mapped = [[x.galois(k) for x in row] for row in a]
            assert det_bareiss(mapped) == d.galois(k)


def test_polynomial_entries():
    x = IntPoly([0, 1])
    one = IntPoly([1])
    # Vandermonde-flavored 2x2 over Z[y]: det = x*x - 1
    d = det_bareiss([[x, one], [one, x]])
    assert d == IntPoly([-1, 0, 1])


def test_inexact_division_is_reported():
    class Stub:
        """Integer-like entries whose division refuses to be exact."""

        def __init__(self, v):
            self.v = v

        def __mul__(self, o):
            return Stub(self.v * o.v)

        def __sub__(self, o):
            return Stub(self.v - o.v)

        def __neg__(self):
            return Stub(-self.v)

        def __bool__(self):
            return bool(self.v)

        def __divmod__(self, o):
            return Stub(0), Stub(1)  # always claim a remainder

    m = [[Stub(2), Stub(3), Stub(1)],
         [Stub(4), Stub(1), Stub(2)],
         [Stub(5), Stub(2), Stub(2)]]
    with pytest.raises(InexactDivision):
        det_bareiss(m)


def test_heisenberg_cayley_27x27_family_value():
    # the explicit 27-element family with closed value 3^14 * m
    from groupdet import group_determinant, to_group_ring
    from groupdet.verify import h3_family_polys

    label, poly = h3_family_polys(1)[3]
    assert label == "1+2x-x*phi(y)"
    assert group_determinant(to_group_ring(poly)) == 3 ** 14
    label0, poly0 = h3_family_polys(0)[3]
    assert group_determinant(to_group_ring(poly0)) == 0
