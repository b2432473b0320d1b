"""Bareiss determinant: cofactor oracle, algebraic identities, entry rings;
the multimodular integer determinant against Bareiss; the primality test."""

import random
from itertools import islice

import numpy as np
import pytest

from groupdet import CycInt, GroupDetError, InexactDivision, det_bareiss, det_int, is_prime
from groupdet import exactdet
from groupdet.errors import InvalidParameter
from groupdet.exactdet import MULTIMODULAR_CUTOFF
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
    from groupdet import GroupRingElt, build_group, group_determinant
    from groupdet.verify import h3_family_polys

    g = build_group("heisenberg", 3)
    label, poly = h3_family_polys(1)[3]
    assert label == "1+2x-x*phi(y)"
    assert group_determinant(GroupRingElt(g, poly.flat())) == 3 ** 14
    label0, poly0 = h3_family_polys(0)[3]
    assert group_determinant(GroupRingElt(g, poly0.flat())) == 0


# -- det_int: Bareiss below the cutoff, certified multimodular above ------


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 5000))
    top = exactdet._PRIME_BOUND - 1
    assert all(is_prime(n) == _trial_division(n) for n in range(top - 3000, top + 1))


@pytest.mark.parametrize("n", [561, 2047, 1373653, 25326001, 3215031751,
                               3825123056546413051])
def test_is_prime_rejects_carmichael_and_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2, to 2..3, to 2..5, to 2..7 and to
    # every prime base up to 23: the twelve bases still expose each one
    assert not is_prime(n)


def _first_primes(k):
    return list(islice(filter(is_prime, range(exactdet._PRIME_BOUND - 1, 2, -2)), k))


def _first_prime():
    return _first_primes(1)[0]


@pytest.mark.parametrize("n", [1, 2, MULTIMODULAR_CUTOFF - 1, MULTIMODULAR_CUTOFF, 64, 125])
def test_det_int_equals_bareiss(n):
    rng = random.Random(4000 + n)
    m = _random_matrix(rng, n)
    d = det_bareiss(m)
    assert d and det_int(m) == d
    assert isinstance(det_int(m), int)
    if n > 1:
        swapped = [m[1], m[0], *m[2:]]
        assert det_int(swapped) == -d
    else:
        assert det_int([[-abs(d)]]) == -abs(d)
    # singular: one row the sum of two others (or zero); rank n - 2
    singular = [row[:] for row in m]
    singular[-1] = [a + b for a, b in zip(m[0], m[1])] if n > 2 else [0] * n
    assert det_int(singular) == 0
    if n > 3:
        deficient = [row[:] for row in m]
        deficient[-2] = [2 * a - b for a, b in zip(m[0], m[1])]
        deficient[-1] = [a + 3 * b for a, b in zip(m[1], m[2])]
        assert det_int(deficient) == 0


@pytest.mark.parametrize("n", [MULTIMODULAR_CUTOFF, 64])
def test_det_int_hard_cases(n):
    rng = random.Random(5000 + n)
    q = _first_prime()
    m = _random_matrix(rng, n)
    d = det_bareiss(m)
    # a determinant divisible by the first prime used
    scaled = [[q * a for a in m[0]], *m[1:]]
    assert det_int(scaled) == q * d
    # a pivot that vanishes modulo the first prime only
    vanishing = [row[:] for row in m]
    vanishing[0][0] = q
    assert det_int(vanishing) == det_bareiss(vanishing)
    # entries above 2^63: a row operation keeps the determinant
    big = [m[0], [a + (2 ** 80 + 7) * b for a, b in zip(m[1], m[0])], *m[2:]]
    assert max(abs(a) for a in big[1]) > 2 ** 63
    assert det_int(big) == d
    wide = [[(2 ** 70 + 1) * a for a in m[0]], *m[1:]]
    assert det_int(wide) == (2 ** 70 + 1) * d


def test_det_int_bound_leaves_room_for_the_sign():
    # a diagonal determinant equals its Hadamard bound; just above half the
    # product of three primes, three primes cover |det| but not its sign
    q1, q2, q3 = _first_primes(3)
    d = q1 * q2 * q3 // 2 + 1
    n = MULTIMODULAR_CUTOFF
    for v in (d, -d):
        m = [[v if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        assert det_int(m) == v


def test_det_int_check_prime_catches_a_wrong_residue(monkeypatch):
    original = exactdet._det_mod

    def sabotaged(a, primes):
        res = original(a, primes)
        return res[:-1] + [(res[-1] + 1) % primes[-1]]

    monkeypatch.setattr(exactdet, "_det_mod", sabotaged)
    m = _random_matrix(random.Random(6000), MULTIMODULAR_CUTOFF)
    with pytest.raises(GroupDetError, match="fails its check"):
        det_int(m)


def test_det_mod_refuses_sizes_that_overflow_int64():
    # n q^2 + q passes 2^63 from n = 2049 for the largest prime below
    # 2^26; a zero-stride view, so no block is allocated
    a = np.broadcast_to(np.zeros(1, dtype=np.int64), (1, 2049, 2049))
    with pytest.raises(InvalidParameter, match="int64"):
        exactdet._det_mod(a, [_first_prime()])


def test_det_int_shape_validation():
    with pytest.raises(ValueError):
        det_int([])
    with pytest.raises(ValueError):
        det_int([[1] * MULTIMODULAR_CUTOFF] * (MULTIMODULAR_CUTOFF - 1) + [[1]])
