"""The multimodular integer determinant: cofactor oracle, algebraic
identities, and agreement with a test-local Bareiss elimination over Z at
every size; the primality test."""

import hashlib
import math
import random
from itertools import islice

import numpy as np
import pytest

from groupdet import GroupDetError, det_int, is_prime
from groupdet import exactdet
from groupdet.errors import InvalidParameter


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


def _bareiss(rows):
    """Bareiss elimination over Z, an independent reference for det_int:
    every interior division is exact by the Sylvester identity."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j], r = divmod(num, prev)
                if r:
                    raise ArithmeticError(f"{num} is not divisible by {prev}")
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_against_cofactor_expansion():
    rng = random.Random(20240901)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n)
        assert det_int(m) == _det_cofactor(m)


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
        assert det_int(m) == (-1) ** inv


def test_row_scaling_scales_determinant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = _random_matrix(rng, n)
        d = det_int(m)
        c = rng.choice([-3, -1, 2, 5])
        k = rng.randrange(n)
        scaled = [row[:] for row in m]
        scaled[k] = [c * x for x in scaled[k]]
        assert det_int(scaled) == c * d


def test_row_swap_flips_sign():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = _random_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        swapped = [row[:] for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_int(swapped) == -det_int(m)


def test_zero_column_short_circuits_to_zero():
    m = [[1, 0, 2], [3, 0, 4], [5, 0, 6]]
    assert det_int(m) == 0


def test_singular_after_elimination():
    # rank-1 matrix: zero determinant discovered mid-elimination
    m = [[i * j for j in range(1, 5)] for i in range(1, 5)]
    assert det_int(m) == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        det_int([])
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])


def test_large_matrix_known_determinant():
    # L (unit lower) times U (upper) has determinant prod(diag(U))
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
    assert det_int(prod) == expect
    assert isinstance(det_int(prod), int)


@pytest.mark.parametrize("count", [5, 300])
def test_inverse_mod_on_both_sides_of_its_cutoff(count):
    # Python's pow for short arrays, square and multiply for long ones
    rng = random.Random(count)
    q = np.array(_first_primes(3) * count, dtype=np.int64)[:count]
    v = np.array([rng.randrange(int(m)) for m in q], dtype=np.int64)
    v[0] = 0
    got = exactdet._inverse_mod(v, q).tolist()
    assert got[0] == 0
    assert got[1:] == [pow(int(x), -1, int(m)) for x, m in zip(v[1:], q[1:])]


def test_heisenberg_cayley_27x27_family_value():
    # the explicit 27-element family with closed value 3^14 * m
    from groupdet import GroupRingElt, build_group, group_determinant
    from groupdet.verify import h3_family_polys

    g = build_group("heisenberg", 3)
    label, poly = h3_family_polys(1)[3]
    assert label == "1+2x-x*phi(y)"
    assert group_determinant(GroupRingElt(g, poly)) == 3 ** 14
    label0, poly0 = h3_family_polys(0)[3]
    assert group_determinant(GroupRingElt(g, poly0)) == 0


# -- det_int against Bareiss, and its certificate -----------------------------


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


@pytest.mark.parametrize("n", [1, 2, 8, 31, 32, 64, 125])
def test_det_int_equals_bareiss(n):
    rng = random.Random(4000 + n)
    m = _random_matrix(rng, n)
    d = _bareiss(m)
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


@pytest.mark.parametrize("n", [32, 64])
def test_det_int_hard_cases(n):
    rng = random.Random(5000 + n)
    q = _first_prime()
    m = _random_matrix(rng, n)
    d = _bareiss(m)
    # a determinant divisible by the first prime used
    scaled = [[q * a for a in m[0]], *m[1:]]
    assert det_int(scaled) == q * d
    # a pivot that vanishes modulo the first prime only
    vanishing = [row[:] for row in m]
    vanishing[0][0] = q
    assert det_int(vanishing) == _bareiss(vanishing)
    # entries above 2^63: a row operation keeps the determinant
    big = [m[0], [a + (2 ** 80 + 7) * b for a, b in zip(m[1], m[0])], *m[2:]]
    assert max(abs(a) for a in big[1]) > 2 ** 63
    assert det_int(big) == d
    wide = [[(2 ** 70 + 1) * a for a in m[0]], *m[1:]]
    assert det_int(wide) == (2 ** 70 + 1) * d


def test_det_int_bound_leaves_room_for_the_sign():
    # a 1 x 1 determinant equals its Hadamard bound; just above half the
    # product of three primes, three primes cover |det| but not its sign.
    # A diagonal 8 x 8 matrix of the same determinant has a larger bound,
    # (largest row norm)^8, since its rows differ in norm
    q1, q2, q3 = _first_primes(3)
    d = q1 * q2 * q3 // 2 + 1
    n = 8
    for v in (d, -d):
        assert det_int([[v]]) == v
        m = [[v if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        assert det_int(m) == v


def test_det_int_check_prime_catches_a_wrong_residue(monkeypatch):
    original = exactdet._det_mod

    def sabotaged(a, primes):
        res = original(a, primes)
        return res[:-1] + [(res[-1] + 1) % primes[-1]]

    monkeypatch.setattr(exactdet, "_det_mod", sabotaged)
    m = _random_matrix(random.Random(6000), 8)
    with pytest.raises(GroupDetError, match="fails its check"):
        det_int(m)


def _old_modular_primes(bound_sq, n):
    """The selection as first written: square the modulus after each prime."""
    primes, modulus = [], 1
    for q in exactdet._primes_1_mod(n):
        primes.append(q)
        if modulus * modulus > 4 * bound_sq:
            return primes, modulus
        modulus *= q


@pytest.mark.parametrize("n", [2, 7, 125])
def test_modular_primes_cover_twice_the_bound_and_no_more(n):
    # the primes before the check prime multiply to the modulus, whose
    # square exceeds 4 bound_sq; without their last prime it does not
    rng = random.Random(8000 + n)
    q = list(islice(exactdet._primes_1_mod(n), 3))
    m1, m2 = q[0], q[0] * q[1]
    bounds = [0, 1, 2, rng.getrandbits(300), rng.getrandbits(1500)]
    # 4 bound_sq the even square just below or just above a modulus^2,
    # which is odd; then just below and above m2^2 but not a square
    bounds += [t * t for m in (m1, m2) for t in ((m - 1) // 2, (m + 1) // 2)]
    bounds += [(m2 * m2) // 4 + d for d in (-1, 1)]
    for bound_sq in bounds:
        primes, modulus = exactdet.modular_primes(bound_sq, n)
        assert (primes, modulus) == _old_modular_primes(bound_sq, n)
        assert math.prod(primes[:-1]) == modulus
        assert modulus * modulus > 4 * bound_sq
        assert len(primes) == 1 or (modulus // primes[-2]) ** 2 <= 4 * bound_sq


@pytest.mark.parametrize("order, most_passes, peak_mb", [(125, 1, 6), (300, 11, 8)])
def test_det_int_block_passes_and_memory(monkeypatch, traced_peak, order, most_passes, peak_mb):
    # a circulant with coefficients in [-2, 2], as the oracle builds: one
    # _det_mod pass at order 125 (21 primes in one 4 MB block), passes of
    # 5 primes at order 300; the block and the product buffers keep the
    # traced peak within a few MB
    from groupdet.groups import KINDS, GroupRingElt, build_group, cayley_matrix

    rng = random.Random(9000 + order)
    coeffs = [rng.randint(-2, 2) for _ in range(order)]
    m = cayley_matrix(GroupRingElt(build_group("cyclic", order), coeffs))
    _, exact = KINDS["cyclic"].route((order,))
    passes = []
    original = exactdet._det_mod

    def counted(a, primes):
        passes.append(len(primes))
        return original(a, primes)

    monkeypatch.setattr(exactdet, "_det_mod", counted)
    d, peak = traced_peak(lambda: det_int(m))
    assert d == exact([coeffs])[0] != 0
    assert len(passes) <= most_passes
    assert peak <= peak_mb << 20, f"{peak / 2**20:.2f} MB"


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
        det_int([[1] * 32] * 31 + [[1]])


# -- the panel elimination of _det_mod ----------------------------------------

W = exactdet._PANEL


def _residues(m, qs):
    block = np.array([[[x % q for x in r] for r in m] for q in qs], dtype=np.int64)
    return exactdet._det_mod(block, qs)


def _panel_cases(rng, n):
    """(name, matrix, determinant or None for Bareiss) for one size."""
    dense = _random_matrix(rng, n)
    # a zero leading block: the first panel's pivots come from rows below it
    z = min(W, n // 2)
    zero_lead = [[0 if i < z and j < z else rng.randint(-5, 5) for j in range(n)]
                 for i in range(n)]
    # a signed, scaled permutation: det = sign(perm) * product of the scales
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
    sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    permutation = [[scale[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    # singular: the last row the sum of the first two (or zero)
    singular = [row[:] for row in dense]
    singular[-1] = [a + b for a, b in zip(dense[0], dense[1])] if n > 2 else [0] * n
    return [("dense", dense, None), ("zero-lead", zero_lead, None),
            ("permutation", permutation, sign * math.prod(scale)), ("singular", singular, 0)]


@pytest.mark.parametrize("n", [W - 1, W, W + 1, 2 * W + 1, 97])
def test_panel_elimination_matches_bareiss(n):
    rng = random.Random(7000 + n)
    qs = _first_primes(3)
    for name, m, d in _panel_cases(rng, n):
        if d is None:
            d = _bareiss(m)
        assert _residues(m, qs) == [d % q for q in qs], name


def test_panel_elimination_with_21_primes_in_a_block():
    # the batch of a dense order-125 Cayley matrix: 21 primes in one block,
    # each trailing update taken in several steps through the buffers
    rng = random.Random(7200)
    qs = _first_primes(21)
    for name, m, d in _panel_cases(rng, 97):
        if d is None:
            d = _bareiss(m)
        assert _residues(m, qs) == [d % q for q in qs], name


def test_panel_elimination_with_a_column_vanishing_modulo_q():
    # column W + 2, past the first panel, is a nonzero multiple of the first
    # prime: that residue is 0, the others are not
    n = 2 * W + 5
    rng = random.Random(7100)
    qs = _first_primes(3)
    m = _random_matrix(rng, n)
    for r in m:
        r[W + 2] = qs[0] * rng.choice([-2, -1, 1, 2])
    d = _bareiss(m)
    assert d and _residues(m, qs) == [d % q for q in qs]
    assert _residues(m, qs)[0] == 0


@pytest.mark.parametrize("p, seed, bits, digest", [
    (17, 1917, 29111, "213fe1873547746cbf7cdfd3571fa84f95b0e9f7568911da47c75ec33c06c5b2"),
    (19, 1919, 42143, "1cb83b8dad17688882aca9fe5d25b79908322c90835e4ed6da2f7a163e1f3e8b"),
])
def test_heisenberg_blocks_wider_than_a_panel_keep_their_values(p, seed, bits, digest):
    # the p x p blocks of M2 take the trailing update once p > W; the value
    # of compute on these rows, recorded with the unblocked elimination,
    # pinned by its bit length and the SHA-256 of its hex form
    from groupdet.groups import KINDS
    from groupdet.verify import random_heisenberg_poly

    assert p > W
    row = random_heisenberg_poly(random.Random(seed), p, 2)
    _, exact = KINDS["heisenberg"].route((p,))
    m = exact([row])[0]
    assert m.bit_length() == bits
    assert hashlib.sha256(hex(m).encode()).hexdigest() == digest
