"""Factorized exact group determinants, by evaluation at roots of unity.

Each fast route is a product of determinants whose entries are integer
polynomials at roots of unity, and one engine, ``_at_roots``, computes it
for a chunk of coefficient rows at once.  Modulo primes q = 1 (mod N) an
element w of order N stands in for the complex root: the rows are
reduced, evaluated at the characters by a Fourier transform modulo q
(Pollard 1971), a cyclic factor at a time, and multiplied out, and
``exactdet.crt_values`` recovers each value past a bound that the caller
supplies and checks it against one further prime.

* ``abelian_measure``, for every product of cyclic groups: the product of
  the character values.  Over (Z_p)^n with n >= 2 each value is a
  length-p exponent accumulator evaluated at one p-th root w, under the
  accumulator bound below; every other product, Z_n included, is
  evaluated at each character directly, under twice the Hadamard bound of
  the Cayley matrix.  ``char_product_2d`` places a Z_p x Z_p coefficient
  grid for it.
* ``dihedral_measure`` and ``dicyclic_measure``: one value at each root
  of a two-part row [f, g], under twice the Hadamard bound.
* ``heisenberg_factorizations``, for the order-p^3 Heisenberg group on
  the flat label-order vectors of ``KINDS["heisenberg"].flat_coeffs``:
  M = M1 * M2^p with M1 the character product of F(x, y, 1) and M2 the
  product of the p - 1 block determinants det D(w^j), every block
  eliminated modulo q by ``exactdet._det_mod``.  ``heisenberg_measure``
  is its one-row form, ``heisenberg_binomial_measure`` the two-product
  shortcut for F = f0 + x^k fk, and ``measure_h3`` a batched int64 kernel
  over Z[w] for p = 3.

The character and Heisenberg bounds come from the exact accumulators: a
value sum_e acc_e w^e at a p-th root w != 1 is sum_e (acc_e - t) w^e for
any integer t, since the powers of w sum to zero, so its absolute value
is at most sum_e |acc_e - t| (``_spread``, t a median), for every Galois
conjugate alike.  Every route returns exact integers and is checked
against the Cayley-matrix oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .errors import GroupDetError, InvalidParameter, NotInteger
from .exactdet import (_PRIME_BOUND, _det_mod, _exact_rows, _hadamard_sq, _pow_mod, crt_values,
                       is_prime, modular_primes)

# rows x cells of one pass over a chunk: each int64 array of a pass stays
# within 8 MB, so memory does not grow with the chunk
_ROOT_CELLS = 1 << 20
_RADIX = 64  # the longest contraction of a composite length, see ``_plan``


def _chunked(f, a, cells: int) -> list:
    # f over slices of the rows of a, each of at most _ROOT_CELLS cells
    step = max(1, _ROOT_CELLS // cells)
    return [v for i in range(0, len(a), step) for v in f(a[i:i + step])]


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple:  # least first
    return tuple(r for r in range(2, n + 1) if n % r == 0 and is_prime(r))


@lru_cache(maxsize=None)
def _root_of_unity(q: int, order: int) -> int:
    """An element of exact multiplicative order ``order`` modulo the prime
    q = 1 (mod order): some w = g^((q - 1) / order) with w^order = 1 and
    no power w^(order / r) equal to 1 for a prime r dividing the order."""
    for g in range(1, q):
        w = pow(g, (q - 1) // order, q)
        if pow(w, order, q) == 1 and all(pow(w, order // r, q) != 1 for r in _prime_factors(order)):
            return w
    raise GroupDetError(f"no element of order {order} modulo {q}")


def _powers(primes, order: int):
    """w^0, ..., w^(order - 1) modulo each q of ``primes`` for the w of
    ``_root_of_unity``, a (primes, order) int64 array, by doubling."""
    q = np.array(primes, dtype=np.int64)[:, None]
    step = np.array([_root_of_unity(p, order) for p in primes], dtype=np.int64)[:, None]
    pw = np.ones((len(q), order), dtype=np.int64)
    m = 1
    while m < order:
        pw[:, m:2 * m] = pw[:, :min(m, order - m)] * step % q
        m, step = 2 * m, step * step % q
    return pw


def _prod_mod(v, q):
    """The product over axis 1 of v modulo q, entries in [0, q)."""
    while v.shape[1] > 1:  # multiply out in halves
        half = v.shape[1] // 2
        v = np.concatenate([v[:, :half] * v[:, half:2 * half] % q, v[:, 2 * half:]], axis=1)
    return v[:, 0]


def _plan(n: int, big: int, cols=slice(None)):
    """How to evaluate sum_j a_j v^(j k) at the k in ``cols`` of range(n),
    v = w^(big / n) for w of order big, gathering ``cells`` powers of w:
    (cells, E) for one contraction, E[j, k] = (j k mod n) big / n, where n
    is prime or at most _RADIX; else (cells, cols, E of f, twiddles, plan
    of n / f) for a Cooley-Tukey step, j = (n / f) j1 + j2, k = k1 + f k2,
    f = max(least prime factor of n, largest divisor of n <= _RADIX)."""
    j, least = np.arange(n), min(_prime_factors(n), default=1)
    f = max(d for d in range(1, min(n, max(_RADIX, least)) + 1) if n % d == 0)
    if f == n:
        if n * _PRIME_BOUND ** 2 >= 1 << 63:  # a sum of n products of residues
            raise InvalidParameter(f"the prime factor {n} is too large for int64 evaluation")
        return n * len(j[cols]), np.outer(j, j[cols]) % n * (big // n)
    tw, rest = np.outer(j[:f], j[:n // f]) * (big // n), _plan(n // f, big)
    return f * f + n + rest[0], cols, _plan(f, big)[1], tw, rest


def _dft(a, plan, pw, q):
    # ``plan`` on a (P, rows, n) array modulo the (P, 1, 1) primes q, pw the (P, big) powers of w
    if len(plan) == 2:
        return a @ pw[:, plan[1]] % q
    (_, cols, ef, tw, rest), (s, rows, n) = plan, a.shape  # y[k1, j2], then y[k1, k2]
    y = (pw[:, None, ef] @ a.reshape(s, rows, len(ef), -1) % q[..., None]) * pw[:, None, tw]
    y = _dft(y.reshape(s, -1, tw.shape[1]) % q, rest, pw, q)
    return y.reshape(s, rows, len(ef), -1).swapaxes(2, 3).reshape(s, rows, n)[:, :, cols]


def _at_roots(x, parts: int, moduli, columns, factor, bound_sq: int) -> list:
    """Exact values of the rows of x, each of absolute value at most
    sqrt(bound_sq).  A row of the exact (B, parts * |G|) array x is
    ``parts`` polynomials on the labels of G = Z_n1 x ... x Z_nk.  Modulo
    each prime q of ``modular_primes(bound_sq, L)``, L = lcm(n_i), e[b, j]
    is polynomial j of row b at the characters c with c_1 in ``columns``,
    in label order (c sends g to w^(sum_i g_i c_i L / n_i)), by a ``_plan``
    an axis, and factor(e, q)[b] multiplies out to the value of row b.
    Passes stack primes along the first axis of e, q the matching column,
    while their arrays and gathered powers of w stay near _ROOT_CELLS."""
    order = math.lcm(*moduli)
    plans = [_plan(n, order, columns if i == 0 else slice(None)) for i, n in enumerate(moduli)]
    chars = math.prod(moduli[1:]) * len(range(moduli[0])[columns])
    primes, modulus = modular_primes(bound_sq, order)
    per = max(1, _ROOT_CELLS // (x.size + len(x) * parts * chars + sum(p[0] for p in plans)))
    residues = []
    for i in range(0, len(primes), per):
        batch = primes[i:i + per]
        q = np.array(batch, dtype=np.int64).reshape(-1, 1, 1)
        pw = _powers(batch, order)
        e = np.asarray(x % q.astype(x.dtype), dtype=np.int64).reshape(len(batch), -1, *moduli)
        for n, plan in zip(moduli[::-1], plans[::-1]):  # each axis evaluated, moved to the front
            t = _dft(e.reshape(len(batch), -1, n), plan, pw, q)
            e = np.moveaxis(t.reshape(*e.shape[:-1], -1), -1, 2)
        q = np.repeat(q, len(x), axis=0)
        v = factor(e.reshape(len(q), parts, -1), q).reshape(len(q), -1) % q[:, 0]
        residues.append(_prod_mod(v, q[:, 0]).reshape(len(batch), -1))
    return crt_values(np.concatenate(residues), primes, modulus)


def _spread(acc):
    """sum_e |acc_e - t| along the last axis, t a median of the acc_e: a
    bound on |sum_e acc_e w^e| at every root w != 1 of order the axis
    length, a prime."""
    t = np.sort(acc, axis=-1)[..., acc.shape[-1] // 2, None]
    return abs(acc - t).sum(axis=-1)


def _max_prod(a) -> int:
    # the largest product along the last axis of a 2-D array of bounds
    return max(map(math.prod, a.tolist()))


# -- character products --------------------------------------------------


@lru_cache(maxsize=16)
def _shift_index(p: int):
    # index pair ((e - x g) mod p, g), for gathering the terms g that a
    # character x moves to the exponent e, broadcast to shape (x, e, g)
    x, e, g = np.ogrid[:p, :p, :p]
    return (e - x * g) % p, np.broadcast_to(g, (p, p, p))


def _character_sums(a, p: int, n: int):
    """acc[b, x, e]: the sum of a[b, g] over the labels g of (Z_p)^n with
    x . g = e (mod p), for each character x in label order, so that F at
    x is sum_e acc[b, x, e] w^e.  One coordinate of the labels at a time
    moves into the characters: cells of p^(n + 2) a row."""
    s = np.zeros((len(a), 1, p, p ** n), dtype=a.dtype)  # characters, exponent, labels left
    s[:, 0, 0] = a
    shift, g = _shift_index(p)
    for _ in range(n):
        t = s.reshape(len(a), s.shape[1], p, p, -1)[:, :, shift, g].sum(axis=4)
        s = t.reshape(len(a), -1, p, t.shape[-1])
    return s.reshape(len(a), -1, p)


def _characters(a, p: int, n: int) -> list:
    # the product of the character values of each row of an exact chunk
    acc = _character_sums(a, p, n)
    bound = _max_prod(_spread(acc))
    return _at_roots(acc.reshape(len(a), -1), p ** n, (p,), slice(1, 2),
                     lambda e, q: e[:, :, 0], bound * bound)


def abelian_measure(moduli, block) -> list:
    """Group determinant over the product of cyclic groups with these
    moduli for each row of a (B, |G|) block of coefficient vectors, in
    the label order of ``GroupKind.labels`` (``itertools.product``, last
    exponent fastest): the product of its |G| character values.

    Over (Z_p)^n with n >= 2 a character value is an exponent accumulator
    at one p-th root, under the accumulator bound.  Every other product,
    Z_n included, is evaluated at each character directly, under twice
    the Hadamard bound of the Cayley matrix.
    """
    moduli = tuple(moduli)
    if not moduli or min(moduli) < 1:
        raise InvalidParameter(f"need cyclic factors of order at least 1, got {moduli}")
    p, n = moduli[0], len(moduli)
    if n >= 2 and is_prime(p) and moduli.count(p) == n:
        a = _exact_rows(block, p ** n, 2 * p ** n)
        return _chunked(lambda c: _characters(c, p, n), a, p ** (n + 2))
    return _direct(block, 1, moduli, lambda e, q: e[:, 0])


def char_product_2d(coeffs2d, p: int) -> int:
    """Determinant over Z_p x Z_p of F = sum c[b][k] x^b y^k, the
    product of F(w^i, w^j) over all p^2 characters, by
    ``abelian_measure``.  Rows may be ragged; exponents are reduced mod p.
    """
    from .groups import KINDS  # groups imports this module for its routes
    terms = [((b, k), c) for b, row in enumerate(coeffs2d) for k, c in enumerate(row) if c]
    return abelian_measure((p, p), [KINDS["elementary"].flat_coeffs((p, 2), terms)])[0]


# -- Heisenberg factorization --------------------------------------------


@dataclass
class HeisenbergFactorization:
    """Exact factorization M = m1 * m2**p of a Heisenberg determinant."""

    p: int
    m1: int
    m2: int
    m: int


@lru_cache(maxsize=16)
def _block_index(p: int):
    # entry (r, c) of D(w) is f_(r - c)(w^c, w), with f_i(y, z) the x^i
    # slice: its coefficient of w^e gathers a_(r-c)yz over the p pairs
    # (y, z) with c y + z = e (mod p); shape (r, c, e, y) into (i, y, z)
    r, c, e, y = np.ogrid[:p, :p, :p, :p]
    return ((r - c) % p * p + y) * p + (e - c * y) % p


def _heisenberg_chunk(a, p: int) -> list:
    """(m1, m2) of each row of an exact chunk of flat vectors.  Entry
    (r, c) of the block D(w^j) is the accumulator of entry (r, c) of D(w)
    at w^j, so one set of bounds, Hadamard's over the rows, serves all
    p - 1 blocks."""
    b = len(a)
    m1 = _characters(a.reshape(b, p * p, p).sum(axis=2), p, 2)
    acc = a[:, _block_index(p)].sum(axis=-1)  # (B, r, c, e)
    beta = _spread(acc)
    if beta.dtype != object and beta.max() >= 1 << 24:
        beta = beta.astype(object)
    bound_sq = _max_prod((beta * beta).sum(axis=2)) ** (p - 1)

    def factor(e, q):  # e[b, r p + c, j - 1] is entry (r, c) of D(w^j)
        blocks = np.moveaxis(e.reshape(-1, p, p, p - 1), 3, 1).reshape(-1, p, p)
        return np.array(_det_mod(blocks, np.repeat(q.ravel(), p - 1)), dtype=np.int64)

    m2 = _at_roots(acc.reshape(b, -1), p * p, (p,), slice(1, p), factor, bound_sq)
    return list(zip(m1, m2))


def heisenberg_factorizations(p: int, block) -> list:
    """Exact determinant of F over the order-p^3 Heisenberg group, as a
    HeisenbergFactorization, for each row of a (B, p^3) block of
    coefficient vectors (a_ijk at (i * p + j) * p + k).

    m1 is the abelian part, the determinant of F(x, y, 1) over Z_p x Z_p;
    m2 is the product of the p - 1 nonabelian p x p block determinants
    D(w^j), every one of them eliminated.  The full value is m1 * m2**p.
    """
    if not is_prime(p) or p == 2:
        raise InvalidParameter(f"Heisenberg group needs an odd prime, got {p}")
    a = _exact_rows(block, p ** 3, 2 * p ** 3)
    return [HeisenbergFactorization(p=p, m1=m1, m2=m2, m=m1 * m2 ** p)
            for m1, m2 in _chunked(lambda c: _heisenberg_chunk(c, p), a, p ** 4)]


def heisenberg_measure(p: int, coeffs) -> HeisenbergFactorization:
    """``heisenberg_factorizations`` of one coefficient vector."""
    if len(coeffs) != p ** 3:
        raise InvalidParameter(f"need {p ** 3} coefficients, got {len(coeffs)}")
    return heisenberg_factorizations(p, [coeffs])[0]


def heisenberg_binomial_measure(f0, fk, k: int, p: int) -> HeisenbergFactorization:
    """Shortcut for binomial-in-x polynomials F = f0(y,z) + x^k fk(y,z),
    f0 and fk given as grids [y-exp][z-exp], exponents reduced mod p.

    For such F the block determinant collapses to a two-term sum of
    products, D(w^j) = prod_i f0(w^i, w^j) + prod_i fk(w^i, w^j), and the
    abelian part to prod_i (f0(w^i,1)^p + fk(w^i,1)^p).  Requires
    1 <= k < p.  Results agree with the generic route (tested), just
    without the p x p determinants.
    """
    if not 1 <= k < p:
        raise InvalidParameter(f"binomial exponent k={k} must be in 1..{p - 1}")
    grids = np.zeros((2, p, p), dtype=object)
    for grid, f in zip(grids, (f0, fk)):
        for y, row in enumerate(f):
            for z, c in enumerate(row):
                grid[y % p, z % p] += int(c)
    # m1: f(y, 1) at every p-th root; at 1 the value is bounded by |f(1, 1)|
    ys = grids.sum(axis=2)
    at_one = sum(abs(s) ** p for s in ys.sum(axis=1).tolist())
    bound = at_one * sum(b ** p for b in _spread(ys).tolist()) ** (p - 1)
    m1, = _at_roots(ys.reshape(1, -1), 2, (p,), slice(None),
                    lambda e, q: _pow_mod(e[:, 0], p, q[:, 0]) + _pow_mod(e[:, 1], p, q[:, 0]),
                    bound * bound)
    # m2: f(w^(i j), w^j) is the accumulator of f(w^i, w) at w^j
    shift, g = _shift_index(p)
    acc = grids[:, g, shift].sum(axis=-1)  # (f0 | fk, i, e)
    bound = sum(math.prod(b) for b in _spread(acc).tolist())
    m2, = _at_roots(acc.reshape(1, -1), 2 * p, (p,), slice(1, p),
                    lambda e, q: _prod_mod(e[:, :p], q) + _prod_mod(e[:, p:], q),
                    bound ** (2 * (p - 1)))
    return HeisenbergFactorization(p=p, m1=m1, m2=m2, m=m1 * m2 ** p)


# -- evaluation at every character ------------------------------------------
#
# The direct abelian, dihedral and dicyclic values are products over the
# characters of an abelian group: prod_c h(c) for a product of cyclic
# groups, and for F = f + y g over a dihedral or dicyclic group a product
# over N-th roots of unity of f(w^k) f(w^-k) -+ g(w^k) g(w^-k).  Their
# bound is twice the Hadamard bound (sum c^2)^(|G| / 2) of the Cayley
# matrix, every row of which is a signed permutation of the row's |G|
# coefficients c.


def _direct(block, parts: int, moduli, factor) -> list:
    # rows of ``parts`` polynomials on the labels of the product with these
    # moduli, evaluated at every character
    width = parts * math.prod(moduli)
    a = _exact_rows(block, width)
    return _chunked(lambda c: _at_roots(c, parts, moduli, slice(None), factor, _hadamard_sq(c)),
                    a, width)


def _two_part(block, length: int, sign) -> list:
    # the product over k of f(w^k) f(w^-k) - sign[k] g(w^k) g(w^-k), w of
    # order ``length``, for rows [f, g] of two polynomials of that length
    neg = -np.arange(length) % length

    def factor(e, q):
        f, g = e[:, 0], e[:, 1]
        return f * f[:, neg] - sign * (g * g[:, neg] % q[:, 0])

    return _direct(block, 2, (length,), factor)


def dihedral_measure(block, n: int) -> list:
    """Group determinant over the dihedral group of order 2n of
    F = f(x) + y g(x) for each row [f, g] of a (B, 2n) block: the
    circulant determinant of f f~ - g g~ modulo x^n - 1 (f~ is f(1/x)),
    the product over the n-th roots of unity z of f(z) f(1/z) - g(z) g(1/z)."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    return _two_part(block, n, np.ones(n, dtype=np.int64))


def dicyclic_measure(block, n: int) -> list:
    """Group determinant over the dicyclic group of order 4n of
    F = f(x) + y g(x) for each row [f, g] of a (B, 4n) block.  The value
    is the circulant determinant (mod x^n - 1) of f f~ - g g~ times the
    negacirculant determinant (mod x^n + 1) of f f~ + g g~, the product
    over the 2n-th roots of unity z of f(z) f(1/z) -+ g(z) g(1/z): minus
    at the even powers of a primitive root, which are the n-th roots,
    plus at the odd ones."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    return _two_part(block, 2 * n, 1 - 2 * (np.arange(2 * n) % 2))


# -- batched kernel for p = 3 -----------------------------------------------
#
# Value searches evaluate thousands of 27-coefficient Heisenberg polynomials
# at a time.  One matmul of a (B, 27) int64 block with a fixed {-1, 0, 1}
# matrix gives each row's 9 character values F(w^a, w^b, 1) and the 18
# entries of its blocks D(w) and D(w^2), each as the coordinates (a, b) of
# a + b w in Z[w].  The characters are multiplied in conjugate pairs, so
# every partial product of m1 is an integer of absolute value at most
# (27 H)^9 for a row of height H, below 2^63 for H <= H3_HEIGHT; the
# block determinants stay far smaller.

H3_HEIGHT = 4
# the trivial character, then each character next to its conjugate
_H3_CHARS = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 2), (1, 2), (2, 1))
_LEIBNIZ = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _h3_matrix():
    # column z holds the power of w each label takes in value z (None:
    # the label is not in it): the characters, then f_i(w^(j c), w^j) for
    # j = 1, 2, slice i and block column c; a + b w is then
    # (a_0 - a_2) + (a_1 - a_2) w, from the sums a_e of the terms at w^e
    labels = list(product(range(3), repeat=3))
    cols = [[(a * i + b * j) % 3 for i, j, _ in labels] for a, b in _H3_CHARS]
    cols += [[(j * c * y + j * z) % 3 if x == i else None for x, y, z in labels]
             for j in (1, 2) for i in range(3) for c in range(3)]
    return np.array([[(e == 0) - (e == 2) for e in col] for col in cols]
                    + [[(e == 1) - (e == 2) for e in col] for col in cols], dtype=np.int64).T


_H3_MATRIX = _h3_matrix()


def _zw_mul(x, y):
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c - bd, a * d + b * c - bd


def measure_h3(block) -> list:
    """heisenberg_measure(3, row).m for each row of a (B, 27) block of
    flat coefficient vectors (a_ijk at 9i + 3j + k), as a list of ints.

    Rows of height at most H3_HEIGHT are evaluated together in int64; the
    other rows go as one block to ``heisenberg_factorizations``.  The
    products m1 and m2 are certified: a nonzero w-coordinate raises
    NotInteger."""
    block = _exact_rows(block, 27)
    fits = ((block >= -H3_HEIGHT) & (block <= H3_HEIGHT)).all(axis=1)
    v = block[fits].astype(np.int64, copy=False) @ _H3_MATRIX
    z = list(zip(v[:, :27].T, v[:, 27:].T))
    m1 = z[0]
    for k in range(1, 9, 2):
        m1 = _zw_mul(m1, _zw_mul(z[k], z[k + 1]))
    if m1[1].any():
        raise NotInteger("abelian character product is not a rational integer")
    m2 = (1, 0)
    for j in (9, 18):  # D(w), then D(w^2): entry (r, c) is f_(r - c)(w^(j c), w^j)
        det = (0, 0)
        for rows, sign in _LEIBNIZ:
            t = reduce(_zw_mul, (z[j + 3 * ((r - c) % 3) + c] for c, r in enumerate(rows)))
            det = (det[0] + sign * t[0], det[1] + sign * t[1])
        m2 = _zw_mul(m2, det)
    if m2[1].any():
        raise NotInteger("block determinant product is not a rational integer")
    fast = iter([a * b ** 3 for a, b in zip(m1[0].tolist(), m2[0].tolist())])
    slow = iter([f.m for f in heisenberg_factorizations(3, block[~fits])])
    return [next(fast) if ok else next(slow) for ok in fits.tolist()]
