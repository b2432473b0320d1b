"""Factorized exact group determinants.

One character product (``abelian_measure``) for (Z_p)^n, which
``char_product_2d`` feeds a Z_p x Z_p coefficient grid (the abelian
part M1 of the order-p^3 Heisenberg factorization M = M1 * M2^p and
the Z_p x Z_p checks), the Heisenberg block factorization on the flat
label-order coefficient vector that ``KINDS["heisenberg"].flat_coeffs``
gives, its batched int64 kernel for p = 3 (``measure_h3``, a (B, 27)
block of such vectors per call), and the binomial two-product shortcut.
The cyclic, dihedral and dicyclic routes (``circulant_det``,
``dihedral_measure``, ``dicyclic_measure``) each take a (B, |G|) block
too: one engine evaluates every row at the roots of unity modulo primes
q = 1 (mod N) in int64 and recovers the products by the certified
Chinese remainder of ``exactdet``.  Every path returns exact integers
and is cross-checked against the Cayley-matrix oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import getitem, itemgetter, mul

import numpy as np

from .cyclotomic import CycInt, eval_bivariate_at_roots
from .errors import GroupDetError, InvalidParameter, NotInteger
from .exactdet import _PRIME_BOUND, crt_values, det_bareiss, is_prime, modular_primes


def certified_int_product(values) -> int:
    """Multiply cyclotomic factors and certify the result lies in Z.

    The product of a full Galois orbit is a rational integer for
    mathematical reasons; this does not trust that argument and raises
    NotInteger if the canonical coordinates say otherwise.
    """
    total = reduce(mul, values)
    n = total.as_integer()
    if n is None:
        raise NotInteger(f"product is not a rational integer: {total!r}")
    return n


def char_product_2d(coeffs2d, p: int) -> int:
    """Determinant over Z_p x Z_p of F = sum c[b][k] x^b y^k, the
    product of F(w^i, w^j) over all p^2 characters, by
    ``abelian_measure``.  Rows may be ragged; exponents are reduced mod p.
    """
    from .groups import KINDS  # groups imports this module for its routes
    terms = [((b, k), c) for b, row in enumerate(coeffs2d) for k, c in enumerate(row) if c]
    return abelian_measure((p, p), KINDS["elementary"].flat_coeffs((p, 2), terms))


def abelian_measure(moduli, coeffs) -> int:
    """Group determinant over the product of cyclic groups with these
    moduli, computed as the product of character values, certified
    integral.  ``coeffs`` follow the labels in ``itertools.product``
    order (last exponent fastest), as ``GroupKind.labels`` lists them.

    Requires every factor of the group to be the same prime p (this is
    the only abelian shape the rest of the package needs exactly).  Every
    one of the p^n characters is evaluated on its own, and all of their
    values go through ``certified_int_product``.
    """
    p = moduli[0]
    if not (is_prime(p) and all(n == p for n in moduli)):
        raise InvalidParameter(
            f"character products need all factors equal to one prime, got {tuple(moduli)}")
    if len(coeffs) != p ** len(moduli):
        raise InvalidParameter(f"need {p ** len(moduli)} coefficients, got {len(coeffs)}")
    # One gather reads each row of coefficients along the last exponent t,
    # with its sum and a zero appended, into table[r]: entry e * p + k, for
    # 0 <= e < 2p, is the coefficient of w^(e mod p) under the character
    # t -> x t, which takes row[e k] for x = 1/k (k > 0) and, for x = 0
    # (k = 0), the sum at e = 0 mod p.  So the p * p entries from e = p - s,
    # the slice cut[s], hold the values of every x shifted by s.
    gather = itemgetter(*[e * k % p if k else (p if e % p == 0 else p + 1)
                          for e in range(2 * p) for k in range(p)])
    rows = [coeffs[i:i + p] for i in range(0, len(coeffs), p)]
    table = [gather((*row, sum(row), 0)) for row in rows]
    cut = [slice((p - s) * p, (2 * p - s) * p) for s in range(p)]
    vals = []
    for head in product(range(p), repeat=len(moduli) - 1):
        # the exponent that the character `head` gives each row's label
        shifts = [0]
        for y in head:
            shifts = [(s + y * t) % p for s in shifts for t in range(p)]
        acc = list(map(sum, zip(*map(getitem, table, [cut[s] for s in shifts]))))
        vals += [CycInt.from_exponent_vector(p, acc[k::p]) for k in range(p)]
    return certified_int_product(vals)


# -- Heisenberg factorization --------------------------------------------


@dataclass
class HeisenbergFactorization:
    """Exact factorization M = m1 * m2**p of a Heisenberg determinant."""

    p: int
    m1: int
    m2: int
    m: int


def _heisenberg_rows(p: int, coeffs) -> list:
    """The coefficient vector of F = sum a_ijk x^i y^j z^k over the
    order-p^3 Heisenberg group, a_ijk at (i * p + j) * p + k as
    ``KINDS["heisenberg"].flat_coeffs`` places it, cut into its p^2 rows
    [a_ij0, ..., a_ij(p-1)], row i * p + j.  Checks p and the length."""
    if not is_prime(p) or p == 2:
        raise InvalidParameter(f"Heisenberg group needs an odd prime, got {p}")
    if len(coeffs) != p ** 3:
        raise InvalidParameter(f"need {p ** 3} coefficients, got {len(coeffs)}")
    return [coeffs[r:r + p] for r in range(0, p ** 3, p)]


def heisenberg_phi_matrix(p: int, coeffs, j: int):
    """The p x p block of the irreducible representation indexed by w^j.

    With F = sum_i x^i f_i(y, z), entry (r, c) (0-indexed) is
    f_{(r-c) mod p}(w^{j c}, w^j): x acts as the cyclic row shift, y as
    the diagonal of powers of w^j, and z as the scalar w^j.
    """
    rows = _heisenberg_rows(p, coeffs)
    # evaluate each x-slice (rows i * p .. i * p + p - 1, [y-exp][z-exp])
    # at every needed y-power once
    evals = [[eval_bivariate_at_roots(rows[i * p:(i + 1) * p], (j * c) % p, j, p)
              for c in range(p)] for i in range(p)]
    return [[evals[(r - c) % p][c] for c in range(p)] for r in range(p)]


def _factorization(p: int, m1: int, block: CycInt) -> HeisenbergFactorization:
    """M = m1 * m2**p from the block determinant D(w).

    F has integer coefficients, so D(w^j) = D(w).galois(j) and their
    product m2 is the norm of D(w).  The norm of any element of Z[w] is a
    rational integer, so its NotInteger check only guards the Z[w]
    arithmetic, not the identity D(w^j) = D(w).galois(j).  At run time
    that identity is checked only through M: ``compute`` tests the
    congruence M = F(1,1,1)^(p^3) mod p^3, and
    ``test_block_values_are_the_conjugates_of_one_block`` eliminates
    every block and compares it with the matching conjugate of D(w)."""
    m2 = block.norm()
    return HeisenbergFactorization(p=p, m1=m1, m2=m2, m=m1 * m2 ** p)


def _z_collapse(p: int, coeffs) -> list:
    """Coefficients of F(x, y, 1) as a grid [x-exp][y-exp]."""
    sums = list(map(sum, _heisenberg_rows(p, coeffs)))
    return [sums[i:i + p] for i in range(0, p * p, p)]


def heisenberg_measure(p: int, coeffs) -> HeisenbergFactorization:
    """Exact determinant of F over the order-p^3 Heisenberg group, F
    given by its coefficient vector (a_ijk at (i * p + j) * p + k).

    m1 is the abelian part (the determinant of F(x, y, 1) over Z_p x Z_p);
    m2 is the product of the p - 1 nonabelian p x p block determinants
    D(w^j).  The full value is m1 * m2**p.  Only D(w) is eliminated; the
    other blocks are its Galois conjugates and m2 is its norm.
    """
    m1 = char_product_2d(_z_collapse(p, coeffs), p)
    return _factorization(p, m1, det_bareiss(heisenberg_phi_matrix(p, coeffs, 1)))


def heisenberg_binomial_measure(f0, fk, k: int, p: int) -> HeisenbergFactorization:
    """Shortcut for binomial-in-x polynomials F = f0(y,z) + x^k fk(y,z).

    For such F the block determinant collapses to a two-term sum of
    products, D(w) = prod_i f0(w^i, w) + prod_i fk(w^i, w), and the
    abelian part to prod_i (f0(w^i,1)^p + fk(w^i,1)^p).  Requires
    1 <= k < p.  Results agree with the generic route (tested), just
    without the p x p determinant.
    """
    if not 1 <= k < p:
        raise InvalidParameter(f"binomial exponent k={k} must be in 1..{p - 1}")
    m1_terms = []
    for i in range(p):
        a = eval_bivariate_at_roots(f0, i, 0, p)
        b = eval_bivariate_at_roots(fk, i, 0, p)
        m1_terms.append(a ** p + b ** p)
    m1 = certified_int_product(m1_terms)
    prod0 = reduce(lambda a, b: a * b,
                   (eval_bivariate_at_roots(f0, i, 1, p) for i in range(p)))
    prodk = reduce(lambda a, b: a * b,
                   (eval_bivariate_at_roots(fk, i, 1, p) for i in range(p)))
    return _factorization(p, m1, prod0 + prodk)


# -- circulants by evaluation at roots of unity ------------------------------
#
# The cyclic, dihedral and dicyclic values are products over N-th roots of
# unity: prod_k h(w^k) for a circulant, and for F = f + y g over a dihedral
# or dicyclic group a product of f(w^k) f(w^-k) -+ g(w^k) g(w^-k).  Modulo
# a prime q = 1 (mod N) an element w of exact order N stands in for the
# complex root: a chunk of rows is reduced mod q, evaluated by one int64
# product with the powers of w, and multiplied out.  ``crt_values`` then
# recovers each value past twice the Hadamard bound (sum c^2)^(|G| / 2) of
# its Cayley matrix, every row of which is a signed permutation of the
# row's |G| coefficients c, and checks it against one further prime.

# rows x parts x roots of one pass over a chunk: each int64 array of a pass
# stays within 8 MB, so memory does not grow with the chunk
_ROOT_CELLS = 1 << 20


def _root_of_unity(q: int, order: int) -> int:
    """An element of exact multiplicative order ``order`` modulo the prime
    q = 1 (mod order): some w = g^((q - 1) / order) with w^order = 1 and
    no power w^(order / r) equal to 1 for a prime r dividing the order."""
    rs = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    for g in range(1, q):
        w = pow(g, (q - 1) // order, q)
        if pow(w, order, q) == 1 and all(pow(w, order // r, q) != 1 for r in rs):
            return w
    raise GroupDetError(f"no element of order {order} modulo {q}")


def _powers(w: int, order: int, q: int):
    """w^0, ..., w^(order - 1) modulo q, as int64, by doubling."""
    pw = np.ones(order, dtype=np.int64)
    m, step = 1, w
    while m < order:
        pw[m:2 * m] = pw[:min(m, order - m)] * step % q
        m, step = 2 * m, step * step % q
    return pw


def _at_roots(block, parts: int, length: int, order: int, ks, factor) -> list:
    """Exact values of a chunk of rows, as a list of ints.

    Each row of ``block`` is ``parts`` polynomials of ``length``
    coefficients.  Modulo each prime q, e[b, j, i] is polynomial j of row b
    at w^ks[i] for w of the given order, and the value of row b is the
    product over i of factor(e, q)[b, i].  Entries past int64 are reduced
    exactly, in Python.  The matrix product sums ``length`` products of
    residues below 2^26, so lengths from 2048 on, where that sum could
    pass 2^63, raise InvalidParameter before any block is built.
    """
    if length * _PRIME_BOUND ** 2 >= 1 << 63:
        raise InvalidParameter(f"{length} coefficients are too many for int64 evaluation")
    width = parts * length
    try:
        a = np.asarray(block, dtype=np.int64)
        rows = None
    except (OverflowError, ValueError):
        a, rows = None, [list(map(int, r)) for r in block]
    if a is not None and (a.ndim != 2 or a.shape[1] != width):
        raise InvalidParameter(f"need rows of {width} coefficients, got shape {a.shape}")
    if rows is not None and any(len(r) != width for r in rows):
        raise InvalidParameter(f"need rows of {width} coefficients")
    count = len(a) if rows is None else len(rows)
    step = max(1, _ROOT_CELLS // (parts * len(ks)))
    if count > step:
        chunk = a if rows is None else rows
        return [v for i in range(0, count, step)
                for v in _at_roots(chunk[i:i + step], parts, length, order, ks, factor)]
    if count == 0:
        return []
    if rows is None and -(1 << 20) < a.min() and a.max() < 1 << 20:
        norm = int(np.einsum("ij,ij->i", a, a).max())
    else:
        norm = max(sum(x * x for x in r) for r in (a.tolist() if rows is None else rows))
    primes, modulus = modular_primes(norm ** width, order)
    at = np.outer(np.arange(length), ks) % order
    residues = []
    for q in primes:
        x = a % q if rows is None else np.array([[v % q for v in r] for r in rows], dtype=np.int64)
        e = x.reshape(-1, length) @ _powers(_root_of_unity(q, order), order, q)[at] % q
        v = factor(e.reshape(count, parts, -1), q) % q
        while v.shape[1] > 1:  # multiply the columns out in halves
            half = v.shape[1] // 2
            v = np.concatenate([v[:, :half] * v[:, half:2 * half] % q, v[:, 2 * half:]], axis=1)
        residues.append(v[:, 0])
    return crt_values(residues, primes, modulus)


def circulant_det(block, n: int, sign: int = 1) -> list:
    """Determinant of multiplication by h(x) modulo x^n - sign for each row
    h of a (B, n) block: the n x n circulant with first column h for
    sign 1, the product of h over the n-th roots of unity, and the
    negacirculant for sign -1, the product over the odd powers of a
    2n-th root."""
    if n < 1 or sign not in (1, -1):
        raise InvalidParameter(f"need n >= 1 and sign 1 or -1, got {n} and {sign}")
    ks = np.arange(n) if sign == 1 else np.arange(1, 2 * n, 2)
    return _at_roots(block, 1, n, n if sign == 1 else 2 * n, ks, lambda e, q: e[:, 0])


def _two_part(block, length: int, sign) -> list:
    # the product over k of f(w^k) f(w^-k) - sign[k] g(w^k) g(w^-k), w of
    # order ``length``, for rows [f, g] of two polynomials of that length
    neg = -np.arange(length) % length

    def factor(e, q):
        f, g = e[:, 0], e[:, 1]
        return f * f[:, neg] - sign * (g * g[:, neg] % q)

    return _at_roots(block, 2, length, length, np.arange(length), factor)


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

    Rows of height at most H3_HEIGHT are evaluated together in int64;
    any other row, or every row of a block that does not fit int64, takes
    ``heisenberg_measure``.  The products m1 and m2 are certified: a
    nonzero w-coordinate raises NotInteger."""
    try:
        block = np.asarray(block, dtype=np.int64)
    except OverflowError:
        return [heisenberg_measure(3, list(row)).m for row in block]
    if block.ndim != 2 or block.shape[1] != 27:
        raise InvalidParameter(f"need rows of 27 coefficients, got shape {block.shape}")
    fits = ((block >= -H3_HEIGHT) & (block <= H3_HEIGHT)).all(axis=1)
    v = block[fits] @ _H3_MATRIX
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
    return [next(fast) if ok else heisenberg_measure(3, row).m
            for ok, row in zip(fits.tolist(), block.tolist())]
