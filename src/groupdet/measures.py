"""Factorized exact group determinants.

One character product (``abelian_measure``) for (Z_p)^n, which
``char_product_2d`` feeds a Z_p x Z_p coefficient grid (the abelian
part M1 of the order-p^3 Heisenberg factorization M = M1 * M2^p and
the Z_p x Z_p checks), the Heisenberg block factorization on the flat
label-order coefficient vector that ``KINDS["heisenberg"].flat_coeffs``
gives, the binomial two-product shortcut, and one twisted circulant
(``circulant_det``, modulo x^n - 1 or x^n + 1) for
the cyclic, dihedral and dicyclic routes, eliminated by
``exactdet.det_int`` (Bareiss for small n, certified multimodular
above).  Every path returns exact integers and is cross-checked against
the Cayley-matrix oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import getitem, itemgetter, mul

from .cyclotomic import CycInt, eval_bivariate_at_roots
from .errors import InvalidParameter, NotInteger
from .exactdet import det_bareiss, det_int, is_prime
from .polyring import IntPoly


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


def heisenberg_fourier_coeffs(p: int, coeffs) -> tuple:
    """Coefficients c_0..c_{p-1} of the averaged circulant product.

    The product of F(t, y, 1) over p-th roots of unity t equals the
    determinant of the circulant with symbol F(x, y, 1); expanding it in
    Z[y] (a domain, so Bareiss applies) and reducing mod y^p - 1 gives a
    polynomial all of whose non-constant coefficients are divisible by p
    and whose constant term drives the mod-p^3 congruence.
    """
    g = [IntPoly(row) for row in _z_collapse(p, coeffs)]
    rows = [[g[(r - c) % p] for c in range(p)] for r in range(p)]
    det = det_bareiss(rows)
    return tuple(det.fold(p).padded(p))


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


# -- dihedral and dicyclic closed forms -----------------------------------


def circulant_det(h, n: int, sign: int = 1) -> int:
    """Determinant of multiplication by h(x) modulo x^n - sign, by
    elimination (``det_int``): the n x n circulant with first column h
    for sign 1, the negacirculant for sign -1."""
    h = list(h)
    if len(h) != n:
        raise InvalidParameter(f"need {n} coefficients, got {len(h)}")
    # column c holds x^c h: entries that wrap past x^(n-1) pick up the sign
    wrapped = [sign * v for v in h]
    return det_int([h[r::-1] + wrapped[:r:-1] for r in range(n)])


def _correlation(f) -> list:
    """Coefficients of f(x) f(1/x) modulo x^m - 1, for m = len(f)."""
    m = len(f)
    out = [0] * m
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(f):
                if b:
                    out[(i - j) % m] += a * b
    return out


def dihedral_measure(f, g, n: int) -> int:
    """Group determinant over the dihedral group of order 2n for
    F = f(x) + y g(x), computed as the circulant determinant of
    f f~ - g g~ reduced mod x^n - 1 (f~ is coefficient reversal)."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    cf = _correlation(_fold_vector(f, n))
    cg = _correlation(_fold_vector(g, n))
    return circulant_det([a - b for a, b in zip(cf, cg)], n)


def dicyclic_measure(f, g, n: int) -> int:
    """Group determinant over the dicyclic group of order 4n for
    F = f(x) + y g(x) with f, g of length 2n.  The value splits as the
    circulant determinant (mod x^n - 1) of f f~ - g g~ times the
    negacirculant determinant (mod x^n + 1) of f f~ + g g~."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    # correlations modulo x^2n - 1 = (x^n - 1)(x^n + 1), then split
    cf = _correlation(_fold_vector(f, 2 * n))
    cg = _correlation(_fold_vector(g, 2 * n))
    minus = [a - b + c - d for a, b, c, d in zip(cf, cg, cf[n:], cg[n:])]
    plus = [a + b - c - d for a, b, c, d in zip(cf, cg, cf[n:], cg[n:])]
    return circulant_det(minus, n) * circulant_det(plus, n, -1)


def _fold_vector(f, n: int) -> list:
    out = [0] * n
    for i, c in enumerate(f):
        if c:
            out[i % n] += int(c)
    return out


# -- specialized fast path for p = 3 ---------------------------------------
#
# Value searches over the 27-coefficient Heisenberg polynomials sample
# hundreds of thousands of candidates; the generic CycInt route burns most
# of its time on object plumbing.  This path inlines Z[w] for p = 3 as
# coefficient pairs (a + b w) and the 3 x 3 block determinants directly.
# It is validated against heisenberg_measure in the tests.


def _h3_eval(coeffs, table):
    a0 = a1 = a2 = 0
    for c, e in zip(coeffs, table):
        if c:
            if e == 0:
                a0 += c
            elif e == 1:
                a1 += c
            else:
                a2 += c
    return (a0 - a2, a1 - a2)


def _h3_mul(x, y):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


_H3_EXPS = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]


def measure_h3(coeffs) -> int:
    """heisenberg_measure(3, coeffs).m on the flat 27-vector, in the
    Heisenberg label order: a_ijk at 9i + 3j + k."""
    if len(coeffs) != 27:
        raise InvalidParameter(f"need 27 coefficients, got {len(coeffs)}")
    # abelian part: product over 9 characters of F(w^i, w^j, 1)
    m1num = (0, 0)
    first = True
    for ci in range(3):
        for cj in range(3):
            table = [(ci * i + cj * j) % 3 for (i, j, k) in _H3_EXPS]
            v = _h3_eval(coeffs, table)
            if first:
                m1num, first = v, False
            else:
                m1num = _h3_mul(m1num, v)
    if m1num[1]:
        raise NotInteger(f"abelian character product is not a rational integer: {m1num}")
    m1 = m1num[0]
    # block determinants at w and w^2
    m2num = (1, 0)
    for j in (1, 2):
        ev = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for c in range(3):
                yk = (j * c) % 3
                table = [(yk * jj + j * kk) % 3 for (jj, kk) in _H3_YZ]
                ev[i][c] = _h3_eval(coeffs[9 * i:9 * i + 9], table)
        det = (0, 0)
        for (r0, r1, r2, s) in _H3_PERMS:
            t = _h3_mul(_h3_mul(ev[r0][0], ev[r1][1]), ev[r2][2])
            det = (det[0] + s * t[0], det[1] + s * t[1])
        m2num = _h3_mul(m2num, det)
    if m2num[1]:
        raise NotInteger(f"block determinant product is not a rational integer: {m2num}")
    m2 = m2num[0]
    return m1 * m2 ** 3


_H3_YZ = [(j, k) for j in range(3) for k in range(3)]


def _h3_perm_table():
    # Leibniz expansion of the 3x3 block determinant: entry (r, c) uses
    # the x-slice (r - c) mod 3, so store per-column slice indices + sign.
    out = []
    for rows in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        sign = 1 if rows in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        out.append(tuple((rows[c] - c) % 3 for c in range(3)) + (sign,))
    return out


_H3_PERMS = _h3_perm_table()
