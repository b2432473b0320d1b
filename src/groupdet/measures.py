"""Factorized exact group determinants.

Character products over abelian p-groups, the order-p^3 Heisenberg
factorization M = M1 * M2^p with certified integrality of M2, the
binomial two-product shortcut, and circulant/negacirculant closed forms
for dihedral and dicyclic groups.  Every path returns exact integers and
is cross-checked against the Cayley-matrix oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import TYPE_CHECKING, Optional

from .cyclotomic import CycInt, eval_bivariate_at_roots, is_prime
from .errors import InvalidParameter, NotInteger
from .exactdet import det_bareiss
from .polyring import IntPoly

if TYPE_CHECKING:  # groups imports this module for its exact routes
    from .groups import HeisenbergPoly


def certified_int_product(values) -> int:
    """Multiply cyclotomic factors and certify the result lies in Z.

    The product of a full Galois orbit is a rational integer for
    mathematical reasons; this does not trust that argument and raises
    NotInteger if the canonical coordinates say otherwise.
    """
    total = reduce(lambda a, b: a * b, values)
    n = total.as_integer()
    if n is None:
        raise NotInteger(f"product is not a rational integer: {total!r}")
    return n


def char_product_2d(coeffs2d, p: int) -> int:
    """Product of F(w^i, w^j) over all p^2 characters of Z_p x Z_p."""
    vals = [eval_bivariate_at_roots(coeffs2d, i, j, p)
            for i in range(p) for j in range(p)]
    return certified_int_product(vals)


def abelian_measure(moduli, coeffs) -> int:
    """Group determinant over the product of cyclic groups with these
    moduli, computed as the product of character values, certified
    integral.  ``coeffs`` follow the labels in ``itertools.product``
    order (last exponent fastest), as ``GroupKind.labels`` lists them.

    Requires every factor of the group to be the same prime p (this is
    the only abelian shape the rest of the package needs exactly).
    """
    p = moduli[0]
    if not (is_prime(p) and all(n == p for n in moduli)):
        raise InvalidParameter(
            f"character products need all factors equal to one prime, got {tuple(moduli)}")
    labels = list(product(range(p), repeat=len(moduli)))
    if len(coeffs) != len(labels):
        raise InvalidParameter(f"need {len(labels)} coefficients, got {len(coeffs)}")
    vals = []
    for char in labels:
        acc = [0] * p
        for label, c in zip(labels, coeffs):
            if c:
                acc[sum(j * m for j, m in zip(char, label)) % p] += c
        vals.append(CycInt.from_exponent_vector(p, acc))
    return certified_int_product(vals)


# -- Heisenberg factorization --------------------------------------------


@dataclass
class HeisenbergFactorization:
    """Exact factorization M = m1 * m2**p of a Heisenberg determinant.

    d_values holds the p - 1 nonabelian block determinants (cyclotomic
    integers whose product is m2); fourier_coeffs, when requested, are
    the coefficients c_0..c_{p-1} with p * c(y) = sum over p-th roots t
    of F(t, y, 1)'s circulant product, reduced mod y^p - 1.
    """

    p: int
    m1: int
    m2: int
    m: int
    d_values: tuple
    fourier_coeffs: Optional[tuple] = None

    @property
    def c0(self) -> Optional[int]:
        return None if self.fourier_coeffs is None else self.fourier_coeffs[0]


def heisenberg_phi_matrix(f: HeisenbergPoly, j: int):
    """The p x p block of the irreducible representation indexed by w^j.

    With F = sum_i x^i f_i(y, z), entry (r, c) (0-indexed) is
    f_{(r-c) mod p}(w^{j c}, w^j): x acts as the cyclic row shift, y as
    the diagonal of powers of w^j, and z as the scalar w^j.
    """
    p = f.p
    slices = [f.x_slice(i) for i in range(p)]
    # evaluate each slice at every needed y-power once
    evals = [[eval_bivariate_at_roots(slices[i], (j * c) % p, j, p)
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
    ``test_block_values_are_the_conjugates_of_one_block`` compares each
    conjugate with its own elimination."""
    m2 = block.norm()
    return HeisenbergFactorization(p=p, m1=m1, m2=m2, m=m1 * m2 ** p,
                                   d_values=tuple(block.galois(j) for j in range(1, p)))


def heisenberg_measure(f: HeisenbergPoly, want_c0: bool = False) -> HeisenbergFactorization:
    """Exact determinant of F over the order-p^3 Heisenberg group.

    m1 is the abelian part (the determinant of F(x, y, 1) over Z_p x Z_p);
    m2 is the product of the p - 1 nonabelian p x p block determinants
    D(w^j).  The full value is m1 * m2**p.  Only D(w) is eliminated; the
    other blocks are its Galois conjugates and m2 is its norm.
    """
    p = f.p
    m1 = char_product_2d(f.collapse_z(), p)
    fac = _factorization(p, m1, det_bareiss(heisenberg_phi_matrix(f, 1)))
    if want_c0:
        fac.fourier_coeffs = heisenberg_fourier_coeffs(f)
    return fac


def heisenberg_fourier_coeffs(f: HeisenbergPoly) -> tuple:
    """Coefficients c_0..c_{p-1} of the averaged circulant product.

    The product of F(t, y, 1) over p-th roots of unity t equals the
    determinant of the circulant with symbol F(x, y, 1); expanding it in
    Z[y] (a domain, so Bareiss applies) and reducing mod y^p - 1 gives a
    polynomial all of whose non-constant coefficients are divisible by p
    and whose constant term drives the mod-p^3 congruence.
    """
    p = f.p
    grid = f.collapse_z()  # [x-exp][y-exp]
    g = [IntPoly(grid[i]) for i in range(p)]
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
    f0 = _as_grid(f0, p)
    fk = _as_grid(fk, p)
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


def _as_grid(coeffs2d, p):
    grid = [[0] * p for _ in range(p)]
    for b, row in enumerate(coeffs2d):
        for c, v in enumerate(row):
            if v:
                grid[b % p][c % p] += int(v)
    return grid


# -- dihedral and dicyclic closed forms -----------------------------------


def circulant_det(h, n: int) -> int:
    """Determinant of the n x n circulant with first column h."""
    rows = [[h[(r - c) % n] for c in range(n)] for r in range(n)]
    return det_bareiss(rows)


def negacirculant_det(h, n: int) -> int:
    """Determinant of the n x n negacirculant (multiplication by h(x)
    modulo x^n + 1)."""
    rows = [[(-1 if r < c else 1) * h[(r - c) % n] for c in range(n)]
            for r in range(n)]
    return det_bareiss(rows)


def _fold_correlation(f, n: int, signed: bool) -> list:
    """Coefficients of the self-correlation f(x) f(1/x), with exponent e
    folded to e mod n (cyclic) or with a sign of (-1)^(e div n)
    (negacyclic, signed=True)."""
    out = [0] * n
    for i, fi in enumerate(f):
        if fi:
            for j, fj in enumerate(f):
                if fj:
                    _fold_add(out, i - j, fi * fj, n, signed)
    return out


def _fold_add(out, e, val, n, signed):
    if signed:
        q, r = divmod(e, n)
        out[r] += -val if q & 1 else val
    else:
        out[e % n] += val


def dihedral_measure(f, g, n: int) -> int:
    """Group determinant over the dihedral group of order 2n for
    F = f(x) + y g(x), computed as the circulant determinant of
    f f~ - g g~ reduced mod x^n - 1 (f~ is coefficient reversal)."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    f = _fold_vector(f, n)
    g = _fold_vector(g, n)
    h = [a - b for a, b in zip(_fold_correlation(f, n, False),
                               _fold_correlation(g, n, False))]
    return circulant_det(h, n)


def dicyclic_measure(f, g, n: int) -> int:
    """Group determinant over the dicyclic group of order 4n for
    F = f(x) + y g(x) with f, g of length 2n.  The value splits as the
    circulant determinant (mod x^n - 1) of f f~ - g g~ times the
    negacirculant determinant (mod x^n + 1) of f f~ + g g~."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    f = _fold_vector(f, 2 * n)
    g = _fold_vector(g, 2 * n)
    minus = [0] * n
    plus = [0] * n
    for coeffs, s in ((f, 1), (g, -1)):
        for i, ci in enumerate(coeffs):
            if ci:
                for j, cj in enumerate(coeffs):
                    if cj:
                        _fold_add(minus, i - j, ci * cj if s > 0 else -ci * cj, n, False)
                        _fold_add(plus, i - j, ci * cj, n, True)
    return circulant_det(minus, n) * negacirculant_det(plus, n)


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
    """heisenberg_measure(...).m for p = 3, on a flat 27-vector.

    Index order matches HeisenbergPoly.flat(): a[i][j][k] at 9i + 3j + k.
    """
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
