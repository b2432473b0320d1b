"""Fraction-free exact determinants over the integers and other domains.

One Bareiss elimination serves every exact determinant in the package:
integer Cayley matrices, circulants, matrices over the cyclotomic integers,
and matrices over Z[y].  The entry type only has to be an integral domain
with an exact-division operation that can report a nonzero remainder.
"""

from __future__ import annotations

from .errors import InexactDivision


class RingElement:
    """Marker base for entry types that provide their own exact division."""

    __slots__ = ()

    def divexact(self, other):
        raise NotImplementedError


def _divexact(a, b):
    if isinstance(a, RingElement):
        return a.divexact(b)
    q, r = divmod(a, b)
    if r:
        raise InexactDivision(f"{a} is not divisible by {b}")
    return q


def det_bareiss(rows):
    """Exact determinant of a square matrix by Bareiss elimination.

    ``rows`` is a sequence of equal-length sequences.  Entries must support
    ``*``, ``-``, unary ``-``, truthiness (falsy iff zero), and exact
    division (``divmod`` for plain integers, ``divexact`` for ring objects).
    Every interior division in the elimination is exact by the Sylvester
    identity; a nonzero remainder raises :class:`InexactDivision` and means
    the entries do not live in an integral domain.

    Pivoting swaps in the first row with a nonzero entry in the pivot
    column (tracked by a sign); a fully zero column short-circuits to the
    zero of the entry ring.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != n:
            raise ValueError("matrix is not square")

    sign = 1
    prev = None
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            z = m[k][k]
            return z - z
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            if prev is None:
                for j in range(k + 1, n):
                    row_i[j] = row_i[j] * pivot - factor * row_k[j]
            else:
                for j in range(k + 1, n):
                    row_i[j] = _divexact(row_i[j] * pivot - factor * row_k[j], prev)
        prev = pivot

    d = m[n - 1][n - 1]
    return -d if sign < 0 else d
