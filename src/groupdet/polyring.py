"""The package's one integer polynomial product, on dense coefficient lists.

``mul_fold_cyclic`` multiplies modulo y^n - 1.  With n at least the
length of the plain product it never wraps, so it is the plain product
too.  ``times_reciprocal`` forms f f~ with it for the infinite dihedral
measures, and the verifiers take their power sums and folded powers
from it.
"""

from __future__ import annotations


def mul_fold_cyclic(a, b, n: int) -> list:
    """Product of two coefficient lists reduced modulo y^n - 1."""
    out = [0] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[(i + j) % n] += ai * bj
    return out


def pow_fold_cyclic(base, e: int, n: int) -> list:
    """base(y)^e modulo y^n - 1, by binary exponentiation."""
    out = [0] * n
    out[0] = 1
    cur = [0] * n
    for i, c in enumerate(base):
        cur[i % n] += c
    while e:
        if e & 1:
            out = mul_fold_cyclic(out, cur, n)
        cur = mul_fold_cyclic(cur, cur, n)
        e >>= 1
    return out


def times_reciprocal(f, m: int) -> list:
    """f(y) f(1/y) modulo y^m - 1, with f folded to length m first: the
    product of f and f~, whose coefficients modulo y^m - 1 are f[0],
    f[m-1], ..., f[1].  For m >= 2 len(f) - 1 nothing wraps, and the
    coefficient of y^d, |d| < len(f), sits at index d mod m."""
    f = mul_fold_cyclic(f, [1], m)
    return mul_fold_cyclic(f, f[:1] + f[:0:-1], m)
