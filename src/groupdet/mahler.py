"""Numeric Mahler-type measures for the infinite-group limits.

The logarithmic measure of a one-variable Laurent polynomial comes from
its roots (Jensen's formula), not quadrature; the infinite dihedral and
dihedral-with-center measures are finite combinations of such measures;
the Heisenberg-limit measure integrates a maximum of two slice measures
over one circle numerically, solving the slices of a chunk of the z grid
in one batched root-kernel call per slice degree.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._roots import _aberth, polynomial_roots
from .errors import InvalidParameter, ZeroPolynomial, ZeroSlice

# Slice rows go through the root kernel in chunks whose working set, the
# (B, n, n) difference block and some sixteen (B, n) vectors of complex
# doubles, stays near 1 MB.
_BLOCK_BYTES = 1 << 20


class LaurentPoly:
    """Sparse Laurent polynomial in one variable.

    Construct from a dict {exponent: coefficient}, an iterable of
    (exponent, coefficient) pairs, or a plain coefficient sequence
    (exponents 0, 1, ...).  Zero coefficients are dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, data=()):
        if isinstance(data, LaurentPoly):
            self.terms = dict(data.terms)
            return
        if isinstance(data, dict):
            items = data.items()
        elif data and not isinstance(data, (list, tuple)):
            items = list(data)
        elif data and not isinstance(data[0], tuple):
            items = list(enumerate(data))
        else:
            items = list(data)
        terms = {}
        for e, c in items:
            if c:
                terms[int(e)] = terms.get(int(e), 0) + c
                if not terms[int(e)]:
                    del terms[int(e)]
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self.terms.items()))})"

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def reciprocal(self) -> "LaurentPoly":
        """The substitution x -> 1/x (coefficient reversal)."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    def dense(self):
        """(lowest exponent, ascending coefficient list)."""
        if not self.terms:
            return 0, []
        lo = min(self.terms)
        hi = max(self.terms)
        out = [0] * (hi - lo + 1)
        for e, c in self.terms.items():
            out[e - lo] = c
        return lo, out


def _as_laurent(f) -> LaurentPoly:
    return f if isinstance(f, LaurentPoly) else LaurentPoly(f)


def mahler_measure(f) -> float:
    """Logarithmic Mahler measure of a one-variable Laurent polynomial:
    log |leading coefficient| plus log of every root modulus above 1.
    Monomial shifts do not matter.  Raises ZeroPolynomial on 0."""
    f = _as_laurent(f)
    if f.is_zero():
        raise ZeroPolynomial("measure of the zero polynomial")
    _, c = f.dense()
    m = math.log(abs(c[-1]))
    if len(c) > 1:
        for r in polynomial_roots(c):
            a = abs(r)
            if a > 1.0:
                m += math.log(a)
    return m


def d_infinity_measure(f, g) -> float:
    """Measure of f(x) + y g(x) over the infinite dihedral group:
    half the Mahler measure of f f~ - g g~ (~ is x -> 1/x).  The
    combination vanishing identically (e.g. g = +-f~) is an error."""
    f = _as_laurent(f)
    g = _as_laurent(g)
    h = f * f.reciprocal() - g * g.reciprocal()
    if h.is_zero():
        raise ZeroPolynomial("f f~ - g g~ vanishes identically")
    return 0.5 * mahler_measure(h)


def d_infinity_h_measure(f, g) -> float:
    """Measure of f(x) + y g(x) over the infinite dihedral group with an
    adjoined central involution: the average of the measures of
    f f~ - g g~ and f f~ + g g~, each weighted 1/4."""
    f = _as_laurent(f)
    g = _as_laurent(g)
    a = f * f.reciprocal() - g * g.reciprocal()
    b = f * f.reciprocal() + g * g.reciprocal()
    if a.is_zero() or b.is_zero():
        raise ZeroPolynomial("a combination f f~ -+ g g~ vanishes identically")
    return 0.25 * (mahler_measure(a) + mahler_measure(b))


def d_infinity_h_fourcomponent(f0, f1, f2, f3) -> float:
    """Four-component form of the central-extension measure, for
    F = f0 + y f1 + w f2 + y w f3 with w the central involution.
    Reduces to d_infinity_h_measure(f, g) at (f, g, 0, 0)."""
    f0, f1, f2, f3 = (_as_laurent(t) for t in (f0, f1, f2, f3))
    sp = f0 + f2
    sm = f0 - f2
    tp = f1 + f3
    tm = f1 - f3
    a = sp * sp.reciprocal() - tp * tp.reciprocal()
    b = sm * sm.reciprocal() + tm * tm.reciprocal()
    if a.is_zero() or b.is_zero():
        raise ZeroPolynomial("a component combination vanishes identically")
    return 0.25 * (mahler_measure(a) + mahler_measure(b))


class LimitMeasure(NamedTuple):
    """A Heisenberg-limit measure with the slice root problems solved, the
    sweeps of the slowest, and |value - the mean over the even-indexed
    points|, the value on the points/2 grid (None for odd ``points``)."""

    value: float
    slices: int
    max_iterations: int
    error_estimate: float | None


def heisenberg_infinite_measure(f0, fk, points: int = 512) -> LimitMeasure:
    """Measure of F = f0(y, z) + x^k fk(y, z) in the Heisenberg limit.

    Only this binomial-in-x shape has the closed slice form: for each z
    on the unit circle the integrand is the larger of the two slice
    Mahler measures in y, and the result is the mean over ``points``
    equally spaced z.  Inputs are {(y_exp, z_exp): coefficient} dicts
    (or LaurentPoly for pure-y polynomials).  A slice vanishing
    identically raises ZeroSlice; an identically-zero input raises
    ZeroPolynomial.  The z grid goes through the root kernel in chunks,
    so memory does not grow with ``points``.
    """
    f0 = _as_bivariate(f0)
    fk = _as_bivariate(fk)
    if not f0 or not fk:
        raise ZeroPolynomial("binomial parts must not vanish identically")
    if points < 1:
        raise InvalidParameter(f"need points >= 1, got {points}")
    n = max([1] + [max(e for e, _ in f) - min(e for e, _ in f) for f in (f0, fk)])
    chunk = max(1, _BLOCK_BYTES // (16 * n * (n + 16)))
    total = even = 0.0
    slices = sweeps = 0
    for start in range(0, points, chunk):
        t = np.arange(start, min(start + chunk, points))
        grids = [_slice_rows(f, np.exp(2j * np.pi * t / points)) for f in (f0, fk)]
        dead = np.minimum(*(np.abs(g).max(axis=1) for g in grids)) < 1e-12
        if dead.any():
            raise ZeroSlice(f"slice at angle {t[dead.argmax()]}/{points} vanishes identically")
        (m0, s0, u0), (mk, sk, uk) = (_slice_measures(g) for g in grids)
        best = np.maximum(m0, mk)
        total += float(best.sum())
        even += float(best[t % 2 == 0].sum())
        slices += s0 + sk
        sweeps = max(sweeps, u0, uk)
    value = total / points
    estimate = abs(value - even / (points // 2)) if points % 2 == 0 else None
    return LimitMeasure(value, slices, sweeps, estimate)


def _as_bivariate(f) -> dict:
    if isinstance(f, LaurentPoly):
        return {(e, 0): c for e, c in f.terms.items()}
    if isinstance(f, dict):
        out = {}
        for key, c in f.items():
            if isinstance(key, int):
                key = (key, 0)
            if len(key) != 2:
                raise InvalidParameter(f"bivariate exponent {key!r} must be a pair")
            if c:
                out[(int(key[0]), int(key[1]))] = out.get((int(key[0]), int(key[1])), 0) + c
        return out
    raise InvalidParameter(f"cannot read {type(f).__name__} as a bivariate polynomial")


def _slice_rows(f, zv):
    """The coefficients in y of f at each z of zv, one row per z."""
    ylo = min(e for e, _ in f)
    rows = np.zeros((len(zv), max(e for e, _ in f) - ylo + 1), dtype=np.complex128)
    for (ey, ez), c in f.items():
        rows[:, ey - ylo] += c * zv ** ez
    return rows


def _slice_measures(rows):
    """The Mahler measure of each slice row, the rows that needed roots and
    the sweeps of the slowest.  Numerically dead end coefficients are
    stripped first, so a row's true degree picks its kernel batch."""
    size = np.abs(rows)
    keep = size > 1e-12 * size.max(axis=1, keepdims=True)
    lo = keep.argmax(axis=1)
    hi = keep.shape[1] - keep[:, ::-1].argmax(axis=1)
    m = np.empty(len(rows))
    solved = used = 0
    for a, b in sorted(set(zip(lo.tolist(), hi.tolist()))):
        sel = (lo == a) & (hi == b)
        c = rows[sel, a:b]
        m[sel] = np.log(np.abs(c[:, -1]))
        if b - a > 1:
            z, n = _aberth(c / c[:, -1:])
            m[sel] += np.log(np.maximum(np.abs(z), 1.0)).sum(axis=1)
            solved += len(c)
            used = max(used, n)
    return m, solved, used
