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
from .polyring import times_reciprocal

# Slice rows go through the root kernel in chunks whose working set, the
# (B, n, n) difference block and some sixteen (B, n) vectors of complex
# doubles, stays near 1 MB.
_BLOCK_BYTES = 1 << 20


def _dense(f) -> list:
    """Coefficients of f from its lowest nonzero term to its highest: f is a
    {exponent: coefficient} dict, as ``parsing.univariate`` returns, or a
    coefficient sequence from exponent 0.  Monomial shifts do not matter
    to any measure here, so the lowest exponent is dropped."""
    if isinstance(f, dict):
        terms = {int(e): c for e, c in f.items() if c}
        if not terms:
            return []
        lo = min(terms)
        f = [0] * (max(terms) - lo + 1)
        for e, c in terms.items():
            f[e - lo] = c
    nonzero = [i for i, c in enumerate(f) if c]
    return list(f[nonzero[0]:nonzero[-1] + 1]) if nonzero else []


def _times_reciprocals(f, g) -> tuple:
    """f f~ and g g~ (~ is x -> 1/x), as coefficient lists of exponents
    1 - n to n - 1, for n the longer dense length: modulo x^(2n-1) - 1
    nothing wraps, and the negative exponents sit at the top."""
    f, g = _dense(f), _dense(g)
    n = max(len(f), len(g), 1)
    out = []
    for c in (f, g):
        r = times_reciprocal(c, 2 * n - 1)
        out.append(r[n:] + r[:n])
    return tuple(out)


def mahler_measure(f) -> float:
    """Logarithmic Mahler measure of a one-variable Laurent polynomial
    (a dict or a coefficient sequence, as ``_dense`` reads them):
    log |leading coefficient| plus log of every root modulus above 1.
    Monomial shifts do not matter.  Raises ZeroPolynomial on 0."""
    c = _dense(f)
    if not c:
        raise ZeroPolynomial("measure of the zero polynomial")
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
    ff, gg = _times_reciprocals(f, g)
    h = [a - b for a, b in zip(ff, gg)]
    if not any(h):
        raise ZeroPolynomial("f f~ - g g~ vanishes identically")
    return 0.5 * mahler_measure(h)


def d_infinity_h_measure(f, g) -> float:
    """Measure of f(x) + y g(x) over the infinite dihedral group with an
    adjoined central involution: the average of the measures of
    f f~ - g g~ and f f~ + g g~, each weighted 1/4."""
    ff, gg = _times_reciprocals(f, g)
    a = [x - y for x, y in zip(ff, gg)]
    b = [x + y for x, y in zip(ff, gg)]
    if not any(a) or not any(b):
        raise ZeroPolynomial("a combination f f~ -+ g g~ vanishes identically")
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
    equally spaced z.  Inputs are {(y_exp, z_exp): coefficient} dicts.
    A slice vanishing identically raises ZeroSlice; an identically-zero
    input raises ZeroPolynomial.  The z grid goes through the root kernel
    in chunks, so memory does not grow with ``points``.
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
    if not isinstance(f, dict):
        raise InvalidParameter(f"cannot read {type(f).__name__} as a bivariate polynomial")
    out = {}
    for key, c in f.items():
        if not isinstance(key, tuple) or len(key) != 2:
            raise InvalidParameter(f"bivariate exponent {key!r} must be a pair")
        if c:
            key = (int(key[0]), int(key[1]))
            out[key] = out.get(key, 0) + c
    return out


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
