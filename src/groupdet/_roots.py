"""Simultaneous polynomial root refinement (Aberth-Ehrlich iteration).

All numeric measures reduce to finding every root of a modest-degree
polynomial at once; the simultaneous iteration does that with cubic
convergence and no deflation error accumulation.  One numpy kernel
updates all roots of a polynomial per sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import RootFindingFailed, ZeroPolynomial

MAX_ITER = 200
STEP_TOL = 1e-13


def _initial_points(c: np.ndarray) -> np.ndarray:
    n = len(c) - 1
    r = abs(c[0]) ** (1.0 / n) if c[0] != 0 else 1.0
    if not np.isfinite(r) or r < 1e-3:
        r = 1.0
    # slightly eccentric circle: irrational-ish angular offset breaks the
    # symmetry locks a perfectly regular polygon can fall into
    k = np.arange(n)
    return (r * 1.15) * np.exp(2j * np.pi * (k + 0.357) / n + 0.4j)


def _aberth(c: np.ndarray, z: np.ndarray, max_iter: int, tol: float):
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)
    for it in range(max_iter):
        pz = np.zeros_like(z)
        for a in c[::-1]:
            pz = pz * z + a
        dpz = np.zeros_like(z)
        for a in dc[::-1]:
            dpz = dpz * z + a
        bad = dpz == 0
        if bad.any():
            z = z + np.where(bad, 1e-6 * (1.0 + np.abs(z)), 0.0)
            continue
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        bad = denom == 0
        if bad.any():
            z = z + np.where(bad, 1e-6 * (1.0 + np.abs(z)), 0.0)
            continue
        corr = w / denom
        z = z - corr
        if np.all(np.abs(corr) <= tol * (1.0 + np.abs(z))):
            return z, True
    return z, False


def polynomial_roots(coeffs, max_iter: int = MAX_ITER, tol: float = STEP_TOL) -> np.ndarray:
    """All complex roots of sum(coeffs[i] * x^i), counted with multiplicity.

    Zero roots are split off exactly; the rest come from the simultaneous
    iteration, which raises RootFindingFailed if the maximum step has not
    dropped below tol * (1 + |root|) within max_iter sweeps.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    while len(c) and c[-1] == 0:
        c = c[:-1]
    if len(c) == 0:
        raise ZeroPolynomial("zero polynomial has no root set")
    nz = 0
    while c[nz] == 0:
        nz += 1
    c = c[nz:]
    origin = np.zeros(nz, dtype=np.complex128)
    if len(c) == 1:
        return origin
    c = c / c[-1]
    z, ok = _aberth(c, _initial_points(c), max_iter, tol)
    if not ok:
        raise RootFindingFailed(
            f"no convergence after {max_iter} iterations on degree {len(c) - 1}")
    return np.concatenate([origin, z])
