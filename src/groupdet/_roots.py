"""Simultaneous polynomial root refinement (Aberth-Ehrlich iteration).

All numeric measures reduce to finding every root of a modest-degree
polynomial at once; the simultaneous iteration does that with cubic
convergence and no deflation error accumulation.  One numpy kernel
updates all roots of a batch of equal-degree polynomials per sweep, one
row per polynomial, and drops each row as it converges (Bini, Numer.
Algorithms 13, 1996); ``polynomial_roots`` is its one-row call.
"""

from __future__ import annotations

import numpy as np

from .errors import RootFindingFailed, ZeroPolynomial

MAX_ITER = 200
STEP_TOL = 1e-13


def _aberth(c: np.ndarray, max_iter: int = MAX_ITER, tol: float = STEP_TOL):
    """Every root of each monic row of c, shape (B, n + 1), ascending.

    A row leaves the sweep once its largest step is below
    tol * (1 + |root|).  Returns the (B, n) roots and the sweep count of
    the slowest row; raises RootFindingFailed if any row still moves
    after max_iter sweeps.
    """
    n = c.shape[1] - 1
    # start on a slightly eccentric circle of radius |c_0|^(1/n): the
    # irrational-ish angular offset breaks the symmetry locks a regular
    # polygon can fall into.  The radius takes scalar abs and pow, as
    # numpy's vectorised forms can differ in the last bit, and a row's
    # roots must not depend on the batch it is solved in.
    r = np.array([abs(a) ** (1.0 / n) for a in c[:, 0].tolist()])
    r[~np.isfinite(r) | (r < 1e-3)] = 1.0
    z = (r[:, None] * 1.15) * np.exp(2j * np.pi * (np.arange(n) + 0.357) / n + 0.4j)
    roots = np.empty((len(c), n), dtype=np.complex128)
    live = np.arange(len(c))
    dc = c[:, 1:] * np.arange(1, n + 1)
    for sweep in range(1, max_iter + 1):
        pz = np.zeros_like(z)
        for k in range(n, -1, -1):
            pz = pz * z + c[:, k, None]
        dpz = np.zeros_like(z)
        for k in range(n - 1, -1, -1):
            dpz = dpz * z + dc[:, k, None]
        diff = z[:, :, None] - z[:, None, :]
        diff.reshape(len(z), n * n)[:, ::n + 1] = np.inf
        s = np.divide(1.0, diff, out=diff).sum(axis=2)
        # a zero derivative, or else a zero denominator, nudges the roots
        # where it occurs and costs the row this sweep
        flat = dpz == 0
        w = pz / np.where(flat, 1.0, dpz)
        denom = 1.0 - w * s
        nudge = flat | ((denom == 0) & ~flat.any(axis=1, keepdims=True))
        corr = w / np.where(nudge, 1.0, denom)
        stalled = nudge.any(axis=1, keepdims=True)
        z = np.where(stalled, z + np.where(nudge, 1e-6 * (1.0 + np.abs(z)), 0.0), z - corr)
        done = ~stalled[:, 0] & np.all(np.abs(corr) <= tol * (1.0 + np.abs(z)), axis=1)
        if done.any():
            roots[live[done]] = z[done]
            live, z, c, dc = live[~done], z[~done], c[~done], dc[~done]
            if not len(live):
                return roots, sweep
    raise RootFindingFailed(f"no convergence after {max_iter} iterations on degree {n}")


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
    z, _ = _aberth((c / c[-1])[None], max_iter, tol)
    return np.concatenate([origin, z[0]])
