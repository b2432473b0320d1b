"""Independent reference values for checking ``groupdet`` reports.

Nothing here imports ``groupdet``: the group laws follow the documented
exponent conventions of the polynomial JSON format, and every value is
computed by a different route from the program's fast path.

* ``cayley_det``: the group determinant from its definition, an exact
  fraction-free elimination of the Cayley matrix (used up to order 300).
* ``heisenberg_float``: log-magnitudes and signs of the abelian part m1 and
  the block part m2 of a Heisenberg determinant, from numpy ``slogdet`` of
  explicitly built irreducible representations (used above order 300,
  together with the exact congruence M = F(1,1,1)^(p^3) mod p^3).
* ``heisenberg_mod``: m1 and m2 modulo primes q = 1 mod p, from the same
  representations over F_q.  Exact, and unlike floating point it is not
  defeated by the huge cancelling coefficients of constructed witnesses.
* ``heis_limit_measure``, ``dinf_measure``, ``dinfh_measure``: Mahler
  measures from ``numpy.roots``.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

CAYLEY_MAX_ORDER = 300
# Roots closer than this are too ill-conditioned for a 1e-9 comparison
# between two different root finders; inputs with them are redrawn.
MIN_ROOT_SEPARATION = 1e-4


# -- group laws (exponent tuples as in the JSON format) ---------------------


def elements(kind: str, params: tuple) -> list:
    if kind == "cyclic":
        return [(a,) for a in range(params[0])]
    if kind == "elementary":
        p, n = params
        return list(product(range(p), repeat=n))
    if kind == "heisenberg":
        return list(product(range(params[0]), repeat=3))
    if kind == "dihedral":
        return [(i, j) for j in range(2) for i in range(params[0] // 2)]
    if kind == "dicyclic":
        return [(i, j) for j in range(2) for i in range(params[0] // 2)]
    raise ValueError(f"unknown kind {kind!r}")


def multiply(kind: str, params: tuple, a: tuple, b: tuple) -> tuple:
    if kind == "cyclic":
        return ((a[0] + b[0]) % params[0],)
    if kind == "elementary":
        return tuple((u + v) % params[0] for u, v in zip(a, b))
    if kind == "heisenberg":
        # x^i y^j z^k in normal form, z central, y x = x y z
        p = params[0]
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2] + a[1] * b[0]) % p)
    if kind == "dihedral":
        # x^n = y^2 = 1, y x = x^-1 y
        n = params[0] // 2
        return ((a[0] + (-b[0] if a[1] else b[0])) % n, (a[1] + b[1]) % 2)
    if kind == "dicyclic":
        # x^(2n) = 1, y^2 = x^n, y x = x^-1 y
        n = params[0] // 4
        i = a[0] + (-b[0] if a[1] else b[0])
        j = a[1] + b[1]
        if j == 2:
            i, j = i + n, 0
        return (i % (2 * n), j)
    raise ValueError(f"unknown kind {kind!r}")


def bareiss(m) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k]
        a = pk[k]
        for i in range(k + 1, n):
            ri = m[i]
            b = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * a - b * pk[j]) // prev
        prev = a
    return sign * m[n - 1][n - 1]


def cayley_det(kind: str, params: tuple, coeffs: dict) -> int:
    """det[F(g_i g_j^-1)] for F given as {exps tuple: int coefficient}."""
    elems = elements(kind, params)
    if len(elems) > CAYLEY_MAX_ORDER:
        raise ValueError(f"order {len(elems)} is above the Cayley reference cap")
    e0 = elems[0]
    inv = {}
    for a in elems:
        for b in elems:
            if multiply(kind, params, a, b) == e0:
                inv[a] = b
                break
    return bareiss([[coeffs.get(multiply(kind, params, gi, inv[gj]), 0)
                     for gj in elems] for gi in elems])


# -- Heisenberg determinants in floating point ------------------------------


def _log_sign(values):
    """(sign, log|prod|) of a product of complex numbers that is real."""
    logabs = 0.0
    angle = 0.0
    for v in values:
        a = abs(v)
        if a == 0.0:
            return 0, -math.inf
        logabs += math.log(a)
        angle += cmath.phase(v)
    c = math.cos(angle)
    if abs(abs(c) - 1.0) > 1e-6:
        raise ArithmeticError("product of conjugate factors is not real")
    return (1 if c > 0 else -1), logabs


def heisenberg_float(p: int, coeffs: dict) -> dict:
    """Sign and log|.| of m1 (linear characters) and m2 (the p-dimensional
    representations), with M = m1 * m2^p."""
    w = cmath.exp(2j * math.pi / p)
    chars = []
    for a in range(p):
        for b in range(p):
            chars.append(sum(c * w ** ((a * i + b * j) % p)
                             for (i, j, _), c in coeffs.items()))
    shift = np.roll(np.eye(p, dtype=complex), 1, axis=0)  # e_c -> e_(c+1)
    xs = [np.linalg.matrix_power(shift, i) for i in range(p)]
    blocks = []
    for j in range(1, p):
        y = np.diag([w ** ((j * c) % p) for c in range(p)])
        z = w ** j
        if not np.allclose(y @ shift, shift @ y * z):
            raise ArithmeticError("representation violates y x = x y z")
        ys = [np.linalg.matrix_power(y, i) for i in range(p)]
        rho = np.zeros((p, p), dtype=complex)
        for (ei, ej, ek), c in coeffs.items():
            rho += c * (xs[ei] @ ys[ej]) * z ** ek
        sign, logabs = np.linalg.slogdet(rho)
        blocks.append((complex(sign), float(logabs)))
    s1, l1 = _log_sign(chars)
    angle = sum(cmath.phase(s) for s, _ in blocks)
    c2 = math.cos(angle)
    if abs(abs(c2) - 1.0) > 1e-6:
        raise ArithmeticError("block determinant product is not real")
    s2 = 0 if any(s == 0 for s, _ in blocks) else (1 if c2 > 0 else -1)
    return {"m1": (s1, l1), "m2": (s2, sum(l for _, l in blocks))}


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_one_mod(p: int, count: int = 2) -> list:
    """The largest primes below 2^31 that are 1 mod p (so F_q holds the
    p-th roots of unity)."""
    out = []
    q = (2 ** 31 - 1) // p * p + 1
    while len(out) < count:
        q -= p
        if _is_prime(q):
            out.append(q)
    return out


def _det_mod(m, q: int) -> int:
    m = [list(r) for r in m]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] % q), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        inv = pow(m[k][k], q - 2, q)
        det = det * m[k][k] % q
        for i in range(k + 1, n):
            f = m[i][k] * inv % q
            if f:
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[k])]
    return det % q


def heisenberg_mod(p: int, coeffs: dict, q: int) -> tuple:
    """(m1 mod q, m2 mod q) for a prime q = 1 mod p, from the same
    representations as heisenberg_float, over F_q instead of C."""
    w = next(x for x in (pow(h, (q - 1) // p, q) for h in range(2, q)) if x != 1)
    wp = [pow(w, e, q) for e in range(p)]
    m1 = 1
    for a in range(p):
        for b in range(p):
            m1 = m1 * sum(c * wp[(a * i + b * j) % p] for (i, j, _), c in coeffs.items()) % q
    m2 = 1
    for jj in range(1, p):
        rho = [[0] * p for _ in range(p)]
        for (ei, ey, ez), c in coeffs.items():
            for col in range(p):
                row = (col + ei) % p
                rho[row][col] += c * wp[jj * (col * ey + ez) % p]
        m2 = m2 * _det_mod(rho, q) % q
    return m1, m2


def float_matches(n: int, ref: tuple, rel: float = 1e-9) -> bool:
    """Whether the exact integer n has the sign and log-magnitude of ref."""
    sign, logabs = ref
    if n == 0 or sign == 0:
        return n == 0 and sign == 0
    if (n > 0) != (sign > 0):
        return False
    return abs(math.log(abs(n)) - logabs) <= rel * max(1.0, abs(logabs))


# -- integer facts -----------------------------------------------------------


def p_valuation(n: int, p: int):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def smallest_non_fermat_base(p: int) -> int:
    return next(a for a in range(2, p - 1) if pow(a, p, p * p) != a)


def min_coprime_value(p: int) -> int:
    """Smallest x >= 2 with x^(p-1) = 1 mod p^3."""
    return next(x for x in range(2, p ** 3 + 1) if pow(x, p - 1, p ** 3) == 1)


# -- Mahler measures by numpy.roots -----------------------------------------


def _trimmed(coeffs):
    """Ascending coefficients without numerically zero ends."""
    c = np.asarray(coeffs, dtype=complex)
    scale = np.abs(c).max()
    if scale < 1e-12:
        raise ZeroDivisionError("polynomial vanishes")
    idx = np.nonzero(np.abs(c) > 1e-12 * scale)[0]
    return c[idx[0]:idx[-1] + 1]


def _measure(coeffs, check_separation: bool) -> float:
    c = _trimmed(coeffs)
    m = math.log(abs(c[-1]))
    if len(c) > 1:
        roots = np.roots(c[::-1])
        if check_separation and len(roots) > 1:
            d = np.abs(roots[:, None] - roots[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() < MIN_ROOT_SEPARATION:
                raise ArithmeticError("nearly repeated root")
        m += float(np.log(np.maximum(np.abs(roots), 1.0)).sum())
    return m


def heis_limit_measure(f0: dict, fk: dict, points: int, check: bool = False) -> float:
    """Mean over z = e^(2 pi i t / points) of the larger slice measure, for
    bivariate {(y_exp, z_exp): coef} parts with nonnegative exponents."""
    acc = 0.0
    for t in range(points):
        zv = cmath.exp(2j * math.pi * t / points)
        best = -math.inf
        for part in (f0, fk):
            coeffs = [0j] * (max(e for e, _ in part) + 1)
            for (ey, ez), c in part.items():
                coeffs[ey] += c * zv ** ez
            best = max(best, _measure(coeffs, check))
        acc += best
    return acc / points


def _times_reciprocal(f: dict, g: dict, sign: int) -> list:
    """Ascending coefficients of f f~ + sign * g g~ (shifted to start at 0)."""
    deg = max(max(f), max(g))
    out = [0] * (2 * deg + 1)
    for h, s in ((f, 1), (g, sign)):
        for a, ca in h.items():
            for b, cb in h.items():
                out[a - b + deg] += s * ca * cb
    return out


def dinf_measure(f: dict, g: dict, check: bool = False) -> float:
    return 0.5 * _measure(_times_reciprocal(f, g, -1), check)


def dinfh_measure(f: dict, g: dict, check: bool = False) -> float:
    return 0.25 * (_measure(_times_reciprocal(f, g, -1), check)
                   + _measure(_times_reciprocal(f, g, 1), check))
