"""Exact determinants over the integers and other domains.

One Bareiss elimination serves matrices over Z[w] (Heisenberg blocks of
``CycInt`` entries) and over Z, where ``det_int`` uses it for small
Cayley matrices and a certified multimodular elimination for large ones.
The multimodular certificate is shared: ``modular_primes`` picks primes
q = 1 (mod n) below 2^26 past twice a Hadamard bound, and ``crt_values``
recovers the values and checks each against one further prime, for
``det_int`` and for the circulant routes of ``measures``, which evaluate
at n-th roots of unity modulo those primes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GroupDetError, InexactDivision, InvalidParameter

# Below this dimension Bareiss over Z is faster than the multimodular
# route, which works modulo primes below 2^26 (so its entries stay in
# int64) in batches that keep the int64 block near 1 MB.
MULTIMODULAR_CUTOFF = 32
_PRIME_BOUND = 1 << 26
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: deterministic below
    3.3e24 (Sorenson and Webster, Math. Comp. 86 (2017)), far past any
    group the package can build or prime it eliminates modulo.  Below
    3,215,031,751, the least strong pseudoprime to them (Jaeschke, Math.
    Comp. 61 (1993)), the bases 2, 3, 5 and 7 suffice, as for the primes
    below 2^26 that the multimodular routes pick."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _MR_BASES if n >= 3_215_031_751 else _MR_BASES[:4]:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << j, n) != n - 1 for j in range(s)):
            return False
    return True


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


def det_int(rows) -> int:
    """Exact determinant of a square matrix of Python ints: ``det_bareiss``
    below ``MULTIMODULAR_CUTOFF`` rows.  Above, the determinant is taken
    modulo the ``modular_primes`` of its Hadamard bound and recovered by
    ``crt_values``, which checks it against one further prime.
    """
    n = len(rows)
    if n < MULTIMODULAR_CUTOFF:
        return det_bareiss(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    primes, modulus = modular_primes(math.prod(sum(a * a for a in r) for r in rows))
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:  # entries past int64 are reduced exactly, in Python
        a = None
    per = max(1, (1 << 20) // (8 * n * n))
    residues = []
    for i in range(0, len(primes), per):
        batch = primes[i:i + per]
        block = (a % np.array(batch, dtype=np.int64)[:, None, None] if a is not None else
                 np.array([[[x % q for x in r] for r in rows] for q in batch], dtype=np.int64))
        residues += _det_mod(block, batch)
    return crt_values([[r] for r in residues], primes, modulus)[0]


def modular_primes(bound_sq: int, n: int = 2) -> tuple:
    """Primes q = 1 (mod n) below 2^26, largest first, enough to recover
    any integer of absolute value at most sqrt(bound_sq): their product,
    the modulus, exceeds twice that.  One further prime, the last in the
    list, checks the result.  InvalidParameter if the primes run out."""
    primes, modulus = [], 1
    top = (_PRIME_BOUND - 2) // n * n + 1
    for q in filter(is_prime, range(top, n, -n)):
        primes.append(q)
        if modulus * modulus > 4 * bound_sq:
            return primes, modulus
        modulus *= q
    raise InvalidParameter(f"the primes 1 mod {n} below {_PRIME_BOUND} cannot "
                           f"certify a value of {bound_sq.bit_length() // 2} bits")


def crt_values(residues, primes, modulus) -> list:
    """The integers in (-modulus/2, modulus/2] with residues[i][b] modulo
    primes[i] for i below the last, one per column b, by the Chinese
    remainder theorem.  Each must leave residues[-1][b] modulo primes[-1],
    the check prime, or GroupDetError is raised."""
    r = np.array(residues, dtype=object)
    coef = np.array([(c := modulus // q) * pow(c, -1, q) for q in primes[:-1]],
                    dtype=object).reshape(-1, 1)
    value = (r[:-1] * coef).sum(axis=0) % modulus
    value = np.where(2 * value > modulus, value - modulus, value)
    if (value % primes[-1] != r[-1]).any():
        raise GroupDetError(f"multimodular determinant fails its check modulo {primes[-1]}")
    return value.tolist()


def _det_mod(a, primes) -> list:
    """Determinant of each a[b] modulo primes[b], entries in [0, primes[b]).
    Each step reduces only the pivot row and column, so every other entry
    gains at most one product of two residues a step: |entry| < n q^2 + q.
    """
    nb, n, _ = a.shape
    q = np.array(primes, dtype=np.int64)
    if n * max(primes) ** 2 + max(primes) >= 1 << 63:
        raise InvalidParameter(f"{n} x {n} is too large for int64 elimination")
    at = np.arange(nb)
    det = np.ones(nb, dtype=np.int64)
    qc = q[:, None]
    for k in range(n):
        col = a[:, k:, k] % qc
        off = (col != 0).argmax(axis=1)  # 0 where the column vanishes
        if off.any():
            a[at, k], a[at, k + off] = a[at, k + off], a[at, k]
            det = np.where(off > 0, -det, det)
            col = a[:, k:, k] % qc
        pivot = col[:, 0]
        det = det * pivot % q
        inv = [pow(v, -1, p) if v else 0 for v, p in zip(pivot.tolist(), primes)]
        factor = col[:, 1:] * np.array(inv, dtype=np.int64)[:, None] % qc
        a[:, k + 1:, k + 1:] -= factor[:, :, None] * (a[:, k, k + 1:] % qc)[:, None, :]
    return det.tolist()
