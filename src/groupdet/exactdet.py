"""Exact integer determinants and the multimodular certificate.

``det_int`` is the one determinant of integer matrices, the Cayley
matrices of the ``oracle``, by panel elimination modulo primes (``_det_mod``).
The certificate is shared: ``modular_primes`` picks primes q = 1 (mod n)
below 2^26 past twice a bound on the value, and ``crt_values`` recovers
the values and checks each against one further prime, for ``det_int``
and for the roots-of-unity engine of ``measures``, which evaluates at
n-th roots of unity modulo those primes and eliminates its Heisenberg
blocks with ``_det_mod`` too.  ``_exact_rows`` reads integer arrays as
int64 or Python ints for both and for the searches, and ``_hadamard_sq``
bounds ``det_int`` and the engine's direct routes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GroupDetError, InvalidParameter

# Elimination works modulo primes below 2^26, so that its entries stay in
# int64.  det_int eliminates its primes in batches whose int64 block stays
# within _BLOCK_BYTES: one batch for a dense height-2 Cayley matrix up to
# order about 140, batches of 5 primes at order 300.
_PRIME_BOUND = 1 << 26
_BLOCK_BYTES = 1 << 22
_INT64_MAX = (1 << 63) - 1
# Column panels of _det_mod, at most 32 wide (its docstring); its products
# of at most 2^15 entries (256 KB) stay on one OpenBLAS thread.
_PANEL = 16
_PRODUCT_ENTRIES = 1 << 15
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


def _exact_rows(block, width: int, room: int = 1):
    """``block`` as a (B, width) array of exact integers: int64 when every
    entry times ``room`` stays inside int64, else Python ints in an
    object array."""
    try:
        a = np.asarray(block, dtype=np.int64)
    except (OverflowError, ValueError):
        rows = [list(map(int, r)) for r in block]
        if any(len(r) != width for r in rows):
            raise InvalidParameter(f"need rows of {width} coefficients") from None
        return np.array(rows, dtype=object).reshape(len(rows), width)
    if a.ndim != 2 or a.shape[1] != width:
        raise InvalidParameter(f"need rows of {width} coefficients, got shape {a.shape}")
    limit = _INT64_MAX // room
    if a.size and not (-limit <= a.min() and a.max() <= limit):
        return a.astype(object)
    return a


def _hadamard_sq(x) -> int:
    """(largest sum c^2 over the rows of the exact array x)^(its width):
    the squared Hadamard bound of a matrix whose rows all have that norm,
    as the rows of one Cayley matrix do, and past it for any other."""
    if x.dtype != object and -(1 << 20) < x.min() and x.max() < 1 << 20:
        norm = int(np.einsum("ij,ij->i", x, x).max())
    else:
        norm = max(sum(v * v for v in r) for r in x.tolist())
    return norm ** x.shape[1]


def det_int(rows) -> int:
    """Exact determinant of a nonempty square matrix of Python ints (lists
    or an object array), taken modulo the ``modular_primes`` of
    ``_hadamard_sq``, recovered by ``crt_values``, checked by one more
    prime.
    """
    n = len(rows)
    if not n or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    a = _exact_rows(rows, n)
    primes, modulus = modular_primes(_hadamard_sq(a))
    per = max(1, _BLOCK_BYTES // (8 * n * n))
    block = np.empty((min(per, len(primes)), n, n), dtype=np.int64)  # reused by every batch
    residues = []
    for i in range(0, len(primes), per):
        batch = primes[i:i + per]
        b = block[:len(batch)]
        residues += _det_mod(np.remainder(a, np.array(batch, dtype=a.dtype)[:, None, None],
                                          out=b, casting="unsafe"), batch)
    return crt_values([[r] for r in residues], primes, modulus)[0]


# (n, prime bound) -> (the primes q = 1 (mod n) below the bound found so
# far, largest first; the search for the rest), so that each candidate is
# tested once a process: a value of b bits takes about b / 26 primes, and
# finding each takes some ten to twenty primality tests
_PRIMES_FOUND = {}


def _primes_1_mod(n: int):
    step = n if n % 2 == 0 else 2 * n  # odd candidates only
    top = (_PRIME_BOUND - 2) // step * step + 1
    found, rest = _PRIMES_FOUND.setdefault((n, _PRIME_BOUND),
                                           ([], filter(is_prime, range(top, n, -step))))
    yield from found
    for q in rest:
        found.append(q)
        yield q


def modular_primes(bound_sq: int, n: int = 2) -> tuple:
    """Primes q = 1 (mod n) below 2^26, largest first, enough to recover
    any integer of absolute value at most sqrt(bound_sq): their product,
    the modulus, exceeds twice that.  One further prime, the last in the
    list, checks the result.  InvalidParameter if the primes run out."""
    primes, modulus = [], 1
    need = math.isqrt(4 * bound_sq)  # modulus^2 > 4 bound_sq iff modulus > need
    for q in _primes_1_mod(n):
        primes.append(q)
        if modulus > need:
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


def _pow_mod(x, e, q):
    """x^e modulo q elementwise for int64 arrays (or scalars) with
    0 <= x < q < 2^31 and e >= 0, by square and multiply."""
    x, e = np.asarray(x, dtype=np.int64), np.asarray(e, dtype=np.int64)
    out = np.ones(np.broadcast(x, e).shape, dtype=np.int64)
    while e.any():
        out = np.where(e & 1, out * x % q, out)
        x, e = x * x % q, e >> 1
    return out


def _inverse_mod(v, q):
    """v^-1 modulo q elementwise for int64 arrays, 0 for 0: Python's pow
    below 256 values, where numpy's per-call cost dominates, and
    v^(q - 2) by square and multiply from there on."""
    if len(v) < 256:
        return np.array([pow(x, -1, m) if x else 0 for x, m in zip(v.tolist(), q.tolist())],
                        dtype=np.int64)
    return _pow_mod(v, q - 2, q)


def _det_mod(a, primes) -> list:
    """Determinant of each a[b] modulo primes[b] (or modulo one prime for
    all), entries in [0, prime); a is overwritten.

    In column panels of width _PANEL, a step swaps in the first pivot
    nonzero modulo q (whole rows), stores the multipliers L in its column
    and updates only the panel's columns: a row swapped in from below has
    had none of the panel's updates.  The panel's rows are then
    forward-substituted right of it (U12), and L21 U12 leaves the trailing
    block as two float64 products, a few rows of L21 at a time, each row
    split as h 2^13 + l with l < 2^13.  Exact: L21 and U12 are reduced, so
    h, l < 2^13 and a sum of _PANEL <= 32 non-negative terms h u (or l u)
    is below 32 * 2^13 * 2^26 = 2^44; every partial sum BLAS forms, in any
    order, is such a sum or 2^13 times one, within float64's 53 bits.  In
    int64 each entry still gains at most one product of two residues per
    eliminated column: |entry| < n q^2 + q < 2^63.
    """
    nb, n, _ = a.shape
    q = np.broadcast_to(np.asarray(primes, dtype=np.int64), (nb,))
    top = int(q.max()) if nb else 0
    if n * top ** 2 + top >= 1 << 63:
        raise InvalidParameter(f"{n} x {n} is too large for int64 elimination")
    at = np.arange(nb)
    det = np.ones(nb, dtype=np.int64)
    qc = q[:, None]
    # the trailing-update products, in one buffer made once: the first
    # update is the largest, nb * (rows of a step) * (n - _PANEL) entries
    cols = max(0, n - _PANEL)
    product = np.empty(min(nb * cols * cols, max(_PRODUCT_ENTRIES, nb * cols)))
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        for k in range(k0, k1):
            col = a[:, k:, k] % qc
            off = (col != 0).argmax(axis=1)  # 0 where the column vanishes
            if off.any():
                a[at, k], a[at, k + off] = a[at, k + off], a[at, k]
                det = np.where(off > 0, -det, det)
                col = a[:, k:, k] % qc
            pivot = col[:, 0]
            det = det * pivot % q
            a[:, k + 1:, k] = col[:, 1:] * _inverse_mod(pivot, q)[:, None] % qc
            a[:, k + 1:, k + 1:k1] -= a[:, k + 1:, k, None] * (a[:, k, k + 1:k1] % qc)[:, None]
        if k1 == n:
            break
        for k in range(k0, k1):
            a[:, k, k1:] %= qc
            a[:, k + 1:k1, k1:] -= a[:, k + 1:k1, k, None] * a[:, k, None, k1:]
        u = a[:, k0:k1, k1:].astype(np.float64)
        step = max(1, _PRODUCT_ENTRIES // (nb * (n - k1)))
        for i in range(k1, n, step):
            rows, rest = a[:, i:i + step, k0:k1], a[:, i:i + step, k1:]
            f = product[:rest.size].reshape(rest.shape)
            for half in (rows & -8192, rows & 8191):  # h 2^13, then l
                np.matmul(half.astype(np.float64), u, out=f)
                np.subtract(rest, f, out=rest, dtype=np.int64, casting="unsafe")
    return det.tolist()
