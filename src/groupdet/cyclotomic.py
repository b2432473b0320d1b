"""Exact arithmetic in Z[w] for w = exp(2*pi*i/p), p prime.

Elements are stored in canonical coordinates over the power basis
1, w, ..., w^(p-2); the relation w^(p-1) = -(1 + w + ... + w^(p-2)) is
applied eagerly, so equality is plain coefficient comparison and the zero
test is exact.  Character values and block determinants live here; the
p-adic valuations the package reports are taken of the rational integers
they multiply out to (``verify.p_valuation``).
"""

from __future__ import annotations

from .errors import InexactDivision, InvalidParameter, NotInteger, PrimeMismatch
from .exactdet import RingElement


class CycInt(RingElement):
    """An element of Z[w] in canonical power-basis coordinates.

    ``coeffs`` always has length p - 1.  Mixed-prime operations raise
    :class:`PrimeMismatch`; integer operands are coerced.
    """

    __slots__ = ("p", "coeffs", "_clearing")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != p - 1:
            raise InvalidParameter(
                f"need {p - 1} coefficients for prime {p}, got {len(coeffs)}"
            )
        self.p = p
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    @classmethod
    def from_exponent_vector(cls, p: int, vec) -> "CycInt":
        """Reduce a length-p coefficient vector (indexed by the exponent
        of w) to canonical coordinates using 1 + w + ... + w^(p-1) = 0."""
        if len(vec) != p:
            raise InvalidParameter(f"need {p} accumulator slots, got {len(vec)}")
        top = vec[p - 1]
        if top:
            return cls(p, tuple([c - top for c in vec[:-1]]))
        return cls(p, tuple(vec[:-1]))

    # -- basic ring structure -----------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return CycInt.from_int(self.p, other)
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise PrimeMismatch(f"mixed primes {self.p} and {other.p}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        acc = [0] * p
        b = o.coeffs
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    acc[(i + j) % p] += ai * bj
        return CycInt.from_exponent_vector(p, acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InvalidParameter("negative powers leave Z[w]")
        out = CycInt.one(self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycInt(p={self.p}, {list(self.coeffs)})"

    # -- structure maps ------------------------------------------------

    def galois(self, k: int) -> "CycInt":
        """Apply the automorphism w -> w^k (1 <= k <= p-1)."""
        p = self.p
        if not 1 <= k <= p - 1:
            raise InvalidParameter(f"automorphism index {k} not in 1..{p - 1}")
        acc = [0] * p
        for i, c in enumerate(self.coeffs):
            if c:
                acc[(i * k) % p] += c
        return CycInt.from_exponent_vector(p, acc)

    def conjugates_product(self) -> "CycInt":
        """Product of all Galois conjugates other than the element itself."""
        out = CycInt.one(self.p)
        for k in range(2, self.p):
            out = out * self.galois(k)
        return out

    def norm(self) -> int:
        """Field norm down to Z (product over all conjugates)."""
        return self._clear()[1]

    def _clear(self):
        """(conjugates product, norm), computed once per element: a Bareiss
        pivot divides a whole step, and elements never change."""
        try:
            return self._clearing
        except AttributeError:
            pass
        conj = self.conjugates_product()
        n = (self * conj).as_integer()
        if n is None:
            raise NotInteger(f"norm of {self!r} is not a rational integer")
        self._clearing = conj, n
        return conj, n

    def as_integer(self):
        """The rational integer this element equals, or None.

        Canonical coordinates make this a plain pattern match: an element
        is in Z exactly when all coordinates above the constant vanish.
        """
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- divisibility --------------------------------------------------

    def divexact(self, other):
        """Exact quotient self / other; raises InexactDivision otherwise.

        Clears the denominator with its Galois conjugates, so the division
        reduces to p - 1 integer divisions by the norm.  Exactness of all
        of them is equivalent to divisibility in Z[w] because the ring is
        an integral domain.  The conjugates product and the norm are
        computed on the first division by ``other`` and kept on it, so
        each further division by the same divisor costs one product.
        """
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        elif not isinstance(other, CycInt):
            raise TypeError(f"cannot divide CycInt by {type(other).__name__}")
        elif other.p != self.p:
            raise PrimeMismatch(f"mixed primes {self.p} and {other.p}")
        conj, denom = other._clear()
        if denom == 0:
            raise ZeroDivisionError("division by zero in Z[w]")
        num = self * conj
        out = []
        for c in num.coeffs:
            q, r = divmod(c, denom)
            if r:
                raise InexactDivision(f"{self!r} is not divisible by {other!r}")
            out.append(q)
        return CycInt(self.p, tuple(out))


def eval_bivariate_at_roots(coeffs2d, i: int, j: int, p: int) -> CycInt:
    """Evaluate sum(c[b][k] y^b z^k) at (y, z) = (w^i, w^j) exactly."""
    acc = [0] * p
    for b, row in enumerate(coeffs2d):
        ib = i * b
        for k, c in enumerate(row):
            if c:
                acc[(ib + j * k) % p] += c
    return CycInt.from_exponent_vector(p, acc)
