"""Verifiers for the arithmetic claims the determinant values satisfy.

Each function either checks a congruence/divisibility statement on a
concrete polynomial or constructs the explicit family that witnesses
sharpness of a bound.  A polynomial over the order-p^3 Heisenberg group
is its coefficient vector in label order, a_ijk at (i * p + j) * p + k,
as ``KINDS["heisenberg"].flat_coeffs`` places it.  Everything is exact
integer arithmetic; reports carry both sides of each congruence so
failures are inspectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InexactDivision, InvalidParameter, PreconditionViolated
from .exactdet import is_prime
from .groups import KINDS
from .measures import abelian_measure, char_product_2d, heisenberg_measure, measure_h3
from .polyring import pow_fold_cyclic


def p_valuation(m: int, p: int):
    """Exponent of p in m (math.inf for m = 0)."""
    if p < 2:
        raise InvalidParameter(f"p-adic valuation needs p >= 2, got {p}")
    if m == 0:
        return math.inf
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def is_power_residue(x: int, p: int, n: int) -> bool:
    """True iff gcd(x, p) = 1 and x^(p-1) == 1 (mod p^n).

    These are exactly the residues mod p^n attainable as values coprime
    to p, for both the cyclic group of order p^n and the order-p^3
    Heisenberg group (with n = 3).
    """
    if math.gcd(x, p) != 1:
        return False
    return pow(x, p - 1, p ** n) == 1


@dataclass
class CongruenceReport:
    """Both sides of M == F(1,1,1)^(p^3) mod p^3."""

    p: int
    m: int
    base: int
    modulus: int
    lhs_residue: int
    rhs_residue: int
    holds: bool


def check_measure_congruence(p: int, coeffs, m: int) -> CongruenceReport:
    """Verify that the determinant m of F (its coefficient vector) over
    the order-p^3 Heisenberg group is congruent to F(1,1,1)^(p^3) mod p^3."""
    modulus = p ** 3
    base = sum(coeffs)
    lhs = m % modulus
    rhs = pow(base, p ** 3, modulus)
    return CongruenceReport(p=p, m=m, base=base, modulus=modulus,
                            lhs_residue=lhs, rhs_residue=rhs,
                            holds=lhs == rhs)


# -- attaining every allowed coprime value --------------------------------


def achieve_construction(a: int, m: int, p: int):
    """Build F over the order-p^3 Heisenberg group whose determinant is
    exactly a^(p^2) + m p^3, for any a >= 1 coprime to p and any m.

    The construction: expand (1 + y + ... + y^(a-1))^p mod y^p - 1 as
    a + p g(y), then (a + p g(y))^p mod y^p - 1 as a^p + p^2 h(y), and
    assemble

        F = (1 + z + ... + z^(a-1)) + g(y) Phi(z) + h(x) Phi(y) Phi(z)
            + m Phi(x) Phi(y) Phi(z)

    with Phi the (1 + t + ... + t^(p-1)) factor.  Returns (F, value):
    F as its coefficient vector, the value by the factorized route.
    Modulo t^p - 1, 1 + t + ... + t^(a-1) is the p counts of the
    exponents below a in each residue class, so the cost does not grow
    with a.
    """
    if a < 1:
        raise InvalidParameter(f"need a >= 1, got {a}")
    if not is_prime(p) or p == 2:
        raise InvalidParameter(f"need an odd prime, got {p}")
    if a % p == 0:
        raise PreconditionViolated(f"a = {a} must be coprime to p = {p}")
    counts = [(a - r + p - 1) // p for r in range(p)]
    step = pow_fold_cyclic(counts, p, p)
    g = []
    for i, c in enumerate(step):
        c = c - a if i == 0 else c
        q, r = divmod(c, p)
        if r:
            raise InexactDivision("(1+...+y^(a-1))^p - a is not divisible by p")
        g.append(q)
    # (a + p g)^p mod y^p - 1, then strip a^p and the factor p^2
    lifted = pow_fold_cyclic([a + p * g[0]] + [p * gi for gi in g[1:]], p, p)
    h = []
    ap = a ** p
    for i, c in enumerate(lifted):
        c = c - ap if i == 0 else c
        q, r = divmod(c, p * p)
        if r:
            raise InexactDivision("(a + p g)^p - a^p is not divisible by p^2")
        h.append(q)
    spec = KINDS["heisenberg"]
    terms = [((0, 0, k), n) for k, n in enumerate(counts)]
    terms += [((0, j, k), gj) for j, gj in enumerate(g) for k in range(p)]
    terms += [((i, j, k), hi) for i, hi in enumerate(h) for j in range(p) for k in range(p)]
    terms += [(e, m) for e in spec.labels((p,))]
    F = spec.flat_coeffs((p,), terms)
    return F, heisenberg_measure(p, F).m


# -- sharp divisibility bounds ---------------------------------------------


@dataclass
class SharpnessReport:
    """Outcome of a divisibility/sharpness check on one polynomial."""

    family: str
    p: int
    k: int
    value: int
    expected_valuation: int
    actual_valuation: object  # int or math.inf for value 0
    applicable: bool
    meets_bound: bool
    exact: bool


def _sharpness(family: str, p: int, m: int, expected: int, k: int = 0,
               applicable: bool = True) -> SharpnessReport:
    # the verdict on p^expected dividing m, vacuous unless applicable
    v = p_valuation(m, p)
    return SharpnessReport(family=family, p=p, k=k, value=m, expected_valuation=expected,
                           actual_valuation=v, applicable=applicable,
                           meets_bound=not applicable or v >= expected, exact=v == expected)


def zp2_divisibility_check(coeffs2d, p: int) -> SharpnessReport:
    """Over Z_p x Z_p: if p divides the determinant then p^(p+3) does.

    applicable is False (and the bound vacuous) when the value is
    coprime to p.
    """
    m = char_product_2d(coeffs2d, p)
    return _sharpness("zp2", p, m, p + 3, applicable=not m % p)


def zp2_sharp_family(p: int, k: int = 0):
    """The two-variable family p^(1+k) + (1 - x) + (1 - y)^2 whose
    determinant over Z_p x Z_p has p-valuation exactly p + 3 + k.

    Requires p >= 5 (for p = 3 the family can lose exactness to
    cancellation).
    """
    if not is_prime(p) or p < 5:
        raise InvalidParameter(f"sharp family needs a prime p >= 5, got {p}")
    if k < 0:
        raise InvalidParameter(f"need k >= 0, got {k}")
    grid = [[0] * p for _ in range(p)]
    grid[0][0] = p ** (1 + k) + 2
    grid[1][0] = -1
    grid[0][1] = -2
    grid[0][2] = 1
    return grid, _sharpness("zp2-sharp", p, char_product_2d(grid, p), p + 3 + k, k=k)


def heisenberg_divisibility_check(p: int, m: int) -> SharpnessReport:
    """Over the order-p^3 Heisenberg group: if p divides the determinant
    m of some F then p^(p^2+3) does."""
    return _sharpness("heisenberg", p, m, p * p + 3, applicable=not m % p)


def smallest_non_fermat_base(p: int) -> int:
    """Smallest A in 2..p-2 with A^p != A mod p^2.

    Such a base exists for every odd prime (at most one of A, -A, and
    a bounded set can violate it); it seeds the sharp Heisenberg family.
    """
    if not is_prime(p) or p < 5:
        raise InvalidParameter(f"need a prime p >= 5, got {p}")
    pp = p * p
    for a in range(2, p - 1):
        if pow(a, p, pp) != a % pp:
            return a
    raise InvalidParameter(f"no non-Fermat base below {p - 1} for p = {p}")


def heisenberg_sharp_family(p: int):
    """The family p + (A-1)^2 (1 - x) - (1 - y)^2 with A the smallest
    base whose Fermat quotient is nonzero; its determinant over the
    order-p^3 Heisenberg group has p-valuation exactly p^2 + 3."""
    a = smallest_non_fermat_base(p)
    s = (a - 1) ** 2
    f = KINDS["heisenberg"].flat_coeffs(
        (p,), [((0, 0, 0), p + s - 1), ((1, 0, 0), -s), ((0, 1, 0), 2), ((0, 2, 0), -1)])
    return f, _sharpness("heisenberg-sharp", p, heisenberg_measure(p, f).m, p * p + 3)


# -- the five order-27 families --------------------------------------------


@dataclass
class FamilyValue:
    label: str
    m: int
    poly: list
    claimed: int
    computed: int
    matches: bool


def _h3_terms_phi_y(i: int, k: int, coef: int):
    return [((i, j, k), coef) for j in range(3)]


_H3_FAMILY_TERMS = {
    # label: (base terms, claimed value as a function of m)
    "z+y-y2+(y+1)x": (
        [((0, 0, 1), 1), ((0, 1, 0), 1), ((0, 2, 0), -1),
         ((1, 1, 0), 1), ((1, 0, 0), 1)],
        lambda m: 3 ** 12 * (1 + 9 * m)),
    "1+2x+x2*phi(y)": (
        [((0, 0, 0), 1), ((1, 0, 0), 2)] + _h3_terms_phi_y(2, 0, 1),
        lambda m: 3 ** 12 * (2 + 9 * m)),
    "1+2x+(z+x2)phi(y)": (
        [((0, 0, 0), 1), ((1, 0, 0), 2)]
        + _h3_terms_phi_y(0, 1, 1) + _h3_terms_phi_y(2, 0, 1),
        lambda m: 3 ** 13 * (1 + 3 * m)),
    "1+2x-x*phi(y)": (
        [((0, 0, 0), 1), ((1, 0, 0), 2)] + _h3_terms_phi_y(1, 0, -1),
        lambda m: 3 ** 14 * m),
    "1+y-y2+(y+1)x+phi(x)phi(y)+(z-1)phi(y)+(z-1)2x*phi(y)": (
        [((0, 0, 0), 1), ((0, 1, 0), 1), ((0, 2, 0), -1),
         ((1, 1, 0), 1), ((1, 0, 0), 1)]
        + [((i, j, 0), 1) for i in range(3) for j in range(3)]
        + _h3_terms_phi_y(0, 1, 1) + _h3_terms_phi_y(0, 0, -1)
        + _h3_terms_phi_y(1, 2, 1) + _h3_terms_phi_y(1, 1, -2)
        + _h3_terms_phi_y(1, 0, 1),
        lambda m: 3 ** 12 * (4 + 9 * m)),
}


def h3_family_polys(m: int) -> list:
    """The five explicit order-27 families at shift m, as coefficient
    vectors (terms include the m * Phi(x) Phi(y) Phi(z) part)."""
    spec = KINDS["heisenberg"]
    shift = [(e, m) for e in spec.labels((3,))]
    return [(label, spec.flat_coeffs((3,), terms + shift))
            for label, (terms, _) in _H3_FAMILY_TERMS.items()]


def h3_family_values(m: int) -> list:
    """Evaluate the five families at shift m and compare each against
    its closed-form claimed value.  Together (with negations) the five
    families attain every value allowed by the mod-27 classification."""
    polys = h3_family_polys(m)
    out = []
    for (label, poly), computed, (_, claim) in zip(polys, measure_h3([f for _, f in polys]),
                                                  _H3_FAMILY_TERMS.values()):
        claimed = claim(m)
        out.append(FamilyValue(label=label, m=m, poly=poly, claimed=claimed,
                               computed=computed, matches=computed == claimed))
    return out


# -- power-sum lemmas --------------------------------------------------------


def check_power_sum_congruence(f_coeffs, p: int) -> bool:
    """For f in Z[y]: the mean over p-th roots of unity t of f(t)^p is
    congruent mod p^2 to the product of f over those same roots.

    Both sides are computed exactly: the mean as the constant coefficient
    of f(y)^p mod y^p - 1 (the full sum is p times that), the product as
    a circulant determinant.
    """
    folded = [0] * p
    for i, c in enumerate(f_coeffs):
        folded[i % p] += int(c)
    mean = pow_fold_cyclic(folded, p, p)[0]
    prod = abelian_measure((p,), [folded])[0]
    return (mean - prod) % (p * p) == 0


def check_symmetric_power_divisibility(poly_coeffs, p: int) -> bool:
    """If every elementary symmetric function e_i of alpha_1..alpha_n is
    divisible by p (n < p), then every elementary symmetric function of
    the p-th powers alpha_i^p is divisible by p^3.

    Input is the coefficient list of prod(1 + alpha_i y) = 1 + e_1 y +
    ... + e_n y^n.  Power sums of the alpha_i come from integer Newton
    recurrences; elementary symmetric functions of the alpha_i^p come
    back from the power sums s_{ip} by Newton's identities over the
    integers, each division by k checked to be exact.  Returns True iff
    all are divisible by p^3.
    """
    coeffs = [int(c) for c in poly_coeffs]
    if not coeffs or coeffs[0] != 1:
        raise PreconditionViolated("constant coefficient must be 1")
    n = len(coeffs) - 1
    if n >= p:
        raise PreconditionViolated(f"need degree < p, got {n} >= {p}")
    e = coeffs[1:]
    if any(c % p for c in e):
        raise PreconditionViolated("all elementary symmetric values must be divisible by p")
    if n == 0:
        return True
    # power sums s_1..s_{np} via Newton's identities (exact integers)
    s = _newton_power_sums(e, n * p)
    caps = [s[i * p - 1] for i in range(1, n + 1)]
    es = [1]
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            t = es[k - i] * caps[i - 1]
            acc += t if i % 2 else -t
        if acc % k:
            g = math.gcd(acc, k)
            raise InexactDivision(f"symmetric function is not integral: {acc // g}/{k // g}")
        es.append(acc // k)
    return all(v % p ** 3 == 0 for v in es[1:])


def _newton_power_sums(e, count: int) -> list:
    """Power sums s_1..s_count of the roots of prod(1 + a_i y) whose
    elementary symmetric functions are e (ascending, e[0] = e_1)."""
    epad = list(e) + [0] * max(0, count - len(e))
    s = []
    for k in range(1, count + 1):
        acc = k * epad[k - 1]
        for i in range(1, k):
            sign = 1 if (i - 1) % 2 == 0 else -1
            acc -= sign * epad[k - i - 1] * s[i - 1]
        sign_k = 1 if (k - 1) % 2 == 0 else -1
        s.append(sign_k * acc)
    return s


# -- randomized instances ---------------------------------------------------


def random_heisenberg_poly(rng, p: int, height: int) -> list:
    """Uniform random polynomial over the order-p^3 group, as its
    coefficient vector: each of the p^3 coefficients drawn independently
    from [-height, height], in label order."""
    return [rng.randint(-height, height) for _ in range(p ** 3)]


def random_symmetric_instance(rng, p: int, height: int) -> list:
    """Random admissible input for check_symmetric_power_divisibility:
    constant term 1, degree between 1 and p - 1, and every higher
    coefficient a multiple of p."""
    deg = rng.randint(1, p - 1)
    coeffs = [1] + [p * rng.randint(-height, height) for _ in range(deg)]
    if all(c == 0 for c in coeffs[1:]):
        coeffs[-1] = p
    return coeffs
