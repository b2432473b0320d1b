"""Finite groups as validated Cayley tables, and group-ring elements.

Groups are concrete: a multiplication table, inverse table, and a labeling
of elements by exponent tuples for the generators of each supported kind
(cyclic, products of cyclics, the order-p^3 Heisenberg group, dihedral,
dicyclic).  The table route is the slow, obviously-correct oracle that the
factorized determinant formulas are checked against.  ``KINDS`` maps each
kind name to what the package knows about it: parameters, labels, label
product and exact route.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from operator import mod
from typing import Callable

import numpy as np

from .errors import InvalidParameter, ParseError
from .exactdet import det_int, is_prime
from .measures import (
    abelian_measure,
    circulant_det,
    dicyclic_measure,
    dihedral_measure,
    heisenberg_measure,
    measure_h3,
)

# The Cayley-matrix route is quadratic in group order in memory and worse
# in time; it exists for cross-checking, not production work.
MAX_ORACLE_ORDER = 300


@dataclass(frozen=True)
class GroupKind:
    """Everything the package knows about one kind of group.

    ``keys`` name the parameters in the polynomial JSON; a ``variadic``
    kind takes all its parameters as one list under its single key.
    ``moduli(params)`` is the modulus of each exponent in an element
    label, so its length is the label arity and its product the group
    order.  ``labels(params)`` lists the labels in flat order, the last
    exponent changing fastest, or the first for ``first_fastest`` kinds;
    ``mul(params, a, b)`` is the label of the product of the elements
    labelled a and b.  ``check(params)`` raises InvalidParameter unless
    the parameters name a group of the kind, and runs before the group is
    built or ``exact(params)`` gives its exact determinant as (route
    name, function of the flat coefficient vector in ``labels`` order).
    """

    keys: tuple
    moduli: Callable
    check: Callable
    mul: Callable
    exact: Callable
    variadic: bool = False
    first_fastest: bool = False

    def labels(self, params) -> list:
        ranges = [range(n) for n in self.moduli(params)]
        if self.first_fastest:
            return [e[::-1] for e in iter_product(*reversed(ranges))]
        return list(iter_product(*ranges))

    def route(self, params):
        self.check(params)
        return self.exact(params)

    def order(self, params) -> int:
        return math.prod(self.moduli(params))

    def flat_coeffs(self, params, terms) -> list:
        """The coefficient vector in ``labels`` order, found from the
        labels alone, so the group is not built.  Exponents are reduced by
        the moduli; a term with the wrong number of them is refused."""
        moduli = self.moduli(params)
        index = {e: i for i, e in enumerate(self.labels(params))}
        coeffs = [0] * len(index)
        for exps, c in terms:
            if len(exps) != len(moduli):
                raise InvalidParameter(f"need {len(moduli)} exponents, got {len(exps)}")
            coeffs[index[tuple(map(mod, exps, moduli))]] += int(c)
        return coeffs

    def base_prime(self, params) -> int:
        """Smallest prime factor of the order: the modulus of the search
        filters and of reported valuations (2 for dihedral and dicyclic
        groups, whose orders are even)."""
        n = self.order(params)
        f = 2
        while f * f <= n:
            if n % f == 0:
                return f
            f += 1
        return n

    def json_params(self, params) -> dict:
        if self.variadic:
            return {self.keys[0]: list(params)}
        return dict(zip(self.keys, params))


def kind_of(name) -> GroupKind:
    """The ``KINDS`` entry for a kind name; InvalidParameter if unknown."""
    try:
        return KINDS[name]
    except KeyError:
        raise InvalidParameter(f"unknown group kind {name!r}") from None


class GroupSpec:
    """A finite group given by tables, with structural validation.

    ``mul[i][j]`` is the index of g_i * g_j, index 0 is the identity, and
    ``element_exps[i]`` is the exponent tuple of g_i in the kind's
    generator convention.  Construction checks the identity, the Latin
    square property, two-sided inverses, and (for order <= 200) full
    associativity.
    """

    __slots__ = ("kind", "params", "moduli", "order", "mul", "inv", "element_exps")

    def __init__(self, kind, params, mul, element_exps):
        self.kind = kind
        self.params = tuple(params)
        self.moduli = kind_of(kind).moduli(self.params)
        self.order = len(mul)
        self.mul = tuple(tuple(row) for row in mul)
        self.element_exps = tuple(tuple(e) for e in element_exps)
        if len(set(self.element_exps)) != self.order:
            raise InvalidParameter("element exponent labels are not distinct")
        self._validate()
        inv = [None] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.mul[i][j] == 0:
                    inv[i] = j
                    break
        if any(v is None for v in inv):
            raise InvalidParameter("some element has no inverse")
        for i in range(self.order):
            if self.mul[inv[i]][i] != 0:
                raise InvalidParameter("inverses are not two-sided")
        self.inv = tuple(inv)

    def _validate(self):
        n = self.order
        t = np.array(self.mul, dtype=np.int32)
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise InvalidParameter("multiplication table is malformed")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise InvalidParameter("index 0 is not a two-sided identity")
        ref = np.arange(n)
        if not (np.array_equal(np.sort(t, axis=1), np.tile(ref, (n, 1)))
                and np.array_equal(np.sort(t, axis=0), np.tile(ref[:, None], (1, n)))):
            raise InvalidParameter("multiplication table is not a Latin square")
        if n <= 200:
            # (ab)c == a(bc) for all triples, one a at a time: two order^2
            # slices rather than two order^3 arrays (16 MB at order 125)
            if not all(np.array_equal(t[t[a]], t[a][t]) for a in range(n)):
                raise InvalidParameter("multiplication table is not associative")

    def is_abelian(self) -> bool:
        return all(self.mul[i][j] == self.mul[j][i]
                   for i in range(self.order) for j in range(i))


def describe_group(kind, params) -> dict:
    """The report's description of a group, without building it."""
    spec = kind_of(kind)
    return {"kind": kind, "order": spec.order(params), **spec.json_params(params)}


# -- parameter checks ----------------------------------------------------


def _require(ok, message: str) -> None:
    if not ok:
        raise InvalidParameter(message)


def _check_factors(ns) -> None:
    _require(ns and all(n >= 1 for n in ns), f"bad cyclic factors {ns}")


def _check_elementary(ps) -> None:
    _require(is_prime(ps[0]), f"{ps[0]} is not prime")
    _check_factors((ps[0],) * ps[1])


def _check_heisenberg(ps) -> None:
    _require(is_prime(ps[0]) and ps[0] != 2, f"Heisenberg group needs an odd prime, got {ps[0]}")


def _check_dihedral(ps) -> None:
    _require(ps[0] >= 2 and ps[0] % 2 == 0, f"dihedral order must be even, got {ps[0]}")


def _check_dicyclic(ps) -> None:
    _require(ps[0] >= 4 and ps[0] % 4 == 0, f"dicyclic order must be divisible by 4, got {ps[0]}")


# -- label products ------------------------------------------------------


def _add_labels(moduli, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, moduli))


def _heisenberg_mul(ps, a, b):
    p = ps[0]
    return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2] + a[1] * b[0]) % p)


def _dihedral_mul(ps, a, b):
    # (i, j) is x^i y^j with y x^k = x^-k y and y^2 = 1
    n = ps[0] // 2
    return ((a[0] - b[0] if a[1] else a[0] + b[0]) % n, (a[1] + b[1]) % 2)


def _dicyclic_mul(ps, a, b):
    # (i, j) is x^i y^j with y x^k = x^-k y and y^2 = x^n
    n = ps[0] // 4
    i = a[0] - b[0] if a[1] else a[0] + b[0]
    if a[1] and b[1]:
        i += n
    return (i % (2 * n), (a[1] + b[1]) % 2)


# -- exact routes on flat coefficient vectors ----------------------------


def _circulant_route(params):
    n = params[0]
    return "circulant", lambda c: circulant_det(c, n)


def _character_route(moduli):
    return "character-product", lambda c: abelian_measure(moduli, c)


def _product_route(params):
    # character products need (Z_p)^n; other products of cyclics use Cayley
    if is_prime(params[0]) and all(n == params[0] for n in params):
        return _character_route(params)
    check_oracle_order(math.prod(params))
    g = build_group("product", *params)
    return "cayley", lambda c: group_determinant(GroupRingElt(g, c))


def _heisenberg_route(params):
    p = params[0]
    if p == 3:
        return "factorized", lambda c: measure_h3(c)
    return "factorized", lambda c: heisenberg_measure(HeisenbergPoly.from_flat(p, c)).m


def _dihedral_route(params):
    n = params[0] // 2
    return "two-part", lambda c: dihedral_measure(c[:n], c[n:], n)


def _dicyclic_route(params):
    n = params[0] // 4
    return "two-part", lambda c: dicyclic_measure(c[:2 * n], c[2 * n:], n)


KINDS = {
    "cyclic": GroupKind(("n",), lambda ps: (ps[0],), lambda ps: _check_factors((ps[0],)),
                        _add_labels, _circulant_route),
    "elementary": GroupKind(("p", "n"), lambda ps: (ps[0],) * ps[1], _check_elementary,
                            lambda ps, a, b: _add_labels((ps[0],) * ps[1], a, b),
                            lambda ps: _character_route((ps[0],) * ps[1])),
    "heisenberg": GroupKind(("p",), lambda ps: (ps[0],) * 3, _check_heisenberg,
                            _heisenberg_mul, _heisenberg_route),
    "dihedral": GroupKind(("order",), lambda ps: (ps[0] // 2, 2), _check_dihedral,
                          _dihedral_mul, _dihedral_route, first_fastest=True),
    "dicyclic": GroupKind(("order",), lambda ps: (ps[0] // 2, 2), _check_dicyclic,
                          _dicyclic_mul, _dicyclic_route, first_fastest=True),
    "product": GroupKind(("orders",), tuple, lambda ps: _check_factors(tuple(ps)),
                         _add_labels, _product_route, variadic=True),
}


@lru_cache(maxsize=None)
def _cached_group(kind, params) -> GroupSpec:
    # the one builder: every kind's table is its label product on its labels
    spec = kind_of(kind)
    spec.check(params)
    labels = spec.labels(params)
    index = {e: i for i, e in enumerate(labels)}
    mul = [[index[spec.mul(params, a, b)] for b in labels] for a in labels]
    return GroupSpec(kind, params, mul, labels)


def build_group(kind: str, *params) -> GroupSpec:
    """Build (and cache) one of the supported group kinds.

    kinds: cyclic(n), elementary(p, n), product(n1, ..., nk),
    heisenberg(p), dihedral(order), dicyclic(order).
    """
    return _cached_group(kind, tuple(int(p) for p in params))


# -- group-ring elements ------------------------------------------------


class GroupRingElt:
    """Integer coefficient vector over a fixed GroupSpec."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupSpec, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != group.order:
            raise InvalidParameter(
                f"need {group.order} coefficients, got {len(coeffs)}")
        self.group = group
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, group: GroupSpec, terms) -> "GroupRingElt":
        return cls(group, kind_of(group.kind).flat_coeffs(group.params, terms))

    def value_sum(self) -> int:
        """Evaluation at the trivial character (all generators -> 1)."""
        return sum(self.coeffs)

    def convolve(self, other: "GroupRingElt") -> "GroupRingElt":
        if other.group is not self.group:
            raise InvalidParameter("operands live over different groups")
        mul = self.group.mul
        out = [0] * self.group.order
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            row = mul[i]
            for j, b in enumerate(other.coeffs):
                if b:
                    out[row[j]] += a * b
        return GroupRingElt(self.group, out)

    def translate(self, g: int) -> "GroupRingElt":
        """Left multiplication by the group element with index g."""
        mul = self.group.mul
        out = [0] * self.group.order
        for j, c in enumerate(self.coeffs):
            if c:
                out[mul[g][j]] += c
        return GroupRingElt(self.group, out)

    def nonzero_terms(self):
        return [(self.group.element_exps[i], c)
                for i, c in enumerate(self.coeffs) if c]


def cayley_matrix(f: GroupRingElt):
    """The order x order matrix with entry (i, j) = coeff at g_i * g_j^(-1)."""
    g = f.group
    c = f.coeffs
    return [[c[g.mul[i][g.inv[j]]] for j in range(g.order)] for i in range(g.order)]


def check_oracle_order(order: int, max_order: int = MAX_ORACLE_ORDER) -> None:
    """InvalidParameter if a Cayley determinant of this order is over the
    cap; callers check before they build the table."""
    if order > max_order:
        raise InvalidParameter(f"oracle path is capped at order {max_order}; got {order}")


def group_determinant(f: GroupRingElt, max_order: int = MAX_ORACLE_ORDER) -> int:
    """Exact determinant of the Cayley matrix (the definition, un-factored)."""
    check_oracle_order(f.group.order, max_order)
    return det_int(cayley_matrix(f))


# -- Heisenberg polynomials ---------------------------------------------


class HeisenbergPoly:
    """Coefficients a[i][j][k] of sum a_ijk x^i y^j z^k over the order-p^3
    Heisenberg group, with x the off-center generator, z the central one,
    and monomials in the normal-form order x then y then z."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, a=None):
        if not is_prime(p) or p == 2:
            raise InvalidParameter(f"need an odd prime, got {p}")
        self.p = p
        if a is None:
            self.a = [[[0] * p for _ in range(p)] for _ in range(p)]
        else:
            self.a = [[[int(a[i][j][k]) for k in range(p)] for j in range(p)]
                      for i in range(p)]

    @classmethod
    def from_terms(cls, p: int, terms) -> "HeisenbergPoly":
        out = cls(p)
        for (i, j, k), c in terms:
            out.a[i % p][j % p][k % p] += int(c)
        return out

    @classmethod
    def from_flat(cls, p: int, coeffs) -> "HeisenbergPoly":
        """Inverse of flat(): a[i][j][k] is coeffs[(i * p + j) * p + k]."""
        out = cls(p)
        idx = 0
        for plane in out.a:
            for row in plane:
                for k in range(p):
                    row[k] = coeffs[idx]
                    idx += 1
        return out

    def coef(self, i: int, j: int, k: int) -> int:
        return self.a[i % self.p][j % self.p][k % self.p]

    def add_term(self, i: int, j: int, k: int, c: int) -> None:
        self.a[i % self.p][j % self.p][k % self.p] += c

    def x_slice(self, i: int):
        """Coefficient grid [y-exp][z-exp] of the x^i part."""
        return self.a[i]

    def collapse_z(self):
        """Coefficients of F(x, y, 1) as a grid [x-exp][y-exp]."""
        p = self.p
        return [[sum(self.a[i][j]) for j in range(p)] for i in range(p)]

    def value_at_one(self) -> int:
        return sum(sum(sum(r) for r in plane) for plane in self.a)

    def flat(self) -> list:
        return [self.a[i][j][k] for i in range(self.p)
                for j in range(self.p) for k in range(self.p)]

    def nonzero_terms(self):
        return [((i, j, k), self.a[i][j][k])
                for i in range(self.p) for j in range(self.p)
                for k in range(self.p) if self.a[i][j][k]]

    def __eq__(self, other):
        return (isinstance(other, HeisenbergPoly)
                and self.p == other.p and self.a == other.a)


def heisenberg_normal_form(terms, p: int) -> HeisenbergPoly:
    """Fold words in the generators into normal-form coefficients.

    Each term is (word, coefficient) where a word is a string like
    "yx", "x^2z", "y^-1x" (letters x, y, z with optional integer
    exponents, whitespace and '*' ignored).  Words multiply left to
    right under yx = xyz with z central, so e.g. "yx" lands on the
    monomial x y z.
    """
    out = HeisenbergPoly(p)
    for word, c in terms:
        triple = (0, 0, 0)
        for gen, e in _parse_word(word):
            if gen == "x":
                step = (e % p, 0, 0)
            elif gen == "y":
                step = (0, e % p, 0)
            else:
                step = (0, 0, e % p)
            triple = _heisenberg_mul((p,), triple, step)
        out.add_term(triple[0], triple[1], triple[2], int(c))
    return out


def _parse_word(word: str):
    pairs = []
    i = 0
    s = word.replace(" ", "").replace("*", "")
    while i < len(s):
        gen = s[i]
        if gen not in "xyz":
            raise ParseError(f"unexpected character {gen!r} in word {word!r}")
        i += 1
        e = 1
        if i < len(s) and s[i] == "^":
            i += 1
            j = i
            if j < len(s) and s[j] == "-":
                j += 1
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i or s[i:j] == "-":
                raise ParseError(f"missing exponent after '^' in word {word!r}")
            e = int(s[i:j])
            i = j
        pairs.append((gen, e))
    return pairs


# -- JSON polynomial format ----------------------------------------------

_DECIMAL = re.compile(r"[+-]?[0-9]+")


@dataclass
class PolyInput:
    """Parsed form of the on-disk polynomial JSON."""

    kind: str
    params: tuple
    terms: list  # [(exps tuple, int coef), ...]

    def to_heisenberg(self) -> HeisenbergPoly:
        if self.kind != "heisenberg":
            raise InvalidParameter(f"polynomial is over {self.kind}, not heisenberg")
        return HeisenbergPoly.from_terms(self.params[0], self.terms)


def poly_from_json(text: str) -> PolyInput:
    """Parse the polynomial JSON format.

    {"group": {"kind": "heisenberg", "p": 3},
     "terms": [{"exps": [1, 2, 0], "coef": "-12"}, ...]}

    Coefficients are decimal strings (an optional sign and ASCII digits)
    or JSON integers; exps length must match the kind (3 for heisenberg,
    2 for dihedral/dicyclic, one per factor otherwise).  Group parameters
    and exponents are JSON integers; JSON booleans are refused wherever
    an integer is expected.  Malformed input raises ParseError naming the
    offending key or token.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg} at position {e.pos}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    group = obj.get("group")
    if not isinstance(group, dict) or "kind" not in group:
        raise ParseError("missing or malformed 'group' object")
    kind = group["kind"]
    spec = KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ParseError(f"unknown group kind {kind!r}")
    if spec.variadic:
        key = spec.keys[0]
        params = group.get(key)
        if (not isinstance(params, list) or not params
                or not all(type(n) is int and n >= 1 for n in params)):
            raise ParseError(f"{kind} group needs a nonempty {key!r} list")
    else:
        params = [group.get(key) for key in spec.keys]
        for key, v in zip(spec.keys, params):
            if type(v) is not int or v < 1:
                raise ParseError(f"group key {key!r} must be a positive integer")
    params = tuple(params)
    nexps = len(spec.moduli(params))
    terms_in = obj.get("terms")
    if not isinstance(terms_in, list):
        raise ParseError("missing or malformed 'terms' list")
    terms = []
    for t in terms_in:
        if not isinstance(t, dict) or "exps" not in t or "coef" not in t:
            raise ParseError(f"malformed term {t!r}")
        exps = t["exps"]
        if (not isinstance(exps, list) or len(exps) != nexps
                or not all(type(e) is int for e in exps)):
            raise ParseError(f"term exps {exps!r} must be {nexps} integers")
        coef = t["coef"]
        if isinstance(coef, str) and _DECIMAL.fullmatch(coef):
            try:
                coef = int(coef, 10)
            except ValueError:  # past the interpreter's digit cap
                raise ParseError(f"bad coefficient token {t['coef']!r}") from None
        elif type(coef) is not int:
            raise ParseError(f"bad coefficient token {coef!r}")
        terms.append((tuple(exps), coef))
    # the kind's parameter check, then exponents reduced by its moduli;
    # the group itself is built only by routes that need its table
    spec.check(params)
    moduli = spec.moduli(params)
    return PolyInput(kind, params,
                     [(tuple(e % n for e, n in zip(exps, moduli)), c) for exps, c in terms])


def poly_to_json(kind: str, params, terms) -> str:
    body = {
        "group": {"kind": kind, **kind_of(kind).json_params(params)},
        "terms": [{"exps": list(e), "coef": str(c)} for e, c in terms],
    }
    return json.dumps(body, indent=2)
