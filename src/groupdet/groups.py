"""Finite groups as validated Cayley tables, and group-ring elements.

Groups are concrete: a multiplication table, inverse table, and a labeling
of elements by exponent tuples for the generators of each supported kind
(cyclic, products of cyclics, the order-p^3 Heisenberg group, dihedral,
dicyclic).  The table route is the slow, obviously-correct oracle that the
factorized determinant formulas are checked against; the ``oracle``
command is its only caller, and every exact route reads the labels
alone.  ``KINDS`` maps each kind name to what the package knows about
it: parameters, labels, label product and exact route.  An element of
the group ring of any kind, the Heisenberg polynomials included, is one
flat coefficient vector in label order: ``GroupKind.flat_coeffs`` places
terms into it and ``GroupKind.terms`` lists them back.
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
    dicyclic_measure,
    dihedral_measure,
    heisenberg_factorizations,
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
    name, evaluator).  The evaluator takes a chunk of flat coefficient
    vectors in ``labels`` order and returns their values, in order:
    ``compute`` passes one row, the searches (B, |G|) arrays.  Every
    evaluator takes the whole chunk at once: the cyclic, elementary,
    product, dihedral, dicyclic and p >= 5 Heisenberg routes by
    evaluation at roots of unity modulo primes (``abelian_measure``,
    ``dihedral_measure``, ``dicyclic_measure``,
    ``heisenberg_factorizations``), and p = 3 Heisenberg in the int64
    kernel ``measure_h3``.  No route builds a Cayley table.
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

    def terms(self, params, coeffs) -> list:
        """Inverse of ``flat_coeffs``: the nonzero (label, coefficient)
        pairs of a coefficient vector, in ``labels`` order."""
        labels = self.labels(params)
        if len(coeffs) != len(labels):
            raise InvalidParameter(f"need {len(labels)} coefficients, got {len(coeffs)}")
        return [(e, c) for e, c in zip(labels, coeffs) if c]

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

    ``mul[i, j]`` is the index of g_i * g_j, index 0 is the identity, and
    ``element_exps[i]`` is the exponent tuple of g_i in the kind's
    generator convention; ``mul`` and ``inv`` are read-only arrays.
    Construction checks the identity, the Latin square property (so each
    element has an inverse, two-sided by associativity) and associativity
    at every order by Light's test: (x s) y = x (s y) for all x, y and
    each s of a set S that generates the table, the unit labels plus any
    element they do not reach.  Each s costs two order^2 gathers, not an
    order^3 array (16 MB at order 125).
    """

    __slots__ = ("kind", "params", "moduli", "order", "mul", "inv", "element_exps")

    def __init__(self, kind, params, mul, element_exps):
        self.kind = kind
        self.params = tuple(params)
        self.moduli = kind_of(kind).moduli(self.params)
        self.order = len(mul)
        self.element_exps = tuple(tuple(e) for e in element_exps)
        if len(set(self.element_exps)) != self.order:
            raise InvalidParameter("element exponent labels are not distinct")
        self.mul = t = self._validated(np.asarray(mul, dtype=np.intp))
        self.inv = inv = (t == 0).argmax(axis=1)
        t.flags.writeable = inv.flags.writeable = False

    def _validated(self, t):
        n = self.order
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise InvalidParameter("multiplication table is malformed")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise InvalidParameter("index 0 is not a two-sided identity")
        ref = np.arange(n)
        rows, cols = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
        rows[ref[:, None], t] = cols[t, ref] = True  # value v met in row i, in column j
        if not (rows.all() and cols.all()):
            raise InvalidParameter("multiplication table is not a Latin square")
        if not all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in self._generators(t)):
            raise InvalidParameter("multiplication table is not associative")
        return t

    def _generators(self, t) -> list:
        # grow S until its right products, all in the magma S generates, reach all
        gens = [i for i, e in enumerate(self.element_exps) if sum(map(abs, e)) == 1]
        reached = np.zeros(self.order, dtype=bool)
        reached[gens] = True
        while not reached.all():
            hit = t[np.ix_(reached, gens)]
            if reached[hit].all():  # closed: add the first element it misses
                gens.append(int(reached.argmin()))
            reached[hit] = reached[gens[-1:]] = True
        return gens


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
    return ((a[0] + b[0] - 2 * a[1] * b[0]) % n, (a[1] + b[1]) % 2)


def _dicyclic_mul(ps, a, b):
    # (i, j) is x^i y^j with y x^k = x^-k y and y^2 = x^n
    n = ps[0] // 4
    return ((a[0] + b[0] - 2 * a[1] * b[0] + n * a[1] * b[1]) % (2 * n), (a[1] + b[1]) % 2)


# -- exact routes on flat coefficient vectors ----------------------------


def _circulant_route(params):
    return "circulant", lambda rows: abelian_measure(params, rows)


def _character_route(moduli):
    return "character-product", lambda rows: abelian_measure(moduli, rows)


def _heisenberg_route(params):
    p = params[0]
    if p == 3:
        return "batched", measure_h3
    return "factorized", lambda rows: [f.m for f in heisenberg_factorizations(p, rows)]


def _dihedral_route(params):
    n = params[0] // 2
    return "two-part", lambda rows: dihedral_measure(rows, n)


def _dicyclic_route(params):
    n = params[0] // 4
    return "two-part", lambda rows: dicyclic_measure(rows, n)


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
                         _add_labels, _character_route, variadic=True),
}


@lru_cache(maxsize=None)
def _cached_group(kind, params) -> GroupSpec:
    # the one builder: the kind's label product over arrays of all pairs
    spec = kind_of(kind)
    spec.check(params)
    labels = spec.labels(params)
    e = np.array(labels).T
    prod = spec.mul(params, tuple(e[:, :, None]), tuple(e[:, None, :]))
    moduli = spec.moduli(params)
    if spec.first_fastest:
        prod, moduli = prod[::-1], moduli[::-1]
    return GroupSpec(kind, params, np.ravel_multi_index(prod, moduli), labels)


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


def cayley_matrix(f: GroupRingElt):
    """The order x order array of Python ints: entry (i, j) is the coeff at g_i * g_j^(-1)."""
    g = f.group
    return np.array(f.coeffs, dtype=object)[g.mul[:, g.inv]]


def check_oracle_order(order: int, max_order: int = MAX_ORACLE_ORDER) -> None:
    """InvalidParameter if a Cayley determinant of this order is over the
    cap; callers check before they build the table."""
    if order > max_order:
        raise InvalidParameter(f"oracle path is capped at order {max_order}; got {order}")


def group_determinant(f: GroupRingElt, max_order: int = MAX_ORACLE_ORDER) -> int:
    """Exact determinant of the Cayley matrix (the definition, un-factored)."""
    check_oracle_order(f.group.order, max_order)
    return det_int(cayley_matrix(f))


# -- JSON polynomial format ----------------------------------------------

_DECIMAL = re.compile(r"[+-]?[0-9]+")


@dataclass
class PolyInput:
    """Parsed form of the on-disk polynomial JSON."""

    kind: str
    params: tuple
    terms: list  # [(exps tuple, int coef), ...]


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
