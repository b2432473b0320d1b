"""Tiny expression parser for command-line polynomial input.

Grammar (whitespace-insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (['*'] factor)*
    factor := INTEGER | VAR ['^' SIGNED_INTEGER]
    VAR    := 'x' | 'y' | 'z'

Examples: "x^5+x^4-1", "y^2*z - 3", "2x - x^-1*y".  The result is a
dict mapping (x_exp, y_exp, z_exp) to integer coefficients.
"""

from __future__ import annotations

from .errors import ParseError

_VARS = {"x": 0, "y": 1, "z": 2}


def _tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in _VARS:
            toks.append(("var", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected token {ch!r} at position {i}")
    toks.append(("end", "", n))
    return toks


def parse_poly(text: str) -> dict:
    """Parse an expression into {(x_exp, y_exp, z_exp): int_coefficient}."""
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    out: dict = {}

    def read_term(sign: int):
        coef = sign
        exps = [0, 0, 0]
        saw_factor = False
        while True:
            kind, val, at = peek()
            if kind == "int":
                take()
                coef *= val
                saw_factor = True
            elif kind == "var":
                take()
                e = 1
                if peek()[0] == "^":
                    take()
                    s = 1
                    if peek()[0] == "-":
                        take()
                        s = -1
                    k2, v2, a2 = take()
                    if k2 != "int":
                        raise ParseError(
                            f"expected an exponent after '^' at position {a2}")
                    e = s * v2
                exps[_VARS[val]] += e
                saw_factor = True
            elif kind == "*":
                take()
                k2, _, a2 = peek()
                if k2 not in ("int", "var"):
                    raise ParseError(f"expected a factor after '*' at position {a2}")
            else:
                break
        if not saw_factor:
            kind, val, at = peek()
            raise ParseError(f"expected a term, found {val!r} at position {at}")
        key = tuple(exps)
        out[key] = out.get(key, 0) + coef
        if not out[key]:
            del out[key]

    kind, val, at = peek()
    sign = 1
    if kind in ("+", "-"):
        take()
        sign = -1 if kind == "-" else 1
    read_term(sign)
    while True:
        kind, val, at = take()
        if kind == "end":
            break
        if kind == "+":
            read_term(1)
        elif kind == "-":
            read_term(-1)
        else:
            raise ParseError(f"unexpected token {val!r} at position {at}")
    return out


def univariate(terms: dict, var: str) -> dict:
    """Project onto a single variable; ParseError if others occur."""
    idx = _VARS[var]
    out = {}
    for exps, c in terms.items():
        for v, i in _VARS.items():
            if i != idx and exps[i]:
                raise ParseError(
                    f"expected a polynomial in {var!r} only, found {v!r}")
        out[exps[idx]] = out.get(exps[idx], 0) + c
    return out


def bivariate_yz(terms: dict) -> dict:
    """Project onto (y, z); ParseError if x occurs."""
    out = {}
    for (ex, ey, ez), c in terms.items():
        if ex:
            raise ParseError("expected a polynomial in y and z only, found 'x'")
        out[(ey, ez)] = out.get((ey, ez), 0) + c
    return out
