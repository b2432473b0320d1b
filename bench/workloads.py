"""The two workloads: seeded inputs, fixed CLI call lists, expected fields.

Each workload is a fixed list of ``groupdet`` argv built from ``--seed``;
the program sees only the generated inputs (polynomial JSON files written
to a scratch directory, or flags).  Every call carries checks on named
fields of the report's ``results``; fields not named (``elapsed_ms``,
``backend``, ``stage_ms``, ``error_estimate``, ``max_iterations``,
``slices``, route names) are ignored, so reports may grow.  References
are built here, before any call is timed, by the independent routes in
``reference``; checks that depend on what a report returns (a search
witness) recompute it by those routes after the timed loop.

Why these workloads:

* ``exact``: Z[w] arithmetic inside Bareiss and the Cayley-table build on
  parse (``compute`` up to p = 11, ``sharp``, ``lambda``, ``achieve``),
  plus ``oracle`` at order 60 to 125, which uses the same exact layer
  differently: Bareiss over Z and ``cayley_matrix``.
* ``numeric``: no exact arithmetic above order 27: the seeded sampling
  stream with ``measure_h3``, the numpy order-8 dihedral table,
  per-tuple circulant Bareiss, and the root finder behind the Mahler
  measures, so a change to the exact layer must leave it flat.

Each workload joins two call lists that could stand alone (``exact`` and
``oracle``, ``search`` and ``measure``): on a host whose speed drifts
from one half-minute to the next, two long runs are steadier than four
short ones.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import product

import numpy as np

import reference as ref

REL_TOL = 1e-9


@dataclass
class Call:
    argv: list
    checks: list = field(default_factory=list)  # [(path, kind, expected)]


# -- checks ------------------------------------------------------------------


def _get(results, path: str):
    v = results
    for part in path.split(".") if path else ():
        if not isinstance(v, dict) or part not in v:
            return None
        v = v[part]
    return v


def _eq(v, exp) -> bool:
    if exp is None or isinstance(exp, bool):
        return v is exp
    if isinstance(exp, int):
        try:
            return not isinstance(v, bool) and int(v) == exp
        except (TypeError, ValueError):
            return False
    return v == exp


def _terms(obj) -> dict:
    out = {}
    for t in obj["terms"]:
        e = tuple(t["exps"])
        out[e] = out.get(e, 0) + int(t["coef"])
    return out


def _heis_mod_checks(p: int, coeffs: dict) -> list:
    """Checks that a value is the determinant of coeffs over the order-p^3
    group: its residues mod primes q = 1 mod p, and the congruence
    M = F(1,1,1)^(p^3) mod p^3."""
    out = []
    for q in ref.primes_one_mod(p):
        m1, m2 = ref.heisenberg_mod(p, coeffs, q)
        out.append((q, m1 * pow(m2, p, q) % q))
    out.append((p ** 3, pow(sum(coeffs.values()), p ** 3, p ** 3)))
    return out


def _terms_det(obj, exp) -> bool:
    p, key = exp
    value = int(obj[key])
    return all(value % q == r for q, r in _heis_mod_checks(p, _terms(obj)))


CLASS_RULES = {
    # order-27 Heisenberg: coprime values are +-1 mod 27, multiples of 3
    # are multiples of 3^12
    "heisenberg3": lambda v: v == 0 or v * v % 27 == 1 or v % 3 ** 12 == 0,
    # order-8 dihedral: odd values are 1 mod 4, even values multiples of 2^8
    "dihedral8": lambda v: v % 4 == 1 if v % 2 else v % 256 == 0,
    # cyclic of prime order 5: coprime to 5, or a multiple of 25
    "cyclic5": lambda v: v % 5 != 0 or v % 25 == 0,
}


def _witness_det(res, exp) -> bool:
    kind, params = exp
    if res.get("witness") is None or res.get("min_nontrivial") is None:
        return False
    coeffs = _terms({"terms": res["witness"]})
    return ref.cayley_det(kind, params, coeffs) == int(res["min_nontrivial"])


CHECKS = {
    "eq": _eq,
    "float": lambda v, exp: (isinstance(v, (int, float, str)) and not isinstance(v, bool)
                             and math.isclose(float(v), exp, rel_tol=REL_TOL, abs_tol=1e-12)),
    "logabs": lambda v, exp: ref.float_matches(int(v), exp),
    "mod": lambda v, exp: int(v) % exp[0] == exp[1],
    "valuation": lambda v, exp: ref.p_valuation(int(v), exp[0]) == exp[1],
    "abs_eq": lambda v, exp: abs(int(v)) == exp,
    "classes": lambda v, exp: bool(v) and all(
        CLASS_RULES[exp](int(x)) for x in (v if isinstance(v, list) else [v])),
    "heis_factor": lambda res, p: int(res["m"]) == int(res["m1"]) * int(res["m2"]) ** p,
    "terms_det": _terms_det,
    "achieve_identity": lambda w, p: int(w["value"]) == w["a"] ** (p * p) + w["m"] * p ** 3,
    "witness_det": _witness_det,
    "lambda_of_min": lambda res, order: math.isclose(
        float(res["lambda_estimate"]), math.log(abs(int(res["min_nontrivial"]))) / order,
        rel_tol=REL_TOL),
}


def check_results(call: Call, results) -> list:
    """Names of the failed checks (empty when every check holds)."""
    failed = []
    for path, kind, exp in call.checks:
        try:
            ok = CHECKS[kind](_get(results, path), exp)
        except (TypeError, ValueError, KeyError, AttributeError, ArithmeticError):
            ok = False
        if not ok:
            failed.append(f"{path or '<results>'}:{kind}")
    return failed


# -- input generation ----------------------------------------------------------


def _write_poly(tmpdir: str, name: str, kind: str, params: tuple, coeffs: dict) -> str:
    keys = {"cyclic": ("n",), "elementary": ("p", "n"), "heisenberg": ("p",),
            "dihedral": ("order",), "dicyclic": ("order",)}[kind]
    body = {"group": {"kind": kind, **dict(zip(keys, params))},
            "terms": [{"exps": list(e), "coef": str(c)} for e, c in sorted(coeffs.items()) if c]}
    path = os.path.join(tmpdir, name)
    with open(path, "w") as fh:
        json.dump(body, fh)
    return path


def _random_coeffs(rng, kind: str, params: tuple, height: int) -> dict:
    return {e: rng.randint(-height, height) for e in ref.elements(kind, params)}


def _nonsingular(rng, kind: str, params: tuple, height: int) -> tuple:
    """Random coefficients with a nonzero determinant, and that determinant
    by the Cayley reference."""
    while True:
        coeffs = _random_coeffs(rng, kind, params, height)
        m = ref.cayley_det(kind, params, coeffs)
        if m:
            return coeffs, m


def _exact_compute(rng, tmpdir, name, kind, params, height) -> Call:
    """A compute call checked against the Cayley determinant."""
    coeffs, m = _nonsingular(rng, kind, params, height)
    path = _write_poly(tmpdir, name, kind, params, coeffs)
    checks = [("m", "eq", m), ("value_at_one", "eq", sum(coeffs.values()))]
    if kind == "heisenberg":
        p = params[0]
        checks += [("", "heis_factor", p), ("all_checks_pass", "eq", True),
                   ("m_mod_p3", "eq", m % p ** 3)]
    return Call(["compute", path], checks)


def _float_heis_compute(rng, tmpdir, name, p, height) -> Call:
    """A compute call above the Cayley cap: float blocks plus congruence."""
    while True:
        coeffs = _random_coeffs(rng, "heisenberg", (p,), height)
        fl = ref.heisenberg_float(p, coeffs)
        if fl["m1"][0] and fl["m2"][0]:
            break
    path = _write_poly(tmpdir, name, "heisenberg", (p,), coeffs)
    base = sum(coeffs.values())
    residue = pow(base, p ** 3, p ** 3)
    checks = [("m1", "logabs", fl["m1"]), ("m2", "logabs", fl["m2"]),
              ("", "heis_factor", p), ("m_mod_p3", "eq", residue),
              ("value_at_one", "eq", base), ("all_checks_pass", "eq", True)]
    checks += [("m", "mod", qr) for qr in _heis_mod_checks(p, coeffs)]
    return Call(["compute", path], checks)


def _sharp(p: int) -> Call:
    a = ref.smallest_non_fermat_base(p)
    s = (a - 1) ** 2
    # p + (A-1)^2 (1 - x) - (1 - y)^2
    coeffs = {(0, 0, 0): p + s - 1, (1, 0, 0): -s, (0, 1, 0): 2, (0, 2, 0): -1}
    fl = ref.heisenberg_float(p, coeffs)
    (s1, l1), (s2, l2) = fl["m1"], fl["m2"]
    v = p * p + 3
    return Call(["sharp", "--family", "heisenberg", "--p", str(p)], [
        ("value", "logabs", (s1 * s2 ** p, l1 + p * l2)),
        *[("value", "mod", qr) for qr in _heis_mod_checks(p, coeffs)],
        ("value", "valuation", (p, v)), ("expected_valuation", "eq", v),
        ("actual_valuation", "eq", v), ("meets_bound", "eq", True), ("exact", "eq", True)])


def _exact(rng, seed, tmpdir) -> list:
    calls = [_exact_compute(rng, tmpdir, f"h5_{i}.json", "heisenberg", (5,), 2)
             for i in range(3)]
    calls += [_float_heis_compute(rng, tmpdir, f"h7_{i}.json", 7, 2) for i in range(2)]
    calls.append(_float_heis_compute(rng, tmpdir, "h11.json", 11, 2))
    trials = 50
    calls.append(Call(["verify", "congruence", "--p", "5", "--trials", str(trials),
                       "--seed", str(seed)],
                      [("failures", "eq", 0), ("all_hold", "eq", True),
                       ("trials", "eq", trials), ("p", "eq", 5)]))
    calls += [_sharp(7), _sharp(11)]
    p = 7
    low = ref.min_coprime_value(p)
    calls.append(Call(["lambda", "--p", str(p)], [
        ("min_nontrivial", "eq", low), ("lambda", "float", math.log(low) / p ** 3),
        ("attained", "eq", True), ("witness.value", "abs_eq", low),
        ("witness", "achieve_identity", p), ("witness", "terms_det", (p, "value"))]))
    a = rng.choice([x for x in range(1, 2 * p) if x % p])
    m = rng.randint(-50, 50)
    value = a ** (p * p) + m * p ** 3
    calls.append(Call(["achieve", "--p", str(p), "--a", str(a), "--m", str(m)], [
        ("expected", "eq", value), ("computed", "eq", value), ("verified", "eq", True),
        ("", "terms_det", (p, "computed"))]))
    for kind, params in (("cyclic", (24,)), ("dihedral", (32,)), ("dicyclic", (32,)),
                         ("elementary", (3, 3))):
        calls.append(_exact_compute(rng, tmpdir, f"{kind}.json", kind, params, 2))
    return calls


def _oracle(rng, seed, tmpdir) -> list:
    calls = []
    for kind, params in (("heisenberg", (5,)), ("elementary", (5, 3)), ("dihedral", (64,)),
                         ("dicyclic", (64,)), ("cyclic", (60,))):
        coeffs, m = _nonsingular(rng, kind, params, 2)
        path = _write_poly(tmpdir, f"oracle_{kind}.json", kind, params, coeffs)
        calls.append(Call(["oracle", path], [
            ("m_oracle", "eq", m), ("m_fast", "eq", m), ("matches", "eq", True)]))
    return calls


def _cyclic_values(n: int, height: int) -> list:
    """Every circulant determinant at this height, by batched float LU
    (exact after rounding: the Hadamard bound stays far below 2^53)."""
    span = range(-height, height + 1)
    vecs = np.array(list(product(span, repeat=n)), dtype=float)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    dets = np.linalg.det(vecs[:, idx])
    return sorted({int(round(d)) for d in dets})


def _search(rng, seed, tmpdir) -> list:
    trials = 10000
    calls = [Call(["search", "--group", "heisenberg:3", "--height", "2",
                   "--trials", str(trials), "--seed", str(seed)],
                  [("evaluations", "eq", trials), ("", "witness_det", ("heisenberg", (3,))),
                   ("attained_values", "classes", "heisenberg3"),
                   ("min_nontrivial", "classes", "heisenberg3"),
                   ("", "lambda_of_min", 27)]),
             Call(["search", "--group", "dihedral:8", "--height", "3"],
                  [("evaluations", "eq", 7 ** 8), ("", "witness_det", ("dihedral", (8,))),
                   ("attained_values", "classes", "dihedral8"), ("", "lambda_of_min", 8)])]
    values = _cyclic_values(5, 3)
    low = min(abs(v) for v in values if abs(v) >= 2)
    calls.append(Call(["search", "--group", "cyclic:5", "--height", "3"],
                      [("evaluations", "eq", 7 ** 5), ("num_distinct_values", "eq", len(values)),
                       ("attained_values", "eq", [str(v) for v in values[:200]]),
                       ("attained_values", "classes", "cyclic5"),
                       ("min_nontrivial", "abs_eq", low),
                       ("", "witness_det", ("cyclic", (5,))), ("", "lambda_of_min", 5)]))
    return calls


def _expr(terms: dict, names) -> str:
    """Render {(exponents...): coef} in the CLI expression syntax."""
    out = []
    for exps, c in sorted(terms.items(), reverse=True):
        if not c:
            continue
        mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        out.append(("-" if c < 0 else "+") + body)
    s = "".join(out)
    return s[1:] if s.startswith("+") else s


def _random_slice_part(rng, ydeg: int) -> dict:
    """Every coefficient of the (ydeg + 1) x 3 grid nonzero, so that the
    term count, and with it the cost, does not change with the seed."""
    return {(ey, ez): rng.choice([-3, -2, -1, 1, 2, 3])
            for ey in range(ydeg + 1) for ez in range(3)}


def _measure(rng, seed, tmpdir) -> list:
    calls = []
    for points, ydeg in ((512, 5), (1024, 2), (2048, 1)):
        while True:
            f0, fk = _random_slice_part(rng, ydeg), _random_slice_part(rng, ydeg)
            try:
                value = ref.heis_limit_measure(f0, fk, points, check=True)
                break
            except ArithmeticError:
                continue
        # "--f=EXPR": an expression may start with "-"
        calls.append(Call(["measure", "heis", f"--f={_expr(f0, 'yz')}", f"--g={_expr(fk, 'yz')}",
                           "--points", str(points)],
                          [("value", "float", value), ("points", "eq", points)]))
    lehmer_f = {2: 1, 0: -1}  # with g = x^5 + x^4 - 1: f f~ - g g~ is Lehmer's
    salem_f = {4: 1, 3: -1, 2: -1, 1: -1, 0: 1}  # Salem polynomial of degree 4
    lehmer_g = {5: 1, 4: 1, 0: -1}
    for f, g_base in ((lehmer_f, lehmer_g), (lehmer_f, lehmer_g), (salem_f, {0: 1}),
                      (salem_f, {0: 1})):
        while True:
            g = dict(g_base)
            k = rng.randrange(1, 4)
            g[k] = g.get(k, 0) + rng.choice([-1, 1])
            g = {e: c for e, c in g.items() if c}
            try:
                values = {"dinf": ref.dinf_measure(f, g, check=True),
                          "dinfh": ref.dinfh_measure(f, g, check=True)}
                break
            except ArithmeticError:
                continue
        for which, value in values.items():
            calls.append(Call(["measure", which,
                               f"--f={_expr({(e,): c for e, c in f.items()}, 'x')}",
                               f"--g={_expr({(e,): c for e, c in g.items()}, 'x')}"],
                              [("value", "float", value)]))
    return calls


PARTS = {"exact": _exact, "oracle": _oracle, "search": _search, "measure": _measure}
WORKLOADS = {"exact": ("exact", "oracle"), "numeric": ("search", "measure")}


def build(name: str, seed: int, tmpdir: str) -> list:
    """The workload's call list for this seed, with its references."""
    calls = []
    for part in WORKLOADS[name]:
        calls += PARTS[part](random.Random(f"{part}:{seed}"), seed, tmpdir)
    return calls
