"""Command-line entry point.

Subcommands cover exact computation (compute, oracle), randomized and
constructive verification (verify, achieve, sharp, h3-values), value
searches (search, lambda), and numeric limit measures (measure).  Every
run prints one JSON report with a fixed key order; big integers are
serialized as decimal strings so the output survives any JSON parser.
The report is byte-identical across runs with the same inputs and seed
except for the trailing elapsed_ms key, which is wall-clock time and is
deliberately the only nondeterministic field.

Exit status: 0 when the command succeeds and every check it performs
holds, 1 when a verification fails (or an internal certification fails),
2 on input errors (bad flags, malformed JSON or polynomial expressions,
out-of-range parameters), with a message naming the offending token, and
3 on any other exception, whose type and message go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time

from .errors import (
    BudgetExceeded,
    GroupDetError,
    InvalidParameter,
    ParseError,
    PreconditionViolated,
    ZeroPolynomial,
    ZeroSlice,
)
from .exactdet import is_prime
from .groups import (
    KINDS,
    GroupRingElt,
    build_group,
    check_oracle_order,
    describe_group,
    group_determinant,
    kind_of,
    poly_from_json,
)
from .mahler import (
    LaurentPoly,
    d_infinity_h_measure,
    d_infinity_measure,
    heisenberg_infinite_measure,
)
from .measures import heisenberg_measure
from .parsing import bivariate_yz, parse_poly, univariate
from .search import SearchConfig, enumerate_values, lambda_heisenberg
from .verify import (
    achieve_construction,
    check_measure_congruence,
    check_power_sum_congruence,
    check_symmetric_power_divisibility,
    h3_family_values,
    heisenberg_divisibility_check,
    heisenberg_sharp_family,
    is_power_residue,
    p_valuation,
    random_heisenberg_poly,
    random_symmetric_instance,
    zp2_sharp_family,
)

# Errors caused by what the user handed us (exit 2), as opposed to a
# failed verification or internal certification (exit 1).
_INPUT_ERRORS = (
    ParseError,
    InvalidParameter,
    PreconditionViolated,
    BudgetExceeded,
    ZeroPolynomial,
    ZeroSlice,
    OSError,
)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _echo_digest(echo: dict) -> str:
    return _digest(json.dumps(echo, sort_keys=True).encode())


def _json_valuation(v):
    return None if v == math.inf else int(v)


# -- compute / oracle -------------------------------------------------------


def _cmd_compute(ns):
    with open(ns.poly, "rb") as fh:
        data = fh.read()
    pin = poly_from_json(data.decode())
    kind = kind_of(pin.kind)
    route, exact = kind.route(pin.params)
    group = describe_group(pin.kind, pin.params)
    coeffs = kind.flat_coeffs(pin.params, pin.terms)
    value_at_one = sum(coeffs)
    if pin.kind == "heisenberg":
        p = pin.params[0]
        fac = heisenberg_measure(p, coeffs)
        m = fac.m
        cong = check_measure_congruence(p, coeffs, fac)
        coprime = math.gcd(m, p) == 1
        residue_ok = is_power_residue(m, p, 3) if coprime else None
        div_ok = None
        if not coprime:
            div_ok = heisenberg_divisibility_check(p, coeffs, fac).meets_bound
        checks = {
            "congruence_mod_p3": cong.holds,
            "coprime_residue": residue_ok,
            "divisibility_bound": div_ok,
        }
        ok = all(v for v in checks.values() if v is not None)
        results = {
            "group": group,
            "route": route,
            "p": p,
            "m": str(m),
            "m1": str(fac.m1),
            "m2": str(fac.m2),
            "value_at_one": str(value_at_one),
            "m_mod_p3": str(m % p ** 3),
            "valuation": _json_valuation(p_valuation(m, p)),
            "checks": checks,
            "all_checks_pass": ok,
        }
        return results, 0 if ok else 1, None, _digest(data)
    m = exact(coeffs)
    q = kind.base_prime(pin.params)
    results = {
        "group": group,
        "route": route,
        "m": str(m),
        "value_at_one": str(value_at_one),
        "base_prime": q,
        "valuation": _json_valuation(p_valuation(m, q)),
    }
    return results, 0, None, _digest(data)


def _cmd_oracle(ns):
    with open(ns.poly, "rb") as fh:
        data = fh.read()
    pin = poly_from_json(data.decode())
    kind = kind_of(pin.kind)
    check_oracle_order(kind.order(pin.params))
    coeffs = kind.flat_coeffs(pin.params, pin.terms)
    m_oracle = group_determinant(GroupRingElt(build_group(pin.kind, *pin.params), coeffs))
    route, exact = kind.route(pin.params)
    m_fast = exact(coeffs)
    results = {
        "group": describe_group(pin.kind, pin.params),
        "m_oracle": str(m_oracle),
        "m_fast": str(m_fast),
        "fast_route": route,
        "matches": m_oracle == m_fast,
    }
    return results, 0 if m_oracle == m_fast else 1, None, _digest(data)


# -- verify / achieve / sharp / h3-values -----------------------------------


def _cmd_verify(ns):
    if ns.p < 3 or not is_prime(ns.p):
        raise InvalidParameter(f"--p must be an odd prime, got {ns.p}")
    if ns.trials < 1:
        raise InvalidParameter(f"--trials must be >= 1, got {ns.trials}")
    if ns.height < 1:
        raise InvalidParameter(f"--height must be >= 1, got {ns.height}")
    rng = random.Random(ns.seed)
    failures = 0
    for _ in range(ns.trials):
        if ns.check == "congruence":
            f = random_heisenberg_poly(rng, ns.p, ns.height)
            ok = check_measure_congruence(ns.p, f).holds
        elif ns.check == "lemma1":
            coeffs = [rng.randint(-ns.height, ns.height) for _ in range(ns.p)]
            ok = check_power_sum_congruence(coeffs, ns.p)
        else:
            coeffs = random_symmetric_instance(rng, ns.p, ns.height)
            ok = check_symmetric_power_divisibility(coeffs, ns.p)
        failures += 0 if ok else 1
    results = {
        "check": ns.check,
        "p": ns.p,
        "trials": ns.trials,
        "height": ns.height,
        "failures": failures,
        "all_hold": failures == 0,
    }
    echo = {"cmd": "verify", "check": ns.check, "p": ns.p, "trials": ns.trials,
            "height": ns.height, "seed": ns.seed}
    return results, 0 if failures == 0 else 1, ns.seed, _echo_digest(echo)


def _cmd_achieve(ns):
    poly, value = achieve_construction(ns.a, ns.m, ns.p)
    expected = ns.a ** (ns.p * ns.p) + ns.m * ns.p ** 3
    verified = value == expected
    results = {
        "p": ns.p,
        "a": ns.a,
        "m": ns.m,
        "expected": str(expected),
        "computed": str(value),
        "verified": verified,
        "terms": [{"exps": list(e), "coef": str(c)}
                  for e, c in KINDS["heisenberg"].terms((ns.p,), poly)],
    }
    echo = {"cmd": "achieve", "p": ns.p, "a": ns.a, "m": ns.m}
    return results, 0 if verified else 1, None, _echo_digest(echo)


def _cmd_sharp(ns):
    if ns.family == "zp2":
        _, rep = zp2_sharp_family(ns.p, ns.k)
    else:
        if ns.k:
            raise InvalidParameter("--k applies only to --family zp2")
        _, rep = heisenberg_sharp_family(ns.p)
    results = {
        "family": rep.family,
        "p": rep.p,
        "k": rep.k,
        "value": str(rep.value),
        "expected_valuation": rep.expected_valuation,
        "actual_valuation": _json_valuation(rep.actual_valuation),
        "meets_bound": rep.meets_bound,
        "exact": rep.exact,
    }
    echo = {"cmd": "sharp", "family": ns.family, "p": ns.p, "k": ns.k}
    return results, 0 if rep.exact else 1, None, _echo_digest(echo)


def _parse_m_range(token: str):
    lo, sep, hi = token.partition("..")
    if not sep:
        raise ParseError(f"bad --m-range {token!r}: expected LO..HI")
    try:
        lo, hi = int(lo, 10), int(hi, 10)
    except ValueError:
        raise ParseError(f"bad --m-range {token!r}: bounds must be integers") from None
    if lo > hi:
        raise ParseError(f"bad --m-range {token!r}: LO must not exceed HI")
    return lo, hi


def _cmd_h3_values(ns):
    lo, hi = _parse_m_range(ns.m_range)
    rows = []
    all_match = True
    for m in range(lo, hi + 1):
        fams = h3_family_values(m)
        all_match = all_match and all(v.matches for v in fams)
        rows.append({
            "m": m,
            "families": [{"label": v.label, "claimed": str(v.claimed),
                          "computed": str(v.computed), "matches": v.matches}
                         for v in fams],
        })
    results = {"m_lo": lo, "m_hi": hi, "rows": rows, "all_match": all_match}
    echo = {"cmd": "h3-values", "m_range": [lo, hi]}
    return results, 0 if all_match else 1, None, _echo_digest(echo)


# -- search / lambda --------------------------------------------------------


def _parse_group_token(token: str):
    kind, sep, rest = token.partition(":")
    if kind not in KINDS:
        raise ParseError(f"unknown group kind {kind!r} (expected one of {', '.join(KINDS)})")
    if not sep or not rest:
        raise ParseError(f"group token {token!r} needs parameters, e.g. heisenberg:3")
    try:
        params = tuple(int(t, 10) for t in rest.split(","))
    except ValueError:
        raise ParseError(f"bad group parameters in {token!r}") from None
    spec = KINDS[kind]
    if not spec.variadic and len(params) != len(spec.keys):
        raise ParseError(f"group token {token!r} needs {len(spec.keys)} parameter(s) "
                         f"({', '.join(spec.keys)}), got {len(params)}")
    return kind, params


def _cmd_search(ns):
    kind, params = _parse_group_token(ns.group)
    if ns.trials is not None and ns.trials < 1:
        raise InvalidParameter(f"--trials must be >= 1, got {ns.trials}")
    if ns.max_values < 0:
        raise InvalidParameter(f"--max-values must be >= 0, got {ns.max_values}")
    mode = "random" if ns.trials is not None else "exhaustive"
    cfg = SearchConfig(kind=kind, params=params, height=ns.height, mode=mode,
                       trials=ns.trials if ns.trials is not None else 10000,
                       seed=ns.seed, value_filter=ns.filter,
                       max_values=ns.max_values)
    res = enumerate_values(cfg)
    results = res.to_report()
    seed = ns.seed if mode == "random" else None
    echo = {"cmd": "search", "group": ns.group, "height": ns.height,
            "mode": mode, "trials": ns.trials, "seed": seed,
            "filter": ns.filter, "max_values": ns.max_values}
    return results, 0, seed, _echo_digest(echo)


def _cmd_lambda(ns):
    if ns.p < 3 or not is_prime(ns.p):
        raise InvalidParameter(f"--p must be an odd prime, got {ns.p}")
    info = lambda_heisenberg(ns.p)
    w = info["witness"]
    results = {
        "p": info["p"],
        "min_nontrivial": str(info["min_nontrivial"]),
        "lambda": f"{info['lambda']:.12f}",
        "witness": None if w is None else {
            "a": w["a"],
            "m": w["m"],
            "value": str(w["value"]),
            "terms": [{"exps": list(e), "coef": str(c)} for e, c in w["terms"]],
        },
        "attained": info["attained"],
    }
    echo = {"cmd": "lambda", "p": ns.p}
    return results, 0 if info["attained"] else 1, None, _echo_digest(echo)


# -- numeric measures -------------------------------------------------------


def _cmd_measure(ns):
    terms_f = parse_poly(ns.f)
    terms_g = parse_poly(ns.g)
    results = {"measure": ns.which, "f": ns.f, "g": ns.g}
    if ns.which == "heis":
        if ns.points < 1:
            raise InvalidParameter(f"--points must be >= 1, got {ns.points}")
        limit = heisenberg_infinite_measure(bivariate_yz(terms_f),
                                            bivariate_yz(terms_g),
                                            points=ns.points)
        results.update(value=limit.value, points=ns.points, slices=limit.slices,
                       max_iterations=limit.max_iterations, error_estimate=limit.error_estimate)
    else:
        f = LaurentPoly(univariate(terms_f, "x"))
        g = LaurentPoly(univariate(terms_g, "x"))
        fn = d_infinity_measure if ns.which == "dinf" else d_infinity_h_measure
        results["value"] = fn(f, g)
    echo = {"cmd": "measure", "which": ns.which, "f": ns.f, "g": ns.g,
            "points": ns.points if ns.which == "heis" else None}
    return results, 0, None, _echo_digest(echo)


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="groupdet",
        description="Exact group determinants, their verification suites, "
                    "value searches, and limit measures.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compute", help="fast exact determinant of a polynomial JSON file")
    c.add_argument("poly", metavar="POLY.json")
    c.set_defaults(fn=_cmd_compute)

    o = sub.add_parser("oracle", help="full Cayley-matrix determinant, checked against the fast route")
    o.add_argument("poly", metavar="POLY.json")
    o.set_defaults(fn=_cmd_oracle)

    v = sub.add_parser("verify", help="randomized checks of the congruence and the two power-sum facts")
    v.add_argument("check", choices=["congruence", "lemma1", "lemma2"],
                   help="congruence: M = F(1,1,1)^(p^3) mod p^3; lemma1: "
                        "power-sum congruence mod p^2; lemma2: symmetric-power "
                        "divisibility by p^3")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--height", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=_cmd_verify)

    a = sub.add_parser("achieve", help="construct F with determinant exactly a^(p^2) + m p^3")
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--a", type=int, required=True)
    a.add_argument("--m", type=int, required=True)
    a.set_defaults(fn=_cmd_achieve)

    s = sub.add_parser("sharp", help="families attaining the divisibility bounds exactly")
    s.add_argument("--family", choices=["zp2", "heisenberg"], required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, default=0)
    s.set_defaults(fn=_cmd_sharp)

    h = sub.add_parser("h3-values", help="the five explicit order-27 families vs their closed forms")
    h.add_argument("--m-range", dest="m_range", required=True, metavar="LO..HI",
                   help="inclusive shift range; write --m-range=-5..5 when LO is negative")
    h.set_defaults(fn=_cmd_h3_values)

    se = sub.add_parser("search", help="enumerate attained determinant values")
    se.add_argument("--group", required=True, metavar="KIND:PARAMS",
                    help="e.g. heisenberg:3, cyclic:5, dihedral:8, product:3,3")
    se.add_argument("--height", type=int, required=True)
    mx = se.add_mutually_exclusive_group()
    mx.add_argument("--exhaustive", action="store_true")
    mx.add_argument("--trials", type=int, default=None)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--filter", choices=["all", "coprime", "multiples"], default="all")
    se.add_argument("--max-values", dest="max_values", type=int, default=1000000)
    se.set_defaults(fn=_cmd_search)

    la = sub.add_parser("lambda", help="growth constant of the order-p^3 family, with witness")
    la.add_argument("--p", type=int, required=True)
    la.set_defaults(fn=_cmd_lambda)

    me = sub.add_parser("measure", help="numeric limit measures from polynomial expressions")
    me.add_argument("which", choices=["dinf", "dinfh", "heis"],
                    help="dinf: f(x) + y g(x) over the infinite dihedral group; "
                         "dinfh: same with an adjoined central involution; "
                         "heis: f0(y,z) + x^k fk(y,z) in the Heisenberg limit")
    me.add_argument("--f", required=True, metavar="EXPR")
    me.add_argument("--g", required=True, metavar="EXPR")
    me.add_argument("--points", type=int, default=512)
    me.set_defaults(fn=_cmd_measure)

    return ap


def main(argv=None) -> int:
    # determinants pass 4,300 digits (the default str/int conversion cap)
    # at p = 17 already; absent before 3.10.7, where there is no cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        results, code, seed, digest = ns.fn(ns)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GroupDetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a fault of the program, not a failed check
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    report = {"command": argv, "input_digest": digest}
    if seed is not None:
        report["seed"] = seed
    report["results"] = results
    report["elapsed_ms"] = int(round((time.perf_counter() - t0) * 1000))
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
