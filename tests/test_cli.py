"""End-to-end behaviour of the command-line interface.

Every test drives ``groupdet.cli.main`` in-process and parses the JSON
report it prints.  Error-path tests assert on the exit status and on the
message naming the offending token.
"""

import json
import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import groupdet
from groupdet import CycInt, GroupRingElt, NotInteger, build_group, group_determinant
from groupdet.cli import main
from groupdet.groups import _cached_group, poly_from_json, poly_to_json

LEHMER_LOG = 0.16235761200773813943


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def write_poly(tmp_path, name, group, terms):
    path = tmp_path / name
    path.write_text(json.dumps({"group": group, "terms": terms}))
    return str(path)


# -- report envelope ---------------------------------------------------------


def test_envelope_keys_and_order(capsys):
    code, rep = run_report(capsys, "achieve", "--p", "3", "--a", "2", "--m", "27")
    assert code == 0
    assert list(rep) == ["command", "input_digest", "results", "elapsed_ms"]
    assert rep["command"] == ["achieve", "--p", "3", "--a", "2", "--m", "27"]
    assert rep["input_digest"].startswith("sha256:")
    assert isinstance(rep["elapsed_ms"], int)


def test_seed_echoed_only_for_randomized_commands(capsys):
    _, rep = run_report(capsys, "verify", "lemma1", "--p", "3",
                        "--trials", "5", "--seed", "42")
    assert rep["seed"] == 42
    _, rep = run_report(capsys, "search", "--group", "cyclic:3",
                        "--height", "1", "--trials", "10", "--seed", "9")
    assert rep["seed"] == 9
    _, rep = run_report(capsys, "search", "--group", "cyclic:3", "--height", "1")
    assert "seed" not in rep
    _, rep = run_report(capsys, "achieve", "--p", "3", "--a", "1", "--m", "0")
    assert "seed" not in rep


def test_reports_reproducible_up_to_elapsed_ms(capsys):
    argv = ("search", "--group", "heisenberg:3", "--height", "2",
            "--trials", "200", "--seed", "5")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)

    def strip_elapsed(text):
        return [ln for ln in text.splitlines() if '"elapsed_ms"' not in ln]

    assert strip_elapsed(out1) == strip_elapsed(out2)


# -- compute / oracle --------------------------------------------------------


def test_compute_constant_one_over_order_27_group(capsys, tmp_path):
    path = write_poly(tmp_path, "one.json",
                      {"kind": "heisenberg", "p": 3},
                      [{"exps": [0, 0, 0], "coef": "1"}])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    res = rep["results"]
    assert res["route"] == "factorized"
    assert res["m"] == "1"
    assert res["m1"] == "1"
    assert res["m2"] == "1"
    assert res["valuation"] == 0
    assert res["checks"]["congruence_mod_p3"] is True
    assert res["checks"]["coprime_residue"] is True
    assert res["checks"]["divisibility_bound"] is None
    assert res["all_checks_pass"] is True


def test_compute_heisenberg_divisible_case(capsys, tmp_path):
    # value at 1 is 6, so the p^12 divisibility check applies
    terms = [((0, 0, 0), 1), ((0, 0, 1), 1), ((0, 0, 2), -2), ((0, 1, 1), 2),
             ((0, 1, 2), 1), ((0, 2, 0), 1), ((0, 2, 2), 1), ((1, 0, 1), 2),
             ((1, 0, 2), -1), ((1, 1, 0), 2), ((1, 1, 1), -1), ((1, 2, 0), -1),
             ((1, 2, 1), -2), ((1, 2, 2), 2), ((2, 0, 1), 2), ((2, 0, 2), 2),
             ((2, 1, 0), -1), ((2, 1, 2), -2), ((2, 2, 0), -2), ((2, 2, 2), 1)]
    path = write_poly(tmp_path, "div.json",
                      {"kind": "heisenberg", "p": 3},
                      [{"exps": list(e), "coef": str(c)} for e, c in terms])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    res = rep["results"]
    assert res["value_at_one"] == "6"
    assert res["checks"]["divisibility_bound"] is True
    assert res["valuation"] >= 12
    assert int(res["m"]) == int(res["m1"]) * int(res["m2"]) ** 3


def test_compute_zero_determinant(capsys, tmp_path):
    path = write_poly(tmp_path, "zero.json",
                      {"kind": "heisenberg", "p": 3},
                      [{"exps": [0, 0, 0], "coef": "1"},
                       {"exps": [1, 0, 0], "coef": "2"},
                       {"exps": [0, 1, 0], "coef": "-1"},
                       {"exps": [1, 1, 2], "coef": "1"}])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    res = rep["results"]
    assert res["m"] == "0"
    assert res["valuation"] is None


def test_compute_dihedral_two_part_route(capsys, tmp_path):
    path = write_poly(tmp_path, "dih.json",
                      {"kind": "dihedral", "order": 6},
                      [{"exps": [0, 0], "coef": 1},
                       {"exps": [1, 0], "coef": 2},
                       {"exps": [0, 1], "coef": -1}])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    res = rep["results"]
    assert res["route"] == "two-part"
    assert res["m"] == "32"
    assert res["base_prime"] == 2
    assert res["valuation"] == 5


def test_compute_cyclic_circulant_route(capsys, tmp_path):
    path = write_poly(tmp_path, "cyc.json",
                      {"kind": "cyclic", "n": 3},
                      [{"exps": [0], "coef": 1}, {"exps": [1], "coef": 1}])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    assert rep["results"]["route"] == "circulant"
    assert rep["results"]["m"] == "2"


def test_oracle_agrees_with_fast_route(capsys, tmp_path):
    path = write_poly(tmp_path, "h.json",
                      {"kind": "heisenberg", "p": 3},
                      [{"exps": [0, 0, 0], "coef": "2"},
                       {"exps": [1, 2, 0], "coef": "-3"},
                       {"exps": [2, 1, 1], "coef": "5"}])
    code, rep = run_report(capsys, "oracle", path)
    assert code == 0
    res = rep["results"]
    assert res["matches"] is True
    assert res["m_oracle"] == res["m_fast"]
    assert res["fast_route"] == "factorized"


# -- verification subcommands ------------------------------------------------


@pytest.mark.parametrize("check", ["congruence", "lemma1", "lemma2"])
def test_verify_subcommands_hold(capsys, check):
    code, rep = run_report(capsys, "verify", check, "--p", "3",
                           "--trials", "25", "--seed", "1")
    assert code == 0
    res = rep["results"]
    assert res["check"] == check
    assert res["failures"] == 0
    assert res["all_hold"] is True


def test_achieve_reference_value(capsys):
    code, rep = run_report(capsys, "achieve", "--p", "3", "--a", "2", "--m", "1")
    assert code == 0
    res = rep["results"]
    assert res["expected"] == "539"
    assert res["computed"] == "539"
    assert res["verified"] is True
    assert len(res["terms"]) == 27


def test_sharp_heisenberg_p5(capsys):
    code, rep = run_report(capsys, "sharp", "--family", "heisenberg", "--p", "5")
    assert code == 0
    res = rep["results"]
    assert res["expected_valuation"] == 28
    assert res["actual_valuation"] == 28
    assert res["exact"] is True


def test_sharp_zp2_with_extra_factor(capsys):
    code, rep = run_report(capsys, "sharp", "--family", "zp2", "--p", "5", "--k", "1")
    assert code == 0
    res = rep["results"]
    assert res["expected_valuation"] == 9
    assert res["actual_valuation"] == 9
    assert res["exact"] is True


def test_h3_values_all_match(capsys):
    code, rep = run_report(capsys, "h3-values", "--m-range=-1..1")
    assert code == 0
    res = rep["results"]
    assert res["all_match"] is True
    assert res["m_lo"] == -1 and res["m_hi"] == 1
    assert [row["m"] for row in res["rows"]] == [-1, 0, 1]
    for row in res["rows"]:
        assert len(row["families"]) == 5
        for fam in row["families"]:
            assert fam["matches"] is True
            assert fam["claimed"] == fam["computed"]


# -- search / lambda ---------------------------------------------------------


def test_search_exhaustive_report(capsys):
    code, rep = run_report(capsys, "search", "--group", "cyclic:3",
                           "--height", "1")
    assert code == 0
    res = rep["results"]
    assert res["mode"] == "exhaustive"
    assert res["evaluations"] == 27
    assert res["min_nontrivial"] == "-2"
    assert res["attained_values"] == ["-4", "-2", "-1", "0", "1", "2", "4"]
    assert res["trials"] is None and res["seed"] is None


def test_search_mixed_product_matches_oracle(capsys):
    # Z_2 x Z_3 has no character-product shortcut; the search takes the
    # same Cayley route as compute
    code, rep = run_report(capsys, "search", "--group", "product:2,3",
                           "--height", "1")
    assert code == 0
    res = rep["results"]
    g = build_group("product", 2, 3)
    values = {group_determinant(GroupRingElt(g, c))
              for c in product((-1, 0, 1), repeat=6)}
    assert res["attained_values"] == [str(v) for v in sorted(values)]
    assert abs(int(res["min_nontrivial"])) == min(abs(v) for v in values if abs(v) >= 2)
    witness = GroupRingElt.from_terms(
        g, [(t["exps"], int(t["coef"])) for t in res["witness"]])
    assert group_determinant(witness) == int(res["min_nontrivial"])


def test_search_filter_uses_the_base_prime_compute_reports(capsys, tmp_path):
    path = write_poly(tmp_path, "prod.json", {"kind": "product", "orders": [3, 2]},
                      [{"exps": [0, 0], "coef": 1}, {"exps": [1, 1], "coef": 1}])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    assert rep["results"]["route"] == "cayley"
    assert rep["results"]["base_prime"] == 2
    code, rep = run_report(capsys, "search", "--group", "product:3,2",
                           "--height", "1", "--filter", "coprime")
    assert code == 0
    values = [int(v) for v in rep["results"]["attained_values"]]
    assert values and all(v % 2 for v in values)
    assert any(v % 3 == 0 for v in values)


def test_search_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("GDET_BUDGET", "10")
    code, out, err = run_cli(capsys, "search", "--group", "cyclic:3",
                             "--height", "2")
    assert code == 2
    assert out == ""
    assert "budget" in err.lower()


def test_lambda_p3(capsys):
    code, rep = run_report(capsys, "lambda", "--p", "3")
    assert code == 0
    res = rep["results"]
    assert res["min_nontrivial"] == "26"
    assert res["attained"] is True
    assert abs(int(res["witness"]["value"])) == 26
    assert float(res["lambda"]) == pytest.approx(math.log(26) / 27, abs=1e-10)


# -- numeric measures --------------------------------------------------------


def test_measure_dinf_reference(capsys):
    code, rep = run_report(capsys, "measure", "dinf",
                           "--f", "x^2-1", "--g", "x^5+x^4-1")
    assert code == 0
    res = rep["results"]
    assert res["value"] == pytest.approx(LEHMER_LOG / 2, abs=1e-10)
    assert not {"points", "slices", "max_iterations", "error_estimate"} & set(res)


def test_measure_heis_closed_form(capsys):
    code, rep = run_report(capsys, "measure", "heis",
                           "--f", "y+z+3", "--g", "1", "--points", "64")
    assert code == 0
    res = rep["results"]
    assert res["points"] == 64
    assert res["value"] == pytest.approx(math.log(3), abs=1e-6)
    assert res["slices"] == 64
    assert res["max_iterations"] >= 1
    assert res["error_estimate"] < 1e-12


# -- error paths -------------------------------------------------------------


def test_bad_coefficient_token_named(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"group": {"kind": "cyclic", "n": 3},'
                    ' "terms": [{"exps": [0], "coef": "12q"}]}')
    code, out, err = run_cli(capsys, "compute", str(path))
    assert code == 2
    assert out == ""
    assert "12q" in err


def test_missing_input_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "compute", str(tmp_path / "absent.json"))
    assert code == 2
    assert "absent.json" in err


def test_bad_group_token(capsys):
    code, _, err = run_cli(capsys, "search", "--group", "frobnitz:3",
                           "--height", "1")
    assert code == 2
    assert "frobnitz" in err


@pytest.mark.parametrize("token", ["elementary:3", "heisenberg:3,4", "dihedral:8,2"])
def test_group_token_parameter_count_checked(capsys, token):
    code, out, err = run_cli(capsys, "search", "--group", token, "--height", "1")
    assert code == 2
    assert out == ""
    assert repr(token) in err


@pytest.mark.parametrize("token,message", [
    ("cyclic:0", "bad cyclic factors (0,)"),
    ("elementary:4,2", "4 is not prime"),
    ("product:2,0", "bad cyclic factors (2, 0)"),
    ("heisenberg:4", "Heisenberg group needs an odd prime, got 4"),
    ("dihedral:7", "dihedral order must be even, got 7"),
    ("dicyclic:6", "dicyclic order must be divisible by 4, got 6"),
])
def test_search_bad_group_parameters_exit_2(capsys, token, message):
    code, out, err = run_cli(capsys, "search", "--group", token, "--height", "1",
                             "--trials", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_compute_bad_heisenberg_prime_names_the_group(capsys, tmp_path):
    path = write_poly(tmp_path, "h4.json", {"kind": "heisenberg", "p": 4},
                      [{"exps": [0, 0, 0], "coef": 1}])
    code, out, err = run_cli(capsys, "compute", path)
    assert (code, out, err) == (2, "", "error: Heisenberg group needs an odd prime, got 4\n")


@pytest.mark.parametrize("group,term,message", [
    ({"kind": "cyclic", "n": 3}, {"exps": [True], "coef": True},
     "term exps [True] must be 1 integers"),
    ({"kind": "cyclic", "n": 3}, {"exps": [1], "coef": True}, "bad coefficient token True"),
    ({"kind": "cyclic", "n": True}, {"exps": [0], "coef": 1},
     "group key 'n' must be a positive integer"),
    ({"kind": "product", "orders": [2, True]}, {"exps": [0, 0], "coef": 1},
     "product group needs a nonempty 'orders' list"),
    ({"kind": "cyclic", "n": 3}, {"exps": [0], "coef": " 7"}, "bad coefficient token ' 7'"),
    ({"kind": "cyclic", "n": 3}, {"exps": [0], "coef": "1_000"},
     "bad coefficient token '1_000'"),
])
def test_json_booleans_and_loose_decimals_exit_2(capsys, tmp_path, group, term, message):
    path = write_poly(tmp_path, "bad.json", group, [term])
    for cmd in ("compute", "oracle"):
        assert run_cli(capsys, cmd, path) == (2, "", f"error: {message}\n")


def test_heisenberg_compute_builds_no_cayley_table(capsys, tmp_path):
    rng = random.Random(11)
    terms = [{"exps": list(e), "coef": rng.randint(-2, 2)} for e in product(range(11), repeat=3)]
    path = write_poly(tmp_path, "h11.json", {"kind": "heisenberg", "p": 11}, terms)
    _cached_group.cache_clear()
    poly_from_json(Path(path).read_text())
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    assert rep["results"]["group"] == {"kind": "heisenberg", "order": 1331, "p": 11}
    assert _cached_group.cache_info().currsize == 0


@pytest.mark.parametrize("group,labels,route", [
    ({"kind": "cyclic", "n": 24}, [(i,) for i in range(24)], "circulant"),
    ({"kind": "dihedral", "order": 32}, list(product(range(16), range(2))), "two-part"),
    ({"kind": "dicyclic", "order": 32}, list(product(range(16), range(2))), "two-part"),
    ({"kind": "elementary", "p": 3, "n": 2}, list(product(range(3), repeat=2)),
     "character-product"),
])
def test_table_free_routes_build_no_cayley_table(capsys, tmp_path, group, labels, route):
    rng = random.Random(3)
    terms = [{"exps": list(e), "coef": rng.randint(-2, 2)} for e in labels]
    path = write_poly(tmp_path, "f.json", group, terms)
    _cached_group.cache_clear()
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    assert rep["results"]["route"] == route
    assert _cached_group.cache_info().currsize == 0
    m = rep["results"]["m"]
    code, rep = run_report(capsys, "oracle", path)
    assert rep["results"]["m_oracle"] == m


@pytest.mark.parametrize("argv", [
    ("--group", "heisenberg:3", "--height", "2", "--trials", "200", "--seed", "5"),
    ("--group", "dihedral:8", "--height", "1"),
    ("--group", "cyclic:5", "--height", "1"),
])
def test_search_builds_no_cayley_table(capsys, argv):
    _cached_group.cache_clear()
    code, rep = run_report(capsys, "search", *argv)
    assert code == 0
    assert rep["results"]["witness"]
    assert _cached_group.cache_info().currsize == 0


@pytest.mark.parametrize("cmd", ["compute", "oracle"])
def test_oracle_cap_checked_before_building_the_table(capsys, tmp_path, cmd):
    path = write_poly(tmp_path, "big.json", {"kind": "product", "orders": [2, 400]},
                      [{"exps": [1, 3], "coef": 2}, {"exps": [0, 0], "coef": 1}])
    _cached_group.cache_clear()
    code, out, err = run_cli(capsys, cmd, path)
    assert (code, out, err) == (2, "", "error: oracle path is capped at order 300; got 800\n")
    assert _cached_group.cache_info().currsize == 0


@pytest.mark.parametrize("group,exps", [
    ({"kind": "cyclic", "n": 1}, [0]),
    ({"kind": "product", "orders": [1, 1]}, [0, 0]),
])
def test_compute_order_one_group_exits_2(capsys, tmp_path, group, exps):
    path = write_poly(tmp_path, "one.json", group, [{"exps": exps, "coef": 6}])
    code, out, err = run_cli(capsys, "compute", path)
    assert (code, out, err) == (2, "", "error: p-adic valuation needs p >= 2, got 1\n")


@pytest.mark.parametrize("flags,message", [
    (("--trials", "-3"), "--trials must be >= 1, got -3"),
    (("--trials", "0"), "--trials must be >= 1, got 0"),
    (("--max-values", "-1"), "--max-values must be >= 0, got -1"),
])
def test_search_rejects_out_of_range_flags(capsys, flags, message):
    code, out, err = run_cli(capsys, "search", "--group", "cyclic:3", "--height", "1",
                             *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sharp_heisenberg_p13(capsys):
    code, rep = run_report(capsys, "sharp", "--family", "heisenberg", "--p", "13")
    assert code == 0
    assert rep["results"]["actual_valuation"] == 172
    assert rep["results"]["exact"] is True


def test_verify_congruence_p13(capsys):
    code, rep = run_report(capsys, "verify", "congruence", "--p", "13", "--trials", "3")
    assert code == 0
    assert rep["results"]["all_hold"] is True


def test_bad_measure_expression(capsys):
    code, _, err = run_cli(capsys, "measure", "dinf", "--f", "x^2 + q",
                           "--g", "1")
    assert code == 2
    assert "'q'" in err


def test_measure_rejects_extra_variable(capsys):
    code, _, err = run_cli(capsys, "measure", "dinf", "--f", "x + y", "--g", "1")
    assert code == 2
    assert "'y'" in err


def test_sharp_zp2_requires_p_at_least_5(capsys):
    code, _, err = run_cli(capsys, "sharp", "--family", "zp2", "--p", "3")
    assert code == 2
    assert "5" in err


def test_sharp_heisenberg_rejects_k(capsys):
    code, _, err = run_cli(capsys, "sharp", "--family", "heisenberg",
                           "--p", "5", "--k", "1")
    assert code == 2
    assert "--k" in err


def test_verify_rejects_composite_p(capsys):
    code, _, err = run_cli(capsys, "verify", "congruence", "--p", "9",
                           "--trials", "1")
    assert code == 2
    assert "9" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_no_arguments_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


def test_failed_integrality_certificate_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(CycInt, "as_integer", lambda self: None)
    with pytest.raises(NotInteger):
        CycInt.from_exponent_vector(3, [1, 1, 0]).norm()
    path = write_poly(tmp_path, "h.json", {"kind": "heisenberg", "p": 3},
                      [{"exps": [0, 0, 0], "coef": 2}, {"exps": [1, 0, 0], "coef": 1}])
    code, out, err = run_cli(capsys, "compute", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_failed_residue_certificate_exits_1(capsys, monkeypatch):
    import groupdet.search
    monkeypatch.setattr(groupdet.search, "is_power_residue", lambda x, p, n: False)
    code, out, err = run_cli(capsys, "lambda", "--p", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_unexpected_exception_exits_3(capsys, tmp_path, monkeypatch):
    import groupdet.groups

    def broken(h, n):
        raise RuntimeError("route broke")

    monkeypatch.setattr(groupdet.groups, "circulant_det", broken)
    path = write_poly(tmp_path, "cyc.json", {"kind": "cyclic", "n": 3},
                      [{"exps": [0], "coef": 2}, {"exps": [1], "coef": 1}])
    code, out, err = run_cli(capsys, "compute", path)
    assert code == 3
    assert out == ""
    assert err.strip() == "error: RuntimeError: route broke"


# -- big integers and the multimodular certificate ---------------------------


@pytest.fixture
def default_int_str_cap():
    """Put back the interpreter's default 4,300-digit cap on int/str
    conversion, which main lifts for the rest of the process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_compute_prints_an_m_past_the_4300_digit_cap(capsys, tmp_path, default_int_str_cap):
    rng = random.Random(17)
    terms = [{"exps": list(e), "coef": c} for e in product(range(17), repeat=3)
             if (c := rng.randint(-1, 1))]
    path = write_poly(tmp_path, "h17.json", {"kind": "heisenberg", "p": 17}, terms)
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    res = rep["results"]
    assert res["all_checks_pass"] is True
    assert len(res["m"].lstrip("-")) > 4300
    assert int(res["m"]) == int(res["m1"]) * int(res["m2"]) ** 17


def test_compute_reads_a_5000_digit_coefficient(capsys, tmp_path, default_int_str_cap):
    rng = random.Random(5000)
    a_digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4999))
    b_digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4998))
    path = write_poly(tmp_path, "cyc.json", {"kind": "cyclic", "n": 2},
                      [{"exps": [0], "coef": a_digits}, {"exps": [1], "coef": b_digits}])
    code, rep = run_report(capsys, "compute", path)
    assert code == 0
    a, b = int(a_digits), int(b_digits)
    assert rep["results"]["m"] == str(a * a - b * b)
    text = Path(path).read_text()
    pin = poly_from_json(text)
    assert json.loads(poly_to_json(pin.kind, pin.params, pin.terms)) == json.loads(text)


def _sabotage_check_prime(exactdet):
    """Make the last residue of every batch, so the check prime's, wrong."""
    original = exactdet._det_mod

    def sabotaged(a, primes):
        res = original(a, primes)
        return res[:-1] + [(res[-1] + 1) % primes[-1]]

    return sabotaged


def _oracle_input(tmp_path):
    rng = random.Random(40)
    return write_poly(tmp_path, "c40.json", {"kind": "cyclic", "n": 40},
                      [{"exps": [i], "coef": rng.randint(-2, 2)} for i in range(40)])


def test_oracle_exits_1_when_the_check_prime_disagrees(capsys, tmp_path, monkeypatch):
    from groupdet import exactdet

    path = _oracle_input(tmp_path)
    code, rep = run_report(capsys, "oracle", path)
    assert code == 0 and rep["results"]["matches"] is True
    monkeypatch.setattr(exactdet, "_det_mod", _sabotage_check_prime(exactdet))
    code, out, err = run_cli(capsys, "oracle", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: multimodular determinant fails its check")


def test_check_prime_failure_exits_1_under_python_O(tmp_path):
    path = _oracle_input(tmp_path)
    script = (
        "import sys\n"
        "if sys.flags.optimize < 1:\n"
        "    sys.exit(99)\n"
        "from groupdet import exactdet\n"
        "from groupdet.cli import main\n"
        "from test_cli import _sabotage_check_prime\n"
        "exactdet._det_mod = _sabotage_check_prime(exactdet)\n"
        f"sys.exit(main(['oracle', {path!r}]))\n"
    )
    src = str(Path(groupdet.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: multimodular determinant fails its check")
