"""Cayley tables, group-ring elements, and the Heisenberg label product."""

import json
import random
import sys

import numpy as np
import pytest

from groupdet import (
    GroupRingElt,
    InvalidParameter,
    ParseError,
    build_group,
    cayley_matrix,
    group_determinant,
    poly_from_json,
    poly_to_json,
)
from groupdet.groups import KINDS, GroupSpec, _heisenberg_mul, check_oracle_order

H3 = KINDS["heisenberg"]


# -- construction ----------------------------------------------------------


def test_orders_and_kinds():
    assert build_group("cyclic", 6).order == 6
    assert build_group("elementary", 3, 2).order == 9
    assert build_group("product", 2, 3, 4).order == 24
    assert build_group("heisenberg", 3).order == 27
    assert build_group("dihedral", 8).order == 8
    assert build_group("dicyclic", 12).order == 12


def test_abelian_flags():
    # a built table commutes exactly when its group is abelian
    for kind, params, abelian in [
            ("cyclic", (5,), True), ("product", (2, 2), True),
            ("dihedral", (4,), True),  # the Klein four-group
            ("heisenberg", (3,), False), ("dihedral", (6,), False), ("dicyclic", (8,), False)]:
        t = build_group(kind, *params).mul
        assert all(t[i][j] == t[j][i] for i in range(len(t)) for j in range(i)) == abelian


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        build_group("heisenberg", 4)
    with pytest.raises(InvalidParameter):
        build_group("heisenberg", 2)
    with pytest.raises(InvalidParameter):
        build_group("dihedral", 7)
    with pytest.raises(InvalidParameter):
        build_group("dicyclic", 6)
    with pytest.raises(InvalidParameter):
        build_group("frobnicate", 5)


@pytest.mark.parametrize("g", [
    build_group("cyclic", 7), build_group("elementary", 3, 2), build_group("product", 2, 4),
    build_group("heisenberg", 3), build_group("dihedral", 10), build_group("dicyclic", 8),
])
def test_group_axioms(g):
    n = g.order
    e = g.element_exps.index((0,) * len(g.moduli))
    for i in range(n):
        assert g.mul[e][i] == i and g.mul[i][e] == i
        assert g.mul[i][g.inv[i]] == e and g.mul[g.inv[i]][i] == e
    # Latin square rows and columns
    for i in range(n):
        assert sorted(g.mul[i]) == list(range(n))
        assert sorted(g.mul[j][i] for j in range(n)) == list(range(n))


# an order-5 Latin square with identity 0 in which every element is its own
# inverse: a loop, not a group (Z_5 has no element of order 2)
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
Z5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]


def _times_cyclic(table, m):
    """The direct product of a table with Z_m: labels (i, j), element (i, j)
    at index i m + j, the product taken componentwise."""
    k = len(table)
    mul = [[table[a][c] * m + (b + d) % m for c in range(k) for d in range(m)]
           for a in range(k) for b in range(m)]
    return mul, [(i, j) for i in range(k) for j in range(m)]


def test_non_associative_loop_is_rejected():
    labels = [(i,) for i in range(5)]
    with pytest.raises(InvalidParameter, match="not associative"):
        GroupSpec("cyclic", (5,), LOOP5, labels)
    assert GroupSpec("cyclic", (5,), Z5, labels).order == 5


@pytest.mark.parametrize("mul,labels,message", [
    (Z5, [(0,), (1,), (1,), (3,), (4,)], "element exponent labels are not distinct"),
    ([row[:4] + [5] for row in Z5], None, "multiplication table is malformed"),
    ([[(i + j + 1) % 5 for j in range(5)] for i in range(5)], None,
     "index 0 is not a two-sided identity"),
    ([[0, 1, 2], [1, 1, 2], [2, 2, 0]], None, "multiplication table is not a Latin square"),
])
def test_malformed_tables_are_rejected(mul, labels, message):
    labels = labels or [(i,) for i in range(len(mul))]
    with pytest.raises(InvalidParameter, match=message):
        GroupSpec("cyclic", (len(mul),), mul, labels)


def test_group_ring_element_needs_one_coefficient_per_element():
    with pytest.raises(InvalidParameter, match="need 3 coefficients, got 2"):
        GroupRingElt(build_group("cyclic", 3), [1, 2])


def test_non_associative_table_past_order_200_is_rejected():
    # order 215: associativity is checked at every order
    mul, labels = _times_cyclic(LOOP5, 43)
    with pytest.raises(InvalidParameter, match="not associative"):
        GroupSpec("product", (5, 43), mul, labels)
    mul, labels = _times_cyclic(Z5, 43)
    assert GroupSpec("product", (5, 43), mul, labels).order == 215


def test_associativity_reaches_past_the_unit_labels():
    # LOOP5 x Z_3 labelled 0..14: the one unit label, (1,), sits on (0, 1),
    # which reaches only the associative {0} x Z_3 and passes Light's
    # identity alone; the elements it does not reach must expose the loop
    mul, _ = _times_cyclic(LOOP5, 3)
    t = np.array(mul)
    assert np.array_equal(t[t[:, 1]], t[:, t[1]])
    labels = [(i,) for i in range(15)]
    with pytest.raises(InvalidParameter, match="not associative"):
        GroupSpec("cyclic", (15,), mul, labels)
    # Z_5 x Z_3 = Z_15 under the same labels passes
    mul, _ = _times_cyclic(Z5, 3)
    g = GroupSpec("cyclic", (15,), mul, labels)
    assert all(mul[i][g.inv[i]] == 0 for i in range(15))


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_law_matches_matrix_model(p):
    # (a, b, c) as the unitriangular matrix [[1, b, c], [0, 1, a], [0, 0, 1]]
    g = build_group("heisenberg", p)

    def mat(t):
        a, b, c = t
        return ((1, b, c), (0, 1, a), (0, 0, 1))

    def matmul(u, v):
        return tuple(tuple(sum(u[i][k] * v[k][j] for k in range(3)) % p
                           for j in range(3)) for i in range(3))

    for i in range(g.order):
        for j in range(g.order):
            prod = g.element_exps[g.mul[i][j]]
            assert mat(prod) == matmul(mat(g.element_exps[i]),
                                       mat(g.element_exps[j]))


@pytest.mark.parametrize("kind,order", [("dihedral", 2), ("dihedral", 12), ("dicyclic", 4),
                                         ("dicyclic", 20)])
def test_two_part_laws_match_matrix_models(kind, order):
    # x^i y^j as a complex 2 x 2 matrix: x = diag(w, 1/w) with w of order
    # order / 2, and y the swap for dihedral groups (y^2 = 1) or the
    # quarter turn for dicyclic ones (y^2 = -1 = x^(order / 4))
    g = build_group(kind, order)
    w = np.exp(2j * np.pi / (order // 2))
    y = np.array([[0, 1], [1, 0]]) if kind == "dihedral" else np.array([[0, -1], [1, 0]])

    def mat(e):
        return np.diag([w ** e[0], w ** -e[0]]) @ np.linalg.matrix_power(y, e[1])

    mats = [mat(e) for e in g.element_exps]
    for i in range(g.order):
        for j in range(g.order):
            assert np.allclose(mats[g.mul[i][j]], mats[i] @ mats[j])


@pytest.mark.parametrize("kind,params", [
    ("cyclic", (6,)), ("elementary", (3, 2)), ("product", (2, 3, 4)),
    ("heisenberg", (5,)), ("dihedral", (10,)), ("dicyclic", (12,)),
])
def test_table_is_the_label_product_of_each_pair(kind, params):
    # the table is built over arrays of all pairs; the label product also
    # takes one pair of labels as Python ints
    spec = KINDS[kind]
    g = build_group(kind, *params)
    index = {e: i for i, e in enumerate(g.element_exps)}
    assert g.element_exps == tuple(spec.labels(params))
    assert g.mul.tolist() == [[index[tuple(spec.mul(params, a, b))] for b in g.element_exps]
                              for a in g.element_exps]


def test_flat_coeffs_reduce_exponents_and_count_them():
    heis, dih = KINDS["heisenberg"], KINDS["dihedral"]
    assert heis.flat_coeffs((3,), [((4, -1, 3), 7)]) == heis.flat_coeffs((3,), [((1, 2, 0), 7)])
    assert dih.flat_coeffs((8,), [((5, 3), 1)]) == dih.flat_coeffs((8,), [((1, 1), 1)])
    for exps in [(1, 2, 0, 5), (1,)]:
        with pytest.raises(InvalidParameter) as exc:
            heis.flat_coeffs((3,), [(exps, 7)])
        assert str(exc.value) == f"need 3 exponents, got {len(exps)}"


# -- group-ring elements ---------------------------------------------------


def _random_elt(rng, g, height=4):
    return GroupRingElt(g, [rng.randint(-height, height) for _ in range(g.order)])


def _convolve(a, b):
    """The group-ring product a * b, read off the Cayley table."""
    mul = a.group.mul
    out = [0] * a.group.order
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[mul[i][j]] += x * y
    return GroupRingElt(a.group, out)


@pytest.mark.parametrize("g", [build_group("cyclic", 4), build_group("dihedral", 6)])
def test_determinant_multiplicative_under_convolution(g):
    rng = random.Random(50 + g.order)
    for _ in range(15):
        a = _random_elt(rng, g, 3)
        b = _random_elt(rng, g, 3)
        assert group_determinant(_convolve(a, b)) == \
            group_determinant(a) * group_determinant(b)


def test_translation_preserves_absolute_determinant():
    g = build_group("dihedral", 8)
    rng = random.Random(51)
    f = _random_elt(rng, g)
    d = group_determinant(f)
    for t in range(g.order):
        delta = GroupRingElt(g, [int(i == t) for i in range(g.order)])
        assert abs(group_determinant(_convolve(delta, f))) == abs(d)


def test_identity_element_determinant():
    g = build_group("heisenberg", 3)
    one = GroupRingElt(g, H3.flat_coeffs((3,), [((0, 0, 0), 1)]))
    assert group_determinant(one) == 1
    mat = cayley_matrix(one)
    assert all(mat[i][j] == (1 if i == j else 0)
               for i in range(27) for j in range(27))


def test_oracle_order_cap():
    with pytest.raises(InvalidParameter):
        check_oracle_order(625)  # product 5,5,5,5 is over the safety cap
    g = build_group("cyclic", 3)
    f = GroupRingElt(g, [1, 0, 0])
    with pytest.raises(InvalidParameter):
        group_determinant(f, max_order=g.order - 1)
    assert group_determinant(f, max_order=g.order) == 1


# -- Heisenberg polynomials and the label product ---------------------------


def test_heisenberg_poly_roundtrips():
    f = H3.flat_coeffs((3,), [((0, 0, 0), 1), ((1, 2, 1), -4),
                              ((4, -1, 3), 7)])
    assert f[(1 * 3 + 2) * 3 + 0] == 7      # exponents reduced mod 3
    assert f[(1 * 3 + 2) * 3 + 1] == -4
    assert sum(f) == 4
    assert len(f) == 27
    assert set(H3.terms((3,), f)) == {((0, 0, 0), 1), ((1, 2, 1), -4),
                                      ((1, 2, 0), 7)}


def _word(p, word):
    """The label of a product of generators, multiplied left to right."""
    gens = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    label = (0, 0, 0)
    for letter in word:
        label = _heisenberg_mul((p,), label, gens[letter])
    return label


def test_normal_form_single_swap():
    # yx = xyz: the product yx is the label with all three exponents 1
    for p in (3, 5):
        assert _word(p, "yx") == (1, 1, 1)
        assert _word(p, "xy") == (1, 1, 0)


def test_normal_form_double_swap():
    # y^2 x = x y^2 z^2
    for p in (3, 5):
        assert _word(p, "yyx") == (1, 2, 2)


def test_normal_form_matches_group_multiplication():
    # walking a word letter by letter through the Cayley table must land
    # on the element whose label the label product gives
    g = build_group("heisenberg", 3)
    for word in ["x", "y", "z", "yx", "xy", "zyx", "xxyy", "xyzxyz", "yyxxz"]:
        idx = 0
        for letter in word:
            idx = g.mul[idx][g.element_exps.index(_word(3, letter))]
        assert g.element_exps[idx] == _word(3, word)


def test_central_generator_commutes():
    z = (0, 0, 1)
    for p in (3, 5):
        assert all(_heisenberg_mul((p,), z, a) == _heisenberg_mul((p,), a, z)
                   for a in H3.labels((p,)))


# -- JSON polynomial files --------------------------------------------------


def test_json_roundtrip():
    text = poly_to_json("heisenberg", (3,), [((0, 0, 0), 2), ((1, 2, 0), -7)])
    pin = poly_from_json(text)
    assert pin.kind == "heisenberg"
    assert pin.params == (3,)
    assert sorted(pin.terms) == [((0, 0, 0), 2), ((1, 2, 0), -7)]


def test_json_reduces_exponents():
    text = json.dumps({
        "group": {"kind": "cyclic", "n": 4},
        "terms": [{"exps": [6], "coef": 5}],
    })
    pin = poly_from_json(text)
    assert pin.terms == [((2,), 5)]


def test_json_product_kind():
    text = json.dumps({
        "group": {"kind": "product", "orders": [2, 3]},
        "terms": [{"exps": [1, 2], "coef": "10"}],
    })
    pin = poly_from_json(text)
    assert build_group(pin.kind, *pin.params).order == 6
    assert pin.terms == [((1, 2), 10)]


def test_json_decimal_strings_take_a_sign():
    text = json.dumps({
        "group": {"kind": "cyclic", "n": 3},
        "terms": [{"exps": [0], "coef": "+7"}, {"exps": [1], "coef": "-012"}],
    })
    assert poly_from_json(text).terms == [((0,), 7), ((1,), -12)]


@pytest.mark.parametrize("bad,needle", [
    ("{", "invalid JSON"),
    ("[]", "top level"),
    ('{"terms": []}', "group"),
    ('{"group": {"kind": "nope"}, "terms": []}', "nope"),
    ('{"group": {"kind": "cyclic"}, "terms": []}', "'n'"),
    ('{"group": {"kind": "cyclic", "n": 3}}', "terms"),
    ('{"group": {"kind": "cyclic", "n": 3}, "terms": [{"exps": [1, 2], "coef": 1}]}',
     "exps"),
    ('{"group": {"kind": "cyclic", "n": 3}, "terms": [{"exps": [1], "coef": "a1"}]}',
     "a1"),
    ('{"group": {"kind": "product", "orders": []}, "terms": []}', "orders"),
    ('{"group": {"kind": "cyclic", "n": 3}, "terms": [5]}', "malformed term 5"),
])
def test_json_errors_name_the_offender(bad, needle):
    with pytest.raises(ParseError) as exc:
        poly_from_json(bad)
    assert needle in str(exc.value)


def test_json_coefficient_past_the_digit_cap_is_refused(default_int_str_cap):
    # a library caller meets the interpreter's default cap, which only the
    # CLI lifts; there is no cap before Python 3.10.7
    coef = "7" * 5000
    text = json.dumps({"group": {"kind": "cyclic", "n": 2},
                       "terms": [{"exps": [0], "coef": coef}]})
    if hasattr(sys, "set_int_max_str_digits"):
        with pytest.raises(ParseError, match="bad coefficient token"):
            poly_from_json(text)
    else:
        assert poly_from_json(text).terms == [((0,), int(coef))]


BAD_PARAMS = [
    ("cyclic", (0,), "bad cyclic factors (0,)"),
    ("elementary", (4, 2), "4 is not prime"),
    ("elementary", (3, 0), "bad cyclic factors ()"),
    ("product", (2, 0), "bad cyclic factors (2, 0)"),
    ("heisenberg", (4,), "Heisenberg group needs an odd prime, got 4"),
    ("heisenberg", (2,), "Heisenberg group needs an odd prime, got 2"),
    ("dihedral", (7,), "dihedral order must be even, got 7"),
    ("dicyclic", (6,), "dicyclic order must be divisible by 4, got 6"),
]


@pytest.mark.parametrize("kind,params,message", BAD_PARAMS)
def test_bad_parameters_fail_the_kind_check(kind, params, message):
    with pytest.raises(InvalidParameter) as exc:
        build_group(kind, *params)
    assert str(exc.value) == message
    if min(params) >= 1:  # expressible in the JSON format
        with pytest.raises(InvalidParameter) as exc:
            poly_from_json(poly_to_json(kind, params, []))
        assert str(exc.value) == message


@pytest.mark.parametrize("kind,params", [
    ("cyclic", (6,)), ("elementary", (3, 2)), ("product", (2, 3, 4)),
    ("heisenberg", (3,)), ("dihedral", (10,)), ("dicyclic", (12,)),
])
def test_flat_coeffs_follow_the_built_labels(kind, params):
    rng = random.Random(7)
    spec = KINDS[kind]
    moduli = spec.moduli(params)
    # unreduced and repeated labels
    terms = [(tuple(rng.randrange(-n, 2 * n) for n in moduli), rng.randint(-3, 3))
             for _ in range(3 * spec.order(params))]
    g = build_group(kind, *params)
    want = [0] * g.order
    for exps, c in terms:
        want[g.element_exps.index(tuple(e % n for e, n in zip(exps, moduli)))] += c
    assert spec.flat_coeffs(params, terms) == want


@pytest.mark.parametrize("kind,params", [
    ("cyclic", (6,)), ("elementary", (3, 2)), ("product", (2, 3, 4)),
    ("heisenberg", (3,)), ("dihedral", (10,)), ("dicyclic", (12,)),
])
def test_terms_invert_flat_coeffs(kind, params):
    rng = random.Random(8)
    spec = KINDS[kind]
    g = build_group(kind, *params)
    coeffs = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(g.order)]
    terms = spec.terms(params, coeffs)
    assert terms == [(e, c) for e, c in zip(g.element_exps, coeffs) if c]
    assert spec.flat_coeffs(params, terms) == coeffs
    with pytest.raises(InvalidParameter, match=f"need {g.order} coefficients, got 1"):
        spec.terms(params, [1])


def test_heisenberg_flat_follows_the_group_labels():
    f = H3.flat_coeffs((3,), [((1, 1, 0), 2), ((0, 0, 2), -1)])
    terms = dict(H3.terms((3,), f))
    assert [terms.get(e, 0) for e in build_group("heisenberg", 3).element_exps] == f
