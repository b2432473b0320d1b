"""Cayley tables, group-ring elements, and the noncommutative normal form."""

import json
import random

import pytest

from groupdet import (
    GroupRingElt,
    HeisenbergPoly,
    InvalidParameter,
    ParseError,
    build_group,
    cayley_matrix,
    group_determinant,
    heisenberg_normal_form,
    poly_from_json,
    poly_to_json,
)
from groupdet.groups import KINDS, GroupSpec


# -- construction ----------------------------------------------------------


def test_orders_and_kinds():
    assert build_group("cyclic", 6).order == 6
    assert build_group("elementary", 3, 2).order == 9
    assert build_group("product", 2, 3, 4).order == 24
    assert build_group("heisenberg", 3).order == 27
    assert build_group("dihedral", 8).order == 8
    assert build_group("dicyclic", 12).order == 12


def test_abelian_flags():
    assert build_group("cyclic", 5).is_abelian()
    assert build_group("product", 2, 2).is_abelian()
    assert not build_group("heisenberg", 3).is_abelian()
    assert not build_group("dihedral", 6).is_abelian()
    assert not build_group("dicyclic", 8).is_abelian()
    assert build_group("dihedral", 4).is_abelian()  # the Klein four-group


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


def test_non_associative_loop_is_rejected():
    # an order-5 Latin square with identity 0 in which every element is its
    # own inverse: a loop, not a group (Z_5 has no element of order 2)
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    labels = [(i,) for i in range(5)]
    with pytest.raises(InvalidParameter, match="not associative"):
        GroupSpec("cyclic", (5,), loop, labels)
    assert GroupSpec("cyclic", (5,), [[(i + j) % 5 for j in range(5)] for i in range(5)],
                     labels).order == 5


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
    return GroupRingElt.from_terms(
        g, [(g.element_exps[i], rng.randint(-height, height))
            for i in range(g.order)])


@pytest.mark.parametrize("g", [build_group("cyclic", 4), build_group("dihedral", 6)])
def test_determinant_multiplicative_under_convolution(g):
    rng = random.Random(50 + g.order)
    for _ in range(15):
        a = _random_elt(rng, g, 3)
        b = _random_elt(rng, g, 3)
        assert group_determinant(a.convolve(b)) == \
            group_determinant(a) * group_determinant(b)


def test_translation_preserves_absolute_determinant():
    g = build_group("dihedral", 8)
    rng = random.Random(51)
    f = _random_elt(rng, g)
    d = group_determinant(f)
    for t in range(g.order):
        assert abs(group_determinant(f.translate(t))) == abs(d)


def test_identity_element_determinant():
    g = build_group("heisenberg", 3)
    one = GroupRingElt.from_terms(g, [((0, 0, 0), 1)])
    assert group_determinant(one) == 1
    mat = cayley_matrix(one)
    assert all(mat[i][j] == (1 if i == j else 0)
               for i in range(27) for j in range(27))


def test_oracle_order_cap():
    g = build_group("product", 5, 5, 5, 5)  # order 625 > the safety cap
    f = GroupRingElt.from_terms(g, [((0, 0, 0, 0), 1)])
    with pytest.raises(InvalidParameter):
        group_determinant(f)


def test_value_sum():
    g = build_group("cyclic", 3)
    f = GroupRingElt.from_terms(g, [((0,), 2), ((1,), -5)])
    assert f.value_sum() == -3


# -- Heisenberg polynomials and the normal form ----------------------------


def test_heisenberg_poly_roundtrips():
    f = HeisenbergPoly.from_terms(3, [((0, 0, 0), 1), ((1, 2, 1), -4),
                                      ((4, -1, 3), 7)])
    assert f.coef(1, 2, 0) == 7      # exponents reduced mod 3
    assert f.coef(1, 2, 1) == -4
    assert f.value_at_one() == 4
    assert len(f.flat()) == 27
    assert sum(f.flat()) == 4
    assert set(f.nonzero_terms()) == {((0, 0, 0), 1), ((1, 2, 1), -4),
                                      ((1, 2, 0), 7)}


def test_normal_form_single_swap():
    # yx = xyz, so the word "yx" is the monomial with all three exponents 1
    f = heisenberg_normal_form([("yx", 1)], 3)
    assert f.nonzero_terms() == [((1, 1, 1), 1)]


def test_normal_form_double_swap():
    # y^2 x = x y^2 z^2
    f = heisenberg_normal_form([("yyx", 1)], 3)
    assert f.nonzero_terms() == [((1, 2, 2), 1)]
    assert heisenberg_normal_form([("y^2x", 1)], 3).nonzero_terms() == \
        [((1, 2, 2), 1)]


def test_normal_form_matches_group_multiplication():
    # evaluating the word letter by letter in the Cayley table must land
    # on the same element the normal form names
    g = build_group("heisenberg", 3)
    from groupdet.groups import _parse_word

    words = ["x", "y", "z", "yx", "xy", "zyx", "x^2y^2", "y^-1x^-1",
             "xyzxyz", "y^2x^2z"]
    for word in words:
        f = heisenberg_normal_form([(word, 1)], 3)
        (exps, c), = f.nonzero_terms()
        idx = 0
        for gen, e in _parse_word(word):
            step = {"x": (e % 3, 0, 0), "y": (0, e % 3, 0), "z": (0, 0, e % 3)}[gen]
            idx = g.mul[idx][g.element_exps.index(step)]
        assert g.element_exps[idx] == exps


def test_normal_form_bad_word():
    with pytest.raises(ParseError):
        heisenberg_normal_form([("xq", 1)], 3)
    with pytest.raises(ParseError):
        heisenberg_normal_form([("x^", 1)], 3)


def test_central_generator_commutes():
    f = heisenberg_normal_form([("zx", 1), ("xz", -1)], 3)
    assert f.nonzero_terms() == []


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
])
def test_json_errors_name_the_offender(bad, needle):
    with pytest.raises(ParseError) as exc:
        poly_from_json(bad)
    assert needle in str(exc.value)


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


def test_heisenberg_flat_follows_the_group_labels():
    f = HeisenbergPoly.from_terms(3, [((1, 1, 0), 2), ((0, 0, 2), -1)])
    elt = GroupRingElt.from_terms(build_group("heisenberg", 3), f.nonzero_terms())
    assert elt.coeffs == f.flat()
    assert elt.value_sum() == f.value_at_one()
