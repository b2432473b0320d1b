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
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    elementary_group,
    group_determinant,
    heisenberg_group,
    heisenberg_normal_form,
    poly_from_json,
    poly_to_json,
    product_group,
    to_group_ring,
)
from groupdet.groups import KINDS


# -- construction ----------------------------------------------------------


def test_orders_and_kinds():
    assert cyclic_group(6).order == 6
    assert elementary_group(3, 2).order == 9
    assert product_group((2, 3, 4)).order == 24
    assert heisenberg_group(3).order == 27
    assert dihedral_group(8).order == 8
    assert dicyclic_group(12).order == 12


def test_abelian_flags():
    assert cyclic_group(5).is_abelian()
    assert product_group((2, 2)).is_abelian()
    assert not heisenberg_group(3).is_abelian()
    assert not dihedral_group(6).is_abelian()
    assert not dicyclic_group(8).is_abelian()
    assert dihedral_group(4).is_abelian()  # the Klein four-group


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        heisenberg_group(4)
    with pytest.raises(InvalidParameter):
        heisenberg_group(2)
    with pytest.raises(InvalidParameter):
        dihedral_group(7)
    with pytest.raises(InvalidParameter):
        dicyclic_group(6)
    with pytest.raises(InvalidParameter):
        build_group("frobnicate", 5)


@pytest.mark.parametrize("g", [
    cyclic_group(7), elementary_group(3, 2), product_group((2, 4)),
    heisenberg_group(3), dihedral_group(10), dicyclic_group(8),
])
def test_group_axioms(g):
    n = g.order
    e = g.index_of((0,) * len(g.element_exps[0]))
    for i in range(n):
        assert g.mul[e][i] == i and g.mul[i][e] == i
        assert g.mul[i][g.inv[i]] == e and g.mul[g.inv[i]][i] == e
    # Latin square rows and columns
    for i in range(n):
        assert sorted(g.mul[i]) == list(range(n))
        assert sorted(g.mul[j][i] for j in range(n)) == list(range(n))


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_law_matches_matrix_model(p):
    # (a, b, c) as the unitriangular matrix [[1, b, c], [0, 1, a], [0, 0, 1]]
    g = heisenberg_group(p)

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


def test_reduce_exps():
    g = heisenberg_group(3)
    assert g.reduce_exps((4, -1, 3)) == (1, 2, 0)
    d = dihedral_group(8)
    assert d.reduce_exps((5, 3)) == (1, 1)
    with pytest.raises(InvalidParameter):
        g.reduce_exps((1, 2))


# -- group-ring elements ---------------------------------------------------


def _random_elt(rng, g, height=4):
    return GroupRingElt.from_terms(
        g, [(g.element_exps[i], rng.randint(-height, height))
            for i in range(g.order)])


@pytest.mark.parametrize("g", [cyclic_group(4), dihedral_group(6)])
def test_determinant_multiplicative_under_convolution(g):
    rng = random.Random(50 + g.order)
    for _ in range(15):
        a = _random_elt(rng, g, 3)
        b = _random_elt(rng, g, 3)
        assert group_determinant(a.convolve(b)) == \
            group_determinant(a) * group_determinant(b)


def test_translation_preserves_absolute_determinant():
    g = dihedral_group(8)
    rng = random.Random(51)
    f = _random_elt(rng, g)
    d = group_determinant(f)
    for t in range(g.order):
        assert abs(group_determinant(f.translate(t))) == abs(d)


def test_identity_element_determinant():
    g = heisenberg_group(3)
    one = GroupRingElt.from_terms(g, [((0, 0, 0), 1)])
    assert group_determinant(one) == 1
    mat = cayley_matrix(one)
    assert all(mat[i][j] == (1 if i == j else 0)
               for i in range(27) for j in range(27))


def test_oracle_order_cap():
    g = product_group((5, 5, 5, 5))  # order 625 > the safety cap
    f = GroupRingElt.from_terms(g, [((0, 0, 0, 0), 1)])
    with pytest.raises(InvalidParameter):
        group_determinant(f)


def test_value_sum():
    g = cyclic_group(3)
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
    g = heisenberg_group(3)
    from groupdet.groups import _parse_word

    words = ["x", "y", "z", "yx", "xy", "zyx", "x^2y^2", "y^-1x^-1",
             "xyzxyz", "y^2x^2z"]
    for word in words:
        f = heisenberg_normal_form([(word, 1)], 3)
        (exps, c), = f.nonzero_terms()
        idx = g.index_of((0, 0, 0))
        for gen, e in _parse_word(word):
            step = {"x": (e, 0, 0), "y": (0, e, 0), "z": (0, 0, e)}[gen]
            idx = g.mul[idx][g.index_of(g.reduce_exps(step))]
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


def test_json_product_group():
    text = json.dumps({
        "group": {"kind": "product", "orders": [2, 3]},
        "terms": [{"exps": [1, 2], "coef": "10"}],
    })
    pin = poly_from_json(text)
    assert pin.group().order == 6
    assert pin.terms == [((1, 2), 10)]


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
    want = GroupRingElt.from_terms(build_group(kind, *params), terms).coeffs
    assert spec.flat_coeffs(params, terms) == want


def test_to_group_ring_consistency():
    f = HeisenbergPoly.from_terms(3, [((1, 1, 0), 2), ((0, 0, 2), -1)])
    elt = to_group_ring(f)
    assert elt.group.kind == "heisenberg"
    assert elt.value_sum() == f.value_at_one()
