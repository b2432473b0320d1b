"""Exact determinant routes against the full Cayley-matrix oracle.

Every fast formula here (character products, the order-p^3 block
factorization, the binomial shortcut, the two-part dihedral/dicyclic
reductions, all by evaluation at roots of unity modulo primes, and the
batched p = 3 kernel) is checked against group_determinant, which builds
the honest n x n matrix and eliminates.
"""

import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    GroupDetError,
    GroupRingElt,
    InvalidParameter,
    NotInteger,
    abelian_measure,
    char_product_2d,
    dicyclic_measure,
    dihedral_measure,
    group_determinant,
    heisenberg_binomial_measure,
    heisenberg_factorizations,
    heisenberg_measure,
    measure_h3,
)
from groupdet.exactdet import det_int
from groupdet.groups import KINDS, build_group, kind_of
from groupdet.measures import H3_HEIGHT
from groupdet.verify import achieve_construction, random_heisenberg_poly


def _elt(g, terms):
    return GroupRingElt(g, kind_of(g.kind).flat_coeffs(g.params, terms))


def _heisenberg_elt(p, f):
    return GroupRingElt(build_group("heisenberg", p), f)


def _heisenberg_poly(p, terms):
    return KINDS["heisenberg"].flat_coeffs((p,), terms)


# -- the group-kind table ---------------------------------------------------

# Small parameters (order <= 32) for every kind in the table; a kind added
# to the table without an entry here fails the test below.
SMALL_PARAMS = {
    "cyclic": st.integers(1, 32).map(lambda n: (n,)),
    "elementary": st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2)]),
    "heisenberg": st.just((3,)),
    "dihedral": st.integers(1, 16).map(lambda n: (2 * n,)),
    "dicyclic": st.integers(1, 8).map(lambda n: (4 * n,)),
    "product": st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple).filter(
        lambda ns: math.prod(ns) <= 32),
}


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_table_route_equals_oracle(kind, data):
    g = build_group(kind, *data.draw(SMALL_PARAMS[kind], label="params"))
    coeffs = data.draw(st.tuples(*[st.integers(-3, 3)] * g.order), label="coeffs")
    _, exact = kind_of(kind).route(g.params)
    assert exact([coeffs]) == [group_determinant(GroupRingElt(g, coeffs))]


def _crt_relabel(row, moduli):
    """A row on the labels of Z_n1 x ... x Z_nk, the moduli pairwise
    coprime, as a row of the cyclic group of order n1 ... nk: label k of
    that group is the label (k mod n1, ..., k mod nk) of the product."""
    k = np.arange(math.prod(moduli))
    return [row[i] for i in np.ravel_multi_index([k % n for n in moduli], moduli)]


def test_product_past_the_oracle_cap_equals_the_cyclic_route():
    # Z_3 x Z_400 is Z_1200, so each row has the value of its relabelled
    # circulant
    rng = random.Random(76)
    terms = [((rng.randrange(3), rng.randrange(400)), rng.choice([-1, 1])) for _ in range(4)]
    rows = [KINDS["product"].flat_coeffs((3, 400), terms),
            KINDS["product"].flat_coeffs((3, 400), [((0, 0), 2), ((1, 7), 1)])]
    got = kind_of("product").route((3, 400))[1](rows)
    assert got == kind_of("cyclic").route((1200,))[1]([_crt_relabel(r, (3, 400)) for r in rows])
    # 2 + g with g of order 1200: the product of 2 + z over the 1200th roots z
    assert got[1] == 2 ** 1200 - 1


def test_cyclic_past_the_oracle_cap_equals_its_crt_product():
    # Z_3000, one axis in a Cooley-Tukey step (3000 = 60 * 50), against
    # Z_8 x Z_3 x Z_125, one contraction an axis
    moduli = (8, 3, 125)
    rng = random.Random(78)
    terms = [(tuple(rng.randrange(n) for n in moduli), rng.choice([-1, 1])) for _ in range(4)]
    rows = [KINDS["product"].flat_coeffs(moduli, terms),
            KINDS["product"].flat_coeffs(moduli, [((0, 0, 0), 2), ((1, 1, 1), 1)])]
    got = abelian_measure((3000,), [_crt_relabel(r, moduli) for r in rows])
    assert got == abelian_measure(moduli, rows)
    assert got[1] == 2 ** 3000 - 1


def test_separable_row_over_z4_to_the_sixth_is_a_product_of_norms():
    # F = f1(x1) ... f6(x6) over (Z_4)^6 takes the value f1(w^c1) ... f6(w^c6)
    # at character c, so M(F) is the product of the Z_4 determinants
    # N(f_i), each to the power 4^5 = 1024
    fs = [[2, 1, 0, 0], [3, 0, 1, 0], [1, 1, 1, 0], [2, 0, 0, 1], [1, 2, 0, 0], [1, 1, 0, 1]]
    norms = abelian_measure((4,), fs)
    assert norms == [15, 64, 3, 15, -15, -3]
    row = reduce(np.multiply.outer, fs).ravel().tolist()  # label order, last fastest
    assert abelian_measure((4,) * 6, [row]) == [math.prod(norms) ** 1024]


# -- abelian character products --------------------------------------------


def test_cyclic_three_simple_value():
    g = build_group("cyclic", 3)
    f = _elt(g, [((0,), 1), ((1,), 1)])  # 1 + x
    # (1+1)(1+w)(1+w^2) = 2 * (w^3 + ... ) = 2
    assert abelian_measure(g.moduli, [f.coeffs]) == [2]
    assert group_determinant(f) == 2


@pytest.mark.parametrize("g", [build_group("cyclic", 3), build_group("cyclic", 5),
                               build_group("elementary", 3, 2), build_group("product", 2, 3),
                               build_group("product", 4, 2), build_group("product", 6, 4),
                               build_group("product", 2, 3, 5)])
def test_abelian_measure_matches_oracle(g):
    # (Z_p)^n with n >= 2 takes the accumulators, every other product
    # direct evaluation at each character
    rng = random.Random(60 + g.order)
    for _ in range(30):
        f = _elt(
            g, [(e, rng.randint(-5, 5)) for e in g.element_exps])
        assert abelian_measure(g.moduli, [f.coeffs]) == [group_determinant(f)]


def test_abelian_measure_rejects_a_short_coefficient_vector():
    from groupdet import InvalidParameter
    with pytest.raises(InvalidParameter):
        abelian_measure((3, 3), [[1] * 8])


def test_circulant_matches_oracle_composite_order():
    rng = random.Random(61)
    g = build_group("cyclic", 6)
    rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(20)]
    assert abelian_measure((6,), rows) == [group_determinant(GroupRingElt(g, h)) for h in rows]
    # a row of another length is refused, not padded or folded
    for bad in ([1, 2, 3], [1], [2 ** 70, 1, 0]):
        with pytest.raises(InvalidParameter, match="need rows of 2 coefficients"):
            abelian_measure((2,), [bad])
    with pytest.raises(InvalidParameter, match="need rows of 2 coefficients"):
        abelian_measure((2,), [1, 2])  # one row, not a chunk


# -- the order-p^3 block structure ------------------------------------------


@pytest.mark.parametrize("exps", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_generators_have_unit_determinant(exps):
    f = _heisenberg_poly(3, [(exps, 1)])
    fac = heisenberg_measure(3, f)
    assert fac.m == 1
    assert group_determinant(_heisenberg_elt(3, f)) == 1


@pytest.mark.parametrize("p", [3, 5])
def test_factorization_matches_oracle(p):
    rng = random.Random(62 + p)
    for _ in range(25 if p == 3 else 5):
        f = random_heisenberg_poly(rng, p, 5)
        fac = heisenberg_measure(p, f)
        assert fac.m == fac.m1 * fac.m2 ** p
        assert fac.m == group_determinant(_heisenberg_elt(p, f))


def test_heisenberg_routes_check_p_and_length():
    for fn in (heisenberg_measure, lambda p, c: heisenberg_factorizations(p, [c])):
        with pytest.raises(InvalidParameter, match="needs an odd prime, got 2"):
            fn(2, [1] * 8)
        with pytest.raises(InvalidParameter, match="need (rows of )?27 coefficients"):
            fn(3, [1] * 26)


def _sparse_row(rng, p, terms, height):
    row = [0] * p ** 3
    for i in rng.sample(range(p ** 3), terms):
        row[i] = rng.choice([c for c in range(-height, height + 1) if c])
    return row


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_route_matches_cayley_oracle(p):
    # one block through the roots-of-unity engine against the Cayley
    # determinant; at p = 7 (order 343, past the CLI's oracle cap) the
    # rows are sparse so that the multimodular oracle stays near a second
    rng = random.Random(80 + p)
    g = build_group("heisenberg", p)
    rows = [_sparse_row(rng, p, 8, 2)]
    if p < 7:
        rows += [random_heisenberg_poly(rng, p, 2), random_heisenberg_poly(rng, p, 6)]
    if p == 3:
        big = random_heisenberg_poly(rng, p, 2)
        big[4], big[20] = 2 ** 70, -3 ** 50
        rows += [big, achieve_construction(4, -3, p)[0], achieve_construction(2, 10 ** 20, p)[0]]
    got = heisenberg_factorizations(p, rows)
    for f, fac in zip(rows, got):
        assert fac.m == fac.m1 * fac.m2 ** p
        assert fac.m == group_determinant(GroupRingElt(g, f), g.order)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_route_hits_the_constructed_values(p):
    # achieve_construction rows, some with coefficients past int64, in one
    # block with small rows: each value is a^(p^2) + m p^3 exactly
    rng = random.Random(90 + p)
    cases = [(a, m) for a in (1, 2, p + 1, 3 * p - 1) for m in (-8, 0, 7, 10 ** 30)]
    rows = [achieve_construction(a, m, p)[0] for a, m in cases]
    assert max(max(map(abs, f)) for f in rows) > 2 ** 63
    constant = [-2] + [0] * (p ** 3 - 1)  # the value is (-2)^(p^3)
    small = [random_heisenberg_poly(rng, p, 2) for _ in range(3)]
    got = [fac.m for fac in heisenberg_factorizations(p, rows + [constant] + small)]
    assert got[:len(cases)] == [a ** (p * p) + m * p ** 3 for a, m in cases]
    assert got[len(cases)] == (-2) ** (p ** 3)
    assert got[len(cases) + 1:] == [heisenberg_measure(p, f).m for f in small]


@pytest.mark.parametrize("params", [(3, 3), (5, 2), (2, 5), (7, 1)])
def test_character_route_matches_cayley_oracle(params):
    rng = random.Random(f"chars:{params}")
    g = build_group("elementary", *params)
    n = g.order
    rows = [[0] * n, [1] + [0] * (n - 2) + [-1], [rng.randint(-3, 3) for _ in range(n)],
            [rng.randint(-3, 3) for _ in range(n)], [2 ** 70] + [1] * (n - 1),
            [rng.randint(-2 ** 65, 2 ** 65) for _ in range(n)]]
    rows.append([params[0] * c for c in rows[2]])  # every coefficient a multiple of p
    assert abelian_measure(g.moduli, rows) == \
        [group_determinant(GroupRingElt(g, f)) for f in rows]


def test_x_free_input_reduces_to_character_product():
    # without x the group acts through its order-p^2 abelian quotient,
    # so M is the two-variable character product to the p-th power
    rng = random.Random(63)
    p = 3
    for _ in range(20):
        grid = [[rng.randint(-4, 4) for _ in range(p)] for _ in range(p)]
        f = _heisenberg_poly(
            p, [((0, j, k), grid[j][k]) for j in range(p) for k in range(p)])
        assert heisenberg_measure(p, f).m == char_product_2d(grid, p) ** p


def test_char_product_2d_places_ragged_grids_mod_p():
    # rows and columns past p wrap around, as exponents of Z_p x Z_p
    rng = random.Random(73)
    g = build_group("elementary", 3, 2)
    for _ in range(10):
        grid = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))]
        terms = [((b, k), c) for b, row in enumerate(grid) for k, c in enumerate(row)]
        assert char_product_2d(grid, 3) == \
            group_determinant(_elt(g, terms))


# -- binomial shortcut -------------------------------------------------------


def test_binomial_example_value():
    # F = z + x y has determinant 512 at p = 3
    fac = heisenberg_binomial_measure([[0, 1]], [[0], [1]], 1, 3)
    assert fac.m == 512
    full = heisenberg_measure(
        3, _heisenberg_poly(3, [((0, 0, 1), 1), ((1, 1, 0), 1)]))
    assert (full.m, full.m1, full.m2) == (fac.m, fac.m1, fac.m2)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2)])
def test_binomial_matches_generic_route(p, k):
    rng = random.Random(64 + p + k)
    for _ in range(10):
        f0 = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(p)]
        fk = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(p)]
        terms = [((0, j, kk), f0[j][kk]) for j in range(p) for kk in range(p)]
        terms += [((k, j, kk), fk[j][kk]) for j in range(p) for kk in range(p)]
        fac_short = heisenberg_binomial_measure(f0, fk, k, p)
        fac_full = heisenberg_measure(p, _heisenberg_poly(p, terms))
        assert fac_short.m == fac_full.m
        assert fac_short.m1 == fac_full.m1
        assert fac_short.m2 == fac_full.m2


def test_binomial_reduces_exponents_mod_p():
    # at p = 3, f0 = z + y^4 z^3 is z + y and fk = 2 z^4 is 2 z
    fac = heisenberg_binomial_measure([[0, 1], [], [], [0, 0, 0, 0], [0, 0, 0, 1]],
                                      [[0, 0, 0, 0, 2]], 1, 3)
    full = heisenberg_measure(3, _heisenberg_poly(
        3, [((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 1), 2)]))
    assert full.m != 0
    assert (fac.m, fac.m1, fac.m2) == (full.m, full.m1, full.m2)


def test_binomial_rejects_bad_exponent():
    with pytest.raises(InvalidParameter):
        heisenberg_binomial_measure([[1]], [[1]], 0, 3)
    with pytest.raises(InvalidParameter):
        heisenberg_binomial_measure([[1]], [[1]], 3, 3)


# -- averaged circulant coefficients ----------------------------------------


def _fourier_coeffs(p, f):
    """Coefficients c_0..c_(p-1) of the circulant determinant with symbol
    F(x, y, 1), a polynomial in y of degree at most p(p - 1), reduced
    modulo y^p - 1.  It is interpolated exactly from det_int at
    y = 0, 1, ..., p(p - 1)."""
    sums = [sum(f[r:r + p]) for r in range(0, p ** 3, p)]
    g = [sums[i * p:(i + 1) * p] for i in range(p)]  # g[i][j]: the x^i y^j coefficient
    nodes = range(p * (p - 1) + 1)
    newton = []
    for y in nodes:
        gy = [sum(c * y ** j for j, c in enumerate(row)) for row in g]
        newton.append(Fraction(det_int([[gy[(r - c) % p] for c in range(p)] for r in range(p)])))
    for k in range(1, len(nodes)):  # divided differences on the nodes 0, 1, ...
        for i in range(len(nodes) - 1, k - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / k
    poly = [Fraction(0)]
    for k in reversed(nodes):  # poly = poly * (y - k) + newton[k]
        poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += newton[k]
    assert all(c.denominator == 1 for c in poly)
    out = [0] * p
    for e, c in enumerate(poly):
        out[e % p] += int(c)
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_fourier_coefficients_carry_the_congruences(p):
    rng = random.Random(65 + p)
    for _ in range(15):
        f = random_heisenberg_poly(rng, p, 4)
        fac = heisenberg_measure(p, f)
        cs = _fourier_coeffs(p, f)
        c0 = cs[0]
        assert len(cs) == p
        # non-constant coefficients are all divisible by p
        assert all(c % p == 0 for c in cs[1:])
        # the constant one reduces to F(1,1,1)^p mod p
        assert c0 % p == pow(sum(f), p, p)
        # and the nonabelian factor is c0^(p-1) mod p^2
        assert fac.m2 % p ** 2 == pow(c0, p - 1, p ** 2)
        # their product over all blocks: M2^p = c0^(p(p-1)) mod p^3
        assert fac.m2 ** p % p ** 3 == pow(c0, p * (p - 1), p ** 3)


def test_fourier_sum_is_the_circulant_value():
    # evaluating the folded polynomial at y = 1 recovers the circulant
    # determinant of F(x, 1, 1), i.e. the product over x-characters
    rng = random.Random(66)
    p = 3
    for _ in range(10):
        f = random_heisenberg_poly(rng, p, 4)
        cs = _fourier_coeffs(p, f)
        # F(x, 1, 1) coefficients
        h = [sum(f[i * p * p:(i + 1) * p * p]) for i in range(p)]
        assert sum(cs) == abelian_measure((p,), [h])[0]


# -- dihedral / dicyclic -----------------------------------------------------


def _two_part_elt(g, f, gg):
    half = g.order // 2
    terms = [((i, 0), c) for i, c in enumerate(f)]
    terms += [((i, 1), c) for i, c in enumerate(gg)]
    return _elt(g, terms)


@pytest.mark.parametrize("order", [6, 8, 10])
def test_dihedral_matches_oracle(order):
    rng = random.Random(67 + order)
    n = order // 2
    g = build_group("dihedral", order)
    rows = [[rng.randint(-4, 4) for _ in range(2 * n)] for _ in range(15)]
    assert dihedral_measure(rows, n) == \
        [group_determinant(_two_part_elt(g, r[:n], r[n:])) for r in rows]


@pytest.mark.parametrize("order", [4, 8, 12])
def test_dicyclic_matches_oracle(order):
    rng = random.Random(68 + order)
    n = order // 4
    g = build_group("dicyclic", order)
    rows = [[rng.randint(-4, 4) for _ in range(4 * n)] for _ in range(15)]
    assert dicyclic_measure(rows, n) == \
        [group_determinant(_two_part_elt(g, r[:2 * n], r[2 * n:])) for r in rows]


@pytest.mark.parametrize("kind,order", [("dihedral", 64), ("dihedral", 128),
                                        ("dicyclic", 128), ("dicyclic", 256)])
def test_twisted_circulants_above_the_cutoff_match_oracle(kind, order):
    # circulants (and for dicyclic, negacirculants) of 32 or more rows
    rng = random.Random(71 + order)
    coeffs = [rng.randint(-2, 2) for _ in range(order)]
    _, exact = kind_of(kind).route((order,))
    m = group_determinant(GroupRingElt(build_group(kind, order), coeffs))
    assert m != 0
    assert exact([coeffs]) == [m]


def test_two_part_rows_need_the_group_width():
    # a row is [f, g] at the group's width: longer rows are refused, not folded
    assert dihedral_measure([[1, 5, 0, 0]], 2) == [(6 * -4) ** 2]  # (f(1) f(-1))^2
    for bad in ([1, 2, 0, 3, 0, 0], [1, 5, 0]):
        with pytest.raises(InvalidParameter, match="need rows of 4 coefficients"):
            dihedral_measure([bad], 2)
        with pytest.raises(InvalidParameter, match="need rows of 4 coefficients"):
            dicyclic_measure([bad], 1)
    for call in (lambda: dihedral_measure([[]], 0), lambda: dicyclic_measure([[]], 0)):
        with pytest.raises(InvalidParameter, match="need n >= 1"):
            call()
    for moduli in ((), (2, 0)):
        with pytest.raises(InvalidParameter, match="order at least 1"):
            abelian_measure(moduli, [[]])


# -- evaluation at roots of unity modulo primes ------------------------------


def _singular_rows(kind, order):
    # the zero row, and a row whose value vanishes: 1 + x + ... + x^(n-1)
    # at every nontrivial root (n >= 2), or f = g, which zeroes the factors
    # f(z) f(1/z) - g(z) g(1/z)
    rows = [[0] * order]
    if kind != "cyclic":
        half = [1, 2] + [0] * (order // 2 - 2) if order >= 4 else [3]
        rows.append(half + half)
    elif order >= 2:
        rows.append([1] * order)
    return rows


@pytest.mark.parametrize("kind,orders", [
    ("cyclic", list(range(1, 41)) + [65, 96, 128, 130, 192]),
    ("dihedral", list(range(2, 34, 2)) + [48, 64, 96, 128]),
    ("dicyclic", list(range(4, 68, 4)) + [96, 128, 160]),
])
def test_roots_of_unity_routes_match_oracle(kind, orders):
    rng = random.Random(f"roots:{kind}")
    for order in orders:
        g = build_group(kind, order)
        _, exact = kind_of(kind).route((order,))
        row = [rng.randint(-2, 2) for _ in range(order)]
        singular = _singular_rows(kind, order)
        assert exact([row] + singular) == \
            [group_determinant(GroupRingElt(g, row))] + [0] * len(singular)
        if order <= 32:
            assert all(group_determinant(GroupRingElt(g, r)) == 0 for r in singular)


def test_value_divisible_by_the_first_prime():
    # cyclic n = 1: the value is the coefficient; n = 2: (a - b)(a + b)
    from groupdet.exactdet import modular_primes
    q1 = modular_primes(0, 1)[0][0]
    assert abelian_measure((1,), [[3 * q1], [-q1], [q1 * q1]]) == [3 * q1, -q1, q1 * q1]
    q2 = modular_primes(0, 2)[0][0]
    a, b = (q2 + 1) // 2, (1 - q2) // 2
    assert abelian_measure((2,), [[a, b], [b, a]]) == [q2, -q2]


def test_chunk_mixes_small_rows_and_coefficients_past_int64():
    rows = [[1, 2, 3], [2 ** 70, 1, 0], [0, 0, 0], [-2 ** 70, 5, -7], [2, -1, 1]]
    g = build_group("cyclic", 3)
    got = abelian_measure((3,), rows)
    assert got == [group_determinant(GroupRingElt(g, r)) for r in rows]
    assert got[1] == 2 ** 210 + 1  # prod of (a + z) over the cube roots z: a^3 + 1
    two = [[2 ** 70, 0, 1, 1], [1, 2, 0, 1]]
    assert dihedral_measure(two, 2) == \
        [group_determinant(GroupRingElt(build_group("dihedral", 4), r)) for r in two]
    assert dicyclic_measure(two, 1) == \
        [group_determinant(GroupRingElt(build_group("dicyclic", 4), r)) for r in two]


def test_rows_split_into_passes_keep_their_values(monkeypatch):
    import groupdet.measures
    rng = random.Random(74)
    rows = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(9)]
    heis = [random_heisenberg_poly(rng, 5, 3) for _ in range(5)]
    chars = [[rng.randint(-3, 3) for _ in range(25)] for _ in range(5)]

    def values():
        return (abelian_measure((12,), rows), abelian_measure((3, 4), rows),
                dihedral_measure(rows, 6), dicyclic_measure(rows, 3),
                heisenberg_factorizations(5, heis), abelian_measure((5, 5), chars))

    expect = values()
    # two or one rows a chunk for the direct routes, one row for the
    # character and Heisenberg routes, and one prime a pass
    monkeypatch.setattr(groupdet.measures, "_ROOT_CELLS", 30)
    assert values() == expect


def test_roots_check_prime_catches_a_wrong_residue(monkeypatch):
    import groupdet.measures
    original = groupdet.measures.crt_values

    def sabotaged(residues, primes, modulus):
        residues = list(residues)
        residues[-1] = (residues[-1] + 1) % primes[-1]
        return original(residues, primes, modulus)

    monkeypatch.setattr(groupdet.measures, "crt_values", sabotaged)
    heis = _heisenberg_poly(5, [((0, 0, 0), 2), ((1, 2, 0), 1), ((0, 1, 3), -1)])
    for call in (lambda: abelian_measure((3,), [[1, 2, 3]]),
                 lambda: abelian_measure((2, 3), [[1, 2, 3, 0, 0, 1]]),
                 lambda: dihedral_measure([[1, 2]], 1),
                 lambda: dicyclic_measure([[1, 2, 3, 4]], 1),
                 lambda: abelian_measure((3, 3), [[2, 1] + [0] * 7]),
                 lambda: heisenberg_measure(5, heis),
                 lambda: heisenberg_binomial_measure([[2, 1]], [[0, 1]], 1, 5)):
        with pytest.raises(GroupDetError, match="fails its check"):
            call()


def test_roots_refuse_prime_factors_that_overflow_int64():
    # a contraction as long as a prime factor from 2048 on sums products
    # of residues below 2^26 that could pass 2^63; zero-stride views, so
    # nothing is allocated before the refusal
    zero = np.zeros(1, dtype=np.int64)
    for moduli in ((2053,), (2, 2053), (4106,)):
        with pytest.raises(InvalidParameter, match="prime factor 2053 .* int64"):
            abelian_measure(moduli, np.broadcast_to(zero, (1, math.prod(moduli))))
    # lengths from 2048 with small prime factors compute: 2 + g with g of
    # order 2048 or 1024, and 2 + y over the dicyclic group of order 4096,
    # where f f~ -+ g g~ is 4 -+ 1 at each of the 2048 roots
    row = np.zeros((1, 4096), dtype=np.int64)
    row[0, :2] = 2, 1
    assert abelian_measure((2048,), row[:, :2048]) == [2 ** 2048 - 1]
    assert abelian_measure((2, 1024), row[:, :2048]) == [(2 ** 1024 - 1) ** 2]
    row[0, 1], row[0, 2048] = 0, 1  # [f, g] = [2, 1]
    assert dicyclic_measure(row, 1024) == [15 ** 1024]
    # (Z_2)^11 takes the accumulators, whose length is 2
    one = np.zeros((1, 2048), dtype=np.int64)
    one[0, 0] = 1
    assert abelian_measure((2,) * 11, one) == [1]


def test_sparse_dihedral_row_matches_its_closed_form():
    # f = 2 + x, g = x^2 + x^3: f f~ - g g~ = 3 + x + 1/x = (x^2 + 3 x + 1) / x,
    # so the value over the n-th roots z is (-1)^(n + 1) (a^n - 1)(b^n - 1)
    # = (-1)^(n + 1) (2 - s_n), with a b = 1 and s_n = a^n + b^n for the roots
    # a, b of x^2 + 3 x + 1
    def row(n):
        return [2, 1] + [0] * (n - 2) + [0, 0, 1, 1] + [0] * (n - 4)

    def closed(n):
        s, t = 2, -3  # s_0, s_1
        for _ in range(n):
            s, t = t, -3 * t - s
        return (-1) ** (n + 1) * (2 - s)

    g = build_group("dihedral", 16)
    assert group_determinant(GroupRingElt(g, row(8))) == closed(8)
    for n in (5, 8, 1024):
        assert dihedral_measure([row(n)], n) == [closed(n)]


def test_engine_memory_stays_bounded_on_a_dense_circulant(traced_peak):
    # a pass of primes counts the powers of w it gathers with its arrays:
    # one dense height-3 row of Z_512 peaks near 5 MB, where passes sized
    # without them stacked about 200 MB of gathered powers, and one of
    # Z_2048, in Cooley-Tukey steps of 64 and 32, near 12 MB
    for n in (512, 2048):
        _, exact = kind_of("cyclic").route((n,))
        rng = random.Random(77)
        row = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        (value,), peak = traced_peak(lambda: exact([row]))
        assert value and peak < 32 << 20


def test_roots_refuse_when_the_primes_run_out(monkeypatch):
    from groupdet import exactdet
    monkeypatch.setattr(exactdet, "_PRIME_BOUND", 200)  # ten primes 1 mod 5
    assert abelian_measure((5,), [[2, 1, 0, 0, 0]]) == [33]
    with pytest.raises(InvalidParameter, match="cannot certify"):
        abelian_measure((5,), [[10 ** 6, 1, 2, 3, 4]])


def test_root_of_unity_order_check_raises():
    from groupdet.measures import _root_of_unity
    assert _root_of_unity(13, 12) in (2, 6, 7, 11)  # the primitive roots mod 13
    with pytest.raises(GroupDetError, match="no element of order 4 modulo 7"):
        _root_of_unity(7, 4)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_batched_values_equal_one_row_values(data):
    kind, order = data.draw(st.sampled_from([
        ("cyclic", 1), ("cyclic", 5), ("cyclic", 12), ("dihedral", 2), ("dihedral", 10),
        ("dicyclic", 4), ("dicyclic", 12)]), label="group")
    _, exact = kind_of(kind).route((order,))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    rows = data.draw(st.lists(st.lists(coeff, min_size=order, max_size=order),
                              min_size=1, max_size=6), label="rows")
    assert exact(rows) == [exact([r])[0] for r in rows]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_character_and_heisenberg_blocks_equal_one_row_values(data):
    kind, params = data.draw(st.sampled_from([
        ("elementary", (2, 3)), ("elementary", (3, 2)), ("elementary", (5, 2)),
        ("product", (2, 3)), ("product", (4, 2)), ("heisenberg", (3,)),
        ("heisenberg", (5,))]), label="group")
    _, exact = kind_of(kind).route(params)
    order = kind_of(kind).order(params)
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    rows = data.draw(st.lists(st.lists(coeff, min_size=order, max_size=order),
                              min_size=1, max_size=4), label="rows")
    assert exact(rows) == [exact([r])[0] for r in rows]


# -- the batched p = 3 kernel ------------------------------------------------


def test_fast_kernel_matches_generic():
    # at height 5 nearly every row has a coefficient past H3_HEIGHT and
    # takes the generic route inside the kernel; the generic values come
    # from one block (block and one-row values agree, tested above)
    rng = random.Random(70)
    for height in range(1, 6):
        rows = [[rng.randint(-height, height) for _ in range(27)] for _ in range(2000)]
        assert measure_h3(rows) == [f.m for f in heisenberg_factorizations(3, rows)]


def test_fast_kernel_flat_order_matches_poly_flat():
    f = _heisenberg_poly(3, [((1, 2, 0), 4), ((0, 0, 1), -2)])
    assert measure_h3([f]) == [heisenberg_measure(3, f).m]


def test_fast_kernel_mixes_rows_on_both_sides_of_the_int64_bound():
    bound = H3_HEIGHT
    rng = random.Random(73)
    rows = [[c] * 27 for c in (bound, -bound, bound + 1, -bound - 1)]
    for t in range(40):
        h = bound + t % 2  # alternate rows the kernel evaluates and rows it hands on
        rows.append([rng.choice([-h, h]) if k == t % 27 else rng.randint(-h, h)
                     for k in range(27)])
    assert measure_h3(rows) == [heisenberg_measure(3, f).m for f in rows]
    # a coefficient past int64 sends the whole block to the generic route
    rows[0] = [2 ** 70] + [0] * 26
    assert measure_h3(rows) == [heisenberg_measure(3, f).m for f in rows]
    assert measure_h3(rows)[0] == 2 ** (70 * 27)


def test_fast_kernel_block_mixing_heights_gives_per_row_values():
    # rows inside the height bound take the int64 kernel; rows past it, and
    # with a row past int64 the whole block, go as one block to the
    # Heisenberg route: either way each row gets its own value
    rng = random.Random(75)
    g = build_group("heisenberg", 3)
    rows = [random_heisenberg_poly(rng, 3, H3_HEIGHT) for _ in range(3)]
    rows += [random_heisenberg_poly(rng, 3, 50) for _ in range(3)]
    rows.insert(2, [H3_HEIGHT + 1] + [0] * 26)
    oracle = [group_determinant(GroupRingElt(g, f)) for f in rows]
    assert measure_h3(rows) == oracle == [measure_h3([f])[0] for f in rows]
    huge = [0] * 27
    huge[13], huge[0] = 2 ** 64, 1
    rows.insert(4, huge)
    oracle.insert(4, group_determinant(GroupRingElt(g, huge)))
    assert measure_h3(rows) == oracle == [measure_h3([f])[0] for f in rows]


@pytest.mark.parametrize("column,message", [(27 + 1, "abelian character product"),
                                            (27 + 9, "block determinant product")])
def test_fast_kernel_certificates_raise(monkeypatch, column, message):
    # a wrong w-coordinate for the second character, then for the first
    # entry of D(w), must raise NotInteger: an explicit check, so it also
    # holds under python -O
    import groupdet.measures
    bad = groupdet.measures._H3_MATRIX.copy()
    bad[0, column] += 1
    monkeypatch.setattr(groupdet.measures, "_H3_MATRIX", bad)
    with pytest.raises(NotInteger, match=message):
        measure_h3([[1, 2] + [0] * 25])


def test_fast_kernel_checks_length():
    # without the check, [1] * 26 read as 26 and [2] + [0] * 27 as 2^27
    for coeffs in ([1] * 26, [2] + [0] * 27):
        with pytest.raises(InvalidParameter,
                           match=rf"need rows of 27 coefficients, got shape \(1, {len(coeffs)}\)"):
            measure_h3([coeffs])
