"""Exact determinant routes against the full Cayley-matrix oracle.

Every fast formula here (character products, the order-p^3 block
factorization, the binomial shortcut, the two-part dihedral/dicyclic
reductions, and the inlined p = 3 kernel) is checked against
group_determinant, which builds the honest n x n matrix and eliminates.
"""

import math
import random

import cmath
import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    CycInt,
    GroupRingElt,
    InvalidParameter,
    NotInteger,
    abelian_measure,
    char_product_2d,
    circulant_det,
    dicyclic_measure,
    dihedral_measure,
    group_determinant,
    heisenberg_binomial_measure,
    heisenberg_fourier_coeffs,
    heisenberg_measure,
    heisenberg_phi_matrix,
    measure_h3,
)
from groupdet.exactdet import MULTIMODULAR_CUTOFF, det_bareiss
from groupdet.groups import KINDS, build_group, kind_of
from groupdet.measures import certified_int_product
from groupdet.verify import random_heisenberg_poly


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
    assert exact(coeffs) == group_determinant(GroupRingElt(g, coeffs))


# -- abelian character products --------------------------------------------


def test_cyclic_three_simple_value():
    g = build_group("cyclic", 3)
    f = GroupRingElt.from_terms(g, [((0,), 1), ((1,), 1)])  # 1 + x
    # (1+1)(1+w)(1+w^2) = 2 * (w^3 + ... ) = 2
    assert abelian_measure(g.moduli, f.coeffs) == 2
    assert group_determinant(f) == 2


@pytest.mark.parametrize("g", [build_group("cyclic", 3), build_group("cyclic", 5),
                               build_group("elementary", 3, 2)])
def test_abelian_measure_matches_oracle(g):
    rng = random.Random(60 + g.order)
    for _ in range(30):
        f = GroupRingElt.from_terms(
            g, [(e, rng.randint(-5, 5)) for e in g.element_exps])
        assert abelian_measure(g.moduli, f.coeffs) == group_determinant(f)


def test_abelian_measure_rejects_mixed_orders():
    from groupdet import InvalidParameter
    with pytest.raises(InvalidParameter):
        abelian_measure((2, 3), [1, 0, 0, 0, 0, 0])


def test_abelian_measure_rejects_a_short_coefficient_vector():
    from groupdet import InvalidParameter
    with pytest.raises(InvalidParameter):
        abelian_measure((3, 3), [1] * 8)


def test_circulant_matches_oracle_composite_order():
    rng = random.Random(61)
    g = build_group("cyclic", 6)
    for _ in range(20):
        h = [rng.randint(-4, 4) for _ in range(6)]
        f = GroupRingElt.from_terms(g, [((i,), c) for i, c in enumerate(h)])
        assert circulant_det(h, 6) == group_determinant(f)
    # the rows are slices of h, so a vector of another length is refused
    from groupdet import InvalidParameter
    for bad in ([1, 2, 3], [1]):
        with pytest.raises(InvalidParameter, match=f"need 2 coefficients, got {len(bad)}"):
            circulant_det(bad, 2)


def test_certified_product_refuses_non_integers():
    with pytest.raises(NotInteger):
        certified_int_product([CycInt.root(3)])


# -- the order-p^3 block structure ------------------------------------------


def test_block_matrix_of_central_generator():
    # F = z: every block is the scalar w^j
    f = _heisenberg_poly(3, [((0, 0, 1), 1)])
    for j in (1, 2):
        m = heisenberg_phi_matrix(3, f, j)
        for r in range(3):
            for c in range(3):
                expect = CycInt.root(3, j) if r == c else CycInt.zero(3)
                assert m[r][c] == expect


def test_block_matrix_of_x_is_the_shift():
    f = _heisenberg_poly(5, [((1, 0, 0), 1)])
    m = heisenberg_phi_matrix(5, f, 2)
    for r in range(5):
        for c in range(5):
            expect = CycInt.one(5) if (r - c) % 5 == 1 else CycInt.zero(5)
            assert m[r][c] == expect


def test_block_matrix_of_y_is_diagonal_of_powers():
    p, j = 5, 3
    f = _heisenberg_poly(p, [((0, 1, 0), 1)])
    m = heisenberg_phi_matrix(p, f, j)
    for r in range(p):
        for c in range(p):
            expect = CycInt.root(p, (j * c) % p) if r == c else CycInt.zero(p)
            assert m[r][c] == expect


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


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_block_values_are_the_conjugates_of_one_block(p, data):
    # the factorization eliminates only the block at w; each other block
    # eliminated on its own must equal the matching Galois conjugate
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=p ** 3, max_size=p ** 3),
                       label="coeffs")
    fac = heisenberg_measure(p, coeffs)
    blocks = [det_bareiss(heisenberg_phi_matrix(p, coeffs, j)) for j in range(1, p)]
    for j in range(1, p):
        assert blocks[0].galois(j) == blocks[j - 1]
    assert fac.m2 == certified_int_product(blocks)


def test_heisenberg_routes_check_p_and_length():
    for fn in (heisenberg_measure, heisenberg_fourier_coeffs,
               lambda p, c: heisenberg_phi_matrix(p, c, 1)):
        with pytest.raises(InvalidParameter, match="needs an odd prime, got 2"):
            fn(2, [1] * 8)
        with pytest.raises(InvalidParameter, match="need 27 coefficients, got 26"):
            fn(3, [1] * 26)


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
            group_determinant(GroupRingElt.from_terms(g, terms))


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


@pytest.mark.parametrize("p", [3, 5])
def test_fourier_coefficients_carry_the_congruences(p):
    rng = random.Random(65 + p)
    for _ in range(15):
        f = random_heisenberg_poly(rng, p, 4)
        fac = heisenberg_measure(p, f)
        cs = heisenberg_fourier_coeffs(p, f)
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
        cs = heisenberg_fourier_coeffs(p, f)
        # F(x, 1, 1) coefficients
        h = [sum(f[i * p * p:(i + 1) * p * p]) for i in range(p)]
        assert sum(cs) == circulant_det(h, p)


# -- dihedral / dicyclic -----------------------------------------------------


def _two_part_elt(g, f, gg):
    half = g.order // 2
    terms = [((i, 0), c) for i, c in enumerate(f)]
    terms += [((i, 1), c) for i, c in enumerate(gg)]
    return GroupRingElt.from_terms(g, terms)


@pytest.mark.parametrize("order", [6, 8, 10])
def test_dihedral_matches_oracle(order):
    rng = random.Random(67 + order)
    n = order // 2
    g = build_group("dihedral", order)
    for _ in range(15):
        f = [rng.randint(-4, 4) for _ in range(n)]
        gg = [rng.randint(-4, 4) for _ in range(n)]
        assert dihedral_measure(f, gg, n) == \
            group_determinant(_two_part_elt(g, f, gg))


@pytest.mark.parametrize("order", [4, 8, 12])
def test_dicyclic_matches_oracle(order):
    rng = random.Random(68 + order)
    n = order // 4
    g = build_group("dicyclic", order)
    for _ in range(15):
        f = [rng.randint(-4, 4) for _ in range(2 * n)]
        gg = [rng.randint(-4, 4) for _ in range(2 * n)]
        assert dicyclic_measure(f, gg, n) == \
            group_determinant(_two_part_elt(g, f, gg))


@pytest.mark.parametrize("kind,order", [("dihedral", 64), ("dihedral", 128),
                                        ("dicyclic", 128), ("dicyclic", 256)])
def test_twisted_circulants_above_the_cutoff_match_oracle(kind, order):
    # circulants (and for dicyclic, negacirculants) of n >= 32 rows: both
    # the route and the Cayley oracle take the multimodular elimination
    n = order // (2 if kind == "dihedral" else 4)
    assert n >= MULTIMODULAR_CUTOFF
    rng = random.Random(71 + order)
    coeffs = [rng.randint(-2, 2) for _ in range(order)]
    _, exact = kind_of(kind).route((order,))
    m = group_determinant(GroupRingElt(build_group(kind, order), coeffs))
    assert m != 0
    assert exact(coeffs) == m


def test_negacirculant_against_numeric_roots():
    # det = prod of h(z) over the primitive 2n-th "odd" roots z of x^n = -1
    rng = random.Random(69)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            h = [rng.randint(-4, 4) for _ in range(n)]
            got = circulant_det(h, n, -1)
            prod = 1 + 0j
            for k in range(n):
                z = cmath.exp(1j * math.pi * (2 * k + 1) / n)
                prod *= sum(c * z ** i for i, c in enumerate(h))
            assert got == round(prod.real)
            assert abs(prod.imag) < 1e-6 * max(1.0, abs(prod.real))


def test_two_part_inputs_fold():
    # coefficients beyond the rotation order wrap around
    assert dihedral_measure([1, 2, 0, 3], [0, 0], 2) == \
        dihedral_measure([1, 5], [0, 0], 2)
    a = dihedral_measure([1, 2, 3, 4], [1, 0, 0, 0], 4)
    b = dihedral_measure([1, 2, 3, 4, 0, 0, 0, 0], [1, 0, 0, 0], 4)
    assert a == b


# -- the inlined p = 3 kernel ------------------------------------------------


def test_fast_kernel_matches_generic():
    rng = random.Random(70)
    for _ in range(300):
        flat = [rng.randint(-5, 5) for _ in range(27)]
        f = _heisenberg_poly(
            3, [((i, j, k), flat[9 * i + 3 * j + k])
                for i in range(3) for j in range(3) for k in range(3)])
        assert measure_h3(flat) == heisenberg_measure(3, f).m


def test_fast_kernel_flat_order_matches_poly_flat():
    f = _heisenberg_poly(3, [((1, 2, 0), 4), ((0, 0, 1), -2)])
    assert measure_h3(f) == heisenberg_measure(3, f).m


def test_fast_kernel_checks_length():
    # without the check, [1] * 26 read as 26 and [2] + [0] * 27 as 2^27
    for coeffs in ([1] * 26, [2] + [0] * 27):
        with pytest.raises(InvalidParameter, match=f"need 27 coefficients, got {len(coeffs)}"):
            measure_h3(coeffs)
