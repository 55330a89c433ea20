"""Ideal products and powers against the generator-product reference.

AlgIdeal.times builds a factor from its reduced basis when the basis is known
and shorter than its generators.  Every product and power, built cold (no
basis known) or warm (each factor's basis computed first), must have the same
reduced basis as the reference's generator products.
"""

import random

import pytest

from gradmult import QQ, AlgIdeal, PrimeField, make_algebra, poly_ring, samuel_oracle
from reference_products import reference_power, reference_times

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
TOP = 5


def random_element(algebra, rng, homogeneous):
    """Two or three terms of degree 1..2, all of one degree when homogeneous."""
    ring = algebra.ring
    f = ring.zero()
    while not algebra.element(f).rep.coeffs:
        degree = rng.randint(1, 2)
        for _ in range(rng.randint(2, 3)):
            e = [0] * ring.n
            for _ in range(degree if homogeneous else rng.randint(1, 2)):
                e[rng.randrange(ring.n)] += 1
            f = f + ring.monomial(e, ring.field.random_nonzero(rng))
    return algebra.element(f)


def algebras(field):
    """k[x,y,z], k[x,y,z]/(y^2 z - x^3) and k[X,Y]/(XY, X^2)."""
    ring3 = poly_ring(("x", "y", "z"), field)
    x, y, z = ring3.gens()
    ring2 = poly_ring(("X", "Y"), field)
    X, Y = ring2.gens()
    return [
        make_algebra(ring3),
        make_algebra(ring3, [y * y * z - x**3]),
        make_algebra(ring2, [X * Y, X * X]),
    ]


def seeded_ideals(field):
    rng = random.Random(FIELDS.index(field))
    out = []
    for algebra in algebras(field):
        for homogeneous in (True, False):
            out.append([random_element(algebra, rng, homogeneous) for _ in range(2)])
    return out


def fresh(algebra, gens):
    """A new ideal object, so no basis or power is cached on it yet."""
    return AlgIdeal(algebra, gens)


def basis(ideal):
    return ideal.lift.groebner()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_powers_match_the_reference(field):
    for gens in seeded_ideals(field):
        algebra = gens[0].algebra
        expected = [basis(reference_power(fresh(algebra, gens), k)) for k in range(TOP + 1)]
        cold = fresh(algebra, gens)
        cold.power(TOP)
        assert [basis(cold.power(k)) for k in range(TOP + 1)] == expected
        warm = fresh(algebra, gens)
        assert [basis(warm.power(k)) for k in range(TOP + 1)] == expected


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mixed_products_match_the_reference(field):
    for gens in seeded_ideals(field):
        algebra = gens[0].algebra
        m_gens = algebra.irrelevant_ideal().gens
        for a, b in ((1, 1), (2, 1), (1, 3), (3, 2)):
            ref = reference_times(
                reference_power(fresh(algebra, m_gens), a), reference_power(fresh(algebra, gens), b)
            )
            m, I = fresh(algebra, m_gens), fresh(algebra, gens)
            cold = m.power(a).times(I.power(b))
            assert basis(cold) == basis(ref)
            m, I = fresh(algebra, m_gens), fresh(algebra, gens)
            basis(m.power(a))
            basis(I.power(b))
            assert basis(m.power(a).times(I.power(b))) == basis(ref)


def test_a_factor_keeps_its_generators_unless_its_basis_is_known_and_shorter(kxy):
    x, y = kxy.gens()
    J = AlgIdeal(kxy, [x, y])
    # (x^2 + y, x y) has the three-element basis x^2 + y, x y, y^2
    I = AlgIdeal(kxy, [x * x + y, x * y])
    assert I.times(J).gens == reference_times(I, J).gens
    assert len(basis(I)) == 3
    assert I.times(J).gens == reference_times(I, J).gens
    # three generators of (y^2): its basis replaces them once it is known
    K = AlgIdeal(kxy, [y * y, y * y + y**3, y**3])
    assert K.times(J).gens == reference_times(K, J).gens
    assert len(basis(K)) == 1
    assert K.times(J).gens == reference_times(AlgIdeal(kxy, basis(K)), J).gens


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_samuel_oracle_same_cold_or_warm(field):
    for algebra in algebras(field):
        ring = algebra.ring
        v = [algebra.element(g) for g in ring.gens()]
        gens = [v[0] + v[-1] * v[-1], v[-1] ** 3] + [g * g for g in v[1:-1]]
        window = (1, algebra.dim + 4)
        cold = fresh(algebra, gens)
        cold.power(window[1])
        cold_result = samuel_oracle(cold, window=window)
        warm_result = samuel_oracle(fresh(algebra, gens), window=window)
        assert (warm_result.value, warm_result.witness) == (cold_result.value, cold_result.witness)


def test_power_of_a_random_qq_shaped_ideal_starts_from_the_last_basis():
    # the shape of the benchmark's plane cases: two binomials of order 1..3
    # with one higher term, and pure powers of both variables
    algebra = make_algebra(poly_ring(("x", "y"), QQ))
    x, y = algebra.gens()
    I = AlgIdeal(algebra, [x * y + QQ.of(-3) * x**3, y * y + QQ.of(2) * x * y * y, x**3, y**2])
    fifth = basis(I.power(5))
    assert len(I.power(6).gens) <= len(fifth) * len(I.gens)
    assert basis(I.power(6)) == basis(reference_power(fresh(algebra, I.gens), 6))
