"""The Gebauer–Möller core of buchberger, on packed views, against the same
core on exponent tuples and the chain-criterion core it replaced, with every
basis checked by an independent certificate."""

import random

import pytest

import reference_groebner
from gradmult import QQ, MonomialOrder, Polynomial, PrimeField, buchberger, poly_ring
from gradmult import groebner
from gradmult.monomials import monomials_of_degree
from reference_groebner import is_groebner_basis, reference_gm_basis, reference_reduced_basis

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
ORDERS = [
    MonomialOrder.degrevlex(4),
    MonomialOrder.elimination(4, (0,)),
    MonomialOrder.elimination(4, (0, 2)),
    MonomialOrder.weighted(4, (1, 3, 2, 1)),
    MonomialOrder.weighted(4, (0, 2, 1, 1), (0,)),
]
NAMES = ("x", "y", "z", "w")


def with_pair_count(core, module, name, polys):
    """core(polys) and the number of S-polynomials it formed, counted by
    wrapping module.name, as a traced benchmark run counts them."""
    original = getattr(module, name)
    calls = []

    def counted(f, g):
        calls.append(None)
        return original(f, g)

    setattr(module, name, counted)
    try:
        return core(polys), len(calls)
    finally:
        setattr(module, name, original)


def compare(gens):
    """The packed core, the tuple core and the chain-criterion core on the
    distinct monic generators: the bases must be equal and certified, the
    two Gebauer–Möller cores must reduce the same number of S-pairs, and
    every packed view the packed core kept must be that of its polynomial."""
    _, polys = groebner._distinct_monic(gens)
    polys = tuple(polys.values())
    basis, pairs = with_pair_count(groebner._reduced_basis, groebner, "s_polynomial", polys)
    tuple_basis, tuple_pairs = with_pair_count(
        reference_gm_basis, reference_groebner, "reference_s_polynomial", polys
    )
    assert basis == tuple_basis
    assert pairs == tuple_pairs
    for g in basis:
        fresh = Polynomial(g.ring, dict(g.coeffs))
        assert g.packed() == fresh.packed()
        assert g.leading_monomial() == fresh.leading_monomial()
    reference = reference_reduced_basis(polys)
    assert basis == reference
    assert [repr(g) for g in basis] == [repr(g) for g in reference]
    assert is_groebner_basis(basis, gens)
    return basis


def random_exponent(rng, n, degree=None):
    """Exponents at most 2; total degree `degree` when given, else random."""
    if degree is None:
        return tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(n))
    e = [0] * n
    while sum(e) < degree:
        i = rng.randrange(n)
        if e[i] < 2:
            e[i] += 1
    return tuple(e)


def random_poly(ring, rng, degree=None):
    f = ring.zero()
    while not f.coeffs:
        for _ in range(rng.randint(1, 3)):
            f = f + ring.monomial(random_exponent(rng, ring.n, degree), ring.field.random_nonzero(rng))
    return f


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_inputs_match_reference(field, order):
    rng = random.Random(10 * FIELDS.index(field) + ORDERS.index(order))
    ring = poly_ring(NAMES, field, order)
    for _ in range(8):
        degree = rng.randint(1, 3)
        compare([random_poly(ring, rng, degree) for _ in range(rng.randint(2, 4))])
        compare([random_poly(ring, rng) for _ in range(rng.randint(2, 3))])


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_power_plus_binomial(field, order):
    # many monomial generators and one binomial: M and F prune most new pairs
    ring = poly_ring(NAMES, field, order)
    x, y, z, w = ring.gens()
    power = [ring.monomial(e + (0,)) for e in monomials_of_degree(3, 4)]
    basis = compare(power + [x * w - y * y])
    assert len(power) == 15 and len(basis) > 15
    compare(power + [w * w - x * z])


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_of_ideals(field, order):
    rng = random.Random(7)
    ring = poly_ring(NAMES, field, order)
    x, y, z, w = ring.gens()
    a = [x, y, z, w, x + y]
    b = [random_poly(ring, rng, 2) for _ in range(6)]
    gens = [f * g for f in a for g in b]
    assert len(gens) >= 30
    compare(gens)
    eb = [x * y - z * w, x * x, y * z + w * w, z * z, x * w, y * y - x * z]
    compare([f * g for f in a for g in eb])


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_all_monomial_input(order):
    rng = random.Random(3)
    ring = poly_ring(NAMES, QQ, order)
    for _ in range(5):
        gens = [ring.monomial(random_exponent(rng, 4)) for _ in range(rng.randint(1, 8))]
        gens = [g for g in gens if g.degree() > 0] or [ring.var(0)]
        compare(gens)


def test_unit_and_principal_inputs():
    ring = poly_ring(NAMES, PrimeField(32003))
    x, y, z, w = ring.gens()
    assert compare([x * y - 1, x, z + w]) == (ring.one(),)
    assert compare([x * y - z * z]) == ((x * y - z * z).monic(),)
    assert compare([x + y, x + y, 3 * (x + y)]) == ((x + y).monic(),)


def test_certificate_rejects_non_bases():
    ring = poly_ring(("x", "y"), QQ)
    x, y = ring.gens()
    gens = [x * x - y, x * y - 1]
    basis = buchberger(gens)
    assert is_groebner_basis(basis, gens)
    # dropping an element loses an S-pair or a generator
    for k in range(len(basis)):
        assert not is_groebner_basis(basis[:k] + basis[k + 1:], gens)
    # generators outside the ideal
    assert not is_groebner_basis(basis, gens + [x + y])
    # not monic
    assert not is_groebner_basis((basis[0].scale(QQ.of(2)),) + basis[1:], gens)
    # a redundant element, and a reducible tail
    assert not is_groebner_basis(basis + ((x * basis[0]).monic(),), gens)
    assert not is_groebner_basis(
        tuple(g + basis[0] if i else g for i, g in enumerate(basis)), gens
    )
