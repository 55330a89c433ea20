"""The Gebauer–Möller core of buchberger, on packed views, against the same
core on exponent tuples and the chain-criterion core it replaced, with every
basis checked by an independent certificate."""

import math
import random
from fractions import Fraction

import pytest

import reference_groebner
from gradmult import QQ, MonomialOrder, PolyIdeal, Polynomial, PrimeField, buchberger, poly_ring
from gradmult import groebner
from gradmult.monomials import monomials_of_degree
from gradmult.polynomials import map_vars
from reference_groebner import (
    is_groebner_basis,
    reference_gm_basis,
    reference_reduced_basis,
    reference_saturate,
)

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
    """The packed core on the distinct generators (over qq it runs on their
    primitive integer forms), and the tuple core and the chain-criterion
    core on them made monic: the bases must be equal and certified, the
    two Gebauer–Möller cores must reduce the same number of S-pairs, and
    every packed view the packed core kept must be that of its polynomial."""
    _, polys = groebner._distinct(gens)
    polys = tuple(polys.values())
    basis, pairs = with_pair_count(groebner._reduced_basis, groebner, "s_polynomial", polys)
    polys = tuple(g.monic() for g in polys)
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


def rational_poly(ring, rng, degree=None):
    """Two to four terms with coefficients n/d, |n| and d up to 10^6, times
    a random integer content of up to 12."""
    content = rng.randint(2, 12)
    f = ring.zero()
    while not f.coeffs:
        for _ in range(rng.randint(2, 4)):
            c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            f = f + ring.monomial(random_exponent(rng, ring.n, degree), content * c)
    return f


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_qq_integer_forms_match_reference(order):
    """Over qq the core runs on primitive integer forms: large denominators,
    contents above 1, negative leads and rational multiples of one
    generator must give the monic basis of the tuple core from the same
    S-pairs."""
    rng = random.Random(f"zz {order!r}")
    ring = poly_ring(NAMES, QQ, order)
    for _ in range(4):
        gens = [rational_poly(ring, rng, rng.randint(1, 3)) for _ in range(3)]
        lead = gens[0].leading_coeff()
        gens[0] = gens[0].scale(-1 if lead > 0 else 1)  # a negative lead
        gens.append(gens[1].scale(Fraction(-rng.randint(1, 10**6), rng.randint(1, 10**6))))
        key = gens[1].key()
        assert gens[-1].key() == key
        values = key[1::2]
        assert all(type(c) is int for c in values) and values[-1] > 0
        assert math.gcd(*values) == 1
        _, distinct = groebner._distinct(gens)
        assert len(distinct) == len(gens) - 1
        compare(gens)


def test_qq_saturation_matches_reference():
    """A seeded qq saturation: the Rabinowitsch generators run through the
    three cores, and the u-free part of the basis is I : J^infinity."""
    rng = random.Random(2600)
    ring = poly_ring(("x", "y", "z"), QQ)
    x, y, z = ring.gens()
    line = x - Fraction(3, 7) * y + 2 * z
    I = PolyIdeal(ring, [line * rational_poly(ring, rng), line * rational_poly(ring, rng, 1),
                         rational_poly(ring, rng) * (y - 4 * z)])
    J = PolyIdeal(ring, [line])
    uring = ring.extended(("u",), MonomialOrder.elimination(4, (3,)))
    pos = (0, 1, 2)
    gens = [map_vars(g, uring, pos) for g in I.groebner()]
    gens.append(uring.one() - uring.var(3) * map_vars(line, uring, pos))
    basis = compare(gens)
    free = [Polynomial(ring, {e[:3]: c for e, c in g.coeffs.items()})
            for g in basis if all(e[3] == 0 for e in g.coeffs)]
    sat = I.saturate(J)
    assert len(sat.groebner()) == 6
    assert sat.groebner() == buchberger(free)
    assert sat.equals(reference_saturate(I, J))
