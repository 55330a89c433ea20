"""Reduction certificates off the fiber cone against the power test.

On homogeneous input `is_reduction` reads the least n with I^(n+1) = J I^n
as the top degree of F(I)/J F(I) (`reductions._fiber_witness`); other input
climbs the powers (`reductions._power_witness`), which is also the reference
here.  Both must give the same certificate over small and large prime
fields and qq, in polynomial rings, in a domain (the cusp y^2 z - x^3) and
in quotients that are not domains: for minimal reductions drawn by
`find_minimal_reduction` (witnesses 0 to 3) and for seeded J, some of which
are not reductions.  The edge cases pin the power test's bound
DEFAULT_N_MAX from both sides, past which only the fiber route answers, a
quotient that is not Artinian, a nilpotent I, generators of J in mI, and
which input takes which route.
"""

import random

import pytest

from gradmult import (
    QQ,
    AlgIdeal,
    PrimeField,
    analytic_spread,
    find_minimal_reduction,
    is_reduction,
    make_algebra,
    minimal_basis,
    poly_ring,
    reductions,
)
from gradmult.reductions import DEFAULT_N_MAX, _fiber_witness, _power_witness

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]


def _algebra(names, field, relations=lambda *v: []):
    ring = poly_ring(names, field)
    return make_algebra(ring, relations(*ring.gens()))


# name -> (variables, relations, ideals); an ideal is (its generators, the
# witness of the reduction find_minimal_reduction draws with seed 1, whether
# seeded J are checked too: the power test climbs to I^(DEFAULT_N_MAX + 1) on
# a J that is not a reduction, seconds for the two larger ideals in three
# variables)
ALGEBRAS = {
    "k[x,y]": (("x", "y"), lambda x, y: [], lambda x, y: [
        ([x**3, x * x * y, y**3], 2, True),
        ([x * x, x * y, y * y], 1, True),
        ([x, y * y], 0, True),
    ]),
    "k[x,y,z]": (("x", "y", "z"), lambda x, y, z: [], lambda x, y, z: [
        ([x * x, y * y, z * z, x * y, y * z], 2, False),
        ([x, y * y, z * z], 0, True),
    ]),
    "cusp": (("x", "y", "z"), lambda x, y, z: [y * y * z - x**3], lambda x, y, z: [
        ([x, y, z], 2, True),
        ([x * x, y * y, z * z, x * y], 3, False),
    ]),
    "xy": (("x", "y", "z"), lambda x, y, z: [x * y], lambda x, y, z: [
        ([x, y, z], 1, True),
        ([x * x, y * y, z], 1, True),
    ]),
    "fat line": (("X", "Y"), lambda X, Y: [X * Y, X * X], lambda X, Y: [
        ([X, Y], 1, True),
        ([X, Y * Y], 1, True),
    ]),
}


def cases(name, field):
    names, relations, ideals = ALGEBRAS[name]
    algebra = _algebra(names, field, relations)
    return [(AlgIdeal(algebra, gens), w, seeded) for gens, w, seeded in ideals(*algebra.gens())]


def seeded_reductions(I, rng, draws=3):
    """Homogeneous J inside I: spread - 1 generators, never a reduction, then
    spread generators `draws` times.  A generator is a combination of the
    minimal generators of one degree with nonzero coefficients, now and then
    times a variable (so it lies in mI)."""
    algebra = I.algebra
    field = algebra.ring.field
    basis = minimal_basis(I)
    degrees = sorted({b.order for b in basis})
    spread = analytic_spread(I)
    out = []
    for count in [spread - 1] + [spread] * draws:
        gens = []
        for _ in range(count):
            d = rng.choice(degrees)
            el = algebra.zero()
            for b in basis:
                if b.order == d:
                    el = el + field.random_nonzero(rng) * b
            if rng.random() < 0.2:
                el = el * algebra.gens()[rng.randrange(algebra.ring.n)]
            gens.append(el)
        out.append(AlgIdeal(algebra, gens))
    return out


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_fiber_route_matches_the_power_test(name, field):
    rng = random.Random(f"{name} {field!r}")
    for I, witness, seeded in cases(name, field):
        J, cert = find_minimal_reduction(I, seed=1)
        assert cert.n_witness == witness
        assert _fiber_witness(J, I) == _power_witness(J, I) == cert
        if not seeded:
            continue
        short, *full = seeded_reductions(I, rng)
        assert _fiber_witness(short, I) == _power_witness(short, I)
        assert _fiber_witness(short, I).verdict == "INCONCLUSIVE"
        for K in full:
            expected = _power_witness(K, I)
            assert _fiber_witness(K, I) == expected, (I, K)
            assert is_reduction(K, I) == expected, (I, K)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_bound_from_both_sides(field):
    # (x^a, y^a) reduces (x^a, y^a, x y^(a-1)) with reduction number a - 1:
    # the fiber cone reads it for every a, while the power test stops at
    # DEFAULT_N_MAX, so a = 9 gives its largest witness and a = 10 none
    assert DEFAULT_N_MAX == 8
    kxy = _algebra(("x", "y"), field)
    x, y = kxy.gens()
    for a in (9, 10, 12):
        I = AlgIdeal(kxy, [x**a, y**a, x * y ** (a - 1)])
        J = AlgIdeal(kxy, [x**a, y**a])
        cert = is_reduction(J, I)
        assert cert == _fiber_witness(J, I)
        assert (cert.verdict, cert.n_witness) == ("REDUCTION", a - 1)
        power = _power_witness(J, I)
        assert power.n_witness == (a - 1 if a - 1 <= DEFAULT_N_MAX else None)
        if power.ok:
            assert power == cert


def test_a_quotient_that_is_not_artinian_is_inconclusive(kxy):
    x, y = kxy.gens()
    I, J = AlgIdeal(kxy, [x * x, y * y]), AlgIdeal(kxy, [x * x])
    assert is_reduction(J, I) == _power_witness(J, I)
    assert is_reduction(J, I).verdict == "INCONCLUSIVE"


def test_zero_reduces_a_nilpotent_ideal(nondomain):
    # X^2 = 0 in k[X,Y]/(XY, X^2), so I^2 = 0 = 0 * I: F(I) = k[T]/(T^2)
    X, _ = nondomain.gens()
    I, J = AlgIdeal(nondomain, [X]), AlgIdeal(nondomain, [])
    assert is_reduction(J, I) == _power_witness(J, I)
    assert (is_reduction(J, I).verdict, is_reduction(J, I).n_witness) == ("REDUCTION", 1)


def test_generators_of_j_in_mi(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x * x, x * y, y * y])
    for gens, witness in (([x * x, y * y, x**3], 1), ([x * x, x * y * y], None)):
        J = AlgIdeal(kxy, gens)
        assert is_reduction(J, m2) == _fiber_witness(J, m2) == _power_witness(J, m2)
        assert is_reduction(J, m2).n_witness == witness


def test_containment_is_checked_first(kxy):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    with pytest.raises(ValueError):
        is_reduction(m, m.power(2))
    # past the containment check, a generator without an image in I/mI is
    # a kernel fault
    with pytest.raises(ArithmeticError):
        _fiber_witness(m, m.power(2))


def test_non_homogeneous_input_takes_the_power_test(kxy, nondomain, monkeypatch):
    def refuse(J, I):
        raise AssertionError("the fiber route ran on non-homogeneous input")

    monkeypatch.setattr(reductions, "_fiber_witness", refuse)
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x * x, x * y, y * y])
    J = AlgIdeal(kxy, [x * x + y**3, y * y])
    assert is_reduction(J, m2) == _power_witness(J, m2)
    assert is_reduction(J, m2).n_witness == 1
    X, Y = nondomain.gens()
    I = AlgIdeal(nondomain, [X + Y * Y])
    assert not I.is_homogeneous()
    J = AlgIdeal(nondomain, [Y**4])
    assert is_reduction(J, I) == _power_witness(J, I)
    assert is_reduction(J, I).verdict == "INCONCLUSIVE"


def test_no_product_with_a_power_of_i(monkeypatch):
    # the heavy mixed-table ideal and its minimal reduction: the certificate
    # forms mI and no J I^n
    S = _algebra(("x", "y", "z"), PrimeField(32003))
    x, y, z = S.gens()
    I = AlgIdeal(S, [x * x, y * y, z * z, x * y, y * z])
    J, _ = find_minimal_reduction(I)
    # a fresh copy of I, so that its fiber cone is built inside the count
    I = AlgIdeal(S, I.gens)
    m = S.irrelevant_ideal()
    products = []
    times = AlgIdeal.times

    def counted(self, other):
        products.append(other)
        return times(self, other)

    monkeypatch.setattr(AlgIdeal, "times", counted)
    cert = is_reduction(J, I)
    assert (cert.verdict, cert.n_witness) == ("REDUCTION", 2)
    assert products and all(other is m for other in products)


def test_search_reads_minimality_off_the_fiber_cone(monkeypatch):
    # on homogeneous I a candidate's minimality is the rank of its linear
    # forms in I/mI, so the search takes no minimal basis of a candidate
    S = _algebra(("x", "y", "z"), PrimeField(32003))
    x, y, z = S.gens()
    I = AlgIdeal(S, [x * x, y * y, z * z, x * y, y * z])
    expected, _ = find_minimal_reduction(I)
    calls = []
    monkeypatch.setattr(reductions, "minimal_basis", lambda J: calls.append(J))
    J, cert = find_minimal_reduction(AlgIdeal(S, I.gens))
    assert calls == []
    assert J.gens == expected.gens and cert.ok
