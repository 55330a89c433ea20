"""Reduction certificates off the fiber cone against the power test.

`is_reduction` reads the least n with I^(n+1) = J I^n at the origin as the
top degree of F(I)/J F(I) (`reductions._fiber_witness`) on every input.  The
power test it replaced (`reference_reductions.power_witness`) is the
reference here; it answers the global question, so it agrees with the
local one wherever J is supported at the origin.  Both must give the same
certificate over small and large prime fields and qq, in polynomial rings,
in a domain (the cusp y^2 z - x^3) and in quotients that are not domains:
for minimal reductions drawn by `find_minimal_reduction` (witnesses 0 to 3),
for seeded homogeneous J, some of which are not reductions, and for seeded
non-homogeneous I and J supported at the origin.  Ideals with zeros away
from the origin get a local certificate, each witness checked by a colon at
the origin.  The edge cases pin the power test's bound DEFAULT_N_MAX from
both sides, past which only the fiber route answers, a pair whose local and
global answers differ, a unit I, a quotient that is not Artinian, a
nilpotent I, and generators of J in mI.
"""

import random

import pytest

from gradmult import (
    INFINITE,
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
from gradmult.reductions import ReductionCertificate, _fiber_witness
from conftest import four_algebras, random_poly
import reference_minimal_basis
from reference_reductions import DEFAULT_N_MAX, power_witness

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
        assert _fiber_witness(J, I) == power_witness(J, I) == cert
        if not seeded:
            continue
        short, *full = seeded_reductions(I, rng)
        assert _fiber_witness(short, I) == power_witness(short, I)
        assert _fiber_witness(short, I).verdict == "INCONCLUSIVE"
        for K in full:
            expected = power_witness(K, I)
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
        power = power_witness(J, I)
        assert power.n_witness == (a - 1 if a - 1 <= DEFAULT_N_MAX else None)
        if power.ok:
            assert power == cert


def test_a_quotient_that_is_not_artinian_is_inconclusive(kxy):
    x, y = kxy.gens()
    I, J = AlgIdeal(kxy, [x * x, y * y]), AlgIdeal(kxy, [x * x])
    assert is_reduction(J, I) == power_witness(J, I)
    assert is_reduction(J, I).verdict == "INCONCLUSIVE"


def test_zero_reduces_a_nilpotent_ideal(nondomain):
    # X^2 = 0 in k[X,Y]/(XY, X^2), so I^2 = 0 = 0 * I: F(I) = k[T]/(T^2)
    X, _ = nondomain.gens()
    I, J = AlgIdeal(nondomain, [X]), AlgIdeal(nondomain, [])
    assert is_reduction(J, I) == power_witness(J, I)
    assert (is_reduction(J, I).verdict, is_reduction(J, I).n_witness) == ("REDUCTION", 1)


def test_generators_of_j_in_mi(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x * x, x * y, y * y])
    for gens, witness in (([x * x, y * y, x**3], 1), ([x * x, x * y * y], None)):
        J = AlgIdeal(kxy, gens)
        assert is_reduction(J, m2) == _fiber_witness(J, m2) == power_witness(J, m2)
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


# name -> (variables, relations, ideals): non-homogeneous ideals supported
# at the origin, each with whether a J of spread - 1 generators, never a
# reduction, is checked too (the power test then climbs to
# I^(DEFAULT_N_MAX + 1), seconds over qq for the larger ideals)
LOCAL = {
    "k[x,y]": (("x", "y"), lambda x, y: [], lambda x, y: [
        ([x * x + y**3, x * x * y, y**4], True),
        ([(x + y * y) ** 2, (x + y * y) * y**3, y**6], False),
    ]),
    "cusp": (("x", "y", "z"), lambda x, y, z: [y * y * z - x**3], lambda x, y, z: [
        ([(x + y * y) ** 2, (x + y * y) * z, z * z], False),
    ]),
}


def supported_at_origin(I):
    """True when some power of every variable lies in P + I: the zeros of I
    in S are the origin at most."""
    k = I.lift.k_dimension()
    return k != INFINITE and all(I.lift.contains(v**k) for v in I.algebra.ring.gens())


def seeded_local_reductions(I, rng, short, draws=2):
    """J inside I supported at the origin: spread - 1 (when short) or spread
    random combinations of the minimal generators of I, plus the least
    power m^N inside mI.  The power m^N makes J supported at the origin, and
    it lies in mI, so it does not change whether J is a reduction."""
    algebra = I.algebra
    field = algebra.ring.field
    basis = minimal_basis(I)
    spread = analytic_spread(I)
    tail = algebra.irrelevant_ideal()
    while not I.times_irrelevant().contains_ideal(tail):
        tail = tail * algebra.irrelevant_ideal()
    out = []
    for count in [spread - 1] * short + [spread] * draws:
        gens = []
        for _ in range(count):
            el = algebra.zero()
            for b in basis:
                el = el + field.random(rng) * b
            gens.append(el)
        out.append(AlgIdeal(algebra, gens + list(tail.gens)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_homogeneous_input_matches_the_power_test(field):
    # with J supported at the origin, I^(n+1) = J I^n holds away from it for
    # every n (J and I are the unit ideal there), so the global power test
    # answers the local question the fiber cone does
    rng = random.Random(f"local {field!r}")
    kxy, fat = _algebra(("x", "y"), field), _algebra(("X", "Y"), field, lambda X, Y: [X * Y, X * X])
    x, y = kxy.gens()
    X, Y = fat.gens()
    pairs = [
        (AlgIdeal(kxy, [x * x + y**3, y * y]), AlgIdeal(kxy, [x * x, x * y, y * y])),
        (AlgIdeal(fat, [Y**4]), AlgIdeal(fat, [X + Y * Y])),
    ]
    for name, (names, relations, ideals) in LOCAL.items():
        algebra = _algebra(names, field, relations)
        for gens, short in ideals(*algebra.gens()):
            I = AlgIdeal(algebra, gens)
            pairs += [(J, I) for J in seeded_local_reductions(I, rng, short)]
    verdicts = set()
    for J, I in pairs:
        assert supported_at_origin(J) and supported_at_origin(I)
        cert = is_reduction(J, I)
        assert cert == power_witness(J, I), (I, J)
        if not J.lift.equals(I.lift):
            assert cert == _fiber_witness(J, I)
        verdicts.add(cert.verdict)
        if not (J.is_homogeneous() and I.is_homogeneous()):
            verdicts.add("non-homogeneous")
    assert verdicts == {"REDUCTION", "INCONCLUSIVE", "non-homogeneous"}


def _unit_at_origin(ideal):
    origin = (0,) * ideal.ring.n
    return any(origin in g.coeffs for g in ideal.groebner())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ideals_off_the_origin_get_a_local_certificate(field):
    # seeded I whose minimal basis generates it only at the origin (the
    # reference basis refuses it), and in two variables I m^2 too; J draws
    # spread random combinations of the minimal generators.  A witness n is
    # checked on its own: J I^n : I^(n+1) holds a unit at the origin, so
    # I^(n+1) = J I^n there, and J I^(n-1) : I^n does not
    rng = random.Random(f"off the origin {field!r}")
    witnesses = []
    for algebra in four_algebras(field):
        for _ in range(20):
            gens = [random_poly(algebra.ring, rng) for _ in range(rng.randint(1, 3))]
            I = AlgIdeal(algebra, gens)
            if I.is_zero() or not I.is_proper():
                continue
            try:
                reference_minimal_basis.minimal_basis(AlgIdeal(algebra, gens))
                continue
            except ArithmeticError:
                pass
            ideals = [I, I.times(algebra.irrelevant_power(2))] if algebra.ring.n == 2 else [I]
            for I in ideals:
                basis = minimal_basis(I)
                J = AlgIdeal(algebra, [
                    sum((field.random(rng) * b for b in basis), algebra.zero())
                    for _ in range(analytic_spread(I))
                ])
                cert = is_reduction(J, I)
                if not cert.ok:
                    continue
                n = cert.n_witness
                assert _unit_at_origin(J.times(I.power(n)).lift.colon(I.power(n + 1).lift))
                if n:
                    assert not _unit_at_origin(J.times(I.power(n - 1)).lift.colon(I.power(n).lift))
                witnesses.append(n)
    # fp(2) and fp(3) draw too few combinations for a witness of 1
    assert witnesses and (1 in witnesses or field in FIELDS[:2])


def test_local_and_global_answers_differ_off_the_origin():
    # in k[X,Y]/(XY, X^2) over fp(3), Y^3 - Y^2 - X = (Y - 1)(Y^2 + X), and
    # Y^3 = Y (Y^2 + X) lies in (Y^2 + X): J = I at the origin, where Y - 1
    # is a unit, but J also vanishes at Y = 1, so no power of I equals J I^n
    fat = _algebra(("X", "Y"), PrimeField(3), lambda X, Y: [X * Y, X * X])
    X, Y = fat.gens()
    I, J = AlgIdeal(fat, [Y * Y + X, Y**3]), AlgIdeal(fat, [Y**3 - Y * Y - X])
    assert is_reduction(J, I) == _fiber_witness(J, I) == ReductionCertificate("REDUCTION", 0)
    assert power_witness(J, I) == ReductionCertificate("INCONCLUSIVE")
    assert not J.lift.equals(I.lift) and not supported_at_origin(J)


def test_a_unit_ideal_is_inconclusive_unless_j_is_it(kxy):
    x, y = kxy.gens()
    unit = AlgIdeal(kxy, [kxy.one()])
    assert is_reduction(unit, unit) == ReductionCertificate("REDUCTION", 0)
    for gens in ([x - 1], [x, y]):
        assert is_reduction(AlgIdeal(kxy, gens), unit) == ReductionCertificate("INCONCLUSIVE")


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
