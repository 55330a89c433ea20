"""The heap normal form and the S-polynomial on packed monomials, the packed
monomial helpers and Rabinowitsch's saturation, checked against the routes
they replaced (`tests/reference_groebner.py`).

Differential cases run over fp(2), fp(3), fp(32003), fp(2147483647) and qq,
in degrevlex, block and weight orders, in k[x,y], k[x,y,z], the cusp
k[x,y,z]/(y^2 z - x^3) and the fat line k[X,Y]/(XY, X^2).  The normal forms
must be equal as polynomials, because both routes pick the same reducer at
every step, whether or not the basis is a Groebner basis.
"""

import random

import pytest

from conftest import random_poly
from gradmult import (
    AlgIdeal,
    PolyIdeal,
    Polynomial,
    buchberger,
    groebner,
    make_algebra,
    normal_form,
    poly_ring,
)
from gradmult.groebner import exact_quotient, s_polynomial
from gradmult.monomials import (
    EXP_LIMIT,
    MonomialOrder,
    minimal_monomials,
    mono_divides,
    mono_lcm,
    packing,
)
from gradmult.reports import run_script
from gradmult.script import parse_script
from gradmult.scalars import QQ, PrimeField
from reference_groebner import (
    mono_coprime,
    reference_normal_form,
    reference_s_polynomial,
    reference_saturate,
)
from reference_orders import reference_key

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]

# name -> (variables, relations)
RINGS = {
    "k[x,y]": (("x", "y"), lambda x, y: []),
    "k[x,y,z]": (("x", "y", "z"), lambda x, y, z: []),
    "cusp": (("x", "y", "z"), lambda x, y, z: [y * y * z - x**3]),
    "fat line": (("X", "Y"), lambda X, Y: [X * Y, X * X]),
}


def orders(n):
    return [
        MonomialOrder.degrevlex(n),
        MonomialOrder.elimination(n, (0,)),
        MonomialOrder.weighted(n, tuple(range(2, n + 2))),
        MonomialOrder.weighted(n, (0,) + tuple(range(1, n)), (0,)),
    ]


def ring_and_relations(name, field, order=None):
    names, rels = RINGS[name]
    ring = poly_ring(names, field, order)
    return ring, rels(*ring.gens())


def test_rev_key_orders_monomials_and_adds():
    rng = random.Random(7)
    picks = (0, 1, 2, 5, EXP_LIMIT - 2, EXP_LIMIT - 1)
    for n in (1, 2, 3, 5):
        for order in orders(n) if n > 1 else [MonomialOrder.degrevlex(1)]:
            monos = {tuple(rng.choice(picks) for _ in range(n)) for _ in range(300)}
            old = reference_key(order)
            assert sorted(monos, key=order.rev_key) == sorted(monos, key=old, reverse=True)
            small = [tuple(rng.randrange(1 << 29) for _ in range(n)) for _ in range(50)]
            for a, b in zip(small, small[1:]):
                ab = tuple(x + y for x, y in zip(a, b))
                assert order.rev_key(ab) == order.rev_key(a) + order.rev_key(b)


def test_packing_divides_and_round_trips():
    rng = random.Random(3)
    pk = packing(3)
    for _ in range(500):
        a = tuple(rng.choice((0, 1, 2, EXP_LIMIT - 1)) for _ in range(3))
        b = tuple(rng.choice((0, 1, 2, EXP_LIMIT - 1)) for _ in range(3))
        assert pk.unpack(pk.pack(a)) == a
        assert (not (pk.pack(b) - pk.pack(a)) & pk.mask) == mono_divides(a, b)
    with pytest.raises(ArithmeticError):
        pk.pack((0, EXP_LIMIT, 0))


@pytest.mark.parametrize("n", range(1, 9))
def test_packed_helpers_match_the_tuple_ones(n):
    rng = random.Random(n)
    pk = packing(n)
    picks = (0, 1, 2, 3, EXP_LIMIT - 2, EXP_LIMIT - 1)
    for _ in range(400):
        a = tuple(rng.choice(picks) for _ in range(n))
        b = tuple(rng.choice(picks) if rng.randrange(3) else x for x in a)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pk.lcm(pa, pb)) == mono_lcm(a, b)
        assert pk.coprime(pa, pb) == mono_coprime(a, b)
        assert pk.divides(pa, pb) == mono_divides(a, b)
        assert pk.divides(pa, pk.lcm(pa, pb)) and pk.divides(pb, pk.lcm(pa, pb))
        assert pk.degree(pa) == sum(a)
    monos = [tuple(rng.choice(picks[:4] + picks[-1:]) for _ in range(n)) for _ in range(30)]
    assert sorted(pk.minimal(map(pk.pack, monos))) == sorted(map(pk.pack, minimal_monomials(monos)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", list(RINGS))
def test_normal_form_matches_the_reference(field, name):
    rng = random.Random(f"nf {field!r} {name}")
    n = len(RINGS[name][0])
    for order in orders(n):
        ring, rels = ring_and_relations(name, field, order)
        for _ in range(6):
            gens = rels + [random_poly(ring, rng) for _ in range(rng.randint(1, 3))]
            f = sum((random_poly(ring, rng) * random_poly(ring, rng) for _ in range(2)),
                    random_poly(ring, rng, constant=True))
            # any list: both routes take the first reducer whose lead divides
            rng.shuffle(gens)
            got = normal_form(f, gens)
            assert got == reference_normal_form(f, gens)
            # S-pairs of non-monic inputs, and the packed view they carry
            s = s_polynomial(f, gens[0])
            assert s == reference_s_polynomial(f, gens[0])
            assert not s.coeffs or s.packed() == Polynomial(ring, dict(s.coeffs)).packed()
            assert got._lead is None or got._lead == got.leading_monomial()
            gb = buchberger(gens)
            assert normal_form(f, gb) == reference_normal_form(f, gb)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_exact_quotient_inverts_products(field):
    rng = random.Random(11)
    for order in orders(3):
        ring = poly_ring(("x", "y", "z"), field, order)
        for _ in range(8):
            a, b = random_poly(ring, rng, constant=True), random_poly(ring, rng)
            assert exact_quotient(a * b, b) == a
        x, y, z = ring.gens()
        with pytest.raises(ValueError):
            exact_quotient(x * y + z, x)
        with pytest.raises(ValueError):
            exact_quotient(z, x)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", list(RINGS))
def test_saturate_matches_the_colon_loop(field, name):
    rng = random.Random(f"sat {field!r} {name}")
    n = len(RINGS[name][0])
    for order in (MonomialOrder.degrevlex(n), orders(n)[2]):
        ring, rels = ring_and_relations(name, field, order)
        for _ in range(5):
            # generators with linear factors, saturated by linear forms
            I = PolyIdeal(ring, rels + [random_poly(ring, rng) * random_poly(ring, rng, degree=1)
                                        for _ in range(rng.randint(1, 2))])
            J = PolyIdeal(ring, [random_poly(ring, rng, degree=1)
                                 for _ in range(rng.randint(1, 2))])
            assert I.saturate(J).equals(reference_saturate(I, J))


def test_saturate_by_zero_and_by_a_unit():
    ring = poly_ring(("x", "y"))
    x, y = ring.gens()
    I = PolyIdeal(ring, [x * x * y, x * y * y])
    assert I.saturate(PolyIdeal.zero(ring)).is_unit()
    assert I.saturate(PolyIdeal(ring, [ring.constant(5)])).equals(I)
    assert I.saturate(PolyIdeal(ring, [ring.one(), x])).equals(I)
    assert I.saturate(PolyIdeal(ring, [x])).equals(PolyIdeal(ring, [y]))


def test_saturate_forms_no_colon(monkeypatch):
    calls = []
    colon = PolyIdeal.colon

    def counted(self, other):
        calls.append(other)
        return colon(self, other)

    monkeypatch.setattr(PolyIdeal, "colon", counted)
    ring = poly_ring(("x", "y", "z"))
    x, y, z = ring.gens()
    # the colon loop takes five colons by m on this ideal
    I = PolyIdeal(ring, [x**3 * y, x * y**3, z**2 * x * y])
    m = PolyIdeal(ring, [x, y, z])
    assert I.saturate(m).equals(PolyIdeal(ring, [x * y]))
    assert calls == []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_nilpotent_element_of_the_fat_line_is_refused(field):
    from gradmult.reductions import fc_check_element

    ring = poly_ring(("X", "Y"), field)
    X, Y = ring.gens()
    fat = make_algebra(ring, [X * Y, X * X])
    X, Y = fat.gens()
    with pytest.raises(ValueError, match="nilpotent"):
        fc_check_element(X, [AlgIdeal(fat, [X])], 0)


def test_exponent_at_the_guard_bit_raises():
    ring = poly_ring(("x", "y", "z"))
    x, y, z = ring.gens()
    big = ring.monomial((EXP_LIMIT, 0, 0))
    with pytest.raises(ArithmeticError):
        normal_form(big + y, [y * y - x])
    # packable inputs whose product reaches the guard: y^2 -> xz times x^(limit - 1)
    f = ring.monomial((EXP_LIMIT - 1, 2, 0))
    with pytest.raises(ArithmeticError):
        normal_form(f, [y * y - x * z])
    for _ in range(2):
        # never a basis, and nothing memoised for the second call
        with pytest.raises(ArithmeticError):
            buchberger([big - y, y * y - x])
    # packable generators whose S-pair shift, z, takes the tail z^(limit - 1)
    # to the guard: the S-polynomial raises, before any normal form
    f = ring.monomial((EXP_LIMIT - 2, 1, 0)) + ring.monomial((0, 0, EXP_LIMIT - 1))
    g = x * z - y
    with pytest.raises(ArithmeticError, match="S-pair"):
        s_polynomial(f, g)
    memo = dict(groebner._memo)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="S-pair"):
            buchberger([f, g])
        assert groebner._memo == memo
    text = (
        "ring S vars [x, y, z] field fp(32003) relations [];\n"
        f"ideal I = [x^{EXP_LIMIT - 2}*y + z^{EXP_LIMIT - 1}, x*z - y];\ncmd degseq I;\n"
    )
    doc, rc = run_script(parse_script(text))
    (rep,) = doc["reports"]
    assert rc == 4 and doc["summary"]["exit_code"] == 4
    assert rep["error"]["code"] == "INTERNAL-ERROR"
    assert "S-pair" in rep["error"]["message"]
