"""The buchberger memo against its uncached core, and the mixed-ring guard."""

import random
from fractions import Fraction

import pytest

from gradmult import QQ, MonomialOrder, PolyIdeal, Polynomial, PrimeField, buchberger, poly_ring
from gradmult import groebner

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]


def cold(gens):
    """Reduced basis from the uncached core, the reference the memo must match."""
    _, polys = groebner._distinct(gens)
    return groebner._reduced_basis(tuple(polys.values())) if polys else ()


def random_gens(ring, rng):
    gens = []
    for _ in range(rng.randint(2, 3)):
        f = ring.zero()
        for _ in range(rng.randint(1, 3)):
            e = [0] * ring.n
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(ring.n)] += 1
            f = f + ring.monomial(e, ring.field.random_nonzero(rng))
        gens.append(f)
    return gens


def variants(gens, field, rng):
    """Rescaled, reordered and duplicated generator lists of the same ideal."""
    rescaled = [g.scale(field.random_nonzero(rng)) for g in gens]
    reordered = list(reversed(gens))
    rng.shuffle(reordered)
    duplicated = gens + [gens[0], gens[-1].scale(field.random_nonzero(rng)), gens[0].ring.zero()]
    return rescaled, reordered, duplicated


@pytest.mark.parametrize("seed, field", enumerate(FIELDS), ids=[repr(f) for f in FIELDS])
def test_memo_matches_uncached_core(seed, field):
    rng = random.Random(seed)
    ring = poly_ring(("x", "y", "z"), field)
    for _ in range(12):
        gens = random_gens(ring, rng)
        basis = buchberger(gens)
        assert basis == cold(gens)
        for other in variants(gens, field, rng):
            again = buchberger(other)
            assert again is basis  # a memo hit hands back the stored tuple
            assert again == cold(other)


def test_orders_do_not_collide():
    r = poly_ring(("x", "y", "z"))
    e = r.with_order(MonomialOrder.elimination(3, (0,)))
    x, y, z = r.gens()
    gens = [x - y * y, x * z - y]
    egens = [Polynomial(e, dict(g.coeffs)) for g in gens]
    gb, egb = buchberger(gens), buchberger(egens)
    assert gb == cold(gens) and egb == cold(egens)
    assert all(g.ring == r for g in gb) and all(g.ring == e for g in egb)
    assert {frozenset(g.coeffs.items()) for g in gb} != {
        frozenset(g.coeffs.items()) for g in egb
    }


@pytest.mark.parametrize("weighted_first", [False, True], ids=["degrevlex first", "weighted first"])
def test_weight_orders_do_not_collide(weighted_first):
    # same names and generators: weight 2 on z makes z lead x^2 - z, degrevlex x^2
    r = poly_ring(("x", "y", "z"))
    w = r.with_order(MonomialOrder.weighted(3, (0, 0, 2)))
    w2 = r.with_order(MonomialOrder.weighted(3, (0, 1, 2)))
    x, y, z = r.gens()
    gens = [x * x - z, x * y - y * y * z]
    groebner._memo.clear()
    rings = (w, w2, r) if weighted_first else (r, w, w2)
    bases = {}
    for ring in rings:
        moved = [Polynomial(ring, dict(g.coeffs)) for g in gens]
        bases[ring] = buchberger(moved)
        assert bases[ring] == cold(moved)
        assert all(g.ring == ring for g in bases[ring])
    assert len(groebner._memo) == 3
    assert (2, 0, 0) in [g.leading_monomial() for g in bases[r]]
    assert (0, 0, 1) in [g.leading_monomial() for g in bases[w]]
    flat = [{frozenset(g.coeffs.items()) for g in bases[ring]} for ring in (r, w, w2)]
    assert flat[0] != flat[1] and flat[0] != flat[2]
    assert len({r.key(), w.key(), w2.key()}) == 3
    assert r != w and w != w2 and hash(r) != hash(w)
    assert "w=(0, 0, 2)" in repr(w)


def test_fields_do_not_collide():
    # same integer coefficients, so the same generator keys; 3 = 0 in fp(3)
    # turns x + 3z into x
    bases = {}
    for field in (PrimeField(3), PrimeField(32003), QQ):
        r = poly_ring(("x", "y", "z"), field)
        x, y, z = r.gens()
        gens = [x + 2 * y + z, x + y + 2 * z]
        bases[repr(field)] = buchberger(gens)
        assert bases[repr(field)] == cold(gens)
        assert all(g.ring.field == field for g in bases[repr(field)])
    assert [repr(g) for g in bases["fp(3)"]] == ["y + 2*z", "x"]
    assert [repr(g) for g in bases["fp(32003)"]] == ["y + 32002*z", "x + 3*z"]
    assert [repr(g) for g in bases["qq"]] == ["y - z", "x + 3*z"]


def test_memo_is_bounded_and_keeps_recent_inputs():
    r = poly_ring(("x", "y"))
    y = r.var(1)
    cap = groebner._MEMO_CAP
    kept = buchberger([y])
    oldest_input = [r.monomial((1, 0)), y * y]
    oldest = buchberger(oldest_input)
    for i in range(cap):
        buchberger([r.monomial((i + 2, 0)), y * y])
        if i == cap // 2:
            assert buchberger([y]) is kept
    assert len(groebner._memo) == cap
    assert buchberger([y]) is kept
    again = buchberger(oldest_input)
    assert again is not oldest and again == oldest


def test_mixed_rings_rejected_for_monomials():
    # used to return monomials of the first ring
    x = poly_ring(("x", "y")).var(0)
    y3 = poly_ring(("x", "y"), PrimeField(3)).var(1)
    with pytest.raises(ValueError, match="different rings"):
        buchberger([x, y3])
    x3 = poly_ring(("x", "y"), PrimeField(3)).var(0)
    buchberger([x])
    with pytest.raises(ValueError, match="different rings"):
        buchberger([x, x3])  # equal generator keys: neither dedup nor a hit may hide it


def test_mixed_rings_rejected_for_polynomials():
    r = poly_ring(("x", "y"))
    e = r.with_order(MonomialOrder.elimination(2, (0,)))
    x, y = r.gens()
    ex, ey = e.gens()
    # used to raise only once the cross-ring S-pair was reduced
    with pytest.raises(ValueError, match="different rings"):
        buchberger([x * x + y, ex * ey + ey])
    # coprime leads x and y^2: no S-pair is reduced, so this used to pass
    with pytest.raises(ValueError, match="different rings"):
        buchberger([x + y, ey * ey + ey])


def test_rational_multiples_share_one_entry():
    """Over qq the key is the primitive integer form: generators with large
    denominators, contents above 1 and either sign of lead, given again as
    rational multiples, hit the entry their first call made."""
    rng = random.Random(26)
    ring = poly_ring(("x", "y", "z"), QQ)
    groebner._memo.clear()
    for _ in range(8):
        gens = [
            g.scale(Fraction(rng.choice((-1, 1)) * rng.randint(2, 12) * rng.randint(1, 10**6),
                             rng.randint(1, 10**6)))
            for g in random_gens(ring, rng)
        ]
        basis = buchberger(gens)
        assert basis == cold(gens)
        assert all(g.leading_coeff() == 1 for g in basis)
        # built afresh: scale would hand each multiple its generator's cached key
        multiples = []
        for g in gens:
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
            multiples.append(Polynomial(ring, {e: c * q for e, c in g.coeffs.items()}))
        assert [g.key() for g in multiples] == [g.key() for g in gens]
        assert all(hash(a) == hash(b) for a, b in zip(multiples, gens))
        assert buchberger(multiples) is basis
        assert buchberger(list(reversed(multiples)) + gens) is basis
    assert len(groebner._memo) == 8
    # equal generators collapse in an ideal, multiples stay apart
    g = gens[0]
    again = Polynomial(ring, dict(g.coeffs))
    assert PolyIdeal(ring, [g, again, multiples[0]]).gens == (g, multiples[0])


def test_keys_are_integer_and_primitive():
    """A key scales the coefficients so that the term of largest exponent
    has 1 over fp(p), and over qq is the primitive integer form with that
    term positive."""
    ring = poly_ring(("x", "y"), QQ)
    x, y = ring.gens()
    f = 6 * x * x - 4 * x * y + 10 * y
    assert f.key() == ((0, 1), 5, (1, 1), -2, (2, 0), 3)
    assert f.scale(Fraction(-7, 3)).key() == f.key()
    assert (-f).key() == f.scale(Fraction(1, 999983)).key() == f.key()
    # the largest exponent, (2, 0), keeps the positive coefficient
    assert (f - 12 * x * x).key() == ((0, 1), -5, (1, 1), 2, (2, 0), 3)
    fp = poly_ring(("x", "y"), PrimeField(7))
    u, v = fp.gens()
    assert (3 * u * u + v).key() == ((0, 1), 5, (2, 0), 1)
    assert fp.zero().key() == () and hash(fp.zero()) == hash(())
