"""PolyIdeal.intersect on seeded homogeneous ideals, checked three ways.

The Hilbert-function identity HF(R/(A+B)) + HF(R/(A cap B)) = HF(R/A) + HF(R/B)
comes from the exact sequence 0 -> R/(A cap B) -> R/A + R/B -> R/(A+B) -> 0
and needs no elimination, so it checks intersect independently.
"""

import random

import pytest

from gradmult import (
    QQ,
    MonomialOrder,
    PolyIdeal,
    Polynomial,
    PrimeField,
    hilbert_data,
    poly_ring,
)
from gradmult.polynomials import map_vars

FIELDS = [PrimeField(2), PrimeField(32003), QQ]


def random_form(ring, degree, rng):
    """A nonzero homogeneous polynomial of the given degree with 1-3 terms."""
    f = ring.zero()
    while not f.coeffs:
        for _ in range(rng.randint(1, 3)):
            e = [0] * ring.n
            for _ in range(degree):
                e[rng.randrange(ring.n)] += 1
            f = f + ring.monomial(e, ring.field.random_nonzero(rng))
    return f


def random_ideal(ring, rng):
    count = rng.randint(1, 3)
    return PolyIdeal(ring, [random_form(ring, rng.randint(1, 3), rng) for _ in range(count)])


def tag_intersection(A, B):
    """A cap B as (t A + (1 - t) B) cap k[x], computed with eliminate."""
    ring = A.ring
    n = ring.n
    bring = ring.extended(("t",), MonomialOrder.elimination(n + 1, (n,)))
    pos = tuple(range(n))
    t = bring.var(n)
    gens = [map_vars(a, bring, pos) * t for a in A.gens]
    gens += [map_vars(b, bring, pos) * (bring.one() - t) for b in B.gens]
    eliminated = PolyIdeal(bring, gens).eliminate((n,))
    return PolyIdeal(
        ring, [Polynomial(ring, {e[:n]: c for e, c in g.coeffs.items()}) for g in eliminated.gens]
    )


@pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])
def test_intersect_on_seeded_homogeneous_ideals(field):
    rng = random.Random(repr(field))
    ring = poly_ring(("x", "y", "z"), field)
    for _ in range(6):
        A, B = random_ideal(ring, rng), random_ideal(ring, rng)
        meet = A.intersect(B)
        assert meet.is_homogeneous()
        hf = [hilbert_data(I).hilbert_function for I in (meet, A + B, A, B)]
        for deg in range(9):
            assert hf[0](deg) + hf[1](deg) == hf[2](deg) + hf[3](deg)
        assert meet.contains_ideal(A * B)
        assert A.contains_ideal(meet) and B.contains_ideal(meet)
        assert meet.equals(tag_intersection(A, B))


def test_intersect_with_zero_and_unit():
    ring = poly_ring(("x", "y"))
    x, y = ring.gens()
    A = PolyIdeal(ring, [x * y, y * y])
    assert A.intersect(PolyIdeal.zero(ring)).is_zero()
    assert A.intersect(PolyIdeal.unit(ring)).equals(A)
    xy = PolyIdeal(ring, [x]).intersect(PolyIdeal(ring, [y]))
    assert xy.equals(PolyIdeal(ring, [x * y]))
