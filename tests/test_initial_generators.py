"""Generators of in(I) read off one tangent cone against the per-degree slices
they replaced, and the Artin-Rees stop read off two cones against the
intersection scan it replaced.

For seeded non-homogeneous ideals over five fields, with and without
relations, P + the new generators must equal P + the reference slices, and
the length of `degseq._order_counts` must equal the scanned stop.
"""

import random

import pytest

from gradmult import (
    QQ,
    AlgIdeal,
    PolyIdeal,
    PrimeField,
    degree_sequence,
    initial_ideal,
    make_algebra,
    poly_ring,
)
from gradmult import degseq
from conftest import random_poly
from reference_slices import _stop_degree, degree_slice, reference_initial_generators

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
DRAWS = 3


def relation_sets(ring):
    x, y, z = ring.gens()
    return ([], [y * y * z - x**3], [x * y, x * x])


def assert_generators_match(ideal):
    algebra = ideal.algebra
    shrunk = ideal.times(algebra.irrelevant_ideal())
    stop = len(degseq._order_counts(ideal))
    assert stop == _stop_degree(ideal, shrunk)
    new = degseq._initial_generators(ideal, stop)
    old = reference_initial_generators(ideal, shrunk, stop)
    # the new route keeps the whole degree-(stop - 1) piece: it relies on the
    # slices of I and mI always differing there
    last = stop - 1
    assert len(degree_slice(algebra, ideal.lift, last)) > len(
        degree_slice(algebra, shrunk.lift, last)
    )
    ring = algebra.ring
    base = algebra.defining.groebner()
    assert all(g.is_homogeneous() for g in new)
    assert PolyIdeal(ring, base + tuple(new)).equals(PolyIdeal(ring, base + tuple(old)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_ideals_match_reference_slices(field):
    rng = random.Random(300 + FIELDS.index(field))
    ring = poly_ring(("x", "y", "z"), field)
    for relations in relation_sets(ring):
        S = make_algebra(ring, relations)
        drawn = 0
        while drawn < DRAWS:
            gens = [random_poly(ring, rng) for _ in range(rng.randint(1, 2))]
            ideal = AlgIdeal(S, gens)
            if ideal.is_zero() or ideal.is_homogeneous():
                continue
            drawn += 1
            assert_generators_match(ideal)


def test_counterexample_initial_ideal_is_not_the_tangent_cone(nondomain):
    # in k[X,Y]/(XY, X^2), Y(X + Y^2) = Y^3 puts Y^3 in the tangent cone of
    # I = (X + Y^2); Y^3 is the initial form of a member of mI only, so in(I)
    # keeps X alone
    X, Y = nondomain.gens()
    I = AlgIdeal(nondomain, [X + Y * Y])
    ring = nondomain.ring
    P = nondomain.defining.groebner()
    Xr, Yr = ring.gens()
    cone = I.lift.tangent_cone()
    assert cone.equals(PolyIdeal(ring, P + (Xr, Yr**3)))
    init, _ = initial_ideal(I)
    assert init.equals(AlgIdeal(nondomain, [X]))
    assert_generators_match(I)


def test_stop_far_past_the_first_orders():
    # (x + y^2, y^8) has degree sequence (1, 8), so its Artin-Rees stop is 9
    S = make_algebra(poly_ring(("x", "y"), QQ))
    x, y = S.gens()
    I = AlgIdeal(S, [x + y * y, y**8])
    assert len(degseq._order_counts(I)) == 9
    assert degree_sequence(I) == (1, 8)
