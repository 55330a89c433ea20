"""Tangent-cone lengths against the per-k colength they replaced.

For every k <= 7 the partial sum below k of the tangent cone's Hilbert
function must equal dim k[x]/(J + (x)^k) computed from a fresh basis.
"""

import random

import pytest

from gradmult import (
    QQ,
    AlgIdeal,
    PolyIdeal,
    PrimeField,
    hilbert_data,
    make_algebra,
    poly_ring,
    rees_presentation,
)
from reference_colength import adic_colength

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
NAMES = ("x", "y", "z")
TOP = 7


def assert_lengths_match(ideal):
    """The tangent cone's lengths for k = 0..TOP equal the reference colengths."""
    cone = ideal.tangent_cone()
    if cone.is_unit():
        lengths = [0] * (TOP + 1)
    else:
        hf = hilbert_data(cone).hilbert_function
        lengths = [sum(map(hf, range(k))) for k in range(TOP + 1)]
    reference = [adic_colength(ideal.ring, ideal.gens, k) for k in range(TOP + 1)]
    assert lengths == reference
    return lengths


def random_poly(ring, rng, degree=None, constant=False):
    """A few terms with exponents at most 2, all of total degree `degree` when
    given; a constant term only when asked for."""
    f = ring.zero()
    while not f.coeffs:
        for _ in range(rng.randint(1, 3)):
            e = [0] * ring.n
            target = degree if degree is not None else rng.randint(1, 3)
            while sum(e) < target:
                i = rng.randrange(ring.n)
                if e[i] < 2:
                    e[i] += 1
            f = f + ring.monomial(e, ring.field.random_nonzero(rng))
    if constant:
        f = f + ring.constant(ring.field.random_nonzero(rng))
    return f


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_homogeneous_ideal_is_its_own_tangent_cone(field):
    rng = random.Random(FIELDS.index(field))
    ring = poly_ring(NAMES, field)
    for _ in range(4):
        degree = rng.randint(1, 3)
        ideal = PolyIdeal(ring, [random_poly(ring, rng, degree) for _ in range(rng.randint(1, 3))])
        assert ideal.tangent_cone() is ideal
        assert_lengths_match(ideal)
    zero = PolyIdeal.zero(ring)
    assert zero.tangent_cone() is zero


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_non_homogeneous_ideals(field):
    rng = random.Random(100 + FIELDS.index(field))
    ring = poly_ring(NAMES, field)
    drawn = 0
    while drawn < 8:
        gens = [random_poly(ring, rng) for _ in range(rng.randint(1, 3))]
        gens[0] = gens[0] + random_poly(ring, rng, constant=rng.random() < 0.05)
        ideal = PolyIdeal(ring, gens)
        if ideal.is_homogeneous():
            continue
        drawn += 1
        assert all(g.is_term() for g in ideal.tangent_cone().gens)
        assert_lengths_match(ideal)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_ideals_with_relations(field):
    rng = random.Random(200 + FIELDS.index(field))
    ring = poly_ring(NAMES, field)
    x, y, z = ring.gens()
    for relations in ([y * y * z - x**3], [x * y, x * x], [x * z - y * y]):
        S = make_algebra(ring, relations)
        gens = [random_poly(ring, rng) for _ in range(rng.randint(1, 2))]
        assert_lengths_match(AlgIdeal(S, gens).lift)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_point_off_the_origin(field):
    # (x^2 - x, y) is the origin and (1, 0): only the origin counts
    ring = poly_ring(("x", "y"), field)
    x, y = ring.gens()
    ideal = PolyIdeal(ring, [x * x - x, y])
    assert assert_lengths_match(ideal) == [0, 1, 1, 1, 1, 1, 1, 1]
    assert ideal.k_dimension() == 2


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_unit_at_the_origin(field):
    ring = poly_ring(("x", "y"), field)
    x, y = ring.gens()
    ideal = PolyIdeal(ring, [x - ring.one(), y])
    assert ideal.tangent_cone().is_unit()
    assert assert_lengths_match(ideal) == [0] * (TOP + 1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rees_presentations(field):
    ring = poly_ring(("x", "y"), field)
    S = make_algebra(ring)
    x, y = S.gens()
    for gens in ([x, y**3], [x * x, y**3]):
        rees = rees_presentation(AlgIdeal(S, gens)).rees_ideal
        assert not rees.is_homogeneous()
        assert_lengths_match(rees)
