"""The tangent cone against the per-k colengths and per-degree slices it replaced.

For every k <= 7 the partial sum below k of the tangent cone's Hilbert
function must equal dim k[x]/(J + (x)^k) computed from a fresh basis, and
for a non-homogeneous J the degree-n part of the cone must be spanned by the
degree-n initial forms of J, read off a fresh basis of J + (x)^(n+1).
"""

import random
from math import comb

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
from conftest import random_poly
from reference_colength import adic_colength
from reference_slices import degree_slice

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
NAMES = ("x", "y", "z")
TOP = 7


def cone_hilbert_function(ideal):
    cone = ideal.tangent_cone()
    if cone.is_unit():
        return lambda n: 0
    return hilbert_data(cone).hilbert_function


def assert_lengths_match(ideal):
    """The tangent cone's lengths for k = 0..TOP equal the reference colengths."""
    hf = cone_hilbert_function(ideal)
    lengths = [sum(map(hf, range(k))) for k in range(TOP + 1)]
    reference = [adic_colength(ideal.ring, ideal.gens, k) for k in range(TOP + 1)]
    assert lengths == reference
    return lengths


def assert_pieces_span_slices(ideal):
    """The cone is homogeneous, and for n = 0..TOP its degree-n part holds the
    reference slice and has the slice's dimension."""
    cone = ideal.tangent_cone()
    assert cone.is_homogeneous()
    hf = cone_hilbert_function(ideal)
    ring = ideal.ring
    algebra = make_algebra(ring)
    for n in range(TOP + 1):
        rows = degree_slice(algebra, ideal, n)
        assert all(cone.contains(r) for r in rows)
        assert len(rows) == comb(n + ring.n - 1, n) - hf(n)


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
        assert_pieces_span_slices(ideal)
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
