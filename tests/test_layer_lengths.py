"""Bhattacharya layer lengths from one Hilbert series per generator degree
against the per-point products they replaced.

`mixed_rees._layer_lengths` reads l(m^a K / m^(a+1) K) off the Hilbert series
of P + (components of K's generators up to each degree); the reference forms
m^a K and m^(a+1) K for every a.  Both must give the same length in every
cell, over small and large prime fields and qq, with no relation, in the cusp
y^2 z - x^3 and in a quotient that is not a domain, for equigenerated and
mixed-degree ideals, products of two ideals, and graded ideals given by
inhomogeneous generators.
"""

import random

import pytest

from gradmult import QQ, AlgIdeal, PrimeField, make_algebra, mixed_rees, poly_ring
from gradmult.groebner import PolyIdeal
from gradmult.hilbert import hilbert_data
from gradmult.mixed_rees import _layer_lengths, bhattacharya_oracle

from conftest import random_poly, regenerate
from reference_layers import reference_layer_lengths

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
N0S = range(0, 3)


def free(field):
    return make_algebra(poly_ring(("x", "y", "z"), field))


def cusp(field):
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    return make_algebra(ring, [y * y * z - x**3])


def fat_line(field):
    # k[X,Y]/(XY, X^2): one-dimensional, not a domain
    ring = poly_ring(("X", "Y"), field)
    X, Y = ring.gens()
    return make_algebra(ring, [X * Y, X * X])


def forms(algebra, rng, degrees):
    """One seeded form of each given degree, as an ideal of the algebra."""
    ring = algebra.ring
    return AlgIdeal(algebra, [random_poly(ring, rng, degree=d) for d in degrees])


def cases(algebra, rng):
    """(name, K) pairs: equigenerated, mixed-degree, a product of two ideals,
    and inhomogeneous generators of a graded ideal; seeded forms collapse
    in the fat line, so two fixed ideals in the first two variables join."""
    u, w = algebra.gens()[:2]
    fixed = AlgIdeal(algebra, [u + w * w, w * w])
    equi = forms(algebra, rng, (2, 2))
    mixed = forms(algebra, rng, (1, 2, 3))
    other = forms(algebra, rng, (1, 2))
    out = [
        ("fixed-inhomogeneous", fixed),
        ("fixed-product", fixed.times(AlgIdeal(algebra, [u + w, w * w * w]))),
        ("equigenerated", equi),
        ("equigenerated^2", equi.power(2)),
        ("mixed", mixed),
        ("product", mixed.times(other)),
        ("inhomogeneous", regenerate(mixed, rng)),
        ("inhomogeneous^2", regenerate(mixed, rng).power(2)),
    ]
    return [(name, K) for name, K in out if K.is_proper()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("make", [free, cusp, fat_line])
def test_layer_lengths_match_reference(field, make):
    algebra = make(field)
    rng = random.Random(f"{make.__name__}-{field!r}")
    seen_inhomogeneous = False
    for name, K in cases(algebra, rng):
        seen_inhomogeneous |= any(not g.rep.is_homogeneous() for g in K.gens)
        assert _layer_lengths(algebra, K, N0S) == reference_layer_lengths(algebra, K, N0S), name
    unit = AlgIdeal(algebra, (algebra.one(),))
    assert _layer_lengths(algebra, unit, range(1, 4)) == reference_layer_lengths(
        algebra, unit, range(1, 4)
    )
    assert seen_inhomogeneous


def top_degree_split(algebra, K, a):
    """The identity applied to whole generators grouped by top degree: wrong
    when a generator is not homogeneous."""
    parts = {}
    for g in K.gens:
        parts.setdefault(g.rep.degree(), []).append(g.rep)
    L = algebra.defining
    before = algebra.hilbert.hilbert_function
    total = 0
    for s in sorted(parts):
        L = PolyIdeal(algebra.ring, L.groebner() + tuple(parts[s]))
        after = hilbert_data(L).hilbert_function
        total += before(a + s) - after(a + s)
        before = after
    return total


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inhomogeneous_generators_are_split_into_components(field):
    # (x^2 + y, x^2, xy + z) is the graded ideal (y, x^2, z) mod the cusp; the
    # generators of its square all have top degree 4, so grouping them whole
    # reads the layer of K itself, not of m K
    algebra = cusp(field)
    x, y, z = algebra.gens()
    K = AlgIdeal(algebra, [x * x + y, x * x, x * y + z]).power(2)
    assert K.is_homogeneous()
    assert _layer_lengths(algebra, K, (1,)) == {1: 7}
    assert reference_layer_lengths(algebra, K, (1,)) == {1: 7}
    assert top_degree_split(algebra, K, 1) == 15


def test_oracle_table_matches_reference_route(monkeypatch):
    algebra = cusp(PrimeField(32003))
    x, y, z = algebra.gens()
    ideals = [AlgIdeal(algebra, [x * x + y, x * x, x * y + z]), AlgIdeal(algebra, [x, z])]
    ranges = {"n0_range": (1, 3), "n_ranges": ((1, 2), (1, 2))}
    table = bhattacharya_oracle(ideals, **ranges)
    monkeypatch.setattr(mixed_rees, "_layer_lengths", reference_layer_lengths)
    reference = bhattacharya_oracle(ideals, **ranges)
    assert table.entries == reference.entries
    assert table.fit_points == reference.fit_points
