"""Bhattacharya layer lengths off one multi-Rees presentation against the two
routes they replaced.

`mixed_rees._bhattacharya_columns` counts l(m^a K / m^(a+1) K), K a product
of ideal powers, as the standard monomials of one block degree and one
x-degree of S[I_1 t_1, .., I_s t_s].  The references form K per column and
read its layers off the per-point products m^a K and m^(a+1) K, and off one
Hilbert series per generator degree (`tests/reference_layers.py`).  All
three must give the same length in every cell, over small and large prime
fields and qq, with no relation, in the cusp y^2 z - x^3 and in a quotient
that is not a domain, for equigenerated and mixed-degree ideals, products
of two ideals, and graded ideals given by inhomogeneous generators.
"""

import random

import pytest

from gradmult import QQ, AlgIdeal, PrimeField, make_algebra, mixed_rees, poly_ring
from gradmult.groebner import PolyIdeal
from gradmult.hilbert import hilbert_data
from gradmult.mixed_rees import _bhattacharya_columns, bhattacharya_oracle

from conftest import random_poly, regenerate
from reference_layers import (
    reference_columns,
    reference_layer_lengths,
    series_layer_lengths,
)

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
    """(name, ideals, axes) triples: equigenerated, mixed-degree, products of
    two ideals, and inhomogeneous generators of a graded ideal, one ideal up
    to its square; seeded forms collapse in the fat line, so two fixed ideals
    in the first two variables join."""
    u, w = algebra.gens()[:2]
    fixed = AlgIdeal(algebra, [u + w * w, w * w])
    equi = forms(algebra, rng, (2, 2))
    mixed = forms(algebra, rng, (1, 2, 3))
    other = forms(algebra, rng, (1, 2))
    powers, pair = [range(1, 3)], [(1,), (1,)]
    out = [
        ("fixed-inhomogeneous", [fixed], powers),
        ("fixed-product", [fixed, AlgIdeal(algebra, [u + w, w * w * w])], pair),
        ("equigenerated", [equi], powers),
        ("mixed", [mixed], [(1,)]),
        ("product", [mixed, other], pair),
        ("inhomogeneous", [regenerate(mixed, rng)], [(1,)]),
        ("inhomogeneous^2", [regenerate(mixed, rng)], [(2,)]),
    ]
    return [case for case in out if all(I.is_proper() for I in case[1])]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("make", [free, cusp, fat_line])
def test_layer_lengths_match_reference(field, make):
    algebra = make(field)
    rng = random.Random(f"{make.__name__}-{field!r}")
    seen_inhomogeneous = False
    for name, ideals, axes in cases(algebra, rng):
        seen_inhomogeneous |= any(not g.rep.is_homogeneous() for I in ideals for g in I.gens)
        columns = _bhattacharya_columns(ideals, N0S, axes)
        assert columns == reference_columns(ideals, N0S, axes), name
        assert columns == reference_columns(ideals, N0S, axes, series_layer_lengths), name
    # ns = 0: K is the unit ideal, S itself
    u, w = algebra.gens()[:2]
    unit = AlgIdeal(algebra, (algebra.one(),))
    columns = _bhattacharya_columns([AlgIdeal(algebra, [u, w])], range(1, 4), [(0,)])
    assert columns[(0,)] == reference_layer_lengths(algebra, unit, range(1, 4))
    assert columns[(0,)] == series_layer_lengths(algebra, unit, range(1, 4))
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
    I = AlgIdeal(algebra, [x * x + y, x * x, x * y + z])
    K = I.power(2)
    assert K.is_homogeneous()
    assert _bhattacharya_columns([I], (1,), [(2,)]) == {(2,): {1: 7}}
    assert series_layer_lengths(algebra, K, (1,)) == {1: 7}
    assert reference_layer_lengths(algebra, K, (1,)) == {1: 7}
    assert top_degree_split(algebra, K, 1) == 15


def test_oracle_table_matches_reference_route(monkeypatch):
    algebra = cusp(PrimeField(32003))
    x, y, z = algebra.gens()
    ideals = [AlgIdeal(algebra, [x * x + y, x * x, x * y + z]), AlgIdeal(algebra, [x, z])]
    ranges = {"n0_range": (1, 3), "n_ranges": ((1, 2), (1, 2))}
    table = bhattacharya_oracle(ideals, **ranges)
    built = []

    def reference(ideals, n0s, axes):
        columns = reference_columns(ideals, n0s, axes)
        built.append(columns)
        return columns

    monkeypatch.setattr(mixed_rees, "_bhattacharya_columns", reference)
    reference_table = bhattacharya_oracle(ideals, **ranges)
    assert len(built) == 1 and len(built[0]) == 4
    assert table.entries == reference_table.entries
    assert table.fit_points == reference_table.fit_points


def test_oracle_forms_no_product(monkeypatch):
    # the heavy mixed-table ideal: every column comes off one presentation,
    # so no power of I and no product with a power of m is formed
    S = make_algebra(poly_ring(("x", "y", "z"), PrimeField(32003)))
    x, y, z = S.gens()
    I = AlgIdeal(S, [x * x, y * y, z * z, x * y, y * z])
    products = []
    times = AlgIdeal.times

    def counted(self, other):
        products.append(other)
        return times(self, other)

    monkeypatch.setattr(AlgIdeal, "times", counted)
    table = bhattacharya_oracle([I])
    assert products == []
    assert table.entries == {(2, 0): 1, (1, 1): 2, (0, 2): 4}
