"""The order counts of `degseq._order_counts`, read off two tangent-cone
Hilbert series, against per-k colengths.

The count c_k is the first difference at k of
l(R/(P + mI + m^k)) - l(R/(P + I + m^k)), each length formed from one fresh
basis in `reference_colength.adic_colength`, and the counts are also the
sorted orders of the adjusted minimal basis that `initial_ideal` returns.
"""

import random

import pytest

from gradmult import (
    QQ, AlgIdeal, PrimeField, degree_sequence, initial_ideal, make_algebra, poly_ring,
)
from gradmult import degseq
from conftest import random_poly
from reference_colength import adic_colength

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
DRAWS = 5


def assert_counts_match(ideal):
    """Check the counts against the colengths, then against the orders of the
    adjusted basis; False when `minimal_basis` refuses the ideal."""
    algebra = ideal.algebra
    ring = algebra.ring
    counts = degseq._order_counts(ideal)
    stop = len(counts)
    shrunk = ideal.times(algebra.irrelevant_ideal())
    gap = [
        adic_colength(ring, shrunk.lift.gens, k) - adic_colength(ring, ideal.lift.gens, k)
        for k in range(stop + 2)
    ]
    assert counts + [0] == [b - a for a, b in zip(gap, gap[1:])]
    try:
        _, basis = initial_ideal(ideal)
    except ArithmeticError as err:
        # minimal_basis checks generation globally, though Nakayama promises
        # it only at the origin
        assert str(err) == "minimal basis candidates fail to generate"
        return False
    assert sorted(b.order for b in basis) == [n for n, c in enumerate(counts) for _ in range(c)]
    return True


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_ideals_match_colength_differences(field):
    rng = random.Random(500 + FIELDS.index(field))
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    ordered = 0
    for relations in ([], [y * y * z - x**3], [x * y, x * x]):
        S = make_algebra(ring, relations)
        drawn = 0
        while drawn < DRAWS:
            ideal = AlgIdeal(S, [random_poly(ring, rng) for _ in range(rng.randint(1, 2))])
            if ideal.is_zero():
                continue
            drawn += 1
            ordered += assert_counts_match(ideal)
    assert ordered


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_counterexample_counts(field):
    # in k[X,Y]/(XY, X^2) the cone of I = (X + Y^2) holds Y^3, which comes
    # from mI only: one generator, of order 1
    ring = poly_ring(("X", "Y"), field)
    X, Y = ring.gens()
    S = make_algebra(ring, [X * Y, X * X])
    I = AlgIdeal(S, [X + Y * Y])
    assert degseq._order_counts(I) == [0, 1]
    assert assert_counts_match(I)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_product_with_m_per_degree_sequence(field, monkeypatch):
    # the order counts and the minimal basis read one kept mI
    products = []
    times = AlgIdeal.times

    def counted(self, other):
        if other is self.algebra.irrelevant_ideal():
            products.append(self)
        return times(self, other)

    monkeypatch.setattr(AlgIdeal, "times", counted)
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    for relations, gens in (
        ([], [x * x, y * y, x * z + y * z]),
        ([], [x + y * y, z**3 - x * y]),
        ([y * y * z - x**3], [y, x + z]),
        ([x * y, x * x], [x + y * y]),
    ):
        ideal = AlgIdeal(make_algebra(ring, relations), gens)
        products.clear()
        degree_sequence(ideal)
        assert len(products) == 1 and products[0] is ideal
        assert ideal.times_irrelevant() is ideal.times_irrelevant()
        assert len(products) == 1
