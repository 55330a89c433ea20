import math
import random

import pytest

from gradmult import PolyIdeal, hilbert, hilbert_data, poly_ring
from gradmult.monomials import mono_divides, monomials_of_degree
from reference_fc import shifted_series_difference
from reference_hilbert import expand


def test_free_ring():
    r = poly_ring(("x", "y"))
    h = hilbert_data(PolyIdeal(r, []))
    assert h.numerator == (1,)
    assert h.dimension == 2
    assert h.multiplicity == 1
    assert [h.hilbert_function(m) for m in range(4)] == [1, 2, 3, 4]


def test_monomial_relations_curve():
    # standard monomials 1; X, Y; Y^2; Y^3; ... so HF is 1, 2, 1, 1, ...
    r = poly_ring(("X", "Y"))
    X, Y = r.gens()
    h = hilbert_data(PolyIdeal(r, [X * Y, X * X]))
    assert h.numerator == (1, 1, -1)
    assert h.dimension == 1
    assert h.multiplicity == 1
    assert [h.hilbert_function(m) for m in range(5)] == [1, 2, 1, 1, 1]


def test_hypersurface():
    r = poly_ring(("x", "y", "z"))
    x, y, z = r.gens()
    h = hilbert_data(PolyIdeal(r, [y * y * z - x**3]))
    assert h.numerator == (1, 1, 1)
    assert h.dimension == 2
    assert h.multiplicity == 3


def test_artinian_counts_total_dimension():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    I = PolyIdeal(r, [x * x, x * y, y**3])
    h = hilbert_data(I)
    assert h.dimension == 0
    assert h.multiplicity == I.k_dimension() == 4


def test_rejects_non_homogeneous():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    with pytest.raises(ValueError):
        hilbert_data(PolyIdeal(r, [x + y * y]))


def test_rejects_unit_ideal():
    r = poly_ring(("x",))
    with pytest.raises(ValueError):
        hilbert_data(PolyIdeal(r, [r.one()]))


def test_hilbert_function_matches_standard_monomial_count():
    r = poly_ring(("x", "y", "z"))
    x, y, z = r.gens()
    I = PolyIdeal(r, [x * y - z * z, x**3])
    h = hilbert_data(I)
    leads = I.leading_monomials()
    for m in range(9):
        free = sum(
            1
            for mono in monomials_of_degree(3, m)
            if not any(mono_divides(l, mono) for l in leads)
        )
        assert h.hilbert_function(m) == free


def test_binomial_tail_formula():
    # for the zero ideal HF(m) = C(m + n - 1, n - 1)
    r = poly_ring(("a", "b", "c", "d"))
    h = hilbert_data(PolyIdeal(r, []))
    for m in range(6):
        assert h.hilbert_function(m) == math.comb(m + 3, 3)


def test_numerator_memo_serves_repeats(monkeypatch):
    computed = []
    numerator = hilbert.multigraded_numerator

    def counting(gens, degrees):
        computed.append(gens)
        return numerator(gens, degrees)

    monkeypatch.setattr(hilbert, "multigraded_numerator", counting)
    hilbert.leading_series.cache_clear()
    r = poly_ring(("x", "y", "z"))
    x, y, z = r.gens()
    # a complete intersection of degrees 2, 3, 4: colength 24
    I = PolyIdeal(r, [x * y - z * z, x**3, y**4])
    assert I.k_dimension() == 24
    first = len(computed)
    assert first > 1  # the pivot recursion ran
    # the same leading ideal through every reader: no new computation
    J = PolyIdeal(r, [x**3, x * y - z * z, y**4])
    assert J.krull_dimension() == 0 and J.k_dimension() == 24
    assert hilbert_data(I).multiplicity == 24
    assert len(computed) == first
    num, d = hilbert.leading_series(I.leading_monomials(), 3)
    assert isinstance(num, tuple) and d == 0 and sum(num) == 24
    assert len(computed) == first
    # another n is another input: the same leads with one more free variable
    assert hilbert.leading_series(I.leading_monomials(), 4) == (num, 1)
    assert len(computed) > first


def test_series_difference_against_the_shifted_sums():
    rng = random.Random(21)
    r = poly_ring(("x", "y", "z"))
    x, y, z = r.gens()
    monos = [m for d in (1, 2, 3) for m in monomials_of_degree(3, d)]

    def ideal(extra):
        gens = [r.monomial(rng.choice(monos)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(monos, 2)
            if sum(a) == sum(b):
                gens.append(r.monomial(a) - 2 * r.monomial(b))
        return PolyIdeal(r, gens + extra)

    for _ in range(40):
        # both quotients finite-dimensional, so the difference is a polynomial
        power = [r.monomial(m) for m in monomials_of_degree(3, rng.randint(2, 4))]
        a, b = ideal(power), ideal(power)
        got = hilbert.series_difference(a, b)
        assert expand(got, 0, 3) == shifted_series_difference(((a, 0),), ((b, 0),))
        assert not got or got[-1]
        assert hilbert.series_difference(b, a) == [-v for v in got]
    # the unit ideal counts as zero
    unit = PolyIdeal(r, [r.one()])
    plane = PolyIdeal(r, [x, y, z * z])
    assert hilbert.series_difference(unit, plane) == [-1, -1]
    # k[z] and k[y, z] differ in infinitely many degrees
    with pytest.raises(ArithmeticError, match="infinitely many"):
        hilbert.series_difference(PolyIdeal(r, [x]), PolyIdeal(r, [x, y]))
