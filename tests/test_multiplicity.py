"""Length oracle, Samuel multiplicity fast paths, quotient multiplicity."""

import inspect

import pytest

import reference_quotient
from gradmult import (
    QQ,
    AlgIdeal,
    HypothesisFail,
    Inconclusive,
    NoStabilization,
    PolyIdeal,
    PrimeField,
    colength,
    make_algebra,
    poly_ring,
    quotient_multiplicity,
    samuel_fastpath_domain,
    samuel_fastpath_general,
    samuel_oracle,
)
from gradmult.multiplicity import finite_differences, stable_difference
from reference_colength import adic_colength


def test_colength(kxy):
    x, y = kxy.gens()
    assert colength(AlgIdeal(kxy, [x, y])) == 1
    # standard monomials 1, x, y, xy, y^2, xy^2
    assert colength(AlgIdeal(kxy, [x * x, y**3])) == 6
    with pytest.raises(ValueError):
        colength(AlgIdeal(kxy, [x]))


def test_finite_differences():
    assert finite_differences([1, 4, 9, 16]) == [3, 5, 7]
    assert finite_differences([7]) == []


def test_stable_difference_terminal_run():
    value, witness = stable_difference([3, 5, 7, 9, 11], 1, (1, 5))
    assert value == 2
    assert witness["run_length"] == 4
    assert witness["stable_from"] == 1


def test_stable_difference_failures():
    with pytest.raises(NoStabilization) as exc:
        stable_difference([1, 2, 4, 8, 16], 0, (1, 5))
    assert exc.value.details["differences"] == [1, 2, 4, 8, 16]
    with pytest.raises(ValueError):
        stable_difference([1, 2, 3], 1, (1, 3))


def test_samuel_oracle_irrelevant_ideal(kxy):
    x, y = kxy.gens()
    res = samuel_oracle(AlgIdeal(kxy, [x, y]))
    assert res.value == 1
    assert res.method == "finite-difference-oracle"
    assert res.window == (1, 8)
    assert res.witness["run_length"] >= 3


def test_samuel_oracle_complete_intersection(kxy):
    x, y = kxy.gens()
    assert samuel_oracle(AlgIdeal(kxy, [x * x, y**3])).value == 6


def test_samuel_oracle_window_monotone(kxy):
    x, y = kxy.gens()
    q = AlgIdeal(kxy, [x, y]).power(2)
    small = samuel_oracle(q, window=(1, 8))
    large = samuel_oracle(q, window=(1, 10))
    assert small.value == large.value == 4


def test_samuel_oracle_nondomain_principal(nondomain):
    # x = X + Y^2 has x^n = Y^(2n) for n >= 2, so the colengths grow by 2
    X, Y = nondomain.gens()
    res = samuel_oracle(AlgIdeal(nondomain, [X + Y * Y]))
    assert res.value == 2


def test_samuel_oracle_input_checks(kxy):
    x, y = kxy.gens()
    with pytest.raises(ValueError):
        samuel_oracle(AlgIdeal(kxy, []))
    with pytest.raises(ValueError):
        samuel_oracle(AlgIdeal(kxy, [kxy.one()]))
    with pytest.raises(ValueError):
        samuel_oracle(AlgIdeal(kxy, [x]))
    with pytest.raises(ValueError):
        samuel_oracle(AlgIdeal(kxy, [x, y]), window=(1, 4))


def test_fastpath_general_variables(kxy):
    x, y = kxy.gens()
    res = samuel_fastpath_general([x, y])
    assert res.value == 1
    assert res.method == "fastpath-thm-2.10"
    assert res.witness["orders"] == [1, 1]


def test_fastpath_general_matches_oracle(kxy):
    x, y = kxy.gens()
    for xs in ([x + y * y, y], [x * x, y**3]):
        fast = samuel_fastpath_general(xs)
        slow = samuel_oracle(AlgIdeal(kxy, xs))
        assert fast.value == slow.value


def test_fastpath_general_on_hypersurface(hyper):
    x, y, z = hyper.gens()
    res = samuel_fastpath_general([y + z * z, z])
    assert res.value == 3
    assert res.witness["ring_multiplicity"] == 3


def test_fastpath_general_hypothesis_fail(nondomain):
    X, Y = nondomain.gens()
    with pytest.raises(HypothesisFail) as exc:
        samuel_fastpath_general([X + Y * Y])
    assert exc.value.details["initial_quotient_dim"] == 1
    assert exc.value.details["orders"] == [1]


def test_fastpath_general_input_checks(kxy):
    x, y = kxy.gens()
    with pytest.raises(ValueError):
        samuel_fastpath_general([])
    with pytest.raises(ValueError):
        samuel_fastpath_general([x])
    with pytest.raises(ValueError):
        samuel_fastpath_general([x, kxy.zero()])
    with pytest.raises(ValueError):
        samuel_fastpath_general([x, x * y])


def test_fastpath_domain_square_of_irrelevant(kxy):
    x, y = kxy.gens()
    I = AlgIdeal(kxy, [x, y]).power(2)
    J = AlgIdeal(kxy, [x * x, y * y])
    res = samuel_fastpath_domain(I, J, domain_asserted=True)
    assert res.value == 4
    assert res.method == "fastpath-thm-2.8"
    assert res.witness["degree_sequence"] == [2, 2]
    assert res.witness["reduction_witness"] == 1
    assert samuel_oracle(I).value == 4


def test_fastpath_domain_guards(kxy):
    x, y = kxy.gens()
    I = AlgIdeal(kxy, [x, y]).power(2)
    with pytest.raises(ValueError):
        samuel_fastpath_domain(I, AlgIdeal(kxy, [x * x, y * y]))
    with pytest.raises(Inconclusive):
        samuel_fastpath_domain(I, AlgIdeal(kxy, [x * x]), domain_asserted=True)
    with pytest.raises(ValueError):
        # a reduction of itself, but three generators in dimension two
        samuel_fastpath_domain(I, I, domain_asserted=True)
    with pytest.raises(ValueError):
        samuel_fastpath_domain(
            AlgIdeal(kxy, [x]), AlgIdeal(kxy, [x]), domain_asserted=True
        )
    # a 2-generated reduction of degrees [2, 2], but e = 5: the initial
    # forms xy, y^2 are no system of parameters
    J = AlgIdeal(kxy, [x * y, y * y + x**3])
    with pytest.raises(HypothesisFail) as exc:
        samuel_fastpath_domain(J, J, domain_asserted=True)
    assert exc.value.details == {"initial_quotient_dim": 1, "orders": [2, 2]}
    assert samuel_oracle(J).value == 5


def test_quotient_multiplicity_homogeneous(kxy, hyper):
    x, y = kxy.gens()
    res = quotient_multiplicity(AlgIdeal(kxy, [x]))
    assert (res.value, res.method) == (1, "homogeneous-series")
    assert res.witness["dimension"] == 1
    assert quotient_multiplicity(AlgIdeal(kxy, [x * x])).value == 2
    whole = quotient_multiplicity(AlgIdeal(hyper, []))
    assert whole.value == 3
    assert whole.witness["dimension"] == 2


def test_quotient_multiplicity_differenced(kxy):
    # the windowed reference differences the lengths to the series' value
    x, y = kxy.gens()
    res = quotient_multiplicity(AlgIdeal(kxy, [x + y * y]))
    assert res.value == 1
    assert res.method == "homogeneous-series"
    ref = reference_quotient.quotient_multiplicity(AlgIdeal(kxy, [x + y * y]))
    assert (ref.value, ref.method) == (1, "finite-difference-oracle")


def test_quotient_multiplicity_artinian_quotient(nondomain):
    # l(S/(X + Y^2)) = 3 and the quotient is zero-dimensional
    X, Y = nondomain.gens()
    res = quotient_multiplicity(AlgIdeal(nondomain, [X + Y * Y]))
    assert res.value == 3


def test_quotient_multiplicity_artinian_window_follows_colength(hyper):
    # the local lengths read 1, 2, ..., 6, 6, 6: past the reference's old
    # default window (1, 6), so its window follows the colength; the series
    # reads the colength itself
    x, y, z = hyper.gens()
    res = quotient_multiplicity(AlgIdeal(hyper, [x + y * y, z - x * x]))
    assert res.value == 6
    assert res.witness == {"dimension": 0}
    ref = reference_quotient.quotient_multiplicity(AlgIdeal(hyper, [x + y * y, z - x * x]))
    assert (ref.value, ref.window) == (6, (1, 9))


def test_quotient_multiplicity_guards(kxy):
    x, y = kxy.gens()
    with pytest.raises(ValueError):
        quotient_multiplicity(AlgIdeal(kxy, [kxy.one()]))
    # the series route takes no window; the reference refuses a short one
    assert "window" not in inspect.signature(quotient_multiplicity).parameters
    with pytest.raises(ValueError):
        reference_quotient.quotient_multiplicity(AlgIdeal(kxy, [x + y * y]), window=(1, 3))


def test_quotient_multiplicity_unit_at_the_origin(kxy):
    # (x - 1, y) is a point away from the origin: the local quotient is zero
    x, y = kxy.gens()
    with pytest.raises(HypothesisFail, match="zero at the origin"):
        quotient_multiplicity(AlgIdeal(kxy, [x - kxy.one(), y]))


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_quotient_multiplicity_takes_the_local_dimension(field):
    # a component away from the origin raises the global dimension:
    # (x(x - 1), y(x - 1)) is the origin plus the line x = 1, and
    # (x(z - 1), y(z - 1)) is the z-axis plus the plane z = 1
    plane = make_algebra(poly_ring(("x", "y"), field))
    x, y = plane.gens()
    point = AlgIdeal(plane, [x * (x - 1), y * (x - 1)])
    res = quotient_multiplicity(point)
    assert (res.value, res.witness) == (1, {"dimension": 0})
    ref = reference_quotient.quotient_multiplicity(point)
    assert (ref.value, ref.window) == (1, (1, 6))
    space = make_algebra(poly_ring(("x", "y", "z"), field))
    x, y, z = space.gens()
    axis = AlgIdeal(space, [x * (z - 1), y * (z - 1)])
    res = quotient_multiplicity(axis)
    assert (res.value, res.witness) == (1, {"dimension": 1})
    ref = reference_quotient.quotient_multiplicity(axis)
    assert ref.value == 1
    assert ref.witness["differences"][-3:] == [1, 1, 1]


def algebra_power_colength(I, k):
    """l(S/(I + m^k)) with m^k taken from the algebra's own ideal powers,
    the generators the windowed route used before adic_colength."""
    mk = I.algebra.irrelevant_power(k)
    return PolyIdeal(I.algebra.ring, I.lift.gens + tuple(g.rep for g in mk.gens)).k_dimension()


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(32003), QQ], ids=repr)
def test_quotient_multiplicity_lengths_match_algebra_powers(field):
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    cases = [
        (make_algebra(ring, [y * y * z - x**3]), [x + y * y]),
        (make_algebra(ring, [x * y, x * x]), [x + y * y]),
        (make_algebra(ring), [x + y * y, z * z + x * y * z]),
        (make_algebra(ring), [x + y * y, z + x * y]),
    ]
    for algebra, gens in cases:
        I = AlgIdeal(algebra, gens)
        res = reference_quotient.quotient_multiplicity(I)
        lo, hi = res.window
        lengths = [algebra_power_colength(I, k) for k in range(lo, hi + 1)]
        assert lengths == [adic_colength(ring, I.lift.gens, k) for k in range(lo, hi + 1)]
        value, witness = stable_difference(lengths, I.lift.krull_dimension(), res.window)
        assert (res.value, res.witness) == (value, witness)
        assert quotient_multiplicity(I).value == value
