"""`multiplicity.quotient_multiplicity`, read off the Hilbert series of the
tangent cone, against the windowed route it replaced (`reference_quotient`).

The lengths l(S/(I + m^k)) are partial sums of the cone's Hilbert function,
so the reference's d-th differences tend to the cone's multiplicity.  Both
routes must give the same value, or raise the same exception with the same
message, wherever the reference answers at the window (1, 30): on seeded
homogeneous and non-homogeneous ideals (now and then with a constant term)
over small and large primes and qq, in polynomial rings and in two
quotients.  At its default window the reference refuses some of these, or
settles on a run of three equal differences too early; the series route
answers them.
"""

import random

import pytest

import reference_quotient
from gradmult import QQ, AlgIdeal, HypothesisFail, NoStabilization, PrimeField, quotient_multiplicity
from conftest import four_algebras, random_poly

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
DRAWS = 15
WIDE = (1, 30)


def _outcome(route, algebra, gens, **window):
    """The value a route returns, or the type and message of what it raises;
    each route gets a fresh ideal, so no cached basis is shared."""
    try:
        return route(AlgIdeal(algebra, gens), **window).value
    except (ValueError, HypothesisFail) as err:
        return (type(err), str(err))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_ideals_match_the_windowed_route(field):
    rng = random.Random(3000 + FIELDS.index(field))
    values = errors = 0
    for algebra in four_algebras(field):
        ring = algebra.ring
        for _ in range(DRAWS):
            degree = rng.randint(1, 3) if rng.random() < 0.25 else None
            gens = [
                random_poly(ring, rng, degree=degree, constant=degree is None and rng.random() < 0.1)
                for _ in range(rng.randint(1, 3))
            ]
            got = _outcome(quotient_multiplicity, algebra, gens)
            want = _outcome(reference_quotient.quotient_multiplicity, algebra, gens, window=WIDE)
            assert got == want, (field, gens)
            if isinstance(got, int):
                values += 1
            else:
                errors += 1
    assert values and errors


def _cusp(field):
    return four_algebras(field)[2]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_default_window_refusals_now_answer(field):
    # in the cusp y^2 z - x^3 the differences settle after the reference's
    # default window (1, 7): it refuses, the wide window and the series agree
    S = _cusp(field)
    x, y, z = S.gens()
    for gens, value in (
        ([x * x * z + x * z * z + y * y, x * x * z + y * z * z], 1),
        ([y * z, x * z * z - x * y], 2),
        ([x * x * y + x * z + z, x * z], 2),
    ):
        with pytest.raises(NoStabilization):
            reference_quotient.quotient_multiplicity(AlgIdeal(S, gens))
        res = quotient_multiplicity(AlgIdeal(S, gens))
        assert (res.value, res.method, res.witness) == (value, "homogeneous-series", {"dimension": 1})
        assert _outcome(reference_quotient.quotient_multiplicity, S, gens, window=WIDE) == value


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_an_early_run_of_equal_differences_is_not_read(field):
    # (xyz, z^2 + x) in the cusp has the cone (x, y z^3, y^2 z, z^8): its
    # Hilbert function reads 1, 2, 3, 3, 2, 2, 2, 2, then 1 from degree 8
    # on, so the reference's default window sees the differences 2, 3, 3, 2,
    # 2, 2 and answers 2; the multiplicity is 1
    S = _cusp(field)
    x, y, z = S.gens()
    gens = [x * y * z, z * z + x]
    early = reference_quotient.quotient_multiplicity(AlgIdeal(S, gens))
    assert (early.value, early.window) == (2, (1, 7))
    assert quotient_multiplicity(AlgIdeal(S, gens)).value == 1
    assert _outcome(reference_quotient.quotient_multiplicity, S, gens, window=WIDE) == 1
