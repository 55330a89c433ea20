"""`algebra.minimal_basis`, read off the reduced bases of P + I and P + mI,
against the echelon route it replaced (`reference_minimal_basis`).

Both routes must return the same elements in the same order, or raise the
same exception with the same message, on homogeneous, non-homogeneous and
redundantly generated ideals over small and large primes and qq, in
polynomial rings and in two quotients.
"""

import random

import pytest

from gradmult import QQ, AlgIdeal, PrimeField, make_algebra, minimal_basis, poly_ring
from conftest import four_algebras as _algebras, random_poly, regenerate
import reference_minimal_basis

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
DRAWS = 12


def _outcome(route, algebra, gens):
    """The reprs of the basis a route returns, or the type and message of
    what it raises; each route gets a fresh ideal, so no cached basis is
    shared."""
    try:
        return [repr(b) for b in route(AlgIdeal(algebra, gens))]
    except (ValueError, ArithmeticError) as err:
        return (type(err), str(err))


def assert_routes_agree(algebra, gens):
    got = _outcome(minimal_basis, algebra, gens)
    assert got == _outcome(reference_minimal_basis.minimal_basis, algebra, gens)
    return got


def _draws(algebra, rng):
    """Seeded generating sets: homogeneous, non-homogeneous (now and then
    with a constant term), and a homogeneous or non-homogeneous ideal
    regenerated with a redundant product of its generators added."""
    ring = algebra.ring
    for _ in range(DRAWS):
        d = rng.randint(1, 3)
        yield [random_poly(ring, rng, degree=d) for _ in range(rng.randint(1, 3))]
        yield [
            random_poly(ring, rng, constant=rng.random() < 0.15)
            for _ in range(rng.randint(1, 3))
        ]
        degree = rng.choice([None, rng.randint(1, 2)])
        gens = [random_poly(ring, rng, degree=degree) for _ in range(rng.randint(1, 3))]
        ideal = AlgIdeal(algebra, gens)
        if ideal.is_zero():
            continue
        mixed = regenerate(ideal, rng).gens
        v = rng.choice(ring.gens())
        yield [*mixed, mixed[0] * v + mixed[-1] * mixed[0]]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_seeded_ideals_match_echelon_route(field):
    rng = random.Random(2000 + FIELDS.index(field))
    bases = errors = 0
    for algebra in _algebras(field):
        for gens in _draws(algebra, rng):
            got = assert_routes_agree(algebra, gens)
            if isinstance(got, list):
                bases += 1
            else:
                errors += 1
    assert bases and errors


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_irrelevant_powers_match_echelon_route(field):
    for algebra in _algebras(field):
        for k in range(1, 4):
            assert assert_routes_agree(algebra, algebra.irrelevant_power(k).gens)


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(2147483647), QQ], ids=repr)
def test_ideals_off_the_origin_still_fail_to_generate(field):
    # generation is checked globally, but each ideal has zeros
    # away from the origin, so the candidates generate it only locally
    ring = poly_ring(("x", "y"), field)
    x, y = ring.gens()
    S = make_algebra(ring)
    failure = (ArithmeticError, "minimal basis candidates fail to generate")
    for gens in (
        [x * x - x, x * y + x],
        [4 * x * x * y * y - 8 * x * y * y, -8 * x**4 * y + 4 * x**3],
    ):
        assert assert_routes_agree(S, gens) == failure


def test_degenerate_ideals_raise_alike():
    S = _algebras(QQ)[0]
    assert assert_routes_agree(S, []) == (ValueError, "minimal basis of the zero ideal")
    assert assert_routes_agree(S, [S.one()]) == (ValueError, "minimal basis of the unit ideal")
