"""`algebra.minimal_basis`, read off the reduced bases of P + I and P + mI,
against the echelon route it replaced (`reference_minimal_basis`).

Both routes must return the same elements in the same order, or raise the
same exception with the same message, on homogeneous, non-homogeneous and
redundantly generated ideals over small and large primes and qq, in
polynomial rings and in two quotients.  The one exception: the reference
checks global generation, so on an ideal with zeros away from the origin it
raises "fail to generate", where `minimal_basis` certifies generation at the
origin.  There the basis must pass a check of its own: (P + basis) : I holds
an element with a nonzero constant term, so I lies in (basis) at the origin.
"""

import random

import pytest

from gradmult import QQ, AlgIdeal, PolyIdeal, PrimeField, make_algebra, minimal_basis, poly_ring
from conftest import four_algebras as _algebras, random_poly, regenerate
import reference_minimal_basis

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
DRAWS = 12
GLOBAL_FAILURE = (ArithmeticError, "minimal basis candidates fail to generate")


def _outcome(route, algebra, gens):
    """The reprs of the basis a route returns, or the type and message of
    what it raises; each route gets a fresh ideal, so no cached basis is
    shared."""
    try:
        return [repr(b) for b in route(AlgIdeal(algebra, gens))]
    except (ValueError, ArithmeticError) as err:
        return (type(err), str(err))


def generates_at_the_origin(algebra, gens):
    """True when (P + minimal_basis(I)) : I has a generator with a nonzero
    constant term: some u with u(0) != 0 has u I inside (basis), so I lies
    in (basis) in the local ring at the origin."""
    ideal = AlgIdeal(algebra, gens)
    spanned = PolyIdeal(
        algebra.ring,
        algebra.defining.groebner() + tuple(b.rep for b in minimal_basis(ideal)),
    )
    origin = (0,) * algebra.ring.n
    return any(origin in g.coeffs for g in spanned.colon(ideal.lift).groebner())


def assert_routes_agree(algebra, gens):
    """The outcome of minimal_basis, and whether the reference refused it
    for generating only at the origin."""
    got = _outcome(minimal_basis, algebra, gens)
    want = _outcome(reference_minimal_basis.minimal_basis, algebra, gens)
    local = want == GLOBAL_FAILURE and isinstance(got, list)
    if local:
        assert generates_at_the_origin(algebra, gens), gens
    else:
        assert got == want
    return got, local


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
    bases = errors = locals_ = 0
    for algebra in _algebras(field):
        for gens in _draws(algebra, rng):
            got, local = assert_routes_agree(algebra, gens)
            if local:
                locals_ += 1
            elif isinstance(got, list):
                bases += 1
            else:
                errors += 1
    assert bases and errors and locals_


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_irrelevant_powers_match_echelon_route(field):
    for algebra in _algebras(field):
        for k in range(1, 4):
            got, local = assert_routes_agree(algebra, algebra.irrelevant_power(k).gens)
            assert got and not local


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(2147483647), QQ], ids=repr)
def test_ideals_off_the_origin_get_their_local_basis(field):
    # each ideal has zeros away from the origin, so its candidates generate
    # it only locally: the reference, which checks global generation,
    # refuses them, and minimal_basis certifies them at the origin
    ring = poly_ring(("x", "y"), field)
    x, y = ring.gens()
    S = make_algebra(ring)
    for gens, expected in (
        # (x^2 - x, xy + x) is (x) at the origin, where x - 1 is a unit
        ([x * x - x, x * y + x], [x * y + x]),
        (
            [4 * x * x * y * y - 8 * x * y * y, -8 * x**4 * y + 4 * x**3],
            [x**3 - 64 * x * y * y, 4 * x * y**3 - x * y * y],
        ),
    ):
        assert _outcome(reference_minimal_basis.minimal_basis, S, gens) == GLOBAL_FAILURE
        got, local = assert_routes_agree(S, gens)
        assert local
        assert [b.rep for b in minimal_basis(AlgIdeal(S, gens))] == [g.monic() for g in expected]


def test_degenerate_ideals_raise_alike():
    S = _algebras(QQ)[0]
    assert assert_routes_agree(S, []) == ((ValueError, "minimal basis of the zero ideal"), False)
    assert assert_routes_agree(S, [S.one()]) == ((ValueError, "minimal basis of the unit ideal"), False)
