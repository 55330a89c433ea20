"""Colengths and Krull dimensions from the Hilbert numerator, against the
combinatorial routes they replaced: a standard-monomial DFS and a search over
variable subsets, both reading the same leading monomials."""

import itertools
import random

import pytest

from gradmult import INFINITE, QQ, MonomialOrder, PolyIdeal, PrimeField, poly_ring
from gradmult.monomials import mono_divides

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
ORDERS = [
    MonomialOrder.degrevlex(3),
    MonomialOrder.elimination(3, (0,)),
    MonomialOrder.elimination(3, (1, 2)),
]


def reference_k_dimension(leads, n):
    """Count standard monomials by DFS; INFINITE unless every variable has a
    pure power among the leads."""
    zero = (0,) * n
    if zero in leads:
        return 0
    for i in range(n):
        if not any(m[i] > 0 and sum(m) == m[i] for m in leads):
            return INFINITE
    count = 0
    seen = {zero}
    stack = [zero]
    while stack:
        m = stack.pop()
        count += 1
        for i in range(n):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1:]
            if m2 in seen:
                continue
            seen.add(m2)
            if not any(mono_divides(l, m2) for l in leads):
                stack.append(m2)
    return count


def reference_krull_dimension(leads, n):
    """Largest set of variables containing the support of no lead; -1 for the unit ideal."""
    if (0,) * n in leads:
        return -1
    supports = {frozenset(i for i, e in enumerate(m) if e) for m in leads}
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if not any(s <= set(combo) for s in supports):
                return size
    return 0


def random_poly(ring, rng, terms, top):
    f = ring.zero()
    for _ in range(terms):
        e = [0] * ring.n
        for _ in range(rng.randint(0, top)):
            e[rng.randrange(ring.n)] += 1
        f = f + ring.monomial(e, ring.field.random_nonzero(rng))
    return f


def homogeneous_poly(ring, rng, degree):
    f = ring.zero()
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.n
        for _ in range(degree):
            e[rng.randrange(ring.n)] += 1
        f = f + ring.monomial(e, ring.field.random_nonzero(rng))
    return f


def cases(ring, rng):
    """(kind, generators): zero, unit, m-primary, positive-dimensional and
    non-homogeneous ideals, plus homogeneous ones of either finiteness."""
    n = ring.n
    yield "zero", []
    yield "unit", [ring.one(), random_poly(ring, rng, 2, 2)]
    for _ in range(3):
        powers = [ring.var(i) ** rng.randint(1, 3) for i in range(n)]
        inside_m = random_poly(ring, rng, 3, 2) * ring.var(rng.randrange(n))
        yield "m-primary", powers + [inside_m]
        cubes = [ring.var(i) ** 3 for i in range(n)]
        yield "m-primary", cubes + [homogeneous_poly(ring, rng, 2)]
        yield "positive-dimensional", [homogeneous_poly(ring, rng, rng.randint(1, 3))
                                       for _ in range(rng.randint(1, n - 1))]
        yield "homogeneous", [homogeneous_poly(ring, rng, 2) for _ in range(n)]
        yield "non-homogeneous", [random_poly(ring, rng, rng.randint(2, 4), 3)
                                  for _ in range(rng.randint(1, n + 1))]


def check_against_reference(ring, rng):
    n = ring.n
    for kind, gens in cases(ring, rng):
        I = PolyIdeal(ring, gens)
        leads = I.leading_monomials()
        c, d = I.k_dimension(), I.krull_dimension()
        assert c == reference_k_dimension(leads, n), (kind, gens)
        assert d == reference_krull_dimension(leads, n), (kind, gens)
        if kind == "zero":
            assert (c, d) == (INFINITE, n)
        elif kind == "unit":
            assert (c, d) == (0, -1)
        elif kind == "m-primary":
            assert c is not INFINITE and c > 0 and d == 0, gens
        elif kind == "positive-dimensional":
            assert c is INFINITE and d >= 1, gens


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("seed, field", enumerate(FIELDS), ids=[repr(f) for f in FIELDS])
def test_dimensions_match_reference(seed, field, order):
    check_against_reference(poly_ring(("x", "y", "z"), field, order), random.Random(seed))


def test_dimensions_in_four_variables():
    order = MonomialOrder.elimination(4, (0, 1))
    for ring in (poly_ring("a b c d", QQ), poly_ring("a b c d", PrimeField(32003), order)):
        check_against_reference(ring, random.Random(5))
