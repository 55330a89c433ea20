"""The Hilbert numerator against the single-variable pivot it replaced.

`hilbert._numerator` pivots on a power of a variable and has a closed form
for generators in two variables; `reference_hilbert.reference_numerator`
pivots on one variable of degree 1.  Both must give the same numerator over
(1-t)^n on every minimal generating set.
"""

import random

import pytest

from gradmult.hilbert import _numerator, leading_series
from gradmult.monomials import minimal_monomials, monomials_of_degree
from reference_hilbert import reference_numerator


def assert_same(gens):
    gens = minimal_monomials(gens)
    assert _numerator(gens) == reference_numerator(gens)


def pure(n, i, e):
    return tuple(e if j == i else 0 for j in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seeded_monomial_ideals(n):
    rng = random.Random(700 + n)
    for _ in range(150):
        top = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 8))
        ]
        gens = [g for g in gens if sum(g)]
        if gens:
            assert_same(gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pure_powers_and_coprime_sets(n):
    rng = random.Random(800 + n)
    for _ in range(20):
        # pure powers of every variable: a complete intersection
        assert_same([pure(n, i, rng.randint(1, 6)) for i in range(n)])
        # disjoint supports of one or two variables; a skipped variable stays free
        order = list(range(n))
        rng.shuffle(order)
        gens = []
        while order:
            size = rng.randint(1, 2)
            block, order = order[:size], order[size + rng.randint(0, 1):]
            gens.append(tuple(rng.randint(1, 4) if j in block else 0 for j in range(n)))
        assert_same(gens)


def test_two_variable_staircases():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 4)
        a, b = rng.sample(range(n), 2)
        steps = rng.randint(1, 12)
        xs = sorted(rng.sample(range(0, 20), steps))
        ys = sorted(rng.sample(range(0, 20), steps), reverse=True)
        gens = []
        for u, v in zip(xs, ys):
            e = [0] * n
            e[a], e[b] = u, v
            gens.append(tuple(e))
        gens = [g for g in gens if sum(g)]
        if gens:
            assert_same(gens)


def test_ideals_that_are_not_m_primary():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        # every generator avoids the last variable, or shares a factor
        gens = [
            tuple(rng.randint(0, 3) if j < n - 1 else 0 for j in range(n))
            for _ in range(rng.randint(1, 6))
        ]
        gens = [g for g in gens if sum(g)]
        if gens:
            assert_same(gens)
            shifted = [g[:1] + (g[1] + 1,) + g[2:] for g in gens]
            assert_same(shifted)


@pytest.mark.parametrize("n, d", [(2, 100), (3, 25), (4, 8), (5, 4)])
def test_large_powers_of_the_maximal_ideal(n, d):
    gens = monomials_of_degree(n, d)
    assert_same(gens)
    num, dim = leading_series(tuple(minimal_monomials(gens)), n)
    assert dim == 0
    assert sum(num) == len(
        [m for k in range(d) for m in monomials_of_degree(n, k)]
    )
