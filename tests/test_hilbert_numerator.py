"""The Hilbert numerator against the single-variable pivot it replaced, and
the division by (1-t) that reduces it.

`hilbert.multigraded_numerator` pivots on a power of a variable and has a
closed form for generators in two variables; with every degree 1 it is the
numerator over (1-t)^n that `hilbert.leading_series` reduces.
`reference_hilbert.reference_numerator` pivots on one variable of degree 1.
Both must give the same numerator over (1-t)^n on every minimal generating
set.
"""

import random

import pytest

from gradmult.hilbert import _over_one_minus_t, leading_series, multigraded_numerator
from gradmult.monomials import minimal_monomials, monomials_of_degree
from reference_hilbert import _one_minus_tk, _poly_mul, expand, reference_numerator


def assert_same(gens):
    gens = minimal_monomials(gens)
    n = len(gens[0])
    expected = reference_numerator(gens)
    flat = multigraded_numerator(gens, ((1,),) * n)
    assert [flat.get((i,), 0) for i in range(len(expected))] == expected
    assert len(flat) == sum(1 for v in expected if v)
    num, d = leading_series(tuple(gens), n)
    # reduced: no factor 1 - t is left, and putting them back gives the reference
    assert num and sum(num) != 0
    assert expand(num, d, n) == expected


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


def test_division_by_one_minus_t_is_exact():
    rng = random.Random(9)
    for _ in range(200):
        q = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        while q and not q[-1]:
            q.pop()
        k = rng.randint(0, 4)
        num = q
        for _ in range(k):
            num = _poly_mul(num, _one_minus_tk(1))
        assert _over_one_minus_t(num, k) == q
        # one factor of 1 - t too many leaves a remainder unless q(1) = 0
        if q and sum(q):
            with pytest.raises(ArithmeticError, match="infinitely many"):
                _over_one_minus_t(num, k + 1)
    # 1 + t^3 is no multiple of 1 - t; 1 - t^3 is, with quotient 1 + t + t^2
    with pytest.raises(ArithmeticError):
        _over_one_minus_t([1, 0, 0, 1], 1)
    assert _over_one_minus_t(_one_minus_tk(3), 1) == [1, 1, 1]
    assert _over_one_minus_t([], 3) == []
