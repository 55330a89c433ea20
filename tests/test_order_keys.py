"""The int order keys of `MonomialOrder.key` against the tuple keys they
replaced (`tests/reference_orders.py`).

Seeded exponent vectors in n = 1..6 variables, small and near the top of
the key's range, must sort the same way under both keys, in degrevlex, block
orders and weight orders with and without an eliminated block; an exponent
of EXP_LIMIT or more must raise.
"""

import itertools
import random

import pytest

from gradmult.monomials import EXP_LIMIT, MonomialOrder
from reference_orders import reference_key

PICKS = (0, 1, 2, 3, 7, EXP_LIMIT - 3, EXP_LIMIT - 2, EXP_LIMIT - 1)


def orders(n, rng):
    out = [MonomialOrder.degrevlex(n)]
    for _ in range(3):
        weights = tuple(rng.randint(0, 4) for _ in range(n))
        out.append(MonomialOrder.weighted(n, weights))
    if n > 1:
        for _ in range(3):
            block = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            out.append(MonomialOrder.elimination(n, block))
            weights = tuple(0 if i in block else rng.randint(0, 4) for i in range(n))
            out.append(MonomialOrder.weighted(n, weights, block))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_int_key_sorts_as_the_tuple_key(n):
    rng = random.Random(1900 + n)
    for order in orders(n, rng):
        old = reference_key(order)
        monos = {tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(120)}
        monos |= {tuple(rng.choice(PICKS) for _ in range(n)) for _ in range(120)}
        monos = sorted(monos)
        assert sorted(monos, key=order.key) == sorted(monos, key=old), order
        for a, b in itertools.islice(zip(monos, reversed(monos)), 60):
            assert (order.key(a) < order.key(b)) == (old(a) < old(b))
            assert (order.key(a) == order.key(b)) == (a == b)
            assert order.rev_key(a) == -order.key(a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_key_raises_at_the_limit(n):
    rng = random.Random(2000 + n)
    for order in orders(n, rng):
        for i in range(n):
            top = tuple(EXP_LIMIT - 1 if j == i else 0 for j in range(n))
            order.key(top)
            over = tuple(EXP_LIMIT if j == i else 1 for j in range(n))
            with pytest.raises(ArithmeticError):
                order.key(over)
