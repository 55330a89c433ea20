import random

import pytest

from gradmult import QQ, MonomialOrder, Polynomial, poly_ring
from gradmult.monomials import monomials_up_to

from reference_layers import homogeneous_components


def substitute(f, assign):
    """f with variable i replaced by assign[i], a polynomial of f's ring.
    Nothing in the package substitutes, so this lives with its test."""
    ring = f.ring
    for img in assign.values():
        if not isinstance(img, Polynomial) or img.ring != ring:
            raise ValueError("substitution images must live in the same ring")
    out = ring.zero()
    for e, c in f.coeffs.items():
        term = ring.constant(c)
        for i, exp in enumerate(e):
            if exp:
                base = assign.get(i, ring.var(i))
                term = term * base ** exp
        out = out + term
    return out


def random_poly(ring, rng, max_deg=3, terms=4):
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(ring.n)] += 1
        out = out + ring.monomial(exps, ring.field.random(rng))
    return out


def test_cancellation():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    assert (x + y) + (x - y) == 2 * x


def test_mul_by_zero():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    assert (x + y) * r.zero() == r.zero()


def test_binomial_square():
    r = poly_ring(("X", "Y"))
    X, Y = r.gens()
    assert (X + Y**2) ** 2 == X**2 + 2 * X * Y**2 + Y**4


def test_homogeneous_components():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    comps = homogeneous_components(x + y * y)
    assert set(comps) == {1, 2}
    assert comps[1] == x and comps[2] == y * y
    assert homogeneous_components(x**3) == {3: x**3}
    assert homogeneous_components(r.zero()) == {}


def test_components_sum_back():
    rng = random.Random(3)
    r = poly_ring(("x", "y", "z"))
    for _ in range(30):
        f = random_poly(r, rng)
        comps = homogeneous_components(f)
        total = r.zero()
        for deg, part in comps.items():
            assert part.is_homogeneous() and part.degree() == deg
            total = total + part
        assert total == f


def test_ring_axioms_random():
    rng = random.Random(7)
    r = poly_ring(("x", "y"))
    for _ in range(60):
        a, b, c = (random_poly(r, rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_mixed_ring_operands_rejected():
    r1 = poly_ring(("x", "y"))
    r2 = poly_ring(("x", "y"), field=QQ)
    with pytest.raises(ValueError):
        r1.var(0) + r2.var(0)


def test_order_key_conventions():
    drl = MonomialOrder.degrevlex(3)
    assert drl.key((2, 0, 0)) > drl.key((1, 1, 0))
    assert drl.key((1, 1, 0)) == drl.key((1, 1, 0))
    # degrevlex breaks a degree tie against the last variable: xz < y^2
    assert drl.key((1, 0, 1)) < drl.key((0, 2, 0))
    # inside each block of an elimination order, degrevlex again
    blk = MonomialOrder.elimination(3, (0,))
    assert blk.key((0, 1, 1)) < blk.key((0, 2, 0))
    assert blk.key((1, 0, 0)) > blk.key((0, 1, 0))


@pytest.mark.parametrize(
    "order",
    [
        MonomialOrder.degrevlex(3),
        MonomialOrder.elimination(3, (0,)),
        MonomialOrder.elimination(3, (0, 2)),
        MonomialOrder.weighted(3, (0, 2, 1)),
        MonomialOrder.weighted(3, (0, 0, 1), (0,)),
    ],
)
def test_order_axioms(order):
    rng = random.Random(11)
    monos = monomials_up_to(3, 4)
    one = (0, 0, 0)
    for _ in range(200):
        a, b, c = (rng.choice(monos) for _ in range(3))
        ka, kb = order.key(a), order.key(b)
        # totality: distinct monomials get distinct keys
        assert (ka == kb) == (a == b)
        # multiplicative: a < b implies ac < bc
        ac = tuple(u + v for u, v in zip(a, c))
        bc = tuple(u + v for u, v in zip(b, c))
        if ka < kb:
            assert order.key(ac) < order.key(bc)
        # global: 1 is minimal
        if a != one:
            assert ka > order.key(one)


def test_weight_order_conventions():
    order = MonomialOrder.weighted(3, (0, 1, 2))
    # the weight first: z (weight 2) beats x^3 (weight 0)
    assert order.key((0, 0, 1)) > order.key((3, 0, 0))
    # equal weight: degrevlex decides, by degree and then against the last variable
    assert order.key((2, 2, 0)) > order.key((0, 2, 0))
    assert order.key((1, 0, 1)) < order.key((0, 2, 0))
    # an eliminated block of weight zero comes before every weight
    elim = MonomialOrder.weighted(3, (0, 0, 5), (0,))
    assert elim.key((1, 0, 0)) > elim.key((0, 0, 9))
    assert elim.key((0, 0, 1)) > elim.key((0, 4, 0))
    with pytest.raises(ValueError):
        MonomialOrder.weighted(3, (1, 0, 0), (0,))
    with pytest.raises(ValueError):
        MonomialOrder.weighted(3, (0, -1, 0))
    with pytest.raises(ValueError):
        MonomialOrder.weighted(3, (0, 1))
    assert MonomialOrder.weighted(3, (0, 1, 2)) == order
    assert MonomialOrder.weighted(3, (0, 2, 1)) != order
    assert MonomialOrder.degrevlex(3) != MonomialOrder.weighted(3, (0, 0, 0))


def test_elimination_block_dominates():
    # any monomial touching the block beats any block-free monomial
    order = MonomialOrder.elimination(3, (0,))
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def test_substitute():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    f = x * x + y
    assert substitute(f, {0: y + 1}) == y * y + 2 * y + 1 + y


def test_repr_is_readable():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    assert repr(r.zero()) == "0"
    assert "x" in repr(x + y)
