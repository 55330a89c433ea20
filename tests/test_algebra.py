import random

import pytest

from gradmult import INFINITE, make_algebra, minimal_basis, poly_ring

from conftest import regenerate


def test_free_algebra_stats(kxy):
    assert kxy.dim == 2
    assert kxy.mult == 1


def test_nondomain_stats(nondomain):
    assert nondomain.dim == 1
    assert nondomain.mult == 1


def test_hypersurface_stats(hyper):
    assert hyper.dim == 2
    assert hyper.mult == 3


def test_rejects_bad_relations():
    r = poly_ring(("x", "y"))
    x, y = r.gens()
    with pytest.raises(ValueError):
        make_algebra(r, [x + y * y])  # not homogeneous
    with pytest.raises(ValueError):
        make_algebra(r, [r.one()])  # unit ideal


def test_order_and_initial_form(nondomain):
    X, Y = nondomain.gens()
    u = X + Y * Y
    assert u.order == 1
    assert u.initial_form == X


def test_homogeneous_element_is_its_own_initial(kxy):
    x, y = kxy.gens()
    f = x * x * y
    assert f.order == 3
    assert f.initial_form == f


def test_zero_element(kxy):
    z = kxy.zero()
    assert z.order is INFINITE
    assert z.initial_form.is_zero()


def test_elements_reduce_mod_relations(nondomain):
    X, Y = nondomain.gens()
    assert (X * Y).is_zero()
    assert X * X == nondomain.zero()
    # x^2 = Y^4 for x = X + Y^2
    assert (X + Y * Y) ** 2 == Y**4


def test_irrelevant_power(kxy):
    x, y = kxy.gens()
    m0 = kxy.irrelevant_power(0)
    assert m0.contains(kxy.one())
    m2 = kxy.irrelevant_power(2)
    assert m2.equals(kxy.ideal([x * x, x * y, y * y]))


def test_irrelevant_power_in_quotient(nondomain):
    X, Y = nondomain.gens()
    m2 = nondomain.irrelevant_power(2)
    assert m2.equals(nondomain.ideal([Y * Y]))


def test_minimal_basis_drops_redundant(kxy):
    x, y = kxy.gens()
    basis = minimal_basis(kxy.ideal([x, x + y]))
    assert len(basis) == 2
    basis = minimal_basis(kxy.ideal([x, x + x * x]))
    assert [b.rep for b in basis] == [x.rep]
    assert len(minimal_basis(kxy.irrelevant_power(2))) == 3


def test_minimal_basis_generates_and_is_irredundant(kxy):
    x, y = kxy.gens()
    I = kxy.ideal([x * x, x * x + y**3, y**3 + x * y * y])
    basis = minimal_basis(I)
    J = kxy.ideal(basis)
    assert J.equals(I)
    for k in range(len(basis)):
        sub = kxy.ideal([b for i, b in enumerate(basis) if i != k])
        assert not sub.equals(I)


def test_mu_is_presentation_independent(kxy):
    rng = random.Random(23)
    x, y = kxy.gens()
    I = kxy.ideal([x * x, x * y + y**3, y * y])
    mu = len(minimal_basis(I))
    for _ in range(10):
        assert len(minimal_basis(regenerate(I, rng))) == mu


def test_minimal_basis_rejects_degenerate(kxy):
    with pytest.raises(ValueError):
        minimal_basis(kxy.ideal([]))
    with pytest.raises(ValueError):
        minimal_basis(kxy.ideal([kxy.one()]))


def test_order_inequalities_on_domain(kxy):
    # o(ab) = o(a) + o(b) in a domain; o(a + b) >= min order
    rng = random.Random(9)
    x, y = kxy.gens()
    pool = [x, y, x + y * y, y + x * x, x * y + y**3]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert (a * b).order == a.order + b.order
        s = a + b
        if not s.is_zero():
            assert s.order >= min(a.order, b.order)


def test_product_order_can_jump_in_non_domain(nondomain):
    X, Y = nondomain.gens()
    u = X + Y * Y
    # o(u) = 1 but o(u^2) = 4: the initial form X is a zerodivisor killed in degree 2
    assert u.order == 1
    assert (u * u).order == 4
