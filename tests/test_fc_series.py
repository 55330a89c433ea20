"""FC1 as B : x = K_n + (base : x) against the intersection identity itself.

`_fc_check_on_lift` decides each window tuple from Hilbert series on
homogeneous input and by a colon on other input.  The reference is the
route both replaced, (base + x) cap B = base + x K_n by elimination
(`tests/reference_fc.py`).  All three must give the same verdict on every
tuple, over small and large prime fields and qq, in a domain (the cusp
y^2 z - x^3) and in quotients that are not domains, including a
zero-divisor x whose annihilator does not lie in K_n.
"""

import random

import pytest
from reference_fc import reference_fc1

from gradmult import (
    QQ,
    AlgIdeal,
    PolyIdeal,
    PrimeField,
    fc_check_element,
    make_algebra,
    poly_ring,
    reductions,
)
from gradmult.reductions import FcWindow, _fc1_colon, _fc1_series, _ProductCache

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
SMALL = FcWindow(2, 3, 0, 2)


def lift_setup(x, ideals):
    algebra = x.algebra
    base = PolyIdeal(algebra.ring, algebra.defining.groebner())
    gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
    cache = _ProductCache(algebra.ring, base.gens, gen_lists)
    return cache, base.colon(x.rep), len(gen_lists)


def verdicts_three_ways(x, ideals, slot, window):
    """The FC1 verdict of every window tuple; the three routes must agree on each."""
    cache, ann, count = lift_setup(x, ideals)
    out = []
    for exps in window.tuples(count, slot):
        expected = reference_fc1(cache, x.rep, slot, exps)
        assert _fc1_series(cache, ann, x.rep, slot, exps) == expected, exps
        assert _fc1_colon(cache, ann, x.rep, slot, exps) == expected, exps
        out.append(expected)
    return out


def oracle_fc1(x, ideals, slot, window):
    """(fc1_pass, first failing tuple) from the reference route alone."""
    cache, _ann, count = lift_setup(x, ideals)
    for exps in window.tuples(count, slot):
        if not reference_fc1(cache, x.rep, slot, exps):
            return False, tuple(exps)
    return True, None


def cusp(field):
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    return make_algebra(ring, [y * y * z - x**3])


def two_planes(field):
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    return make_algebra(ring, [x * y])


def fat_line(field):
    # k[X,Y]/(XY, X^2): one-dimensional, not a domain
    ring = poly_ring(("X", "Y"), field)
    X, Y = ring.gens()
    return make_algebra(ring, [X * Y, X * X])


def zero_divisor_case(field):
    # x^2 kills y modulo xy, so base : x^2 = (y) does not lie in every K_n
    T = two_planes(field)
    x, y, z = T.gens()
    return x * x, [AlgIdeal(T, [x * x, z]), AlgIdeal(T, [x, y, z])]


def cases(field, rng):
    """(name, element, ideals) on homogeneous input, with seeded coefficients."""
    c = field.random_nonzero(rng)
    S = cusp(field)
    x, y, z = S.gens()
    m = AlgIdeal(S, [x, y, z])
    yield "cusp", y + c * x, [m, AlgIdeal(S, [x, y])]
    yield "cusp", x * x + c * z * z, [AlgIdeal(S, [x * x, y * y, z * z]), m]
    T = two_planes(field)
    x, y, z = T.gens()
    m = AlgIdeal(T, [x, y, z])
    yield "two planes", x + c * y, [m, AlgIdeal(T, [x])]
    yield "two planes", y + c * z, [m, AlgIdeal(T, [y, z])]
    N = fat_line(field)
    X, Y = N.gens()
    yield "fat line", Y + c * X, [AlgIdeal(N, [X, Y]), AlgIdeal(N, [X, Y * Y])]
    yield ("zero divisor", *zero_divisor_case(field))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_fc1_routes_agree_on_every_tuple(field):
    rng = random.Random(900 + FIELDS.index(field))
    seen = {}
    for name, x, ideals in cases(field, rng):
        seen.setdefault(name, set()).update(verdicts_three_ways(x, ideals, 0, SMALL))
    # both verdicts occur in the domain and in quotients that are not one
    assert seen["cusp"] == {True, False}
    assert seen["two planes"] == {True, False}
    assert seen["fat line"] == {True}
    assert seen["zero divisor"] == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_zero_divisor_annihilator_enlarges_the_right_side(field):
    x, ideals = zero_divisor_case(field)
    cache, ann, _count = lift_setup(x, ideals)
    y = x.algebra.ring.var(1)
    assert ann.equals(PolyIdeal(x.algebra.ring, (y,)))
    assert not ann.equals(PolyIdeal(x.algebra.ring, cache.base))
    # so some right side C is a new ideal, not the cached K_n
    assert any(
        reductions._fc1_sides(cache, ann, 0, exps)[1] is not cache.ideal(exps)
        for exps in SMALL.tuples(2, 0)
    )
    small = verdicts_three_ways(x, ideals, 0, SMALL)
    failing = [e for e, ok in zip(SMALL.tuples(2, 0), small) if not ok]
    assert (small.count(True), failing) == (4, [(2, 2), (3, 2)])
    assert verdicts_three_ways(x, ideals, 0, FcWindow()).count(True) == 8
    report = fc_check_element(x, ideals, 0, SMALL)
    assert (report.fc1_pass, report.fc1_counterexample) == (False, (2, 2))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reports_match_the_intersection_route(field):
    rng = random.Random(950 + FIELDS.index(field))
    for _name, x, ideals in cases(field, rng):
        report = fc_check_element(x, ideals, 0, SMALL)
        assert (report.fc1_pass, report.fc1_counterexample) == oracle_fc1(x, ideals, 0, SMALL)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_non_homogeneous_element_takes_the_colon_route(field, monkeypatch):
    S = cusp(field)
    x, y, z = S.gens()
    m = AlgIdeal(S, [x, y, z])
    el = y + z * z
    expected = oracle_fc1(el, [m], 0, FcWindow())
    calls = []

    def refuse(*args):
        raise AssertionError("series route taken on non-homogeneous input")

    def counted(*args):
        calls.append(args[-1])
        return _fc1_colon(*args)

    monkeypatch.setattr(reductions, "_fc1_series", refuse)
    monkeypatch.setattr(reductions, "_fc1_colon", counted)
    report = fc_check_element(el, [m], 0)
    assert calls
    assert (report.fc1_pass, report.fc1_counterexample) == expected
    assert report.fc2_pass
    assert report.fc1_counterexample is None
