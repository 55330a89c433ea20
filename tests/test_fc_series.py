"""FC1 from Hilbert series of sums against FC1 by elimination.

On homogeneous input `_fc_check_on_lift` decides each window tuple by
comparing Hilbert series; the tag-variable intersection stays the route for
other input and is the oracle here.  Both must give the same verdict on every
tuple, over small and large prime fields and qq, in a domain (the cusp
y^2 z - x^3) and in quotients that are not domains.
"""

import random

import pytest

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
from gradmult.reductions import FcWindow, _fc1_intersection, _fc1_series, _ProductCache

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
SMALL = FcWindow(2, 3, 0, 2)


def lift_setup(x, ideals):
    algebra = x.algebra
    base = PolyIdeal(algebra.ring, algebra.defining.groebner())
    gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
    cache = _ProductCache(algebra.ring, base.gens, gen_lists)
    base_x = PolyIdeal(algebra.ring, base.gens + (x.rep,))
    return cache, base_x, len(gen_lists)


def verdicts_both_ways(x, ideals, slot, window):
    """The FC1 verdict of every window tuple; the two routes must agree on each."""
    cache, base_x, count = lift_setup(x, ideals)
    out = []
    for exps in window.tuples(count, slot):
        by_series = _fc1_series(cache, base_x, x.rep, slot, exps)
        by_intersection = _fc1_intersection(cache, base_x, x.rep, slot, exps)
        assert by_series == by_intersection, exps
        out.append(by_series)
    return out


def oracle_fc1(x, ideals, slot, window):
    """(fc1_pass, first failing tuple) from the intersection route alone."""
    cache, base_x, count = lift_setup(x, ideals)
    for exps in window.tuples(count, slot):
        if not _fc1_intersection(cache, base_x, x.rep, slot, exps):
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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_fc1_routes_agree_on_every_tuple(field):
    rng = random.Random(900 + FIELDS.index(field))
    seen = {}
    for name, x, ideals in cases(field, rng):
        seen.setdefault(name, set()).update(verdicts_both_ways(x, ideals, 0, SMALL))
    # both verdicts occur in the domain and in a quotient that is not one
    assert seen["cusp"] == {True, False}
    assert seen["two planes"] == {True, False}
    assert seen["fat line"] == {True}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reports_match_the_intersection_route(field):
    rng = random.Random(950 + FIELDS.index(field))
    for _name, x, ideals in cases(field, rng):
        report = fc_check_element(x, ideals, 0, SMALL)
        assert (report.fc1_pass, report.fc1_counterexample) == oracle_fc1(x, ideals, 0, SMALL)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_non_homogeneous_element_takes_the_intersection_route(field, monkeypatch):
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
        return _fc1_intersection(*args)

    monkeypatch.setattr(reductions, "_fc1_series", refuse)
    monkeypatch.setattr(reductions, "_fc1_intersection", counted)
    report = fc_check_element(el, [m], 0)
    assert calls
    assert (report.fc1_pass, report.fc1_counterexample) == expected
    assert report.fc2_pass
