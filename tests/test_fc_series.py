"""FC1 from two multi-Rees presentations per element against the routes it
replaced.

On homogeneous input `_fc_check_on_lift` decides every window tuple by
counting standard monomials of two presentations per element
(`reductions._ReesFc1`); other input checks B : x = K_n + (base : x) by a
colon.  The references are kept in `tests/reference_fc.py`: the identity
(base + x) cap B = base + x K_n by elimination, and B : x = C read off three
Hilbert numerators of product bases per tuple (`_fc1_series`).  All must
give the same verdict on every tuple of the small and the default window,
over small and large prime fields and qq, in a domain (the cusp
y^2 z - x^3) and in quotients that are not domains.  The cases put m in the
bumped slot, leave m out of the tuple (so every ideal gets a block), take
elements of degree 2, and take zero-divisors x with both verdicts.
"""

import random

import pytest
from reference_fc import _fc1_series, reference_fc1

from gradmult import (
    QQ,
    AlgIdeal,
    PolyIdeal,
    PrimeField,
    fc_check_element,
    groebner,
    make_algebra,
    poly_ring,
    reductions,
    rees,
)
from gradmult.reductions import FcWindow, _fc1_colon, _ProductCache, _ReesFc1

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]
SMALL = FcWindow(2, 3, 0, 2)


def lift_setup(x, ideals):
    algebra = x.algebra
    base = PolyIdeal(algebra.ring, algebra.defining.groebner())
    gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
    cache = _ProductCache(algebra.ring, base.gens, gen_lists)
    return cache, base.colon(x.rep), len(gen_lists)


def verdicts_every_way(x, ideals, slot, window):
    """The FC1 verdict of every window tuple; the four routes must agree on each."""
    cache, ann, count = lift_setup(x, ideals)
    rees = _ReesFc1(PolyIdeal(cache.ring, cache.base), x.rep, cache.gen_lists, slot)
    out = []
    for exps in window.tuples(count, slot):
        expected = reference_fc1(cache, x.rep, slot, exps)
        assert rees.holds(exps) == expected, exps
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
    """(name, element, ideals) on homogeneous input, with seeded coefficients;
    the element sits in slot 0."""
    c = field.random_nonzero(rng)
    S = cusp(field)
    x, y, z = S.gens()
    m = AlgIdeal(S, [x, y, z])
    yield "m bumped", y + c * x, [m, AlgIdeal(S, [x, y])]
    yield "degree two", x * x + c * z * z, [AlgIdeal(S, [x * x, y * y, z * z]), m]
    yield "no m", y + c * x, [AlgIdeal(S, [x, y]), AlgIdeal(S, [x * x, y * y, z * z])]
    T = two_planes(field)
    x, y, z = T.gens()
    m = AlgIdeal(T, [x, y, z])
    yield "two planes", x + c * y, [m, AlgIdeal(T, [x])]
    yield "two planes", y + c * z, [m, AlgIdeal(T, [y, z])]
    N = fat_line(field)
    X, Y = N.gens()
    yield "fat line", Y + c * X, [AlgIdeal(N, [X, Y]), AlgIdeal(N, [X, Y * Y])]
    yield ("zero divisor", *zero_divisor_case(field))
    # y kills x^2 + c x z modulo xy, and no ideal of the tuple is m
    yield "zero divisor, no m", x * x + c * x * z, [AlgIdeal(T, [x * x, z]), AlgIdeal(T, [x, y])]


def routes_agree(field, window):
    rng = random.Random(900 + FIELDS.index(field))
    seen = {}
    for name, x, ideals in cases(field, rng):
        seen.setdefault(name, set()).update(verdicts_every_way(x, ideals, 0, window))
    # both verdicts occur in the domain and in quotients that are not one
    assert seen == {
        "m bumped": {True, False},
        "degree two": {True},
        "no m": {True, False},
        "two planes": {True, False},
        "fat line": {True},
        "zero divisor": {True, False},
        "zero divisor, no m": {True, False},
    }


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_fc1_routes_agree_on_every_tuple(field):
    routes_agree(field, SMALL)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_fc1_routes_agree_on_every_tuple_of_the_default_window(field):
    routes_agree(field, FcWindow())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_two_ideals_equal_to_m_share_the_slot(field):
    # the tuple (J, I, m) of a weak-FC sequence with I = m: both m's go to
    # the x-degree bound, which is the sum of their exponents
    c = field.random_nonzero(random.Random(980 + FIELDS.index(field)))
    S = cusp(field)
    x, y, z = S.gens()
    ideals = [AlgIdeal(S, [y, x + c * z]), AlgIdeal(S, [x, y, z]), AlgIdeal(S, [z, y, x])]
    base = PolyIdeal(S.ring, S.defining.groebner())
    assert reductions._m_slots(base, [[g.rep for g in i.gens] for i in ideals]) == [1, 2]
    seen = set(verdicts_every_way(y, ideals, 0, SMALL))
    seen.update(verdicts_every_way(x + y, ideals, 1, SMALL))
    assert seen == {True}


def test_the_m_slots_are_found():
    rng = random.Random(0)
    found = {}
    for name, x, ideals in cases(QQ, rng):
        base = PolyIdeal(x.algebra.ring, x.algebra.defining.groebner())
        gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
        found[name] = reductions._m_slots(base, gen_lists)
    assert found == {
        "m bumped": [0],
        "degree two": [1],
        "no m": [],
        "two planes": [0],
        "fat line": [0],
        "zero divisor": [1],
        "zero divisor, no m": [],
    }


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
    small = verdicts_every_way(x, ideals, 0, SMALL)
    failing = [e for e, ok in zip(SMALL.tuples(2, 0), small) if not ok]
    assert (small.count(True), failing) == (4, [(2, 2), (3, 2)])
    assert verdicts_every_way(x, ideals, 0, FcWindow()).count(True) == 8
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
        raise AssertionError("presentation route taken on non-homogeneous input")

    def counted(*args):
        calls.append(args[-1])
        return _fc1_colon(*args)

    monkeypatch.setattr(reductions, "_ReesFc1", refuse)
    monkeypatch.setattr(reductions, "_fc1_colon", counted)
    report = fc_check_element(el, [m], 0)
    assert calls
    assert (report.fc1_pass, report.fc1_counterexample) == expected
    assert report.fc2_pass
    assert report.fc1_counterexample is None


def window_case(field, no_m):
    """A fresh algebra each time, so no ideal carries a basis from an earlier run."""
    S = cusp(field)
    x, y, z = S.gens()
    ideals = [AlgIdeal(S, [x, y]), AlgIdeal(S, [x * x, y * y, z * z])]
    if not no_m:
        ideals.append(AlgIdeal(S, [x, y, z]))
    return y + 3 * x, ideals


@pytest.mark.parametrize("no_m", [False, True], ids=["with m", "no m"])
@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_basis_count_does_not_depend_on_the_window(field, no_m, monkeypatch):
    real = groebner.buchberger
    counts = []
    for window in (FcWindow(), FcWindow(2, 7, 0, 5)):
        calls = []

        def counted(gens):
            calls.append(1)
            return real(gens)

        groebner._memo.clear()
        monkeypatch.setattr(groebner, "buchberger", counted)
        monkeypatch.setattr(rees, "buchberger", counted)
        x, ideals = window_case(field, no_m)
        fc_check_element(x, ideals, 0, window)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
