"""FC2 saturates once per ideal that no other ideal of the tuple lies inside,
against the saturation by every ideal in turn that it replaced
(`tests/reference_fc.py`).

`reductions._fc2_saturation` drops an ideal that contains another one of
the tuple modulo the base, keeping the first of equal ones, since
base : (K_1 .. K_r)^infinity depends only on the intersection of the
rad(K_k + base).  Both must give the same ideal, and so the same FC2
verdict, over small and large prime fields and qq, in k[x,y,z], in the cusp
y^2 z - x^3 and in k[X,Y]/(XY, X^2): on seeded tuples with nested ideals,
equal ideals with different generators, no containment at all, and FC2
failures.  The counts pin the saving: one saturation per kept ideal, one
per element on the weak-FC sequence of bench/scripts/heavy_fc.gm.
"""

import random

import pytest
from conftest import four_algebras, regenerate
from reference_fc import reference_saturation

from gradmult import QQ, AlgIdeal, PolyIdeal, PrimeField, groebner, make_algebra, poly_ring
from gradmult.reductions import _fc2_saturation, build_fc_sequence

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]


def linear_form(algebra, rng):
    """A random nonzero linear form of two or more variables."""
    field = algebra.ring.field
    gens = algebra.gens()
    while True:
        f = sum((field.random(rng) * g for g in gens), algebra.zero())
        if sum(1 for c in f.rep.coeffs.values() if c) >= 2:
            return f


def tuples(algebra, rng):
    """(name, ideals, element, saturations the new route takes) on one algebra."""
    m = algebra.irrelevant_ideal()
    a, b = linear_form(algebra, rng), linear_form(algebra, rng)
    J = AlgIdeal(algebra, [a])
    I = AlgIdeal(algebra, [a, b * b])
    yield "nested", [J, I, m], a, 1
    yield "m first", [m, I], a, 1
    yield "equal", [I, regenerate(I, rng)], a, 1
    yield "equal after a smaller one", [m, J, regenerate(m, rng), AlgIdeal(algebra, [a * a])], a, 1
    c = linear_form(algebra, rng)
    # (a) and (c) are distinct lines unless c is a multiple of a
    apart = not AlgIdeal(algebra, [c]).equals(J)
    yield "no containment", [J, AlgIdeal(algebra, [c])], a, 2 if apart else 1


def fat_line_tuples(field):
    """Tuples in k[X,Y]/(XY, X^2) whose element X fails FC2: base : X = (X, Y)
    while base : (X, Y^2)^infinity = (X)."""
    ring = poly_ring(("X", "Y"), field)
    X, Y = ring.gens()
    N = make_algebra(ring, [X * Y, X * X])
    X, Y = N.gens()
    m = AlgIdeal(N, [X, Y])
    yield "fails FC2", [m, AlgIdeal(N, [X, Y * Y])], X, 1
    yield "fails FC2, no containment", [AlgIdeal(N, [X + Y]), AlgIdeal(N, [X, Y * Y])], X, 2
    yield "passes FC2", [m, AlgIdeal(N, [X + Y * Y])], X + Y, 1


def fc2_verdict(base, x, sat):
    ann = base.colon(x.rep)
    return all(sat.contains(g) for g in ann.groebner())


def all_cases(field):
    """(kind, algebra, case): the seeded tuples in k[x,y,z], the cusp and
    k[X,Y]/(XY, X^2), then the fat line's named ones."""
    rng = random.Random(700 + FIELDS.index(field))
    for kind, algebra in zip(("domain", "domain", "fat line"), four_algebras(field)[1:]):
        for case in tuples(algebra, rng):
            yield kind, algebra, case
    for case in fat_line_tuples(field):
        yield case[0], case[1][0].algebra, case


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_saturation_per_kept_ideal_gives_the_same_ideal(field, monkeypatch):
    real = PolyIdeal.saturate
    calls = []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    verdicts = {}
    for kind, algebra, (name, ideals, x, kept) in all_cases(field):
        base = PolyIdeal(algebra.ring, algebra.defining.groebner())
        gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
        want = reference_saturation(base, gen_lists)
        calls.clear()
        monkeypatch.setattr(PolyIdeal, "saturate", counted)
        got = _fc2_saturation(base, gen_lists)
        monkeypatch.undo()
        assert got.equals(want), (algebra, name)
        assert len(calls) == kept, (algebra, name)
        verdict = fc2_verdict(base, x, got)
        assert verdict == fc2_verdict(base, x, want)
        verdicts.setdefault(kind, set()).add(verdict)
    # base : x is base itself in a domain, so FC2 holds there
    assert verdicts["domain"] == {True}
    assert verdicts["fails FC2"] == verdicts["fails FC2, no containment"] == {False}
    assert verdicts["passes FC2"] == {True}


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_one_saturation_per_element_of_the_heavy_sequence(field, monkeypatch):
    # bench/scripts/heavy_fc.gm: fc_seq J M in the cusp, the tuple (J, m, m)
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    S = make_algebra(ring, [y * y * z - x**3])
    x, y, z = S.gens()
    J, M = AlgIdeal(S, [y, x + z]), AlgIdeal(S, [x, y, z])
    real = PolyIdeal.saturate
    calls = []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    groebner._memo.clear()
    monkeypatch.setattr(PolyIdeal, "saturate", counted)
    seq = build_fc_sequence(J, M)
    assert len(seq.reports) == 2
    assert all(r.fc2_pass for r in seq.reports)
    # each element saturates by J alone, where the replaced route took J, M and m
    assert len(calls) == 2
    assert all(other.gens == tuple(g.rep for g in J.gens) for other in calls)

