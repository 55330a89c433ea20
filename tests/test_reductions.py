"""Reduction certificates, analytic spread, minimal reductions, FC sequences."""

import pytest

from gradmult import (
    QQ,
    AlgIdeal,
    PolyIdeal,
    PrimeField,
    SearchExhausted,
    analytic_spread,
    build_fc_sequence,
    degree_sequence,
    fc_check_element,
    find_minimal_reduction,
    height_and_equimultiple,
    is_reduction,
    make_algebra,
    poly_ring,
)
from gradmult.reductions import FcWindow


def test_is_reduction_certificates(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    cert = is_reduction(AlgIdeal(kxy, [x * x, y * y]), m2)
    assert cert.verdict == "REDUCTION"
    assert cert.ok
    assert cert.n_witness == 1
    assert is_reduction(m2, m2).n_witness == 0
    weak = is_reduction(AlgIdeal(kxy, [x * x]), m2)
    assert weak.verdict == "INCONCLUSIVE"
    assert not weak.ok
    assert weak.n_witness is None


def test_is_reduction_containment_guard(kxy):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    with pytest.raises(ValueError):
        is_reduction(m, m.power(2))


def test_analytic_spread(kxy, hyper, nondomain):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    assert analytic_spread(m) == 2
    assert analytic_spread(m.power(2)) == 2
    assert analytic_spread(AlgIdeal(kxy, [x])) == 1
    hx, hy, hz = hyper.gens()
    assert analytic_spread(AlgIdeal(hyper, [hx, hy, hz])) == 2
    X, Y = nondomain.gens()
    assert analytic_spread(AlgIdeal(nondomain, [X + Y * Y])) == 1


def test_height_and_equimultiple(kxy):
    x, y = kxy.gens()
    hr = height_and_equimultiple(AlgIdeal(kxy, [x, y]))
    assert (hr.height, hr.spread, hr.equimultiple) == (2, 2, True)
    assert hr.convention == "codimension"
    assert height_and_equimultiple(AlgIdeal(kxy, [x])).equimultiple
    # (x^2, xy) cuts out the y-axis but its fiber ring is a full polynomial
    # ring in two variables, so spread exceeds height
    skew = height_and_equimultiple(AlgIdeal(kxy, [x * x, x * y]))
    assert (skew.height, skew.spread, skew.equimultiple) == (1, 2, False)
    with pytest.raises(ValueError):
        height_and_equimultiple(AlgIdeal(kxy, []))
    with pytest.raises(ValueError):
        height_and_equimultiple(AlgIdeal(kxy, [kxy.one()]))


def test_find_minimal_reduction_homogeneous(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    J, cert = find_minimal_reduction(m2, seed=5)
    assert cert.ok
    assert len(J.gens) == 2
    assert degree_sequence(J) == (2, 2)
    again, _ = find_minimal_reduction(m2, seed=5)
    assert tuple(g.rep for g in again.gens) == tuple(g.rep for g in J.gens)


def test_find_minimal_reduction_mixed_degrees(kxy):
    x, y = kxy.gens()
    I = AlgIdeal(kxy, [x, y * y])
    J, cert = find_minimal_reduction(I, seed=1)
    assert cert.ok
    assert degree_sequence(J) == (1, 2)


def test_find_minimal_reduction_nonhomogeneous(nondomain):
    X, Y = nondomain.gens()
    I = AlgIdeal(nondomain, [X + Y * Y])
    J, cert = find_minimal_reduction(I, seed=3)
    assert cert.ok
    assert J.equals(I)


def test_find_minimal_reduction_exhaustion(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    with pytest.raises(SearchExhausted) as exc:
        find_minimal_reduction(m2, retries=0)
    assert exc.value.details["spread"] == 2


def test_fc_window_tuples():
    window = FcWindow()
    tuples = list(window.tuples(2, 0))
    assert len(tuples) == 16
    assert tuples[0] == (2, 0)
    assert all(2 <= t[0] <= 5 and 0 <= t[1] <= 3 for t in tuples)


def test_fc_check_element_passes(kxy):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    report = fc_check_element(x, [m], 0)
    assert report.ok
    assert report.fc1_pass and report.fc2_pass
    assert report.order == 1
    assert report.slot == 0
    assert report.fc1_counterexample is None


def test_fc_check_element_saturates_once(hyper, monkeypatch):
    # FC2 reads the saturation the nilpotency guard already computed
    calls = []
    saturate = PolyIdeal.saturate

    def counted(self, other):
        calls.append(other)
        return saturate(self, other)

    monkeypatch.setattr(PolyIdeal, "saturate", counted)
    x, y, z = hyper.gens()
    report = fc_check_element(x, [AlgIdeal(hyper, [x, y, z])], 0)
    assert report.fc2_pass
    assert len(calls) == 1


def test_fc_check_element_homogeneous_fc1_intersects_nothing(hyper, monkeypatch):
    # on homogeneous input FC1 compares Hilbert series, so every intersection
    # left belongs to the annihilator base : x (a colon) or to FC2's
    # saturation, which intersects one elimination per generator
    inside = [0]
    outside = []
    colon, saturate, intersect = PolyIdeal.colon, PolyIdeal.saturate, PolyIdeal.intersect

    def counted(method):
        def run(self, other):
            inside[0] += 1
            try:
                return method(self, other)
            finally:
                inside[0] -= 1

        return run

    def counted_intersect(self, other):
        if not inside[0]:
            outside.append(other)
        return intersect(self, other)

    monkeypatch.setattr(PolyIdeal, "colon", counted(colon))
    monkeypatch.setattr(PolyIdeal, "saturate", counted(saturate))
    monkeypatch.setattr(PolyIdeal, "intersect", counted_intersect)
    x, y, z = hyper.gens()
    m = AlgIdeal(hyper, [x, y, z])
    report = fc_check_element(y, [m, AlgIdeal(hyper, [x, y])], 0)
    assert not report.fc1_pass
    assert report.fc1_counterexample == (2, 1)
    assert outside == []


def test_fc_check_element_guards(kxy, nondomain):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    with pytest.raises(ValueError):
        fc_check_element(kxy.zero(), [m], 0)
    with pytest.raises(ValueError):
        fc_check_element(y, [AlgIdeal(kxy, [x])], 0)
    with pytest.raises(ValueError):
        # x^2 lies in m * m, so it cannot head a sequence for slot m
        fc_check_element(x * x, [m], 0)
    with pytest.raises(ValueError):
        fc_check_element(x, [m], 5)
    X, Y = nondomain.gens()
    with pytest.raises(ValueError):
        # X is nilpotent, so the product ideal saturates to the unit ideal
        fc_check_element(X, [AlgIdeal(nondomain, [X])], 0)


def test_build_fc_sequence_on_reduction(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    J, _ = find_minimal_reduction(m2, seed=5)
    fc = build_fc_sequence(J, m2, seed=5)
    assert len(fc.elements) == 2
    assert all(r.ok for r in fc.reports)
    assert fc.o_values == degree_sequence(J) == (2, 2)


def test_build_fc_sequence_mixed_degrees(kxy):
    x, y = kxy.gens()
    I = AlgIdeal(kxy, [x, y * y])
    fc = build_fc_sequence(I, I)
    assert fc.o_values == (1, 2)
    assert all(r.ok for r in fc.reports)


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_build_fc_sequence_regenerates_j_at_the_origin(field):
    # I has zeros away from the origin, so its minimal basis, and the
    # sequence drawn from it, generate it only locally
    ring = poly_ring(("x", "y"), field)
    x, y = ring.gens()
    I = AlgIdeal(make_algebra(ring), [x * x - x, x * y + x])
    fc = build_fc_sequence(I, I)
    assert fc.o_values == degree_sequence(I) == (1,)
    assert all(r.ok for r in fc.reports)
    assert not PolyIdeal(ring, tuple(e.rep for e in fc.elements)).equals(I.lift)


def test_build_fc_sequence_guards(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    with pytest.raises(ValueError):
        build_fc_sequence(AlgIdeal(kxy, [x * x]), m2)
    with pytest.raises(ValueError):
        # a reduction of itself but not minimally generated
        build_fc_sequence(m2, m2)
