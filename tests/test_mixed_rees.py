"""Rees presentations, Rees and mixed multiplicities, invariance of closures."""

import pytest

from gradmult import (
    AlgIdeal,
    FitMismatch,
    HypothesisFail,
    PolyIdeal,
    PrimeField,
    bhattacharya_oracle,
    build_fc_sequence,
    find_minimal_reduction,
    invariance_check,
    make_algebra,
    mixed_fastpath,
    mixed_via_fc_quotient,
    poly_ring,
    rees_multiplicity,
    rees_presentation,
)
from gradmult import degseq, groebner
from gradmult.mixed_rees import rees_multiplicity_fastpath, rees_multiplicity_oracle
from gradmult.reports import run_script
from gradmult.script import parse_script


def test_rees_presentation_of_irrelevant(kxy):
    x, y = kxy.gens()
    pres = rees_presentation(AlgIdeal(kxy, [x, y]))
    assert pres.ambient.names == ("x", "y", "T1", "T2")
    assert pres.base_vars == 2
    assert pres.dim == 3
    ring = pres.ambient
    xv, yv, t1, t2 = (ring.var(i) for i in range(4))
    relation = xv * t2 - yv * t1
    assert pres.rees_ideal.equals(PolyIdeal(ring, (relation,)))


def test_rees_presentation_principal(kxy):
    x, y = kxy.gens()
    pres = rees_presentation(AlgIdeal(kxy, [x]))
    assert pres.rees_ideal.is_zero()
    assert pres.dim == 3


def test_rees_presentation_guards(kxy):
    with pytest.raises(ValueError):
        rees_presentation(AlgIdeal(kxy, []))
    with pytest.raises(ValueError):
        rees_presentation(AlgIdeal(kxy, [kxy.one()]))


def test_rees_oracle_principal(kxy):
    x, y = kxy.gens()
    res = rees_multiplicity_oracle(AlgIdeal(kxy, [x]))
    assert res.value == 1
    assert res.method == "finite-difference-oracle"
    assert res.witness["route"] == "series"
    assert res.witness["filtration"] == "N-adic"


def test_rees_both_routes_on_irrelevant(kxy):
    x, y = kxy.gens()
    report = rees_multiplicity(AlgIdeal(kxy, [x, y]), mode="both")
    assert report.fastpath.value == 2
    assert report.oracle.value == 2
    assert report.agree is True
    assert report.value == 2
    assert report.fastpath.method == "fastpath-cor-3.2(ii)"


def test_rees_oracle_non_homogeneous_presentation(monkeypatch):
    # the presentation of (x, y, z^2) is not standard graded.  A basis of
    # rees + (x, T)^k for each k of the window ran for minutes (m^5 alone has
    # 252 generators in six variables); the tangent cone needs one small basis
    core = groebner._reduced_basis

    def bounded(polys):
        assert len(polys) <= 100, "a basis computation was handed a power of m"
        return core(polys)

    monkeypatch.setattr(groebner, "_reduced_basis", bounded)
    ring = poly_ring(("x", "y", "z"), PrimeField(32003))
    S = make_algebra(ring)
    x, y, z = S.gens()
    report = rees_multiplicity(AlgIdeal(S, [x, y, z * z]), mode="both")
    assert report.oracle.value == 3
    assert report.fastpath.value == 3
    assert report.agree is True
    assert report.oracle.witness["route"] == "direct"


def test_rees_fastpath_values(kxy, hyper):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    res = rees_multiplicity_fastpath(m2, degseq=(2, 2))
    assert res.value == 3
    assert res.witness["degree_sequence"] == [2, 2]
    assert res.witness["height"] == 2
    assert rees_multiplicity_fastpath(AlgIdeal(kxy, [x, y * y])).value == 2
    hx, hy, hz = hyper.gens()
    assert rees_multiplicity_fastpath(AlgIdeal(hyper, [hx, hy, hz])).value == 6


def test_rees_fastpath_hypotheses(kxy, nondomain):
    x, y = kxy.gens()
    X, Y = nondomain.gens()
    with pytest.raises(HypothesisFail):
        rees_multiplicity_fastpath(AlgIdeal(nondomain, [X + Y * Y]))
    with pytest.raises(HypothesisFail):
        rees_multiplicity_fastpath(AlgIdeal(kxy, [x * x, x * y]))
    with pytest.raises(ValueError):
        rees_multiplicity_fastpath(AlgIdeal(kxy, [x, y]), degseq=(1, 1, 1))


def test_rees_modes(kxy):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    fast_only = rees_multiplicity(m, mode="fastpath")
    assert fast_only.oracle is None
    assert fast_only.agree is None
    assert fast_only.value == 2
    with pytest.raises(ValueError):
        rees_multiplicity(m, mode="quick")


def test_bhattacharya_tables(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    table = bhattacharya_oracle([m2])
    assert table.q == 2
    assert table.entries == {(1, 0): 1, (0, 1): 2}
    assert table.fit_residual == 0
    assert table.entry((0, 1)) == 2
    assert table.entry_for_type(0) == 1
    assert table.entry_for_type(1) == 2
    assert bhattacharya_oracle([AlgIdeal(kxy, [x, y * y])]).entries == {
        (1, 0): 1,
        (0, 1): 1,
    }
    # height one: the type-1 entry vanishes
    assert bhattacharya_oracle([AlgIdeal(kxy, [x])]).entries == {(1, 0): 1, (0, 1): 0}


def test_bhattacharya_two_ideals(kxy):
    x, y = kxy.gens()
    table = bhattacharya_oracle(
        [AlgIdeal(kxy, [x]), AlgIdeal(kxy, [y])],
        n0_range=(2, 4),
        n_ranges=((2, 4), (2, 4)),
    )
    assert table.entries == {(1, 0, 0): 1, (0, 1, 0): 0, (0, 0, 1): 0}


def test_bhattacharya_guards(kxy, nondomain):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    with pytest.raises(ValueError):
        bhattacharya_oracle([m, m, m])
    with pytest.raises(ValueError):
        bhattacharya_oracle([AlgIdeal(kxy, [x + y * y])])
    with pytest.raises(ValueError):
        bhattacharya_oracle([AlgIdeal(kxy, [])])
    X, Y = nondomain.gens()
    with pytest.raises(ValueError):
        bhattacharya_oracle([AlgIdeal(nondomain, [X])])


def test_bhattacharya_rejects_bad_windows(kxy):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    for n0_range in ((5, 2), (-1, 3), (2,), 3):
        with pytest.raises(ValueError, match="range"):
            bhattacharya_oracle([m], n0_range=n0_range)
    with pytest.raises(ValueError, match="range"):
        bhattacharya_oracle([m], n_ranges=((4, 3),))
    # one range for two ideals, and three for two
    with pytest.raises(ValueError, match="one n range per ideal"):
        bhattacharya_oracle([AlgIdeal(kxy, [x]), AlgIdeal(kxy, [y])], n_ranges=((2, 4),))
    with pytest.raises(ValueError, match="one n range per ideal"):
        bhattacharya_oracle(
            [AlgIdeal(kxy, [x]), AlgIdeal(kxy, [y])],
            n0_range=(2, 4),
            n_ranges=((2, 4), (2, 4), (2, 4)),
        )


def test_bhattacharya_one_point_axis_is_a_fit_failure(kxy):
    # a valid window too thin to fit is a refuted fit, not bad input
    x, y = kxy.gens()
    with pytest.raises(FitMismatch, match="no invertible fit system"):
        bhattacharya_oracle([AlgIdeal(kxy, [x, y])], n_ranges=((3, 3),))


def test_mixed_fastpath_values(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    zero_type = mixed_fastpath(m2, i=0)
    assert (zero_type.value, zero_type.method) == (1, "fastpath-cor-3.2(i)")
    assert mixed_fastpath(m2, i=1).value == 2
    principal = AlgIdeal(kxy, [x])
    assert mixed_fastpath(principal, i=0).value == 1
    vanish = mixed_fastpath(principal, i=1)
    assert (vanish.value, vanish.method) == (0, "fastpath-rem-3.5")


def test_mixed_fastpath_guards(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    for bad in (None, -1, 2):
        with pytest.raises(ValueError):
            mixed_fastpath(m2, i=bad)
    with pytest.raises(HypothesisFail):
        mixed_fastpath(AlgIdeal(kxy, [x * x, x * y]), i=0)


def test_mixed_via_fc_quotient(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    J, _ = find_minimal_reduction(m2, seed=5)
    fc = build_fc_sequence(J, m2, seed=5)
    report = mixed_via_fc_quotient(m2, fc.elements[:1])
    assert report.value == 2
    assert report.t == 1
    assert report.fc_verified
    assert report.agree is True
    assert report.value == bhattacharya_oracle([m2]).entry_for_type(1)
    empty = mixed_via_fc_quotient(m2, [])
    assert (empty.value, empty.t, empty.agree) == (1, 0, True)


def test_mixed_via_fc_quotient_guards(kxy):
    x, y = kxy.gens()
    m2 = AlgIdeal(kxy, [x, y]).power(2)
    J, _ = find_minimal_reduction(m2, seed=5)
    fc = build_fc_sequence(J, m2, seed=5)
    with pytest.raises(HypothesisFail):
        mixed_via_fc_quotient(m2, fc.elements)
    with pytest.raises(ValueError):
        mixed_via_fc_quotient(m2, [y])


def test_invariance_same_closure_pair(kxy):
    x, y = kxy.gens()
    lhs = AlgIdeal(kxy, [x * x, y * y])
    rhs = AlgIdeal(kxy, [x * x + x * y, y * y - x * y])
    report = invariance_check(lhs, rhs)
    assert report.closure_certified
    assert report.degseq_lhs == report.degseq_rhs == (2, 2)
    assert report.rees_fastpath_lhs == report.rees_fastpath_rhs == 3
    assert report.rees_oracle_lhs == report.rees_oracle_rhs == 3
    assert report.mixed_lhs == report.mixed_rhs
    assert report.agree


def test_invariance_rejects_unrelated_pair(kxy):
    x, y = kxy.gens()
    with pytest.raises(HypothesisFail):
        invariance_check(AlgIdeal(kxy, [x]), AlgIdeal(kxy, [y]))


def heavy_mixed_ideal():
    """The ideal of bench/scripts/heavy_mixed.gm, in a fresh algebra."""
    S = make_algebra(poly_ring(("x", "y", "z"), PrimeField(32003)))
    x, y, z = S.gens()
    return AlgIdeal(S, [x * x, y * y, z * z, x * y, y * z])


def test_fast_paths_read_the_search_degrees(monkeypatch):
    # the degree sequence of the minimal reduction comes off the search that
    # certified it: no adjusted basis of J, so no initial ideal is formed
    def refuse(*args):
        raise AssertionError("initial_ideal formed on a fast path")

    monkeypatch.setattr(degseq, "initial_ideal", refuse)
    I = heavy_mixed_ideal()
    assert rees_multiplicity_fastpath(I).witness["degree_sequence"] == [2, 2, 2]
    assert rees_multiplicity_fastpath(I).value == 1 + 2 + 4
    assert [mixed_fastpath(I, i=i).value for i in range(3)] == [1, 2, 4]
    doc, rc = run_script(parse_script(
        "ring S vars [x,y,z] field fp(32003) relations [];\n"
        "ideal I = [x^2, y^2, z^2, x*y, y*z];\nideal E = [x^2, y^2, z^2, x*y, y*z, x*z];\n"
        "cmd rees_mult I mode=fastpath;\ncmd mixed I mode=both;\ncmd min_reduction I;\n"
        "cmd invariance I E oracle=off;\n"
    ))
    assert rc == 0
    values = [r["values"] for r in doc["reports"]]
    assert values[0]["fastpath"] == 7
    assert values[1]["fastpath"] == {"0": 1, "1": 2, "2": 4}
    assert values[2]["degree_sequence"] == [2, 2, 2]
    assert values[3]["degree_sequence_lhs"] == values[3]["degree_sequence_rhs"] == [2, 2, 2]


def test_mixed_builds_one_rees_algebra(monkeypatch):
    # the Bhattacharya table and the fiber cone of the minimal reduction
    # search present S[I t] over one generating set: one basis between them
    real = groebner._reduced_basis
    rees_builds = []

    def counted(polys):
        if "t" in polys[0].ring.names:
            rees_builds.append(polys[0].ring.names)
        return real(polys)

    groebner._memo.clear()
    monkeypatch.setattr(groebner, "_reduced_basis", counted)
    doc, rc = run_script(parse_script(
        "ring S vars [x,y,z] field fp(32003) relations [];\n"
        "ideal I = [x^2, y^2, z^2, x*y, y*z];\ncmd mixed I mode=both;\n"
    ))
    assert rc == 0
    assert doc["reports"][0]["agree"] is True
    assert rees_builds == [("x", "y", "z", "T1", "T2", "T3", "T4", "T5", "t")]


def test_bhattacharya_saturates_once_for_a_nested_pair(monkeypatch):
    # J = (x^2, xz) lies inside I = (x, z) in k[x,y,z]/(xy), so
    # P : (J I)^inf = P : J^inf = (y): one saturation, where saturating by
    # each ideal in turn took two, and the same q
    ring = poly_ring(("x", "y", "z"), PrimeField(32003))
    x, y, z = ring.gens()
    S = make_algebra(ring, [x * y])
    x, y, z = S.gens()
    J, I = AlgIdeal(S, [x * x, x * z]), AlgIdeal(S, [x, z])
    in_turn = S.defining
    for ideal in (J, I):
        in_turn = in_turn.saturate(PolyIdeal(ring, tuple(g.rep for g in ideal.gens)))
    real = PolyIdeal.saturate
    calls = []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(PolyIdeal, "saturate", counted)
    table = bhattacharya_oracle([J, I])
    assert len(calls) == 1
    assert table.q == in_turn.krull_dimension() == 2
    assert table.entries == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
