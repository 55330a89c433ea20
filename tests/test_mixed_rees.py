"""Rees presentations, Rees and mixed multiplicities, invariance of closures."""

import importlib.resources

import pytest

from gradmult import (
    AlgIdeal,
    FitMismatch,
    HypothesisFail,
    PolyIdeal,
    QQ,
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
from gradmult import degseq, groebner, mixed_rees, multiplicity, reductions, reports, rees
from gradmult.mixed_rees import rees_multiplicity_fastpath, rees_multiplicity_oracle
from gradmult.reports import run_script
from gradmult.script import parse_script


def test_rees_presentation_of_irrelevant(kxy):
    x, y = kxy.gens()
    I = AlgIdeal(kxy, [x, y])
    pres = rees_presentation(I)
    assert rees_presentation(I) is pres
    ring = pres.ideal.ring
    assert ring.names == ("x", "y", "T1_1", "T1_2")
    assert pres.n == 2
    assert pres.blocks == ((x.rep, y.rep),)
    assert pres.ideal.krull_dimension() == 3
    xv, yv, t1, t2 = (ring.var(i) for i in range(4))
    relation = xv * t2 - yv * t1
    assert pres.ideal.equals(PolyIdeal(ring, (relation,)))


def test_rees_presentation_principal(kxy):
    x, y = kxy.gens()
    pres = rees_presentation(AlgIdeal(kxy, [x]))
    assert pres.ideal.is_zero()
    assert pres.ideal.krull_dimension() == 3


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
    res = rees_multiplicity_fastpath(m2)
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


def merged(table):
    """The entries of a table whose last ideal is m, merged into the first
    slot: m^(n0) K m^(n_s) = m^(n0 + n_s) K, so h_s(n0, .., n_s) =
    h_(s-1)(n0 + n_s, ..), and the top coefficients give
    e_s(k0, .., k_s) = e_(s-1)(k0 + k_s, ..)."""
    return {(k[0] + k[-1], *k[1:-1]): v for k, v in table.entries.items()}


def test_bhattacharya_guards(kxy, nondomain):
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    with pytest.raises(ValueError):
        bhattacharya_oracle([])
    # any number of ideals: three copies of m merge into two
    ranges = {"n0_range": (2, 4), "n_ranges": ((2, 4),) * 3}
    three = bhattacharya_oracle([m, m, m], **ranges)
    two = bhattacharya_oracle([m, m], n0_range=(2, 4), n_ranges=((2, 4),) * 2)
    assert three.q == two.q == 2
    assert all(two.entries[k] == v for k, v in merged(three).items())
    assert set(merged(three)) == set(two.entries)
    with pytest.raises(ValueError):
        bhattacharya_oracle([AlgIdeal(kxy, [x + y * y])])
    with pytest.raises(ValueError):
        bhattacharya_oracle([AlgIdeal(kxy, [])])
    X, Y = nondomain.gens()
    with pytest.raises(ValueError):
        bhattacharya_oracle([AlgIdeal(nondomain, [X])])


@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=repr)
def test_bhattacharya_merges_the_irrelevant_ideal(field):
    # a third ideal m adds its exponent to that of m in the first slot
    S = make_algebra(poly_ring(("x", "y"), field))
    x, y = S.gens()
    pair = [AlgIdeal(S, [x * x, y * y]), AlgIdeal(S, [x, y**3])]
    three = bhattacharya_oracle(pair + [AlgIdeal(S, [x, y])], n_ranges=((2, 5),) * 3)
    two = bhattacharya_oracle(pair)
    assert three.entries == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
    assert two.entries == {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 1}
    assert all(two.entries[k] == v for k, v in merged(three).items())


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


def test_bhattacharya_one_point_axis_is_a_fit_failure(kxy, monkeypatch):
    # a valid window too thin to fit is a refuted fit, not bad input
    x, y = kxy.gens()
    m = AlgIdeal(kxy, [x, y])
    with pytest.raises(FitMismatch, match="no invertible fit system"):
        bhattacharya_oracle([m], n_ranges=((3, 3),))
    # values no linear polynomial fits put a pivot in the value column first
    def squares(ideals, n0s, axes):
        return {(3,): {a: a * a for a in n0s}}

    monkeypatch.setattr(mixed_rees, "_bhattacharya_columns", squares)
    with pytest.raises(FitMismatch, match="no invertible fit system"):
        bhattacharya_oracle([m], n_ranges=((3, 3),))


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


def test_mixed_via_fc_quotient_guards_each_element_as_fc_seq_does():
    # the quotient route runs the chain of fc_seq: h = y^2 lies in m * m, a
    # usage error there as for a single element, while g = y + z^2 passes
    S = make_algebra(poly_ring(("x", "y", "z"), PrimeField(32003)))
    x, y, z = S.gens()
    M = AlgIdeal(S, [x, y, z])
    f = x + y * y
    with pytest.raises(ValueError, match=r"element lies in m \* \(slot ideal\)"):
        mixed_via_fc_quotient(M, [f, y * y])
    report = mixed_via_fc_quotient(M, [f, y + z * z])
    assert (report.value, report.order_route_value, report.agree) == (1, 1, True)


def test_mixed_via_fc_quotient_builds_no_fiber_cone(monkeypatch):
    # the height check reads the codimension of I: no Rees presentation
    calls = []
    real = reductions.rees_presentation

    def counted(I):
        calls.append(I)
        return real(I)

    monkeypatch.setattr(reductions, "rees_presentation", counted)
    S = make_algebra(poly_ring(("x", "y", "z", "w"), PrimeField(32003)))
    x, y, z, w = S.gens()
    report = mixed_via_fc_quotient(AlgIdeal(S, [x, y, z, w]), [x + y * y])
    assert report.value == 1
    assert calls == []


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


# the scripts of bench/scripts, whose commands the heavy workload runs
HEAVY_SCRIPTS = {
    "heavy_fc": (
        "ring H vars [x,y,z] field fp(32003) relations [y^2*z - x^3];\n"
        "ideal M = [x, y, z];\nideal J = [y, x + z];\ncmd fc_seq J M;\n"
    ),
    "heavy_mixed": (
        "ring S vars [x,y,z] field fp(32003) relations [];\n"
        "ideal I = [x^2, y^2, z^2, x*y, y*z];\ncmd degseq I;\ncmd mixed I mode=both;\n"
    ),
    "heavy_rees": (
        "ring S vars [x,y] field fp(32003) relations [];\n"
        "ideal A = [x, y^3];\nideal B = [x^2, y^3];\n"
        "cmd rees_mult A mode=both;\ncmd rees_mult B mode=both;\n"
    ),
}

# rees.multi_rees calls per command, memo cleared.  A rees_mult command
# builds one presentation, kept on its ideal, for the fiber cone and the
# oracle, and a one-ideal table reads it too; invariance builds one per
# ideal (I, E, I + E).
REES_BUILDS = {
    "heavy_fc": [5],
    "heavy_mixed": [0, 1],
    "heavy_rees": [1, 1],
    "counterexample": [0, 0, 1, 0],
    "hyper": [0, 1, 1],
    "invariance": [3],
    "rees": [1, 1, 1, 0, 4],
    "thm210": [1, 1, 0, 2],
}


@pytest.mark.parametrize("name", list(REES_BUILDS))
def test_rees_presentations_per_command(monkeypatch, name):
    if name in HEAVY_SCRIPTS:
        text = HEAVY_SCRIPTS[name]
    else:
        text = importlib.resources.files("gradmult").joinpath("suite", f"{name}.gm").read_text()
    counts = []
    build, run = rees.multi_rees, reports.run_command

    def counted(*args):
        counts[-1] += 1
        return build(*args)

    def each(session, command):
        counts.append(0)
        return run(session, command)

    for module in (rees, reductions, mixed_rees, multiplicity):
        monkeypatch.setattr(module, "multi_rees", counted)
    monkeypatch.setattr(reports, "run_command", each)
    groebner._memo.clear()
    run_script(parse_script(text))
    assert counts == REES_BUILDS[name]


@pytest.mark.parametrize("gens", [
    "x^2, y^2, z^2, x*y, y*z", "x^2 + y^2, y^2, z^2, x*y, y*z", "2*x^2, y^2, z^2, x*y, y*z",
])
def test_mixed_builds_one_rees_algebra(monkeypatch, gens):
    # the Bhattacharya table and the fiber cone of the minimal reduction
    # search present S[I t] over the minimal basis of I, however I is
    # given: one basis between them
    real = groebner._reduced_basis
    rees_builds = []

    def counted(polys):
        if "t1" in polys[0].ring.names:
            rees_builds.append(polys[0].ring.names)
        return real(polys)

    groebner._memo.clear()
    monkeypatch.setattr(groebner, "_reduced_basis", counted)
    doc, rc = run_script(parse_script(
        "ring S vars [x,y,z] field fp(32003) relations [];\n"
        f"ideal I = [{gens}];\ncmd mixed I mode=both;\n"
    ))
    assert rc == 0
    assert doc["reports"][0]["agree"] is True
    assert doc["reports"][0]["values"]["table"] == {"0,2": 4, "1,1": 2, "2,0": 1}
    assert rees_builds == [("x", "y", "z", "T1_1", "T1_2", "T1_3", "T1_4", "T1_5", "t1")]


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
