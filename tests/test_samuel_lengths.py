"""The Samuel oracle's colengths off one basis of gr_q(S) against the powers
of q they replaced.

`multiplicity.samuel_oracle` reads l(S/q^n) as the sum over k < n of the
standard monomials of T-degree k in k[x, T]/(L + (g)), L the Rees ideal of
q (`multiplicity._associated_graded`).  The reference forms q^n and takes
its colength (`tests/reference_colength.power_lengths`).  Both must give the
same lengths, and the oracle the same value and witness over windows that
start at 0 and at 1, over small and large prime fields and qq, in two
polynomial rings, the cusp y^2 z - x^3, k[X,Y]/(XY, X^2) and the fat line
k[x,y]/(x^2), for homogeneous and non-homogeneous ideals and for ideals given
by redundant generators.
"""

import pytest

from gradmult import (
    QQ,
    AlgIdeal,
    PrimeField,
    make_algebra,
    multiplicity,
    poly_ring,
    samuel_oracle,
)
from gradmult.hilbert import BlockSeries
from gradmult.multiplicity import _associated_graded, stable_difference
from gradmult.rees import multi_rees
from gradmult.reports import run_script
from gradmult.script import parse_script

from reference_colength import power_lengths

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]


def plane(field):
    return make_algebra(poly_ring(("x", "y"), field))


def space(field):
    return make_algebra(poly_ring(("x", "y", "z"), field))


def cusp(field):
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    return make_algebra(ring, [y * y * z - x**3])


def embedded_point(field):
    # k[X,Y]/(XY, X^2): a line with an embedded point, not a domain
    ring = poly_ring(("X", "Y"), field)
    X, Y = ring.gens()
    return make_algebra(ring, [X * Y, X * X])


def fat_line(field):
    # k[x,y]/(x^2): the doubled line, e = 2
    ring = poly_ring(("x", "y"), field)
    x, y = ring.gens()
    return make_algebra(ring, [x * x])


def plane_ideals(algebra):
    x, y = algebra.gens()
    return {
        "homogeneous": [x * x, x * y, y**3],
        "non-homogeneous": [x + y * y, x * y],
        "redundant": [x * x, y * y, x * x + y * y, x * y * (x + y)],
    }


def space_ideals(algebra):
    x, y, z = algebra.gens()
    return {
        "homogeneous": [x, y * y, z * z],
        "non-homogeneous": [x + y * y, y + z * z, z**3],
        "redundant": [x, y, z * z, x + y, x * z],
    }


def cusp_ideals(algebra):
    x, y, z = algebra.gens()
    return {
        "homogeneous": [y, z * z],
        "non-homogeneous": [y + x * x, z + y * y],
        "redundant": [y, z, y + z, y * y],
    }


def line_ideals(algebra):
    u, w = algebra.gens()
    return {
        "homogeneous": [w * w],
        "non-homogeneous": [u + w * w],
        "redundant": [u + w * w, w**3, u * w],
    }


RINGS = {
    "k[x,y]": (plane, plane_ideals),
    "k[x,y,z]": (space, space_ideals),
    "cusp": (cusp, cusp_ideals),
    "embedded-point": (embedded_point, line_ideals),
    "fat-line": (fat_line, line_ideals),
}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("ring", list(RINGS))
def test_lengths_match_the_powers(ring, field):
    make, ideals = RINGS[ring]
    algebra = make(field)
    d = algebra.dim
    # the shortest window the oracle takes, starting at 1
    span = d + 4
    for name, gens in ideals(algebra).items():
        q = AlgIdeal(algebra, gens)
        reference = power_lengths(q, span)
        graded = _associated_graded(q)
        lengths = [0]
        for k in range(span):
            lengths.append(lengths[-1] + graded.count((k,)))
        assert lengths == reference, name
        for lo in (0, 1):
            window = (lo, lo + d + 3)
            res = samuel_oracle(q, window=window)
            want = stable_difference(reference[lo:window[1] + 1], d, window)
            assert (res.value, res.witness) == want, (name, window)


def test_oracle_forms_no_power(kxy, monkeypatch):
    x, y = kxy.gens()
    monkeypatch.setattr(AlgIdeal, "power", lambda *a: pytest.fail("power formed"))
    assert samuel_oracle(AlgIdeal(kxy, [x + y * y, y**3])).value == 3


def test_slow_qq_case_agrees_on_both_routes():
    # the power route took seconds here: q^7 of three generators over qq
    text = (
        "ring S vars [x, y, z] field qq relations [];\n"
        "elem a = x + y^2;\nelem b = y + z^2;\nelem c = z^3;\n"
        "cmd samuel a b c mode=both;\n"
    )
    doc, rc = run_script(parse_script(text))
    (rep,) = doc["reports"]
    assert rc == 0
    assert rep["values"] == {"fastpath": 3, "oracle": 3}
    assert rep["agree"] is True


def test_infinite_block_piece_is_an_internal_error():
    # no leads at all: the block-degree-0 piece is all of k[x, y]
    series = BlockSeries([], 2, [(1, 1)])
    with pytest.raises(ArithmeticError, match="infinitely many"):
        series.count((0,))
    # (x) alone leaves k[y] T1^k for every k
    series = BlockSeries([(1, 0, 0, 0)], 2, [(1, 1)])
    with pytest.raises(ArithmeticError, match="infinitely many"):
        series.count((1,))


def test_infinite_piece_reports_internal_error(monkeypatch):
    # the Rees algebra without the generators of q has infinite pieces: an
    # oracle handed its leads must fail as a kernel fault, never give a number
    def rees_only(q):
        gens = [g.rep for g in q.gens]
        return multi_rees(q.algebra.defining, [gens]).series()

    monkeypatch.setattr(multiplicity, "_associated_graded", rees_only)
    text = (
        "ring S vars [x, y] field fp(32003) relations [];\n"
        "elem a = x;\nelem b = y^2;\ncmd samuel a b mode=oracle;\n"
    )
    doc, rc = run_script(parse_script(text))
    (rep,) = doc["reports"]
    assert rc == 4
    assert rep["status"] == "error"
    assert rep["error"]["code"] == "INTERNAL-ERROR"
    assert "values" not in rep
