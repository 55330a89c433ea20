"""The minimal-reduction search skips degree multisets it can never certify
and reads each candidate's forms in F(I)_1 once.

On homogeneous I, `find_minimal_reduction` passes over a multiset in which
some degree occurs more often than I has minimal generators of that degree,
taking from its generator the coefficients the rejected draws would have
taken.  On any I a candidate needs spread independent forms, where the
replaced search asked non-homogeneous candidates for a minimal basis of
spread elements, and it is certified from the same forms its rank test
read, where the replaced search called is_reduction.  So it must return
what the reference search (`reference_reductions`) returns, generator for
generator, with the same certificate, or raise the same SearchExhausted
payload: over small and large prime fields and qq, for seeds 0 to 3, on
ideals whose first multiset is skipped, on ideals where none is, and on
non-homogeneous ideals.  The counts
pin the saving: one candidate per search, its forms read once, where the
whole first multiset was drawn before.  On seeded homogeneous ideals the
degrees of the certified J's generators, which the fast paths read
(`reductions.reduction_degrees`), must be its degree sequence.
"""

import random

import pytest

import reference_reductions
from conftest import four_algebras, random_poly
from gradmult import (
    QQ,
    AlgIdeal,
    PrimeField,
    degree_sequence,
    find_minimal_reduction,
    groebner,
    make_algebra,
    poly_ring,
    reductions,
)
from gradmult.errors import SearchExhausted

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]

# name -> (variables, relations, generators)
IDEALS = {
    # the first multiset asks for two generators of one degree
    "(x, y^3)": (("x", "y"), lambda x, y: [], lambda x, y: [x, y**3]),
    "(x^2, y^3)": (("x", "y"), lambda x, y: [], lambda x, y: [x * x, y**3]),
    "(x, y^2)": (("x", "y"), lambda x, y: [], lambda x, y: [x, y * y]),  # K of rees.gm
    "(x, y^2, z^3)": (("x", "y", "z"), lambda x, y, z: [], lambda x, y, z: [x, y * y, z**3]),
    # every multiset is drawn
    "(x^2, y^2, z^2, xy, yz)": (
        ("x", "y", "z"), lambda x, y, z: [], lambda x, y, z: [x * x, y * y, z * z, x * y, y * z],
    ),
    "cusp (x, y, z)": (("x", "y", "z"), lambda x, y, z: [y * y * z - x**3], lambda x, y, z: [x, y, z]),
    # homogeneous as an ideal, (xy, y^2, x^3) ((y^2, x^3) over fp(2)), but
    # with no homogeneous minimal reduction of two generators: exhausted
    "(8xy - 6xy^2, 8x^3y - 6xy, x^3, y^2)": (
        ("x", "y"), lambda x, y: [],
        lambda x, y: [8 * x * y - 6 * x * y * y, 8 * x**3 * y - 6 * x * y, x**3, y * y],
    ),
    # not homogeneous: the rank test in F(I)_1 against minimal_basis(J)
    "(x + y^2, y^3)": (("x", "y"), lambda x, y: [], lambda x, y: [x + y * y, y**3]),
    "(x^2 + y^3, x^2y, y^4)": (("x", "y"), lambda x, y: [], lambda x, y: [x * x + y**3, x * x * y, y**4]),
    "(x + y^2, y^2 + z^3, z^4)": (
        ("x", "y", "z"), lambda x, y, z: [], lambda x, y, z: [x + y * y, y * y + z**3, z**4],
    ),
    "(x + y^2, y^3 + z^2, yz, z^3)": (
        ("x", "y", "z"), lambda x, y, z: [], lambda x, y, z: [x + y * y, y**3 + z * z, y * z, z**3],
    ),
    "cusp (x + y^2, z)": (("x", "y", "z"), lambda x, y, z: [y * y * z - x**3], lambda x, y, z: [x + y * y, z]),
    "fat line (X + Y^2, Y^3)": (("X", "Y"), lambda X, Y: [X * Y, X * X], lambda X, Y: [X + Y * Y, Y**3]),
}
NON_HOMOGENEOUS = list(IDEALS)[list(IDEALS).index("(x + y^2, y^3)"):]


def _ideal(name, field):
    names, relations, gens = IDEALS[name]
    ring = poly_ring(names, field)
    algebra = make_algebra(ring, relations(*ring.gens()))
    return AlgIdeal(algebra, gens(*algebra.gens()))


def _outcome(search, I, seed, retries):
    try:
        J, cert = search(I, seed=seed, retries=retries)
    except SearchExhausted as exc:
        return exc.payload()
    return [g.rep for g in J.gens], cert


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", list(IDEALS))
@pytest.mark.parametrize("retries", [reductions.DEFAULT_RETRIES, 1])
def test_the_search_matches_the_reference(name, field, retries):
    for seed in range(4):
        got = _outcome(find_minimal_reduction, _ideal(name, field), seed, retries)
        want = _outcome(reference_reductions.find_minimal_reduction, _ideal(name, field), seed, retries)
        assert got == want, (name, field, seed, retries)


def _count_candidates(monkeypatch):
    """Count the reads of candidate forms (_fiber_forms), the certificates
    read off them (_fiber_certificate) and the is_reduction calls."""
    calls = {"_fiber_forms": 0, "_fiber_certificate": 0, "is_reduction": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(reductions, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(reductions, name, counted)
    return calls


@pytest.mark.parametrize("name", ["(x, y^3)", "(x^2, y^3)"])
def test_one_candidate_per_search(name, monkeypatch):
    calls = _count_candidates(monkeypatch)
    J, cert = find_minimal_reduction(_ideal(name, PrimeField(32003)))
    assert cert.ok
    # one candidate, its forms read once and certified from them
    assert calls == {"_fiber_forms": 1, "_fiber_certificate": 1, "is_reduction": 0}


@pytest.mark.parametrize("name, multisets", [
    ("(x, y^3)", [[1, 1], [1, 3], [3, 3]]),
    ("(x^2, y^3)", [[2, 2], [2, 3], [3, 3]]),
])
def test_exhaustion_lists_the_skipped_multisets(name, multisets, monkeypatch):
    calls = _count_candidates(monkeypatch)
    with pytest.raises(SearchExhausted) as exc:
        find_minimal_reduction(_ideal(name, PrimeField(32003)), retries=0)
    assert exc.value.details == {"spread": 2, "multisets": multisets, "retries": 0}
    assert calls == {"_fiber_forms": 0, "_fiber_certificate": 0, "is_reduction": 0}


def test_candidates_get_no_basis(monkeypatch):
    # a candidate lies in I, which is proper, so it is proper with no basis
    # of its own: once I's fiber cone is kept, the search builds no basis in
    # the ring of S, and it returns the reference's J
    name, retries = "(x^2, y^2, z^2, xy, yz)", reductions.DEFAULT_RETRIES
    want = _outcome(
        reference_reductions.find_minimal_reduction, _ideal(name, PrimeField(32003)), 0, retries
    )
    I = _ideal(name, PrimeField(32003))
    reductions.analytic_spread(I)
    assert I.is_homogeneous()
    built = []
    real = groebner.buchberger

    def counted(gens):
        gens = tuple(gens)
        if gens and gens[0].ring == I.algebra.ring:
            built.append(gens)
        return real(gens)

    monkeypatch.setattr(groebner, "buchberger", counted)
    assert _outcome(find_minimal_reduction, I, 0, retries) == want
    assert built == []


@pytest.mark.parametrize("name", NON_HOMOGENEOUS)
def test_non_homogeneous_candidates_read_their_forms_once(name, monkeypatch):
    # the rank test reads the forms, and the same forms certify
    I = _ideal(name, PrimeField(32003))
    assert not I.is_homogeneous()
    calls = _count_candidates(monkeypatch)
    J, cert = find_minimal_reduction(I)
    assert cert.ok
    assert calls == {"_fiber_forms": 1, "_fiber_certificate": 1, "is_reduction": 0}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_search_degrees_are_the_degree_sequence(field):
    # on homogeneous I the certified J has spread generators, independent in
    # I/mI, so their sorted degrees are the degree sequence of J
    rng = random.Random(620 + FIELDS.index(field))
    checked = 0
    for algebra in four_algebras(field):
        for _ in range(8):
            I = AlgIdeal(algebra, [
                random_poly(algebra.ring, rng, degree=rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ])
            if I.is_zero() or not I.is_proper():
                continue
            try:
                J, _cert = find_minimal_reduction(I, seed=rng.randrange(4))
            except SearchExhausted:
                continue
            assert len(J.gens) == reductions.analytic_spread(I)
            assert reductions.reduction_degrees(I, J) == degree_sequence(J), (algebra, I)
            checked += 1
    assert checked >= 24
