"""The minimal-reduction search skips degree multisets it can never certify.

On homogeneous I, `find_minimal_reduction` passes over a multiset in which
some degree occurs more often than I has minimal generators of that degree,
taking from its generator the coefficients the rejected draws would have
taken.  So it must return what the search that tries every multiset
(`reference_reductions`) returns, generator for generator, with the same
certificate, or raise the same SearchExhausted payload: over small and large
prime fields and qq, for seeds 0 to 3, on ideals whose first multiset is
skipped and on ideals where none is.  The counts pin the saving: one
candidate per search where the whole first multiset was drawn before.
"""

import pytest

import reference_reductions
from gradmult import QQ, AlgIdeal, PrimeField, find_minimal_reduction, make_algebra, poly_ring, reductions
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
}


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
    """Count the rank tests of the search (the _fiber_forms calls made
    outside is_reduction, whose own witness reads the forms again) and the
    is_reduction calls."""
    calls = {"rank tests": 0, "is_reduction": 0}
    certifying = []
    forms, certify = reductions._fiber_forms, reductions.is_reduction

    def counted_forms(fiber, gens):
        if not certifying:
            calls["rank tests"] += 1
        return forms(fiber, gens)

    def counted_is_reduction(J, I):
        calls["is_reduction"] += 1
        certifying.append(J)
        try:
            return certify(J, I)
        finally:
            certifying.pop()

    monkeypatch.setattr(reductions, "_fiber_forms", counted_forms)
    monkeypatch.setattr(reductions, "is_reduction", counted_is_reduction)
    return calls


@pytest.mark.parametrize("name", ["(x, y^3)", "(x^2, y^3)"])
def test_one_candidate_per_search(name, monkeypatch):
    calls = _count_candidates(monkeypatch)
    J, cert = find_minimal_reduction(_ideal(name, PrimeField(32003)))
    assert cert.ok
    assert calls == {"rank tests": 1, "is_reduction": 1}


@pytest.mark.parametrize("name, multisets", [
    ("(x, y^3)", [[1, 1], [1, 3], [3, 3]]),
    ("(x^2, y^3)", [[2, 2], [2, 3], [3, 3]]),
])
def test_exhaustion_lists_the_skipped_multisets(name, multisets, monkeypatch):
    calls = _count_candidates(monkeypatch)
    with pytest.raises(SearchExhausted) as exc:
        find_minimal_reduction(_ideal(name, PrimeField(32003)), retries=0)
    assert exc.value.details == {"spread": 2, "multisets": multisets, "retries": 0}
    assert calls == {"rank tests": 0, "is_reduction": 0}
