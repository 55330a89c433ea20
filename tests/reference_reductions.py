"""Two routes of the reductions module that were replaced, kept as
references.

The search that `reductions.find_minimal_reduction` replaced.  On
homogeneous I it walks every degree multiset smallest-first and spends all
its retries on each, including the multisets that ask for more generators
of some degree than I has, whose candidates the rank test in F(I)_1 rejects
every time; it certifies through is_reduction, which reads the candidate's
forms again.  On other input a candidate must have a minimal basis of
spread elements (algebra.minimal_basis), not spread independent forms in
F(I)_1.

The power test that certified non-homogeneous input before the fiber cone
did (power_witness), with its bound DEFAULT_N_MAX."""

import itertools
import random

from gradmult.algebra import AlgIdeal, minimal_basis
from gradmult.errors import SearchExhausted
from gradmult.linalg import rref_insert
from gradmult.monomials import monomials_of_degree
from gradmult.reductions import (
    DEFAULT_RETRIES,
    ReductionCertificate,
    _fiber_cone,
    _fiber_forms,
    analytic_spread,
    is_reduction,
)


def find_minimal_reduction(I, seed=0, retries=DEFAULT_RETRIES):
    """The search with every multiset tried, and minimal_basis(J) on
    non-homogeneous I."""
    algebra = I.algebra
    homogeneous = I.is_homogeneous()
    spread = analytic_spread(I)
    fiber = _fiber_cone(I)
    basis = fiber.generators
    rng = random.Random(seed)
    field_ = algebra.ring.field

    def random_combination(items):
        combo = algebra.zero()
        for el in items:
            combo = combo + field_.random(rng) * el
        return combo

    def try_candidate(gens):
        J = AlgIdeal(algebra, gens)
        if J.is_zero() or not J.is_proper():
            return None
        if homogeneous:
            echelon = {}
            if sum(rref_insert(echelon, f.coeffs, field_) for f in _fiber_forms(fiber, J.gens)) < spread:
                return None
        else:
            try:
                if len(minimal_basis(J)) != spread:
                    return None
            except ValueError:
                return None
        cert = is_reduction(J, I)
        if cert.ok:
            return (J, cert)
        return None

    if not homogeneous:
        for _ in range(retries):
            hit = try_candidate([random_combination(basis) for _slot in range(spread)])
            if hit:
                return hit
        raise SearchExhausted("no minimal reduction found", spread=spread, retries=retries)

    if any(not b.rep.is_homogeneous() for b in basis):
        raise ArithmeticError("homogeneous ideal produced a non-homogeneous basis")
    degrees = sorted({b.order for b in basis})
    pools = {}

    def pool(a):
        if a not in pools:
            items = []
            seen = set()
            for b in basis:
                gap = a - b.order
                if gap < 0:
                    continue
                for u in monomials_of_degree(algebra.ring.n, gap):
                    el = algebra.element(b.rep.mul_term(u, 1))
                    if el.is_zero() or el.rep in seen:
                        continue
                    seen.add(el.rep)
                    items.append(el)
            pools[a] = items
        return pools[a]

    multisets = sorted(
        itertools.combinations_with_replacement(degrees, spread),
        key=lambda t: (sum(t), t),
    )
    for ms in multisets:
        for _ in range(retries):
            hit = try_candidate([random_combination(pool(a)) for a in ms])
            if hit:
                return hit
    raise SearchExhausted(
        "no minimal reduction found",
        spread=spread,
        multisets=[list(m) for m in multisets],
        retries=retries,
    )


DEFAULT_N_MAX = 8


def power_witness(J, I):
    """The power test: compare I^(n+1) with J I^n for n = 0 .. DEFAULT_N_MAX.

    It answers the global question, so it is a reference for the local one
    only where J (and so I) is supported at the origin: elsewhere both are
    the unit ideal, where the equality holds for every n.
    """
    for n in range(DEFAULT_N_MAX + 1):
        lhs = I.power(n + 1)
        rhs = J.times(I.power(n))
        if lhs.lift.equals(rhs.lift):
            return ReductionCertificate("REDUCTION", n)
    return ReductionCertificate("INCONCLUSIVE")
