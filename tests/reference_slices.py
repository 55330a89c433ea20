"""The per-degree slices that `degseq._initial_generators` replaced, kept as
the reference for the generators of in(I): one fresh basis of
I + m^(n+1) for every degree n below the Artin-Rees stop.  Also the scan
that `degseq._order_counts` replaced, kept as the reference for the stop:
one intersection I meet m^n for every n up to it."""

from gradmult import Inconclusive, PolyIdeal
from gradmult.degseq import _standard_of_degree
from gradmult.linalg import rref_insert
from gradmult.monomials import monomials_of_degree
from gradmult.polynomials import Polynomial

_STOP_LIMIT = 64


def _stop_degree(ideal, shrunk):
    """First n with I meet m^n contained in mI."""
    algebra = ideal.algebra
    for n in range(1, _STOP_LIMIT + 1):
        met = ideal.lift.intersect(algebra.irrelevant_power(n).lift)
        if shrunk.lift.contains_ideal(met):
            return n
    raise Inconclusive("no Artin-Rees stop below the scan limit", scan_limit=_STOP_LIMIT)


def degree_slice(algebra, lifted, n):
    """Basis of the homogeneous degree-n elements of the image of lifted + m^(n+1).

    These are exactly the initial forms of the order-n members of the ideal,
    together with zero.  Kernel vectors of the normal-form map are collected
    through marker columns; the remainder block sorts before the marker block,
    so a pivot in the marker block certifies a combination reducing to zero.
    """
    ring = algebra.ring
    field = ring.field
    std = _standard_of_degree(algebra, n)
    if not std:
        return []
    one = field.one
    walls = tuple(
        Polynomial(ring, {e: one}) for e in monomials_of_degree(ring.n, n + 1)
    )
    bound = PolyIdeal(ring, lifted.groebner() + walls)
    pivots = {}
    for i, w in enumerate(std):
        h = bound.normal_form(Polynomial(ring, {w: one}))
        row = {("a", e): c for e, c in h.coeffs.items()}
        row[("z", i)] = one
        rref_insert(pivots, row, field)
    out = []
    for p, prow in sorted(pivots.items()):
        if p[0] != "z":
            continue
        out.append(Polynomial(ring, {std[col[1]]: c for col, c in prow.items()}))
    return out


def reference_initial_generators(ideal, shrunk, stop):
    """Homogeneous generators of in(I), collected degree by degree.

    Below stop - 1 every nonzero member of the slice is an initial form from
    outside mI, because I meet m^(n+1) still escapes mI there.  At stop - 1
    the realizable members are those outside the mI slice, and they span the
    whole slice exactly when the two slices differ.
    """
    algebra = ideal.algebra
    out = []
    for n in range(1, stop):
        rows = degree_slice(algebra, ideal.lift, n)
        if not rows:
            continue
        if n == stop - 1:
            inner = degree_slice(algebra, shrunk.lift, n)
            # inner slice sits inside the outer one; equal sizes mean equality
            if len(inner) == len(rows):
                continue
        out.extend(rows)
    return out
