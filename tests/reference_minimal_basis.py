"""The echelon route that `algebra.minimal_basis` replaced, kept as the
reference: a dense row echelon of {NF_P(u*g)} over every standard monomial
of P up to the top generator degree, once for I and once for mI, whose
extra pivots give the minimal basis."""

from gradmult.algebra import AlgElement, AlgIdeal
from gradmult.linalg import rref_insert
from gradmult.monomials import mono_divides, monomials_up_to as _monomials_up_to
from gradmult.polynomials import Polynomial


def _standard_monomials_up_to(algebra, cap):
    """Monomials outside the leading ideal of P, total degree <= cap, order-descending."""
    leads = algebra.defining.leading_monomials()
    out = [
        m
        for m in _monomials_up_to(algebra.ring.n, cap)
        if not any(mono_divides(l, m) for l in leads)
    ]
    out.sort(key=algebra.ring.order.key, reverse=True)
    return out


def _truncated_span(algebra, lifted, cap, colindex):
    """Echelon form of {NF_P(u*g) : g in GB(lifted), deg(u) + deg(g) <= cap}.

    For a degree-compatible order this spans exactly the elements of the ideal
    admitting representatives of degree <= cap.
    """
    P = algebra.defining
    field = algebra.ring.field
    pivots = {}
    for g in lifted.groebner():
        dg = g.degree()
        if dg > cap:
            continue
        for u in _monomials_up_to(algebra.ring.n, cap - dg):
            h = P.normal_form(g.mul_term(u, 1))
            if not h.coeffs:
                continue
            row = {colindex[e]: c for e, c in h.coeffs.items()}
            rref_insert(pivots, row, field)
    return pivots


def minimal_basis(ideal):
    """A minimal homogeneous-style generating set of the ideal, smallest degrees first.

    Extracts representatives of a basis of I/mI by comparing truncated spans of
    I and mI; the returned elements are verified to generate (lift equality).
    """
    algebra = ideal.algebra
    if ideal.is_zero():
        raise ValueError("minimal basis of the zero ideal")
    if not ideal.is_proper():
        raise ValueError("minimal basis of the unit ideal")
    cap = max(g.rep.degree() for g in ideal.gens)
    cols = _standard_monomials_up_to(algebra, cap)
    colindex = {m: i for i, m in enumerate(cols)}
    span_i = _truncated_span(algebra, ideal.lift, cap, colindex)
    mi = ideal.times(algebra.irrelevant_ideal())
    span_mi = _truncated_span(algebra, mi.lift, cap, colindex)
    extra = set(span_i) - set(span_mi)
    if set(span_mi) - set(span_i):
        raise ArithmeticError("truncated span of mI escaped that of I")
    ordered = sorted(extra, key=lambda p: (sum(cols[p]), p))
    basis = []
    ring = algebra.ring
    for p in ordered:
        poly = Polynomial(ring, {cols[c]: v for c, v in span_i[p].items()})
        basis.append(AlgElement(algebra, poly))
    if not AlgIdeal(algebra, basis).lift.equals(ideal.lift):
        raise ArithmeticError("minimal basis candidates fail to generate")
    return basis
