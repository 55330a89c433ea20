"""Initial ideals, degree sequences, and transfer checks between I and in(I).

in(I) is the ideal generated by the initial forms of the elements of I that
lie outside mI.  Two tangent cones at the origin, of I and of mI, settle
both it and the degree sequence.  The difference of their Hilbert series is
a polynomial whose degree-n coefficient counts the order-n members of every
adjusted minimal basis (one whose initial forms generate in(I)), and whose
length is the Artin-Rees stop, the first n with I meet m^n inside mI; in(I)
is generated by the pieces of the cone of I below the stop.  A minimal basis
of I is rewritten until its initial forms generate that ideal, and the
degree sequence, the sorted orders of the rewritten basis, must match the
counts.
"""

from collections import namedtuple

from .algebra import AlgIdeal, minimal_basis
from .groebner import INFINITE, PolyIdeal
from .hilbert import series_difference
from .linalg import solve
from .monomials import mono_divides, monomials_of_degree
from .polynomials import Polynomial

_ADJUST_LIMIT = 64


def _standard_of_degree(algebra, n):
    """Degree-n monomials outside the leading ideal of P, order-descending."""
    leads = algebra.defining.leading_monomials()
    out = [
        m
        for m in monomials_of_degree(algebra.ring.n, n)
        if not any(mono_divides(l, m) for l in leads)
    ]
    out.sort(key=algebra.ring.order.key, reverse=True)
    return out


def _order_counts(ideal):
    """[c_0, c_1, ...]: c_n is the number of order-n members of any adjusted
    minimal basis of I, and the Artin-Rees stop is the length of the list.

    The c_n are the coefficients of the polynomial
    HS(R/cone(P + mI)) - HS(R/cone(P + I)) (hilbert.series_difference).
    Proof.  Let F_n = (I meet m^n + mI)/mI.  I/mI is killed by m, so it and
    its subspaces F_n equal their localisations at the origin: the global
    and the local readings agree.  The degree-n pieces of the two cones are the
    images of I meet m^n and of mI meet m^n in m^n/m^(n+1).  The maps from
    I meet m^n onto the quotient of those pieces and onto F_n/F_(n+1) have
    one kernel, I meet m^(n+1) + mI meet m^n, so c_n = dim F_n - dim F_(n+1).
    Each F_n lies in I/mI, which has finite dimension, and F_n = 0 for large
    n by Artin-Rees (the lemma behind Krull's theorem on powers of m).  So
    dim F_n is the finite sum of the c_k over k >= n, and the first n with
    F_n = 0, the stop, is the length of the list, c_(stop-1) being nonzero.
    An adjusted basis maps onto a basis of I/mI, and its members of order
    >= n lie in F_n; they span it.  Take f in I meet m^n outside mI, of order
    e >= n.  As in(f) lies in in(I), in(f) = sum h_i in(b_i) with h_i
    homogeneous of degree e - ord(b_i), and f - sum h_i b_i lies in
    I meet m^(e+1).  Cofactors of members of order below e lie in m, so their
    terms lie in mI; the others are constants on members of order e.  The
    remainder's order rises with each such step, and from the stop on it lies
    in mI.  So the members of order >= n are a basis of F_n, and c_n of them
    have order n.
    """
    if ideal.is_zero() or not ideal.is_proper():
        raise ValueError("order counts of the zero or unit ideal")
    cone = ideal.lift.tangent_cone()
    shrunk = ideal.times_irrelevant().lift.tangent_cone()
    return series_difference(shrunk, cone)


def _initial_generators(ideal, stop):
    """Homogeneous generators of in(I): the tangent cone of I below degree stop.

    The cone is the one _order_counts built, read again from the memo.
    No initial form from outside mI has degree stop or more, since
    I meet m^stop lies in mI.  Below stop - 1 every nonzero member of a
    degree-n piece is one: add a member of I meet m^(n+1) outside mI to its
    preimage.  At stop - 1 the members outside the piece of the cone of mI
    are initial forms from outside mI, and they span the piece because the
    mI piece is proper: some f in I meet m^(stop-1) lies outside mI, has
    order stop - 1, and in(f) = in(g) with g in mI would put f - g in
    I meet m^stop, so f in mI.  A homogeneous ideal's reduced-basis members
    of degree below stop depend only on its pieces below stop, so the
    generators are the cone's reduced-basis members of degree 1 to stop - 1
    that are nonzero mod P; stop = 1 happens only for an ideal that is the
    unit ideal at the origin, which has none.
    """
    cone = ideal.lift.tangent_cone()
    P = ideal.algebra.defining
    out = [g for g in cone.groebner() if 0 < g.degree() < stop and not P.contains(g)]
    if not out:
        raise ArithmeticError("empty initial ideal for a nonzero ideal")
    return out


def _absorbed_rewrite(algebra, basis, j, eligible):
    """Subtract a homogeneous combination of the eligible members from basis[j].

    The caller has checked that in(basis[j]) lies in the ideal of their
    initial forms; homogeneous cofactors then exist degreewise, and the
    rewrite strictly raises the order.
    """
    ring = algebra.ring
    field = ring.field
    target = basis[j].initial_form.rep
    n = basis[j].order
    P = algebra.defining
    vecs = []
    terms = []
    for i in eligible:
        g = basis[i].initial_form.rep
        for u in _standard_of_degree(algebra, n - basis[i].order):
            vecs.append(P.normal_form(g.mul_term(u, field.one)).coeffs)
            terms.append((i, u))
    sol = solve(field, vecs, target.coeffs)
    if sol is None:
        raise ArithmeticError("absorbed initial form admits no homogeneous cofactors")
    new = basis[j]
    for c, (i, u) in zip(sol, terms):
        if c != field.zero:
            new = new - basis[i] * Polynomial(ring, {u: c})
    return new


def initial_ideal(ideal):
    """(in(I), rewritten minimal basis whose initial forms generate in(I)).

    A graded ideal keeps its homogeneous minimal basis and in(I) = I.  In
    general the basis is rewritten until no initial form lies in the ideal of
    the other initial forms, and the ideal of the result must equal the
    tangent-cone computation of in(I), an exact comparison of reduced bases.
    Either way the sorted orders of the basis must equal the counts of
    _order_counts.  Failure raises rather than returning a wrong ideal.
    """
    algebra = ideal.algebra
    counts = _order_counts(ideal)
    basis = minimal_basis(ideal)
    # a homogeneous ideal has a homogeneous minimal basis, equal to its own
    # initial forms
    if not ideal.is_homogeneous():
        wanted = _initial_generators(ideal, len(counts))
        steps = 0
        while True:
            hit = None
            scan = sorted(range(len(basis)), key=lambda t: (basis[t].order, t))
            for j in reversed(scan):
                eligible = [
                    i
                    for i in range(len(basis))
                    if i != j and basis[i].order <= basis[j].order
                ]
                if not eligible:
                    continue
                span = AlgIdeal(algebra, [basis[i].initial_form for i in eligible])
                if span.lift.contains(basis[j].initial_form.rep):
                    hit = (j, eligible)
                    break
            if hit is None:
                break
            j, eligible = hit
            replacement = _absorbed_rewrite(algebra, basis, j, eligible)
            if replacement.is_zero() or replacement.order <= basis[j].order:
                raise ArithmeticError("absorption failed to raise the order")
            basis[j] = replacement
            steps += 1
            if steps > _ADJUST_LIMIT * len(basis):
                raise ArithmeticError("initial-form adjustment failed to settle")
        init = AlgIdeal(algebra, [b.initial_form for b in basis]).lift
        if not init.equals(PolyIdeal(algebra.ring, algebra.defining.groebner() + tuple(wanted))):
            raise ArithmeticError("rewritten initial forms fail to generate in(I)")
    if sorted(b.order for b in basis) != [n for n, c in enumerate(counts) for _ in range(c)]:
        raise ArithmeticError("adjusted-basis orders differ from the tangent-cone counts")
    return AlgIdeal(algebra, [b.initial_form for b in basis]), basis


def degree_sequence(ideal):
    """Nondecreasing orders of an adjusted minimal basis."""
    _, basis = initial_ideal(ideal)
    return tuple(sorted(b.order for b in basis))


class TransferReport(namedtuple(
    "TransferReport", "kind lhs rhs equal lhs_method rhs_method reason", defaults=("",)
)):
    __slots__ = ()


def verify_initial_transfer(ideal, kind, window=None):
    """Compare an invariant of I against the same invariant of in(I).

    kinds: 'colength' (length of the quotient), 'samuel' (multiplicity of a
    parameter ideal via the length oracle, over the window), 'graded-mult'
    (multiplicity of the quotient ring at the origin, off a Hilbert series
    with no window).  Mathematical failure on the in(I) side is reported as
    equal=False with a reason, not raised.
    """
    from . import multiplicity as me

    algebra = ideal.algebra
    init, _ = initial_ideal(ideal)
    if kind == "colength":
        lhs = ideal.lift.k_dimension()
        rhs = init.lift.k_dimension()
        reason = ""
        if lhs is INFINITE or rhs is INFINITE:
            reason = "infinite colength on at least one side"
        return TransferReport(
            kind, lhs, rhs, lhs == rhs, "standard-monomial-count",
            "standard-monomial-count", reason,
        )
    if kind == "samuel":
        d = algebra.dim
        mu = len(minimal_basis(ideal))
        if mu != d or ideal.lift.k_dimension() is INFINITE:
            raise ValueError("samuel transfer needs a parameter ideal")
        lhs = me.samuel_oracle(ideal, window=window).value
        if init.lift.k_dimension() is INFINITE:
            return TransferReport(
                kind, lhs, None, False, "finite-difference-oracle", "undefined",
                "initial ideal is not a parameter ideal (infinite colength)",
            )
        rhs = me.samuel_oracle(init, window=window).value
        return TransferReport(
            kind, lhs, rhs, lhs == rhs,
            "finite-difference-oracle", "finite-difference-oracle", "",
        )
    if kind == "graded-mult":
        dim_i = ideal.lift.krull_dimension()
        dim_init = init.lift.krull_dimension()
        if dim_i != dim_init:
            return TransferReport(
                kind, None, None, False, "quotient-multiplicity",
                "quotient-multiplicity",
                f"dimension mismatch: dim S/I = {dim_i}, dim S/in(I) = {dim_init}",
            )
        lhs = me.quotient_multiplicity(ideal).value
        rhs = me.quotient_multiplicity(init).value
        return TransferReport(
            kind, lhs, rhs, lhs == rhs,
            "quotient-multiplicity", "quotient-multiplicity", "",
        )
    raise ValueError(f"unknown transfer kind {kind!r}")
