"""Initial ideals, degree sequences, and transfer checks between I and in(I).

in(I) is the ideal generated by the initial forms of the elements of I that
lie outside mI.  It is computed degree by degree from that definition: the
order-n initial forms coming from I span the homogeneous degree-n part of
I + m^(n+1), and the scan stops at the first n with I meet m^n inside mI
(such an n exists by Artin-Rees).  A minimal basis of I is then rewritten
until its initial forms generate the computed ideal, so the degree sequence
can be read off as the sorted orders of the rewritten basis.
"""

from dataclasses import dataclass

from .algebra import AlgIdeal, minimal_basis
from .groebner import INFINITE, PolyIdeal
from .linalg import rref_insert, solve
from .monomials import monomials_of_degree
from .polynomials import Polynomial

_STOP_LIMIT = 64
_ADJUST_LIMIT = 64


def _standard_of_degree(algebra, n):
    return [m for m in algebra.standard_monomials_up_to(n) if sum(m) == n]


def _degree_slice(algebra, lifted, n):
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


def _stop_degree(ideal, shrunk):
    """First n with I meet m^n contained in mI."""
    algebra = ideal.algebra
    for n in range(1, _STOP_LIMIT + 1):
        met = ideal.lift.intersect(algebra.irrelevant_power(n).lift)
        if shrunk.lift.contains_ideal(met):
            return n
    raise ArithmeticError("no Artin-Rees stop below the scan limit")


def _initial_generators(ideal, shrunk, stop):
    """Homogeneous generators of in(I), collected degree by degree.

    Below stop - 1 every nonzero member of the slice is an initial form from
    outside mI, because I meet m^(n+1) still escapes mI there.  At stop - 1
    the realizable members are those outside the mI slice, and they span the
    whole slice exactly when the two slices differ.
    """
    algebra = ideal.algebra
    out = []
    for n in range(1, stop):
        rows = _degree_slice(algebra, ideal.lift, n)
        if not rows:
            continue
        if n == stop - 1:
            inner = _degree_slice(algebra, shrunk.lift, n)
            # inner slice sits inside the outer one; equal sizes mean equality
            if len(inner) == len(rows):
                continue
        out.extend(rows)
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
    the other initial forms, and the result is certified against the
    degreewise computation of in(I); both directions of that comparison are
    exact membership tests, and failure raises rather than returning a wrong
    ideal.
    """
    algebra = ideal.algebra
    basis = minimal_basis(ideal)
    if ideal.is_homogeneous():
        # a homogeneous ideal has a homogeneous minimal basis, equal to its
        # own initial forms
        return AlgIdeal(algebra, [b.initial_form for b in basis]), basis
    shrunk = ideal.times(algebra.irrelevant_ideal())
    stop = _stop_degree(ideal, shrunk)
    wanted = _initial_generators(ideal, shrunk, stop)
    ring = algebra.ring
    P = algebra.defining
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
    init = AlgIdeal(algebra, [b.initial_form for b in basis])
    for p in wanted:
        if not init.lift.contains(p):
            raise ArithmeticError("rewritten initial forms fail to generate in(I)")
    wanted_lift = PolyIdeal(ring, P.groebner() + tuple(wanted))
    for b in basis:
        if not wanted_lift.contains(b.initial_form.rep):
            raise ArithmeticError("basis initial form escaped in(I)")
    return init, basis


def degree_sequence(ideal):
    """Nondecreasing orders of an adjusted minimal basis."""
    _, basis = initial_ideal(ideal)
    return tuple(sorted(b.order for b in basis))


@dataclass
class TransferReport:
    kind: str
    lhs: object
    rhs: object
    equal: bool
    lhs_method: str
    rhs_method: str
    reason: str = ""


def verify_initial_transfer(ideal, kind, window=None):
    """Compare an invariant of I against the same invariant of in(I).

    kinds: 'colength' (length of the quotient), 'samuel' (multiplicity of a
    parameter ideal via the length oracle), 'graded-mult' (multiplicity of the
    quotient ring).  Mathematical failure on the in(I) side is reported as
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
        lhs = me.quotient_multiplicity(ideal, window=window).value
        rhs = me.quotient_multiplicity(init, window=window).value
        return TransferReport(
            kind, lhs, rhs, lhs == rhs,
            "quotient-multiplicity", "quotient-multiplicity", "",
        )
    raise ValueError(f"unknown transfer kind {kind!r}")
