"""Standard graded algebras S = k[x_1..x_n]/P and their elements and ideals.

Elements are stored as normal forms modulo the defining relations, so equality
is representation equality.  Ideals carry their lift P + (representatives) and
every ideal-level operation delegates to the polynomial side.
"""

from .groebner import INFINITE, PolyIdeal, memo_power
from .hilbert import hilbert_data
from .linalg import rref_insert
from .monomials import monomials_up_to as _monomials_up_to
from .polynomials import Polynomial


class GradedAlgebra:
    """k[x_1..x_n]/P with P homogeneous and proper; carries its Hilbert data."""

    __slots__ = ("ring", "defining", "hilbert", "_irrelevant")

    def __init__(self, ring, relations=()):
        self.ring = ring
        defining = relations if isinstance(relations, PolyIdeal) else PolyIdeal(ring, tuple(relations))
        for g in defining.gens:
            if not g.is_homogeneous():
                raise ValueError("defining relations must be homogeneous")
        if defining.is_unit():
            raise ValueError("defining ideal must be proper")
        self.defining = defining
        self.hilbert = hilbert_data(defining)
        self._irrelevant = None

    @property
    def dim(self):
        return self.hilbert.dimension

    @property
    def mult(self):
        return self.hilbert.multiplicity

    def element(self, poly):
        if isinstance(poly, AlgElement):
            if poly.algebra != self:
                raise ValueError("element of a different algebra")
            return poly
        if not isinstance(poly, Polynomial) or poly.ring != self.ring:
            raise ValueError("expected a polynomial of the ambient ring")
        return AlgElement(self, poly)

    def zero(self):
        return AlgElement(self, self.ring.zero())

    def one(self):
        return AlgElement(self, self.ring.one())

    def gens(self):
        return tuple(AlgElement(self, v) for v in self.ring.gens())

    def ideal(self, items):
        return AlgIdeal(self, items)

    def irrelevant_ideal(self):
        if self._irrelevant is None:
            self._irrelevant = AlgIdeal(self, self.ring.gens())
        return self._irrelevant

    def irrelevant_power(self, u):
        """m^u as an ideal; u = 0 gives the unit ideal."""
        if u < 0:
            raise ValueError("negative power of the irrelevant ideal")
        return self.irrelevant_ideal().power(u)

    def standard_monomials_up_to(self, cap):
        """Monomials outside the leading ideal of P, total degree <= cap, order-descending."""
        leads = self.defining.leading_monomials()
        from .monomials import mono_divides

        out = [
            m
            for m in _monomials_up_to(self.ring.n, cap)
            if not any(mono_divides(l, m) for l in leads)
        ]
        out.sort(key=self.ring.order.key, reverse=True)
        return out

    def key(self):
        return (self.ring.key(), tuple(g.sort_key() for g in self.defining.groebner()))

    def __eq__(self, other):
        return isinstance(other, GradedAlgebra) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        rels = ", ".join(repr(g) for g in self.defining.gens) or "0"
        return f"GradedAlgebra(k[{','.join(self.ring.names)}]/({rels}))"


def make_algebra(ring, relations=()):
    return GradedAlgebra(ring, relations)


class AlgElement:
    """Residue class, stored as the normal form of a representative."""

    __slots__ = ("algebra", "rep", "_order")

    def __init__(self, algebra, poly):
        self.algebra = algebra
        self.rep = algebra.defining.normal_form(poly)
        self._order = None

    def is_zero(self):
        return not self.rep.coeffs

    @property
    def order(self):
        """Least degree with a nonzero graded component; INFINITE for zero."""
        if self._order is None:
            if not self.rep.coeffs:
                self._order = INFINITE
            else:
                self._order = min(sum(e) for e in self.rep.coeffs)
        return self._order

    @property
    def initial_form(self):
        """The lowest-degree homogeneous part, as an element."""
        if not self.rep.coeffs:
            return self
        o = self.order
        part = {e: c for e, c in self.rep.coeffs.items() if sum(e) == o}
        return AlgElement(self.algebra, Polynomial(self.algebra.ring, part))

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.algebra != self.algebra:
                raise ValueError("mixed-algebra arithmetic")
            return other
        if isinstance(other, Polynomial):
            return AlgElement(self.algebra, other)
        return AlgElement(self.algebra, self.algebra.ring.constant(other))

    def __add__(self, other):
        return AlgElement(self.algebra, self.rep + self._coerce(other).rep)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.algebra, -self.rep)

    def __sub__(self, other):
        return AlgElement(self.algebra, self.rep - self._coerce(other).rep)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (AlgElement, Polynomial)):
            return AlgElement(self.algebra, self.rep * self._coerce(other).rep)
        return AlgElement(self.algebra, self.rep.scale(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        return AlgElement(self.algebra, self.rep ** k)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra == other.algebra and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return repr(self.rep)


def order_and_initial(x):
    """(order, initial form) of an element."""
    return (x.order, x.initial_form)


class AlgIdeal:
    """Ideal of a graded algebra, with its polynomial-ring lift cached."""

    __slots__ = ("algebra", "gens", "_lift", "_powers")

    def __init__(self, algebra, items):
        self.algebra = algebra
        clean = []
        seen = set()
        for it in items:
            el = algebra.element(it) if not isinstance(it, AlgElement) else it
            if el.algebra != algebra:
                raise ValueError("generator from a different algebra")
            if el.is_zero() or el.rep in seen:
                continue
            seen.add(el.rep)
            clean.append(el)
        self.gens = tuple(clean)
        self._lift = None
        self._powers = None

    @property
    def lift(self):
        """P + (representatives) in the ambient polynomial ring."""
        if self._lift is None:
            base = self.algebra.defining.groebner()
            self._lift = PolyIdeal(
                self.algebra.ring, base + tuple(g.rep for g in self.gens)
            )
        return self._lift

    def contains(self, x):
        x = self.algebra.element(x)
        return self.lift.contains(x.rep)

    def contains_ideal(self, other):
        self._check(other)
        return all(self.lift.contains(g.rep) for g in other.gens)

    def equals(self, other):
        self._check(other)
        return self.lift.equals(other.lift)

    def is_zero(self):
        return not self.gens

    def is_proper(self):
        return not self.lift.is_unit()

    def is_homogeneous(self):
        """True when the ideal is graded (equivalently, its lift is)."""
        return self.lift.is_homogeneous()

    def plus(self, other):
        self._check(other)
        return AlgIdeal(self.algebra, self.gens + other.gens)

    __add__ = plus

    def times(self, other):
        self._check(other)
        prods = [a * b for a in self.gens for b in other.gens]
        return AlgIdeal(self.algebra, prods)

    __mul__ = times

    def power(self, k):
        return memo_power(self, k, lambda: AlgIdeal(self.algebra, (self.algebra.one(),)))

    def _check(self, other):
        if not isinstance(other, AlgIdeal) or other.algebra != self.algebra:
            raise ValueError("mixed-algebra ideal operation")

    def __repr__(self):
        return "AlgIdeal(" + ", ".join(repr(g) for g in self.gens) + ")"


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


def minimal_basis(ideal, degree_cap=None):
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
    if degree_cap is not None:
        if degree_cap < cap:
            raise ValueError("degree cap below generator degrees")
        cap = degree_cap
    cols = algebra.standard_monomials_up_to(cap)
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
