"""Standard graded algebras S = k[x_1..x_n]/P and their elements and ideals.

Elements are stored as normal forms modulo the defining relations, so equality
is representation equality.  Ideals carry their lift P + (representatives) and
every ideal-level operation delegates to the polynomial side.
"""

from .groebner import INFINITE, PolyIdeal, memo_power
from .hilbert import hilbert_data
from .monomials import mono_divides
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

    def key(self):
        return (self.ring.key(), tuple(g.sort_key() for g in self.defining.groebner()))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GradedAlgebra) and other.key() == self.key()
        )

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


class AlgIdeal:
    """Ideal of a graded algebra, with its polynomial-ring lift cached (and its
    powers, kept by groebner.memo_power, its product mI with the irrelevant
    ideal, and its fiber cone, built by reductions._fiber_cone off
    rees.rees_presentation)."""

    __slots__ = ("algebra", "gens", "_lift", "_powers", "_mi", "_fiber")

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
        self._mi = None
        self._fiber = None

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
        """The product ideal, generated by the pairwise products of two short
        generating sets of the factors.

        A factor whose lift already has its reduced basis contributes that
        basis's nonzero residues mod P (they generate the factor, because
        GB(P + I) mod P generates I) when there are fewer of them than its
        generators; otherwise it contributes its generators.  Both guards
        matter: computing a basis only to shorten a factor costs more than it
        saves, and a longer basis times the other factor's generators
        collapses less under deduplication than the generator products do.
        """
        self._check(other)
        mine, theirs = self._short_gens(), other._short_gens()
        prods = [a * b for a in mine for b in theirs]
        return AlgIdeal(self.algebra, prods)

    __mul__ = times

    def times_irrelevant(self):
        """mI, formed once per ideal and kept in _mi: the order counts, the
        minimal basis, the fiber cone and the FC checks all read it.

        GB(P + I) is built first, as each of those callers has already done,
        so times reads the same short generating set of I (_short_gens)
        whichever caller forms the product first, and the kept product has
        the generators each of them would have formed.
        """
        if self._mi is None:
            self.lift.groebner()
            self._mi = self.times(self.algebra.irrelevant_ideal())
        return self._mi

    def generated_at_origin_by(self, reps):
        """True when the polynomials reps, members of the lift, generate I in
        the local ring at the origin.

        First P + (reps) = P + I: global generation, so local generation
        too.  Failing that, GB(P + mI) + (reps) = P + I, which says
        I = (reps) + mI in S.  In the local ring at the origin I is finitely
        generated and m is the maximal ideal, so Nakayama gives I = (reps)
        there.  An ideal with zeros away from the origin, such as
        (x^2 - x, xy + x), passes only the second check.
        """
        ring, reps = self.algebra.ring, tuple(reps)
        if PolyIdeal(ring, self.algebra.defining.groebner() + reps).equals(self.lift):
            return True
        return PolyIdeal(ring, self.times_irrelevant().lift.groebner() + reps).equals(self.lift)

    def _short_gens(self):
        gb = self._lift._gb if self._lift is not None else None
        if gb is not None:
            # a basis element whose lead no lead of P divides keeps that lead
            # mod P, so its residue is nonzero and unlike the others: counting
            # those first skips the normal forms when no shorter set can come
            p_leads = self.algebra.defining.leading_monomials()
            floor = sum(
                1 for g in gb
                if not any(mono_divides(l, g.leading_monomial()) for l in p_leads)
            )
            if floor < len(self.gens):
                residues = AlgIdeal(self.algebra, gb).gens
                if len(residues) < len(self.gens):
                    return residues
        return self.gens

    def power(self, k):
        return memo_power(self, k, lambda: AlgIdeal(self.algebra, (self.algebra.one(),)))

    def _check(self, other):
        if not isinstance(other, AlgIdeal) or other.algebra != self.algebra:
            raise ValueError("mixed-algebra ideal operation")

    def __repr__(self):
        return "AlgIdeal(" + ", ".join(repr(g) for g in self.gens) + ")"


def minimal_basis(ideal):
    """A minimal generating set of the ideal at the origin, smallest degrees first.

    The members of GB(P + I) whose leads lie neither in in(P) nor in
    in(P + mI), sorted by degree and then by descending lead.  Their classes
    are a basis of I/mI = (P + I)/(P + mI): a nonzero combination of them
    has the lead of one of them, outside in(P + mI), so the classes are
    independent, and they are dim I/mI many (last point below).  The
    elements are certified to generate I at the origin
    (AlgIdeal.generated_at_origin_by), globally when they can.

    For a degree-compatible order these are the representatives of a basis
    of I/mI that the dense echelon route (tests/reference_minimal_basis.py)
    gives.  That route brings NF_P((P + I)_{<=cap}), cap the top generator
    degree, to fully reduced row echelon form over the standard monomials of
    P in descending key.  Its pivots are in(P + I)_{<=cap} minus in(P), those
    of mI likewise, and it keeps the rows of I at pivots outside in(P + mI),
    sorted by (degree, column), which is (degree, descending key).
    - The fully reduced row at a pivot m is the unique member of the span
      with lead m whose other terms are non-pivots.  For a lead of the
      reduced basis that member is the basis element itself: its other terms
      lie outside in(P + I), which holds in(P), so NF_P leaves it unchanged.
    - x_i in(P + I) lies in in(P + mI), because x_i f lies in P + mI for
      every f in P + I.  So a pivot outside in(P + mI) is a minimal
      generator of in(P + I), which is a lead of the reduced basis.
    - No lead outside in(P + mI) has degree above cap, so the cap drops
      nothing.  Such leads number dim (P + I)/(P + mI), and the normal forms
      mod P + mI of the generators span that quotient without raising the
      degree, so their echelon leads are that many distinct such leads.
    """
    algebra = ideal.algebra
    if ideal.is_zero():
        raise ValueError("minimal basis of the zero ideal")
    if not ideal.is_proper():
        raise ValueError("minimal basis of the unit ideal")
    gb = ideal.lift.groebner()
    mi_leads = ideal.times_irrelevant().lift.leading_monomials()
    leads = [g.leading_monomial() for g in gb]
    if not all(any(mono_divides(l, m) for l in leads) for m in mi_leads):
        raise ArithmeticError("leading ideal of mI escaped that of I")
    dropped = algebra.defining.leading_monomials() + mi_leads
    kept = [g for g, m in zip(gb, leads) if not any(mono_divides(l, m) for l in dropped)]
    key = algebra.ring.order.key
    kept.sort(key=lambda g: (g.degree(), -key(g.leading_monomial())))
    if not ideal.generated_at_origin_by(kept):
        raise ArithmeticError("minimal basis candidates fail to generate")
    return [AlgElement(algebra, g) for g in kept]
