"""Buchberger engine and the ideal algebra built on it.

Orders are global, so every ideal here has a unique reduced Groebner basis;
PolyIdeal caches it and all higher operations (sum, product, power, colon,
saturation, intersection, elimination, dimension) go through it.

The Buchberger loop runs on packed views (Polynomial.packed) end to end:
S-pairs, heap normal forms and the pair update read packed monomials and
int order keys; exponent tuples remain in the memo key and the output.
"""

import itertools
import math
import threading
from heapq import heapify, heappop, heappush

from .hilbert import leading_series
from .monomials import MonomialOrder, minimal_monomials
from .polynomials import Polynomial, map_vars

INFINITE = math.inf


def _shifted(tail, dk, dp, lc, field, mask):
    """The packed tail times the monomial (dk, dp), divided by lc.  A
    shifted exponent at the packing guard bit raises ArithmeticError."""
    out = [(k + dk, p + dp, c) for k, p, c in tail]
    if any(p & mask for _, p, _ in out):
        raise ArithmeticError("an S-pair exponent reaches the packing guard bit")
    if lc != field.one:
        inv, fmul = field.inv(lc), field.mul
        out = [(k, p, fmul(c, inv)) for k, p, c in out]
    return out


def s_polynomial(f, g):
    """lcm/lead(f) f/lc(f) - lcm/lead(g) g/lc(g), built on the packed views
    (Polynomial.packed) and returned with its own view set.

    The lcm of two packable leads is packable: each of its fields is the
    larger of two fields below EXP_LIMIT.  So are the two shifts lcm/lead,
    whose fields are at most the lcm's.  rev_key and the packing are linear,
    so each tail is shifted by int adds and stays in decreasing order; the
    leads cancel, and one merge by rev key combines the tails.  A tail term
    may still exceed the lcm in some variable, so its shifted exponent can
    reach the guard bit: that raises ArithmeticError.
    """
    if f.ring != g.ring:
        raise ValueError("mixed-ring S-polynomial")
    ring = f.ring
    field, order = ring.field, ring.order
    pk = order.packing
    fk, fp, fc, ftail = f.packed()
    gk, gp, gc, gtail = g.packed()
    lp = pk.lcm(fp, gp)
    lk = order.rev_key(pk.unpack(lp))
    a = _shifted(ftail, lk - fk, lp - fp, fc, field, pk.mask)
    b = _shifted(gtail, lk - gk, lp - gp, gc, field, pk.mask)
    fsub, fneg = field.sub, field.neg
    work = {k: (p, c) for k, p, c in a}
    for k, p, c in b:
        hit = work.get(k)
        if hit is None:
            work[k] = (p, fneg(c))
            continue
        v = fsub(hit[1], c)
        if v:
            work[k] = (p, v)
        else:
            del work[k]
    return Polynomial.from_packed(ring, [(k,) + work[k] for k in sorted(work)])


def _reduce(f, reducers, field, quotient=None):
    """Heap reduction of the nonzero f by packed views (Polynomial.packed).

    Monagan–Pearce (2007): the live terms sit in a dict keyed by rev_key,
    and their keys on a heap, so the largest term is popped in O(log n) and
    each term is keyed once, when it first appears.  A popped term is
    reduced by the first reducer whose lead divides it, or kept.  Returns
    the kept terms as (rev key, packed, coefficient) in decreasing order;
    each reduction step's multiplier is appended to quotient, in the same
    form, when it is given.  None means that no term was reduced, so f is
    its own remainder.  A product that reaches the packing guard bit raises
    ArithmeticError.
    """
    mask = f.ring.order.packing.mask
    submul, fdiv = field.submul, field.div
    lk, lp, lc, tail = f.packed()
    work = {lk: lc}
    packs = {lk: lp}
    for k, p, c in tail:
        work[k] = c
        packs[k] = p
    heap = list(work)
    heapify(heap)
    out = []
    reduced = False
    while heap:
        k = heappop(heap)
        c = work.pop(k)
        p = packs.pop(k)
        if not c:
            continue  # cancelled after it was pushed
        for gk, gp, gc, gtail in reducers:
            if not (p - gp) & mask:
                break
        else:
            out.append((k, p, c))
            continue
        reduced = True
        factor = fdiv(c, gc)
        uk, up = k - gk, p - gp
        if quotient is not None:
            quotient.append((uk, up, factor))
        for tk, tp, tc in gtail:
            k2 = tk + uk
            v = work.get(k2)
            if v is None:
                p2 = tp + up
                if p2 & mask:
                    raise ArithmeticError("a product exponent reaches the packing guard bit")
                packs[k2] = p2
                heappush(heap, k2)
                v = 0
            work[k2] = submul(v, factor, tc)
    return out if reduced else None


def normal_form(f, basis):
    """Fully reduce f by the basis: no remaining term is divisible by any lead.

    Reducer choice is the first basis element (in given order) whose lead
    divides the current term, so the result is deterministic for a fixed basis.
    The reduction runs on packed monomials with a heap of live terms
    (_reduce); the basis elements' packed views stay cached on them, and a
    remainder comes back with its own view set.  An exponent at the packing
    guard bit raises ArithmeticError.
    """
    if not f.coeffs:
        return f
    reducers = [g.packed() for g in basis if g.coeffs]
    if not reducers:
        return f
    out = _reduce(f, reducers, f.ring.field)
    return f if out is None else Polynomial.from_packed(f.ring, out)


# Reduced bases by exact input.  Orders are global, so the reduced basis of
# an ideal is unique for a fixed ring key; a hit is exact, never approximate.
# Least recently used entries go first once the memo holds _MEMO_CAP inputs.
_MEMO_CAP = 2048
_memo = {}
_memo_lock = threading.Lock()


def _flat_key(p):
    """p's terms as one flat (exp, coeff, exp, coeff, ...) tuple, sorted by exponent."""
    return tuple(itertools.chain.from_iterable(sorted(p.coeffs.items())))


def _distinct_monic(gens):
    """(ring, {flat key: monic generator}) of the nonzero generators, in first-seen order."""
    gens = tuple(gens)
    if not gens:
        return None, {}
    ring = gens[0].ring
    polys = {}
    for g in gens:
        if g.ring is not ring and g.ring != ring:
            raise ValueError("generators come from different rings")
        if g.coeffs:
            g = g.monic()
            polys.setdefault(_flat_key(g), g)
    return ring, polys


def buchberger(gens):
    """Reduced Groebner basis, sorted ascending by leading monomial.

    Memoised by the ring key and the set of monic generators, so rescaled,
    reordered or repeated generator lists of one ideal share one entry.
    The returned polynomials are shared between callers and never mutated.
    """
    ring, polys = _distinct_monic(gens)
    if not polys:
        return ()
    key = (ring.key(), frozenset(polys))
    with _memo_lock:
        basis = _memo.pop(key, None)
    if basis is None:
        basis = _reduced_basis(tuple(polys.values()))
    with _memo_lock:
        if len(_memo) >= _MEMO_CAP:
            del _memo[next(iter(_memo))]
        _memo[key] = basis
    return basis


def _reduced_basis(polys):
    """Reduced Groebner basis of distinct nonzero monic polynomials of one ring.

    The uncached core of buchberger.  Every element is held as its packed
    view (Polynomial.packed) from input to output: S-polynomials are formed
    on the views (s_polynomial), remainders come back with theirs
    (normal_form) and keep them when made monic, and the pair bookkeeping
    reads packed leads through the Packing helpers.  Pairs are pruned once,
    when they are formed, by the Gebauer–Möller update (1988) run as each h
    joins G:

    - M: a new pair (g, h) stays only if lcm(g, h) is a minimal generator of
      the new lcms;
    - F: one pair stays per distinct lcm;
    - product criterion: an lcm group with a pair of coprime leads goes;
    - B: a queued pair (i, j) goes when lead(h) divides its lcm and both
      lcm(i, h) and lcm(j, h) differ from it.

    Elements whose lead lead(h) divides form no new pairs, and a group holding
    a pair of two monomials goes, its S-polynomial being zero.  Pair selection
    is by minimal lcm degree with FIFO tie-break, and S-polynomials reduce by
    every element of G, active or not.  tests/reference_groebner.py keeps the
    same loop on exponent tuples.
    """
    ring = polys[0].ring
    okey = ring.order.key

    if all(p.is_term() for p in polys):
        minimal = minimal_monomials([p.leading_monomial() for p in polys])
        return tuple(
            ring.monomial(m) for m in sorted(minimal, key=okey)
        )

    pk = ring.order.packing
    divides, lcm, coprime = pk.divides, pk.lcm, pk.coprime
    G = []
    leads = []  # packed
    terms = []  # True for a monomial
    active = []  # indices into G whose lead no later lead divides
    pairq = []  # (lcm degree, FIFO counter, packed lcm, i, j)
    counter = itertools.count()

    def update(h):
        t = len(G)
        _, lt, _, tail = h.packed()
        term = not tail
        G.append(h)
        leads.append(lt)
        terms.append(term)
        if pairq:
            kept = [
                p for p in pairq
                if not divides(lt, p[2])
                or lcm(leads[p[3]], lt) == p[2]
                or lcm(leads[p[4]], lt) == p[2]
            ]
            if len(kept) < len(pairq):
                pairq[:] = kept
                heapify(pairq)
        groups = {}
        for i in active:
            groups.setdefault(lcm(leads[i], lt), []).append(i)
        minimal = set(pk.minimal(groups))
        for l, members in groups.items():
            if l not in minimal:
                continue
            if any(coprime(leads[i], lt) for i in members):
                continue
            if term and any(terms[i] for i in members):
                continue
            heappush(pairq, (pk.degree(l), next(counter), l, members[0], t))
        active[:] = [i for i in active if not divides(lt, leads[i])]
        active.append(t)

    for p in polys:
        update(p)

    while pairq:
        _, _, _, i, j = heappop(pairq)
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if r.coeffs:
            update(r.monic())

    # minimal basis: drop anything whose lead another kept lead divides;
    # ascending in the order is descending in rev key
    kept = []
    for g in sorted(G, key=lambda p: -p.packed()[0]):
        lg = g.packed()[1]
        if any(divides(h.packed()[1], lg) for h in kept):
            continue
        kept.append(g)

    # tail interreduction to the unique reduced basis, in one pass: no lead
    # divides another, so each lead survives its normal form and the leads
    # never change, and a normal form keeps no term any other lead divides
    for idx in range(len(kept)):
        kept[idx] = normal_form(kept[idx], kept[:idx] + kept[idx + 1:])
    kept.sort(key=lambda p: -p.packed()[0])
    return tuple(kept)


def exact_quotient(f, b):
    """f / b for f in the principal ideal (b), by the heap reduction of normal_form."""
    ring = f.ring
    if not f.coeffs:
        return f
    quotient = []
    remainder = _reduce(f, [b.packed()], ring.field, quotient)
    if remainder is None or remainder:
        raise ValueError("not an exact multiple")
    return Polynomial.from_packed(ring, quotient)


def eliminate_into(gens, drop, ring):
    """The ideal of ring generated by the reduced-basis members of gens free of drop.

    gens share a ring whose order eliminates the variables in drop, so those
    members generate the elimination ideal.  ring has the same variables as
    gens, or all but the last one, which is then the variable dropped.
    """
    width = ring.n
    kept = []
    for g in buchberger(gens):
        if all(e[i] == 0 for e in g.coeffs for i in drop):
            kept.append(Polynomial(ring, {e[:width]: c for e, c in g.coeffs.items()}))
    return PolyIdeal(ring, tuple(kept))


def memo_power(ideal, k, unit):
    """ideal^k by repeated times(), each power kept in ideal._powers.

    unit() makes the zeroth power the first time a power is asked for.
    """
    if k < 0:
        raise ValueError("negative ideal power")
    if ideal._powers is None:
        ideal._powers = [unit(), ideal]
    powers = ideal._powers
    while len(powers) <= k:
        powers.append(powers[-1].times(ideal))
    return powers[k]


def _fresh_name(taken, base):
    name = base
    while name in taken:
        name = "_" + name
    return name


class PolyIdeal:
    """Ideal of a PolyRing, given by generators; reduced GB computed lazily."""

    __slots__ = ("ring", "gens", "_gb", "_powers", "_homog")

    def __init__(self, ring, gens=()):
        self.ring = ring
        clean = []
        seen = set()
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise ValueError("generators must be polynomials of the given ring")
            if not g.coeffs:
                continue
            h = frozenset(g.coeffs.items())
            if h not in seen:
                seen.add(h)
                clean.append(g)
        self.gens = tuple(clean)
        self._gb = None
        self._powers = None
        self._homog = None

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def unit(cls, ring):
        return cls(ring, (ring.one(),))

    @classmethod
    def from_basis(cls, ring, basis):
        """The ideal whose reduced Groebner basis in ring's order is basis,
        sorted ascending by leading monomial as buchberger returns it."""
        ideal = cls(ring, basis)
        ideal._gb = ideal.gens
        return ideal

    def groebner(self):
        if self._gb is None:
            self._gb = buchberger(self.gens)
        return self._gb

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.groebner())

    def normal_form(self, f):
        return normal_form(f, self.groebner())

    def contains(self, f):
        return not self.normal_form(f).coeffs

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        return self.ring == other.ring and self.groebner() == other.groebner()

    def is_zero(self):
        return not self.groebner()

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].degree() == 0

    def is_homogeneous(self):
        if self._homog is None:
            self._homog = all(g.is_homogeneous() for g in self.groebner())
        return self._homog

    def tangent_cone(self):
        """The tangent cone at the origin: the homogeneous ideal of lowest-degree forms.

        Its degree-n part is the set of initial forms of the order-n members
        of self, with zero, and the partial sums below k of its Hilbert
        function are the lengths dim k[x]/(self + (x)^k).  A homogeneous ideal
        is its own tangent cone.  Otherwise Lazard's method (1983) gives a
        standard basis for a local degree order: homogenise with a fresh h,
        take one basis ordering more h first, then degrevlex, and keep of each
        element its terms of highest h power, with h dropped.  These lowest
        forms are a degrevlex Groebner basis of the cone (Greuel-Pfister,
        ch. 5), their leads being the basis leads with h dropped, so the
        forms whose leads are minimal already generate it.
        """
        if self.is_homogeneous():
            return self
        n = self.ring.n
        hring = self.ring.extended(
            (_fresh_name(self.ring.names, "h"),), MonomialOrder.elimination(n + 1, (n,))
        )
        hgens = []
        for g in self.gens:
            top = g.degree()
            hgens.append(Polynomial(hring, {e + (top - sum(e),): c for e, c in g.coeffs.items()}))
        lazard = buchberger(hgens)
        wanted = set(minimal_monomials(g.leading_monomial()[:n] for g in lazard))
        forms = []
        for g in lazard:
            lead = g.leading_monomial()
            # leads equal once h is dropped: one form per minimal lead
            if lead[:n] not in wanted:
                continue
            wanted.discard(lead[:n])
            forms.append(Polynomial(
                self.ring, {e[:n]: c for e, c in g.coeffs.items() if e[n] == lead[n]}
            ))
        return PolyIdeal(self.ring, forms)

    # -- arithmetic on ideals ------------------------------------------------

    def plus(self, other):
        self._check_ring(other)
        return PolyIdeal(self.ring, self.gens + other.gens)

    __add__ = plus

    def times(self, other):
        self._check_ring(other)
        a, b = self.groebner(), other.groebner()
        return PolyIdeal(self.ring, tuple(f * g for f in a for g in b))

    __mul__ = times

    def power(self, k):
        return memo_power(self, k, lambda: PolyIdeal.unit(self.ring))

    def _check_ring(self, other):
        if not isinstance(other, PolyIdeal) or other.ring != self.ring:
            raise ValueError("mixed-ring ideal operation")

    # -- intersection, colon, saturation, elimination ------------------------

    def intersect(self, other):
        self._check_ring(other)
        ring = self.ring
        n = ring.n
        tag = _fresh_name(ring.names, "t")
        bring = ring.extended((tag,), MonomialOrder.elimination(n + 1, (n,)))
        pos = tuple(range(n))
        t = bring.var(n)
        onemt = bring.one() - t
        gens = [map_vars(a, bring, pos) * t for a in self.groebner()]
        gens += [map_vars(b, bring, pos) * onemt for b in other.groebner()]
        return eliminate_into(gens, (n,), ring)

    def colon(self, other):
        """(self : other); other may be a Polynomial or a PolyIdeal."""
        if isinstance(other, Polynomial):
            other = PolyIdeal(self.ring, (other,))
        self._check_ring(other)
        bs = other.groebner()
        if not bs:
            raise ValueError("colon by the zero ideal")
        result = None
        for b in bs:
            inter = self.intersect(PolyIdeal(self.ring, (b,)))
            quots = tuple(exact_quotient(g, b) for g in inter.groebner())
            part = PolyIdeal(self.ring, quots)
            result = part if result is None else result.intersect(part)
        return result

    def saturate(self, other):
        """(self : other^infinity), the intersection over the generators b of
        other of self : b^infinity = (self + (1 - u b)) cap k[x].

        Rabinowitsch's trick (Greuel–Pfister, A Singular Introduction to
        Commutative Algebra, 1.8): one elimination of a fresh u per
        generator, no colon and no fixpoint test.  Saturating by the zero
        ideal gives the unit ideal.
        """
        self._check_ring(other)
        ring = self.ring
        n = ring.n
        uring = ring.extended(
            (_fresh_name(ring.names, "u"),), MonomialOrder.elimination(n + 1, (n,))
        )
        pos = tuple(range(n))
        one, u = uring.one(), uring.var(n)
        base = [map_vars(g, uring, pos) for g in self.groebner()]
        result = PolyIdeal.unit(ring)
        for k, b in enumerate(other.gens):
            part = eliminate_into(base + [one - u * map_vars(b, uring, pos)], (n,), ring)
            result = part if k == 0 else result.intersect(part)
        return result

    def eliminate(self, drop):
        """Generators of self `intersect` k[remaining variables], as an ideal of the same ring."""
        drop = tuple(sorted(set(drop)))
        if not drop:
            return PolyIdeal(self.ring, self.groebner())
        n = self.ring.n
        if any(i < 0 or i >= n for i in drop):
            raise ValueError("variable index out of range")
        ering = self.ring.with_order(MonomialOrder.elimination(n, drop))
        egens = [Polynomial(ering, dict(g.coeffs)) for g in self.gens]
        return eliminate_into(egens, drop, self.ring)

    # -- dimensions ----------------------------------------------------------

    def k_dimension(self):
        """dim_k of the quotient ring: the number of standard monomials.

        Read off the Hilbert series of the leading ideal: INFINITE unless the
        quotient has dimension 0, and then the numerator's value at t = 1.
        """
        if self.is_unit():
            return 0
        num, d = leading_series(self.leading_monomials(), self.ring.n)
        return sum(num) if d == 0 else INFINITE

    def krull_dimension(self):
        """Dimension of the quotient, that of the leading ideal; -1 for the unit ideal."""
        if self.is_unit():
            return -1
        return leading_series(self.leading_monomials(), self.ring.n)[1]
