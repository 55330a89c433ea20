"""Buchberger engine and the ideal algebra built on it.

Orders are global, so every ideal here has a unique reduced Groebner basis;
PolyIdeal caches it and all higher operations (sum, product, power, colon,
saturation, intersection, elimination, dimension) go through it.
"""

import itertools
import math
import threading
from heapq import heappop, heappush

from .monomials import (
    MonomialOrder,
    minimal_monomials,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .polynomials import Polynomial, map_vars

INFINITE = math.inf


def s_polynomial(f, g):
    if f.ring != g.ring:
        raise ValueError("mixed-ring S-polynomial")
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = mono_lcm(lf, lg)
    field = f.ring.field
    a = f.mul_term(mono_div(l, lf), field.inv(f.coeffs[lf]))
    b = g.mul_term(mono_div(l, lg), field.inv(g.coeffs[lg]))
    return a - b


def normal_form(f, basis):
    """Fully reduce f by the basis: no remaining term is divisible by any lead.

    Reducer choice is the first basis element (in given order) whose lead
    divides the current term, so the result is deterministic for a fixed basis.
    """
    reducers = [(g.leading_monomial(), g) for g in basis if g.coeffs]
    if not reducers or not f.coeffs:
        return f
    ring = f.ring
    field = ring.field
    fsub, fmul, fdiv = field.sub, field.mul, field.div
    okey = ring.order.key
    work = dict(f.coeffs)
    out = {}
    while work:
        m = max(work, key=okey)
        c = work.pop(m)
        g = None
        for lm, cand in reducers:
            if mono_divides(lm, m):
                g = cand
                glm = lm
                break
        if g is None:
            out[m] = c
            continue
        u = mono_div(m, glm)
        factor = fdiv(c, g.coeffs[glm])
        for e, gc in g.coeffs.items():
            if e == glm:
                continue
            e2 = mono_mul(e, u)
            v = fsub(work.get(e2, 0), fmul(factor, gc))
            if v == 0:
                work.pop(e2, None)
            else:
                work[e2] = v
    return Polynomial(ring, out)


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

    The uncached core of buchberger.  Pair selection is by minimal lcm degree
    with FIFO tie-break; skips use the coprimality criterion and the classic
    chain criterion.
    """
    ring = polys[0].ring
    okey = ring.order.key

    if all(p.is_term() for p in polys):
        minimal = minimal_monomials([p.leading_monomial() for p in polys])
        return tuple(
            ring.monomial(m) for m in sorted(minimal, key=okey)
        )

    G = list(polys)
    leads = [g.leading_monomial() for g in G]
    pairq = []
    counter = itertools.count()

    def push_pairs(t):
        lt = leads[t]
        for i in range(t):
            l = mono_lcm(leads[i], lt)
            heappush(pairq, (sum(l), next(counter), i, t))

    for t in range(1, len(G)):
        push_pairs(t)
    done = set()

    while pairq:
        _, _, i, j = heappop(pairq)
        key = (i, j)
        lij = mono_lcm(leads[i], leads[j])
        if mono_coprime(leads[i], leads[j]):
            done.add(key)
            continue
        if G[i].is_term() and G[j].is_term():
            done.add(key)
            continue
        chained = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if not mono_divides(leads[k], lij):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                chained = True
                break
        done.add(key)
        if chained:
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if r.coeffs:
            G.append(r.monic())
            leads.append(r.leading_monomial())
            push_pairs(len(G) - 1)

    # minimal basis: drop anything whose lead another kept lead divides
    kept = []
    for g in sorted(G, key=lambda p: okey(p.leading_monomial())):
        lg = g.leading_monomial()
        if any(mono_divides(h.leading_monomial(), lg) for h in kept):
            continue
        kept.append(g)

    # tail interreduction to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            rest = kept[:idx] + kept[idx + 1:]
            r = normal_form(kept[idx], rest)
            if r.coeffs != kept[idx].coeffs:
                kept[idx] = r.monic()
                changed = True
    kept.sort(key=lambda p: okey(p.leading_monomial()))
    return tuple(kept)


def exact_quotient(f, b):
    """f / b for f in the principal ideal (b)."""
    ring = f.ring
    field = ring.field
    lb = b.leading_monomial()
    cb = b.coeffs[lb]
    work = dict(f.coeffs)
    okey = ring.order.key
    quot = {}
    while work:
        m = max(work, key=okey)
        c = work.pop(m)
        if not mono_divides(lb, m):
            raise ValueError("not an exact multiple")
        u = mono_div(m, lb)
        factor = field.div(c, cb)
        quot[u] = factor
        for e, gc in b.coeffs.items():
            if e == lb:
                continue
            e2 = mono_mul(e, u)
            v = field.sub(work.get(e2, 0), field.mul(factor, gc))
            if v == 0:
                work.pop(e2, None)
            else:
                work[e2] = v
    return Polynomial(ring, quot)


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
        """(self : other^infinity); the loop exits only once one more colon is stable."""
        cur = self
        while True:
            nxt = cur.colon(other)
            if nxt.equals(cur):
                return cur
            cur = nxt

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

        Returns INFINITE unless every variable has a pure power among the
        leading monomials (the finiteness criterion).
        """
        leads = self.leading_monomials()
        n = self.ring.n
        zero = (0,) * n
        if any(m == zero for m in leads):
            return 0
        for i in range(n):
            if not any(
                m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
                for m in leads
            ):
                return INFINITE
        count = 0
        seen = {zero}
        stack = [zero]
        while stack:
            m = stack.pop()
            count += 1
            for i in range(n):
                m2 = m[:i] + (m[i] + 1,) + m[i + 1:]
                if m2 in seen:
                    continue
                seen.add(m2)
                if any(mono_divides(l, m2) for l in leads):
                    continue
                stack.append(m2)
        return count

    def krull_dimension(self):
        """Dimension of the quotient: largest variable set meeting no leading support.

        The unit ideal gives -1 (empty locus).
        """
        leads = self.leading_monomials()
        n = self.ring.n
        zero = (0,) * n
        if any(m == zero for m in leads):
            return -1
        supports = []
        for m in leads:
            supports.append(frozenset(i for i, e in enumerate(m) if e))
        supports = set(supports)
        for size in range(n, 0, -1):
            for combo in itertools.combinations(range(n), size):
                vs = set(combo)
                if not any(s <= vs for s in supports):
                    return size
        return 0
