"""Replaced Groebner routes, kept as reference oracles.

- The chain-criterion Buchberger core that `groebner._reduced_basis`
  replaced, the oracle for the Gebauer–Möller pair update.
- The Gebauer–Möller core on exponent tuples, with the S-polynomial formed
  by two `mul_term`s and a dict subtraction, that the core on packed views
  replaced: the oracle for its pair order and its S-pair count.  The tuple
  quotient and coprimality test it needs (mono_div, mono_coprime) live here,
  as nothing in the package uses them now.
- The normal form on exponent tuples that the heap reduction on packed
  monomials (`groebner.normal_form`) replaced; the reference core reduces
  with it, so it does not depend on the new one.
- The colon loop that Rabinowitsch's saturation (`PolyIdeal.saturate`)
  replaced.
- An independent Groebner-basis certificate that never calls `buchberger`.
"""

import itertools
from heapq import heapify, heappop, heappush

from gradmult import Polynomial
from gradmult.monomials import minimal_monomials, mono_divides, mono_lcm, mono_mul


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reference_s_polynomial(f, g):
    """The S-polynomial on exponent tuples."""
    if f.ring != g.ring:
        raise ValueError("mixed-ring S-polynomial")
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = mono_lcm(lf, lg)
    field = f.ring.field
    a = f.mul_term(mono_div(l, lf), field.inv(f.coeffs[lf]))
    b = g.mul_term(mono_div(l, lg), field.inv(g.coeffs[lg]))
    return a - b


def reference_normal_form(f, basis):
    """Fully reduce f by the basis, on exponent tuples: the largest live term
    is found by rescanning every term's order key at each step, and the
    reducer is the first basis element whose lead divides it."""
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


def reference_saturate(ideal, other):
    """(ideal : other^infinity) by colons by other until one more colon is
    stable; other must be nonzero."""
    cur = ideal
    while True:
        nxt = cur.colon(other)
        if nxt.equals(cur):
            return cur
        cur = nxt


def reference_reduced_basis(polys):
    """Reduced Groebner basis of distinct nonzero monic polynomials of one ring.

    The core buchberger used before the Gebauer–Möller update.  Pair
    selection is by minimal lcm degree with FIFO tie-break; skips use the
    coprimality criterion and the classic chain criterion, checked over all
    of G at every pop.
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
        r = reference_normal_form(reference_s_polynomial(G[i], G[j]), G)
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
            r = reference_normal_form(kept[idx], rest)
            if r.coeffs != kept[idx].coeffs:
                kept[idx] = r.monic()
                changed = True
    kept.sort(key=lambda p: okey(p.leading_monomial()))
    return tuple(kept)


def reference_gm_basis(polys):
    """Reduced Groebner basis of distinct nonzero monic polynomials of one ring.

    The Gebauer–Möller core as it ran on exponent tuples, but for its normal
    form: it reduces with reference_normal_form, which takes the same
    reducer at every step as the heap normal form, so the remainders, the
    pairs and their order are the same.  Pairs are pruned once, when they
    are formed, by the update run as each h joins G:

    - M: a new pair (g, h) stays only if lcm(g, h) is a minimal generator of
      the new lcms;
    - F: one pair stays per distinct lcm;
    - product criterion: an lcm group with a pair of coprime leads goes;
    - B: a queued pair (i, j) goes when lead(h) divides its lcm and both
      lcm(i, h) and lcm(j, h) differ from it.

    Elements whose lead lead(h) divides form no new pairs, and a group holding
    a pair of two monomials goes, its S-polynomial being zero.  Pair selection
    is by minimal lcm degree with FIFO tie-break, and S-polynomials reduce by
    every element of G, active or not.
    """
    ring = polys[0].ring
    okey = ring.order.key

    if all(p.is_term() for p in polys):
        minimal = minimal_monomials([p.leading_monomial() for p in polys])
        return tuple(
            ring.monomial(m) for m in sorted(minimal, key=okey)
        )

    G = []
    leads = []
    active = []  # indices into G whose lead no later lead divides
    pairq = []  # (lcm degree, FIFO counter, lcm, i, j)
    counter = itertools.count()

    def update(h):
        t = len(G)
        lt = h.leading_monomial()
        term = h.is_term()
        G.append(h)
        leads.append(lt)
        if pairq:
            kept = [
                p for p in pairq
                if not mono_divides(lt, p[2])
                or mono_lcm(leads[p[3]], lt) == p[2]
                or mono_lcm(leads[p[4]], lt) == p[2]
            ]
            if len(kept) < len(pairq):
                pairq[:] = kept
                heapify(pairq)
        groups = {}
        for i in active:
            groups.setdefault(mono_lcm(leads[i], lt), []).append(i)
        minimal = set(minimal_monomials(groups))
        for l, members in groups.items():
            if l not in minimal:
                continue
            if any(mono_coprime(leads[i], lt) for i in members):
                continue
            if term and any(G[i].is_term() for i in members):
                continue
            heappush(pairq, (sum(l), next(counter), l, members[0], t))
        active[:] = [i for i in active if not mono_divides(lt, leads[i])]
        active.append(t)

    for p in polys:
        update(p)

    while pairq:
        _, _, _, i, j = heappop(pairq)
        r = reference_normal_form(reference_s_polynomial(G[i], G[j]), G)
        if r.coeffs:
            update(r.monic())

    # minimal basis: drop anything whose lead another kept lead divides
    kept = []
    for g in sorted(G, key=lambda p: okey(p.leading_monomial())):
        lg = g.leading_monomial()
        if any(mono_divides(h.leading_monomial(), lg) for h in kept):
            continue
        kept.append(g)

    # tail interreduction to the unique reduced basis, in one pass: no lead
    # divides another, so each lead survives its normal form and the leads
    # never change, and a normal form keeps no term any other lead divides
    for idx in range(len(kept)):
        kept[idx] = reference_normal_form(kept[idx], kept[:idx] + kept[idx + 1:])
    kept.sort(key=lambda p: okey(p.leading_monomial()))
    return tuple(kept)


def _reduces_to_zero(f, basis):
    """True when repeatedly cancelling the leading term of f by a basis lead
    ends in zero; a plain top reduction, independent of `normal_form`."""
    okey = f.ring.order.key
    leads = [(g.leading_monomial(), g) for g in basis]
    while f.coeffs:
        m = max(f.coeffs, key=okey)
        for lm, g in leads:
            if mono_divides(lm, m):
                break
        else:
            return False
        f = f - g.mul_term(mono_div(m, lm), f.ring.field.div(f.coeffs[m], g.coeffs[lm]))
    return True


def is_groebner_basis(basis, gens):
    """True when basis is the reduced Groebner basis of an ideal containing gens.

    Four checks: every generator reduces to zero, every S-pair of the basis
    reduces to zero, the basis is monic with minimal leads, and no tail term
    is divisible by a lead.
    """
    basis = tuple(basis)
    if not basis:
        return not any(g.coeffs for g in gens)
    one = basis[0].ring.field.one
    leads = [g.leading_monomial() for g in basis]
    for k, (g, lg) in enumerate(zip(basis, leads)):
        if g.coeffs[lg] != one:
            return False
        if any(mono_divides(l, lg) for i, l in enumerate(leads) if i != k):
            return False
        if any(mono_divides(l, e) for e in g.coeffs if e != lg for l in leads):
            return False
    if not all(_reduces_to_zero(g, basis) for g in gens if g.coeffs):
        return False
    return all(
        _reduces_to_zero(reference_s_polynomial(f, g), basis)
        for f, g in itertools.combinations(basis, 2)
    )
