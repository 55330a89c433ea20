"""Reductions J of I, analytic spread, and the weak-FC sequence machinery.

A reduction is certified by the least n with I^(n+1) = J I^n at the
origin.  On every input that n is the top degree of F(I)/J F(I), read off
one Hilbert series of the fiber cone F(I) = k[T]/Phi (Northcott-Rees), Phi
from rees.rees_presentation, so no product J I^n is built and n has no
bound.  The same Phi gives the analytic spread, its Krull dimension, and the
degree-one piece I/mI of F(I) settles which candidates of a reduction search
are minimally generated, so on homogeneous input the degrees of the
generators the search drew are the degree sequence of the reduction it
returns (reduction_degrees).

One routine, fc_chain, checks each element of a weak-FC sequence inside the
quotient by earlier members; fc_check_element, build_fc_sequence and the
quotient route of mixed_rees all run it.  Those quotients are handled
entirely on polynomial lifts, so nothing here needs them to be graded.  When
the lift, the element x and every ideal are homogeneous, FC1 is decided for
every window tuple from two multi-Rees presentations per element
(rees.multi_rees), S[I_k t_k, x u] and (S/x)[I_k t_k] with S the quotient by
the lift: the products K_n and x K_n and the image of K_n mod x are graded
pieces of these algebras, counted as standard monomials in a weight order,
so no basis is built per tuple.  Other input checks FC1 as
B : x = K_n + (base : x) by a colon; the one annihilator base : x per
element also decides FC2.
"""

import itertools
import random
from collections import Counter, namedtuple

from .algebra import AlgElement, AlgIdeal, minimal_basis
from .degseq import degree_sequence
from .errors import SearchExhausted
from .groebner import PolyIdeal
from .hilbert import _poly_add, leading_series
from .linalg import rref_insert, solve
from .monomials import monomials_of_degree
from .polynomials import Polynomial, PolyRing
from .rees import multi_rees, rees_presentation

DEFAULT_RETRIES = 32


class ReductionCertificate(namedtuple(
    "ReductionCertificate", "verdict n_witness", defaults=(None,)
)):
    """verdict is "REDUCTION" or "INCONCLUSIVE"; n_witness is the reduction number."""

    __slots__ = ()

    @property
    def ok(self):
        return self.verdict == "REDUCTION"


def is_reduction(J, I):
    """Certify I^(n+1) = J I^n at the origin for some n; J must lie in I.

    The witness is the least such n, the reduction number of I with respect
    to J in the local ring at the origin.  J = I is witness 0, checked first
    on the two lifts.  Otherwise a unit ideal I is INCONCLUSIVE, and a
    proper I (nonzero, since I = 0 forces J = I) is read off the fiber cone
    F = F(I) = sum of I^n / m I^n, with no product J I^n formed:
    - F = k[T]/Phi, T_i -> the class of the minimal generator g_i of I in
      I/mI (_fiber_cone).
    - JF is generated by the images of the generators of J in F_1 = I/mI.  A
      generator j maps to the linear form sum c_i T_i with
      j = sum c_i g_i mod mI.  The classes of the g_i are a basis of I/mI,
      so the c_i are the one solution of NF_mI(j) = sum c_i NF_mI(g_i),
      zero on the g_i of other degrees than j.
    - (F/JF)_(n+1) = I^(n+1) / (J I^n + m I^(n+1)), so it is zero iff
      I^(n+1) = J I^n + m I^(n+1).  Each piece is killed by m, so it is its
      own localisation at the origin, and there Nakayama makes this
      I^(n+1) = J I^n (I^(n+1) is finitely generated, m the maximal ideal).
      On homogeneous input graded Nakayama gives the global equality too.
    - F/JF = k[T]/(Phi + forms) is generated in degree 1, so a zero degree is
      followed by zeros only: the least n is the top degree of F/JF, which
      is Artinian exactly when some n exists.  Its Hilbert series is then the
      polynomial hilbert.leading_series returns, of degree n, with no bound.
    - Phi is homogeneous in T whatever I is: the Rees ideal is graded by the
      power of t, each T of degree 1, and setting x to 0 keeps that grading.
    """
    if J.algebra != I.algebra:
        raise ValueError("mixed-algebra reduction test")
    for g in J.gens:
        if not I.lift.contains(g.rep):
            raise ValueError("J is not contained in I")
    if J.lift.equals(I.lift):
        return ReductionCertificate("REDUCTION", 0)
    if not I.is_proper():
        return ReductionCertificate("INCONCLUSIVE")
    return _fiber_witness(J, I)


def _fiber_forms(fiber, gens):
    """The linear forms in F(I)_1 = I/mI of the elements gens of I (see is_reduction)."""
    ring = fiber.relations.ring
    forms = []
    for j in gens:
        coeffs = solve(ring.field, fiber.images, fiber.mi.normal_form(j.rep).coeffs)
        if coeffs is None:
            raise ArithmeticError("a generator of J has no image in I/mI")
        forms.append(sum((c * t for c, t in zip(coeffs, ring.gens())), ring.zero()))
    return forms


def _fiber_certificate(fiber, forms):
    """The top degree of F(I)/(forms), unless it is not Artinian (see is_reduction)."""
    ring = fiber.relations.ring
    quotient = PolyIdeal(ring, fiber.relations.gens + tuple(forms))
    num, dim = leading_series(quotient.leading_monomials(), ring.n)
    if dim > 0:
        return ReductionCertificate("INCONCLUSIVE")
    return ReductionCertificate("REDUCTION", len(num) - 1)


def _fiber_witness(J, I):
    """The top degree of F(I)/J F(I), for J inside I (see is_reduction)."""
    fiber = _fiber_cone(I)
    return _fiber_certificate(fiber, _fiber_forms(fiber, J.gens))


class _FiberCone(namedtuple("_FiberCone", "generators relations mi images")):
    """F(I) = k[T]/relations, T_i -> the class of generators[i] in I/mI:
    generators are the minimal generators g_i of I, relations is Phi in
    k[T], mi the lift of mI, and images[i] the normal form mod mI of g_i,
    as a coefficient dict."""

    __slots__ = ()


def _fiber_cone(I):
    """The fiber cone of I, built once per ideal (kept in I._fiber): a
    reduction search asks for the spread and then certifies every candidate
    against the same I.

    F(I) is R/mR for the Rees algebra R = k[x, T]/L of the presentation kept
    on I (rees.rees_presentation), and k[x, T]/(L + (x)) is k[T] modulo the
    images of the generators of L with every x set to 0.  The g_i are the
    minimal basis that presentation was built over, its one block.
    """
    if I._fiber is None:
        rees = rees_presentation(I)
        n, ambient = rees.n, rees.ideal.ring
        ring = PolyRing(ambient.names[n:], ambient.field)
        phi = PolyIdeal(ring, tuple(
            Polynomial(ring, {e[n:]: c for e, c in g.coeffs.items() if not any(e[:n])})
            for g in rees.ideal.gens
        ))
        mi = I.times_irrelevant().lift
        (gens,) = rees.blocks
        images = [mi.normal_form(g).coeffs for g in gens]
        I._fiber = _FiberCone([AlgElement(I.algebra, g) for g in gens], phi, mi, images)
    return I._fiber


def analytic_spread(I):
    """Krull dimension of the fiber cone F(I) = k[T]/Phi (_fiber_cone)."""
    return _fiber_cone(I).relations.krull_dimension()


class HeightReport(namedtuple(
    "HeightReport", "height spread equimultiple convention", defaults=("codimension",)
)):
    __slots__ = ()


def height_and_equimultiple(I):
    """Codimension of I, analytic spread, and whether the two agree."""
    if I.is_zero() or not I.is_proper():
        raise ValueError("need a nonzero proper ideal")
    algebra = I.algebra
    ht = algebra.dim - I.lift.krull_dimension()
    sp = analytic_spread(I)
    return HeightReport(ht, sp, ht == sp)


def find_minimal_reduction(I, seed=0, retries=DEFAULT_RETRIES):
    """(J, certificate) of _search_reduction, run once per ideal and (seed,
    retries) and kept in I._reductions, as the fiber cone is in I._fiber:
    every fast path and type index reads one search.  A SearchExhausted is
    not kept."""
    memo = I._reductions = I._reductions or {}
    if (seed, retries) not in memo:
        memo[seed, retries] = _search_reduction(I, seed, retries)
    return memo[seed, retries]


def _search_reduction(I, seed, retries):
    """Search for a reduction generated by analytic-spread many elements.

    For a homogeneous I each generator is drawn from a graded piece of I,
    walking candidate degree multisets smallest-first; otherwise generators
    are random combinations of the minimal basis.  A candidate J needs
    spread independent linear forms in F(I)_1 = I/mI, read once: dependent
    ones are too few for F(I)/J F(I) to be Artinian.  The same forms give
    the certificate (is_reduction).  Raises SearchExhausted on failure.

    A homogeneous multiset in which some degree a occurs more often than I
    has minimal generators of degree a is skipped without a draw.  A
    degree-a element of I maps into the span of the degree-a generator
    classes in I/mI, every other term of it lying in mI, so the forms of a
    candidate have rank at most sum_a min(count_a, #generators of degree a),
    less than spread: the rank test would reject every draw.  The skip still
    takes from rng the coefficients those rejected draws would have taken,
    retries * sum over a in the multiset of len(pool(a)), so the J returned
    for a given seed is the one of the search that tries every multiset.
    """
    algebra = I.algebra
    spread = analytic_spread(I)
    fiber = _fiber_cone(I)
    basis = fiber.generators
    homogeneous = I.is_homogeneous()
    rng = random.Random(seed)
    field_ = algebra.ring.field

    def random_combination(items):
        combo = algebra.zero()
        for el in items:
            combo = combo + field_.random(rng) * el
        return combo

    def try_candidate(gens):
        J = AlgIdeal(algebra, gens)
        # J lies in I, and I is proper: analytic_spread(I) above read a Rees
        # presentation, which refuses a unit ideal.  So J is proper, and no
        # basis of J is built to check it.  A zero J, every draw vanishing,
        # is no reduction of the nonzero I.
        if J.is_zero():
            return None
        forms = _fiber_forms(fiber, J.gens)
        echelon = {}
        if sum(rref_insert(echelon, f.coeffs, field_) for f in forms) < spread:
            return None
        cert = _fiber_certificate(fiber, forms)
        if cert.ok:
            return (J, cert)
        return None

    if homogeneous:
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
        available = Counter(b.order for b in basis)
        for ms in multisets:
            if any(k > available[a] for a, k in Counter(ms).items()):
                # every draw would fail the rank test: consume its coefficients
                for _ in range(retries * sum(len(pool(a)) for a in ms)):
                    field_.random(rng)
                continue
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

    for _ in range(retries):
        hit = try_candidate([random_combination(basis) for _slot in range(spread)])
        if hit:
            return hit
    raise SearchExhausted("no minimal reduction found", spread=spread, retries=retries)


def reduction_degrees(I, J):
    """The degree sequence of the minimal reduction J of I that
    find_minimal_reduction returned, as a tuple.

    On homogeneous I the search certified J with exactly spread nonzero
    homogeneous generators whose forms are independent in F(I)_1 = I/mI.
    As mJ lies in mI, their classes are independent in J/mJ as well, so by
    graded Nakayama they are a minimal basis of J, and the sequence is their
    sorted degrees: no basis of J or of mJ is built.  Other input reads
    degree_sequence(J).
    """
    if I.is_homogeneous():
        return tuple(sorted(g.order for g in J.gens))
    return degree_sequence(J)


# -- weak-FC checks ----------------------------------------------------------


class FcWindow(namedtuple(
    "FcWindow", "slot_lo slot_hi other_lo other_hi", defaults=(2, 5, 0, 3)
)):
    __slots__ = ()

    def tuples(self, count, slot):
        ranges = []
        for j in range(count):
            if j == slot:
                ranges.append(range(self.slot_lo, self.slot_hi + 1))
            else:
                ranges.append(range(self.other_lo, self.other_hi + 1))
        return itertools.product(*ranges)


class FcReport(namedtuple(
    "FcReport",
    "slot order fc1_pass fc2_pass window fc1_counterexample fc2_witness",
    defaults=(None, None),
)):
    __slots__ = ()

    @property
    def ok(self):
        return self.fc1_pass and self.fc2_pass


class _ProductCache:
    """Products of ideal powers over a fixed base lift, with GBs shared."""

    def __init__(self, ring, base_gens, gen_lists):
        self.ring = ring
        self.base = tuple(base_gens)
        self.gen_lists = [list(gl) for gl in gen_lists]
        self._memo = {}

    def ideal(self, exps):
        exps = tuple(exps)
        if exps in self._memo:
            return self._memo[exps]
        j = next((i for i, e in enumerate(exps) if e), None)
        if j is None:
            # empty product is the unit ideal of the quotient: lift is the whole ring
            out = PolyIdeal.unit(self.ring)
        else:
            prev = self.ideal(exps[:j] + (exps[j] - 1,) + exps[j + 1:])
            gens = list(self.base)
            for p in prev.groebner():
                for g in self.gen_lists[j]:
                    gens.append(p * g)
            out = PolyIdeal(self.ring, tuple(gens))
        self._memo[exps] = out
        return out


def _fc1_sides(cache, ann, slot, exps):
    """(B, C) of FC1 at exps: B = prod(slot bumped) and C = prod(exps) + ann,
    which is the cached prod(exps) itself when ann already lies in it."""
    bumped = exps[:slot] + (exps[slot] + 1,) + exps[slot + 1:]
    prod = cache.ideal(exps)
    extra = tuple(g for g in ann.groebner() if not prod.contains(g))
    if extra:
        prod = PolyIdeal(cache.ring, prod.groebner() + extra)
    return cache.ideal(bumped), prod


def _fc1_colon(cache, ann, x_rep, slot, exps):
    """B : x == C on any input, as B : x contained in C."""
    bumped, rhs = _fc1_sides(cache, ann, slot, exps)
    return rhs.contains_ideal(bumped.colon(x_rep))


def _m_slots(base, gen_lists):
    """Indices of the ideals of the tuple that equal m = (x_1..x_n) modulo base."""
    ring = base.ring
    out = []
    for k, gl in enumerate(gen_lists):
        # homogeneous generators of positive degree (or zero) lie in m
        if all(g.degree() != 0 for g in gl):
            ideal = PolyIdeal(ring, base.gens + tuple(gl))
            if all(ideal.contains(v) for v in ring.gens()):
                out.append(k)
    return out


class _ReesFc1:
    """FC1 at every window tuple from two presentations of one element.

    With S = R/base, K_n = prod I_k^n_k and K-bar its image in S/x, FC1 at n
    holds iff HS(K_(n+e)) - HS(K-bar_(n+e)) = HS(x K_n), each read off
    standard monomials (see _fc_check_on_lift): K_(n+e) and x K_n off
    S[I_k t_k, x u], K-bar_(n+e) off (S/x)[I_k t_k].  The ideals equal to m
    get no block; their exponents add up to the x-degree bound c.  The
    series of one block degree and bound c are built once, whichever tuples
    ask (BlockSeries.slice).
    """

    def __init__(self, base, x_rep, gen_lists, slot):
        self.slot = slot
        self.m = _m_slots(base, gen_lists)
        self.blocks = [k for k in range(len(gen_lists)) if k not in self.m]
        gens = [[g for g in gen_lists[k] if g] for k in self.blocks]
        self.full = multi_rees(base, gens + [[x_rep]]).series()
        self.bar = multi_rees(PolyIdeal(base.ring, base.gens + (x_rep,)), gens).series()

    def holds(self, exps):
        bumped = exps[:self.slot] + (exps[self.slot] + 1,) + exps[self.slot + 1:]
        b = tuple(bumped[k] for k in self.blocks)
        c = sum(bumped[k] for k in self.m)
        right = self.full.slice(
            tuple(exps[k] for k in self.blocks) + (1,), sum(exps[k] for k in self.m)
        )
        return self.full.slice(b + (0,), c) == _poly_add(self.bar.slice(b, c), right)


def _fc2_saturation(base, gen_lists):
    """sat = base : (K_1 .. K_r)^infinity, K_k generated by gen_lists[k],
    saturating only by the ideals no other one of the tuple lies inside.

    In R/base, f lies in sat when a power of the product kills it, and that
    depends only on the radical of the product, the intersection of the
    rad(K_k + base): if rad(A + base) = rad(B + base), each of A, B has a
    power inside the other modulo base (R is Noetherian), so a power of A
    kills f modulo base iff a power of B does.  If K_i + base lies inside
    K_k + base, rad(K_k + base) contains rad(K_i + base), so dropping K_k
    leaves the intersection, and sat, unchanged.  K_k is dropped when some
    K_i with i != k lies inside it modulo base and either K_k does not lie
    inside K_i or i < k: of equal ideals the first stays.  That relation has
    no cycles, so below every dropped ideal a kept one lies inside it, and
    the kept ones give the same intersection.  For the tuple (J, I, m) of a
    weak-FC sequence, J inside I inside m, only J is left.  The kept ideals
    are saturated by in turn:
    base : (K_1 K_2)^infinity = (base : K_1^infinity) : K_2^infinity.
    """
    ring = base.ring
    sums = [PolyIdeal(ring, base.gens + tuple(gl)) for gl in gen_lists]

    def inside(i, k):
        return all(sums[k].contains(g) for g in gen_lists[i])

    sat = base
    for k, gl in enumerate(gen_lists):
        if any(i != k and inside(i, k) and (i < k or not inside(k, i))
               for i in range(len(gen_lists))):
            continue
        sat = sat.saturate(PolyIdeal(ring, tuple(gl)))
    return sat


def _fc_check_on_lift(base, x, gen_lists, slot, window):
    """FC2 and windowed FC1 for the element x over the given base lift.

    x must lie in its slot ideal modulo base.  With ann = base : x, FC2 is
    ann contained in sat, the saturation of base by the product of the
    ideals, one saturation per ideal that no other one lies inside
    (_fc2_saturation).  At a window tuple n, with K_n the product (base
    included), B = K_(n+e_slot) and A = base + x, FC1 asks
    A cap B = base + x K_n.

    On homogeneous input (base, x and every generator), work in S = R/base,
    where FC1 reads K_(n+e) cap xS = x K_n.  The right side lies in the left
    (x lies in its slot ideal), and graded pieces are finite-dimensional, so
    FC1 holds iff both sides have the same dimension in every degree t.  The
    image K-bar of K in S/x is K/(K cap xS), so that is
    HS(K_(n+e)) - HS(K-bar_(n+e)) = HS(x K_n).  The three series are read off
    two presentations per element, with no basis per tuple (_ReesFc1):
    - R-full = S[I_k t_k, x u] = k[x, T, U]/L, T_kj -> g_kj t_k and U -> x u,
      graded by the degree t of the image (deg x_i = 1, deg T_kj = deg g_kj,
      deg U = deg x) and by the block degrees.  Its piece of block degree
      (n, 0) is K_n t^n.  That of (n, 1) is spanned by the x f t^n u with f
      in K_n, so it is x K_n as a subset of S, in the degrees of S, whether
      or not x is a zerodivisor: the U block needs no annihilator.
    - R-bar = (S/x)[I_k t_k], presented over base + x: its piece of block
      degree n is K-bar_n.
    - The m slot.  The ideals equal to m get no block, and c is the sum of
      their exponents: dim (m^c K)_t is the number of standard monomials of
      degree t and x-degree >= c, in both u-degrees and in R-bar (see the
      counting argument of the rees module).
    - Reading x K_n off R-full / x R-full would be wrong with the m slot:
      its filtration counts m^c K / (m^c K cap xK), and x m^c K may be
      smaller than m^c K cap xK.  The U block gives x m^c K itself.
    Other input checks, with C = K_n + ann, B : x = C by a colon:
    - f = b + x r in B with b in base (so in B) has x r in B: A cap B = base + x (B : x).
    - x r lies in base + x K_n exactly when r lies in K_n + ann.
    - C lies in B : x: x lies in its slot ideal, so x K_n lies in B; x ann lies in base.
    When ann lies in K_n (always, if x is a nonzerodivisor modulo base), C
    is the cached K_n.
    """
    ring = base.ring
    sat = _fc2_saturation(base, gen_lists)
    if sat.is_unit():
        raise ValueError("product of the ideals is nilpotent modulo the base")
    ann = base.colon(x.rep)
    fc2_wit = next((repr(g) for g in ann.groebner() if not sat.contains(g)), None)
    homogeneous = (
        base.is_homogeneous()
        and x.rep.is_homogeneous()
        and all(g.is_homogeneous() for gl in gen_lists for g in gl)
    )
    if homogeneous:
        fc1 = _ReesFc1(base, x.rep, gen_lists, slot).holds
    else:
        cache = _ProductCache(ring, base.gens, gen_lists)

        def fc1(exps):
            return _fc1_colon(cache, ann, x.rep, slot, exps)
    counter = next((exps for exps in window.tuples(len(gen_lists), slot) if not fc1(exps)), None)
    return FcReport(slot, x.order, counter is None, fc2_wit is None, window, counter, fc2_wit)


def fc_chain(xs, ideals, slot=0, window=None):
    """FC reports of x_1, x_2, .. in turn, each x_i checked in the quotient
    by its predecessors relative to the whole ideal tuple, up to and
    including the first failing report.

    FC2 (filter-regularity) is exact; FC1 (the intersection identity) is
    verified over the finite exponent window as B : x = K_n + (base : x),
    from Hilbert series on homogeneous input and by a colon otherwise, with
    the same verdicts (see _fc_check_on_lift).  Modulo its predecessors x_i
    must be nonzero, in ideals[slot] and not in m * ideals[slot], or
    ValueError is raised after the reports before it.
    """
    if window is None:
        window = FcWindow()
    if not ideals or any(i.algebra != ideals[0].algebra for i in ideals):
        raise ValueError("need a nonempty tuple of ideals of the same algebra")
    if slot < 0 or slot >= len(ideals):
        raise ValueError("slot out of range")
    algebra = ideals[0].algebra
    gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
    mi_gens = ideals[slot].times_irrelevant().lift.gens
    base_gens = algebra.defining.groebner()
    for x in xs:
        if x.algebra != algebra:
            raise ValueError("element and ideals from different algebras")
        base = PolyIdeal(algebra.ring, base_gens)
        if base.contains(x.rep):
            raise ValueError("zero element")
        if not ideals[slot].contains(x):
            raise ValueError("element does not lie in its slot ideal")
        if PolyIdeal(algebra.ring, base_gens + mi_gens).contains(x.rep):
            raise ValueError("element lies in m * (slot ideal)")
        report = _fc_check_on_lift(base, x, gen_lists, slot, window)
        yield report
        if not report.ok:
            return
        base_gens += (x.rep,)


def fc_check_element(x, ideals, slot, window=None):
    """FC checks for x in ideals[slot]: the one report of fc_chain([x], ...)."""
    return next(fc_chain([x], ideals, slot, window))


class FcSequence(namedtuple("FcSequence", "elements reports o_values attempt")):
    __slots__ = ()


def build_fc_sequence(J, I, seed=0, retries=DEFAULT_RETRIES, window=None):
    """Triangular recombinations of the minimal basis of J passing FC checks.

    Each attempt runs fc_chain against the tuple (J, I, m), up to the first
    element whose order differs from that of its basis element; a failed
    guard ends the attempt with the reports before it.  Orders are reported
    in the original algebra.  The sequence must regenerate J at the origin
    (AlgIdeal.generated_at_origin_by), as the minimal basis it recombines
    does.  Raises SearchExhausted with the deepest level reached when
    retries run out.
    """
    algebra = J.algebra
    cert = is_reduction(J, I)
    if not cert.ok:
        raise ValueError("J must be a verified reduction of I")
    basis = sorted(
        minimal_basis(J), key=lambda b: (b.order, b.rep.sort_key())
    )
    count = len(basis)
    spread = analytic_spread(I)
    if count != spread:
        raise ValueError(
            f"J is not minimal: {count} generators vs analytic spread {spread}"
        )
    ideals = [J, I, algebra.irrelevant_ideal()]
    field_ = algebra.ring.field
    rng = random.Random(seed)
    best_level = -1

    for attempt in range(retries):
        if attempt == 0:
            xs = list(basis)
        else:
            xs = []
            for i in range(count):
                combo = basis[i]
                for l in range(i + 1, count):
                    combo = combo + field_.random(rng) * basis[l]
                xs.append(combo)
        end = next((i for i, x in enumerate(xs) if x.order != basis[i].order), count)
        reports = []
        try:
            for report in fc_chain(xs[:end], ideals, 0, window):
                reports.append(report)
        except ValueError:
            pass
        if len(reports) == count and all(r.ok for r in reports):
            if not J.generated_at_origin_by(x.rep for x in xs):
                raise ArithmeticError("sequence does not regenerate J")
            return FcSequence(
                xs, reports, tuple(sorted(x.order for x in xs)), attempt
            )
        best_level = max(best_level, len(reports) - 1)
    raise SearchExhausted(
        "no weak-FC sequence found",
        best_level=best_level,
        retries=retries,
    )
