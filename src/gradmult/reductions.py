"""Reductions J of I, analytic spread, and the weak-FC sequence machinery.

Reduction certification is the bounded power test I^{n+1} = J I^n.  FC checks
run inside quotients by earlier sequence members; those quotients are handled
entirely on polynomial lifts, so nothing here needs the quotient to be graded.
"""

import itertools
import random
from dataclasses import dataclass

from .algebra import AlgIdeal, minimal_basis
from .errors import SearchExhausted
from .groebner import PolyIdeal

DEFAULT_N_MAX = 8
DEFAULT_RETRIES = 32


@dataclass
class ReductionCertificate:
    verdict: str  # "REDUCTION" | "INCONCLUSIVE"
    n_witness: int = None
    n_max: int = DEFAULT_N_MAX

    @property
    def ok(self):
        return self.verdict == "REDUCTION"


def is_reduction(J, I, n_max=DEFAULT_N_MAX):
    """Certify I^{n+1} = J I^n for some n <= n_max; containment violations raise."""
    if J.algebra != I.algebra:
        raise ValueError("mixed-algebra reduction test")
    for g in J.gens:
        if not I.lift.contains(g.rep):
            raise ValueError("J is not contained in I")
    for n in range(n_max + 1):
        lhs = I.power(n + 1)
        rhs = J.times(I.power(n))
        if lhs.lift.equals(rhs.lift):
            return ReductionCertificate("REDUCTION", n, n_max)
    return ReductionCertificate("INCONCLUSIVE", None, n_max)


def analytic_spread(I):
    """Krull dimension of the special fiber of the Rees algebra."""
    from .mixed_rees import rees_presentation

    pres = rees_presentation(I)
    ring = pres.ambient
    fiber = PolyIdeal(
        ring, pres.rees_ideal.gens + tuple(ring.var(i) for i in range(pres.base_vars))
    )
    return fiber.krull_dimension()


@dataclass
class HeightReport:
    height: int
    spread: int
    equimultiple: bool
    convention: str = "codimension"


def height_and_equimultiple(I):
    """Codimension of I, analytic spread, and whether the two agree."""
    if I.is_zero() or not I.is_proper():
        raise ValueError("need a nonzero proper ideal")
    algebra = I.algebra
    ht = algebra.dim - I.lift.krull_dimension()
    sp = analytic_spread(I)
    return HeightReport(ht, sp, ht == sp)


def find_minimal_reduction(
    I, homogeneous=None, seed=0, retries=DEFAULT_RETRIES, n_max=DEFAULT_N_MAX
):
    """Search for a reduction generated by analytic-spread many elements.

    Homogeneous mode draws each generator from a graded piece of I, walking
    candidate degree multisets smallest-first; otherwise generators are random
    combinations of the minimal basis.  Raises SearchExhausted on failure.
    """
    algebra = I.algebra
    if homogeneous is None:
        homogeneous = I.is_homogeneous()
    spread = analytic_spread(I)
    basis = minimal_basis(I)
    rng = random.Random(seed)
    field_ = algebra.ring.field

    def random_combination(items):
        combo = algebra.zero()
        for el in items:
            combo = combo + field_.random(rng) * el
        return combo

    def try_candidate(gens):
        J = AlgIdeal(algebra, gens)
        if J.is_zero() or not J.is_proper():
            return None
        try:
            if len(minimal_basis(J)) != spread:
                return None
        except ValueError:
            return None
        cert = is_reduction(J, I, n_max=n_max)
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
                from .monomials import monomials_of_degree

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
        for ms in multisets:
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


# -- weak-FC checks ----------------------------------------------------------


@dataclass(frozen=True)
class FcWindow:
    slot_lo: int = 2
    slot_hi: int = 5
    other_lo: int = 0
    other_hi: int = 3

    def tuples(self, count, slot):
        ranges = []
        for j in range(count):
            if j == slot:
                ranges.append(range(self.slot_lo, self.slot_hi + 1))
            else:
                ranges.append(range(self.other_lo, self.other_hi + 1))
        return itertools.product(*ranges)


@dataclass
class FcReport:
    slot: int
    order: object
    fc1_pass: bool
    fc2_pass: bool
    window: FcWindow
    fc1_counterexample: tuple = None
    fc2_witness: str = None

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


def _fc2_filter_regular(base, x_rep, prod_gens):
    """Exact check (base : x) subseteq (base : prod^infinity); returns (ok, witness)."""
    ring = base.ring
    ann = base.colon(x_rep)
    sat = base.saturate(PolyIdeal(ring, tuple(prod_gens)))
    for g in ann.groebner():
        if not sat.contains(g):
            return False, repr(g)
    return True, None


def _fc1_intersection(cache, base, x_rep, slot, exps):
    """(x) cap prod(slot bumped) == x * prod(exps) over the base lift."""
    bumped = exps[:slot] + (exps[slot] + 1,) + exps[slot + 1:]
    lhs = PolyIdeal(base.ring, base.gens + (x_rep,)).intersect(cache.ideal(bumped))
    rhs_gens = list(base.gens) + [x_rep * g for g in cache.ideal(exps).groebner()]
    rhs = PolyIdeal(base.ring, tuple(rhs_gens))
    return lhs.equals(rhs)


def _fc_check_on_lift(base, x_rep, gen_lists, slot, window):
    """Run FC2 then windowed FC1 for x over the given base lift."""
    ring = base.ring
    cache = _ProductCache(ring, base.gens, gen_lists)
    all_ones = tuple(1 for _ in gen_lists)
    prod_gens = [g for g in cache.ideal(all_ones).groebner()]
    sat = base.saturate(PolyIdeal(ring, tuple(prod_gens)))
    if sat.is_unit():
        raise ValueError("product of the ideals is nilpotent modulo the base")
    fc2_ok, fc2_wit = _fc2_filter_regular(base, x_rep, prod_gens)
    fc1_ok, counter = True, None
    for exps in window.tuples(len(gen_lists), slot):
        if not _fc1_intersection(cache, base, x_rep, slot, exps):
            fc1_ok, counter = False, tuple(exps)
            break
    return fc1_ok, counter, fc2_ok, fc2_wit


def fc_check_element(x, ideals, slot, window=None):
    """FC checks for x in ideals[slot] relative to the whole ideal tuple.

    FC2 (filter-regularity) is exact; FC1 (the intersection identity) is
    verified over the finite exponent window.
    """
    if window is None:
        window = FcWindow()
    algebra = x.algebra
    if x.is_zero():
        raise ValueError("zero element")
    if not ideals or any(i.algebra != algebra for i in ideals):
        raise ValueError("need a nonempty tuple of ideals of the same algebra")
    if slot < 0 or slot >= len(ideals):
        raise ValueError("slot out of range")
    if not ideals[slot].contains(x):
        raise ValueError("element does not lie in its slot ideal")
    mi = ideals[slot].times(algebra.irrelevant_ideal())
    if mi.lift.contains(x.rep):
        raise ValueError("element lies in m * (slot ideal)")
    base = PolyIdeal(algebra.ring, algebra.defining.groebner())
    gen_lists = [[g.rep for g in ideal.gens] for ideal in ideals]
    fc1_ok, counter, fc2_ok, fc2_wit = _fc_check_on_lift(
        base, x.rep, gen_lists, slot, window
    )
    return FcReport(slot, x.order, fc1_ok, fc2_ok, window, counter, fc2_wit)


@dataclass
class FcSequence:
    elements: list
    reports: list
    o_values: tuple
    attempt: int


def build_fc_sequence(
    J, I, seed=0, retries=DEFAULT_RETRIES, window=None, n_max=DEFAULT_N_MAX
):
    """Triangular recombinations of the minimal basis of J passing FC checks.

    Element i is checked in the quotient by its predecessors against the tuple
    (J, I, m); orders are reported in the original algebra.  Raises
    SearchExhausted with the deepest level reached when retries run out.
    """
    if window is None:
        window = FcWindow()
    algebra = J.algebra
    cert = is_reduction(J, I, n_max=n_max)
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
    m = algebra.irrelevant_ideal()
    gen_lists = [
        [g.rep for g in J.gens],
        [g.rep for g in I.gens],
        [g.rep for g in m.gens],
    ]
    mj_lift_gens = J.times(m).lift.gens
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
        reports = []
        failed = False
        base_gens = algebra.defining.groebner()
        for i, x in enumerate(xs):
            base = PolyIdeal(algebra.ring, base_gens)
            if x.order != basis[i].order:
                failed = True
                break
            # x must stay a minimal generator of J modulo predecessors
            if PolyIdeal(algebra.ring, base.gens + mj_lift_gens).contains(x.rep):
                failed = True
                break
            try:
                fc1_ok, counter, fc2_ok, fc2_wit = _fc_check_on_lift(
                    base, x.rep, gen_lists, 0, window
                )
            except ValueError:
                failed = True
                break
            rep = FcReport(0, x.order, fc1_ok, fc2_ok, window, counter, fc2_wit)
            reports.append(rep)
            if not rep.ok:
                failed = True
                break
            base_gens = base_gens + (x.rep,)
        if not failed:
            final = PolyIdeal(algebra.ring, base_gens)
            if not final.equals(J.lift):
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
