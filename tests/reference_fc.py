"""The FC1 routes that `reductions._fc_check_on_lift` replaced, kept as
references.

- The identity (base + x) cap B = base + x K_n itself, with the
  intersection formed by elimination and the right side built from the
  products of x with a basis of K_n.
- The homogeneous route before the multi-Rees presentations: B : x = C
  read off three Hilbert numerators per tuple, with B and B + x built as
  products for every tuple.
- The shifted sums of Hilbert series that route compares
  (shifted_series_difference), the form of hilbert.series_difference
  before it took just two ideals and divided by (1-t)^n.
- The saturation of FC2 by every ideal of the tuple in turn
  (reference_saturation), before `reductions._fc2_saturation` dropped the
  ideals that contain another one modulo the base.
"""

from gradmult import PolyIdeal
from gradmult.hilbert import _poly_add, leading_series
from gradmult.reductions import _fc1_sides as _colon_sides
from reference_hilbert import _poly_shift, expand


def series_numerator(ideal):
    """Numerator over (1-t)^n of the Hilbert series of ring/ideal; [] for the unit ideal."""
    if ideal.is_unit():
        return []
    num, d = leading_series(ideal.leading_monomials(), ideal.ring.n)
    return expand(num, d, ideal.ring.n)


def shifted_series_difference(left, right):
    """Numerator over (1-t)^n of the sum of t^k HS(ring/I) over the pairs
    (I, k) in left, minus that sum over right, as a trimmed list.

    All ideals are homogeneous ideals of one ring, so each series is that of
    the leading ideal (Macaulay); unit ideals count as zero.
    """
    total = []
    for ideal, k in left:
        total = _poly_add(total, _poly_shift(series_numerator(ideal), k))
    for ideal, k in right:
        total = _poly_add(total, [-v for v in _poly_shift(series_numerator(ideal), k)])
    return total


def same_series(left, right):
    """True when the two sums of shifted_series_difference are equal."""
    return not shifted_series_difference(left, right)


def _fc1_series(cache, ann, x_rep, slot, exps):
    """B : x == C on homogeneous input: HS(R/B) = HS(R/(B + x)) + t^deg(x) HS(R/C)."""
    bumped, rhs = _colon_sides(cache, ann, slot, exps)
    bumped_x = PolyIdeal(cache.ring, bumped.groebner() + (x_rep,))
    return same_series(((bumped, 0),), ((bumped_x, 0), (rhs, x_rep.degree())))


def _fc1_sides(cache, x_rep, slot, exps):
    """(B, rhs) of FC1 at exps: B = prod(slot bumped) and rhs = base + x * prod(exps)."""
    bumped = exps[:slot] + (exps[slot] + 1,) + exps[slot + 1:]
    rhs_gens = list(cache.base) + [x_rep * g for g in cache.ideal(exps).groebner()]
    return cache.ideal(bumped), PolyIdeal(cache.ring, tuple(rhs_gens))


def _fc1_intersection(cache, base_x, x_rep, slot, exps):
    """(base + x) cap prod(slot bumped) == base + x * prod(exps), by elimination."""
    bumped, rhs = _fc1_sides(cache, x_rep, slot, exps)
    return base_x.intersect(bumped).equals(rhs)


def reference_fc1(cache, x_rep, slot, exps):
    """The FC1 verdict at exps over the base lift of cache."""
    base_x = PolyIdeal(cache.ring, cache.base + (x_rep,))
    return _fc1_intersection(cache, base_x, x_rep, slot, exps)


def reference_saturation(base, gen_lists):
    """base : (K_1 .. K_r)^infinity as (..(base : K_1^infinity) ..) : K_r^infinity."""
    sat = base
    for gl in gen_lists:
        sat = sat.saturate(PolyIdeal(base.ring, tuple(gl)))
    return sat
