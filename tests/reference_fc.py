"""The FC1 route that `reductions._fc_check_on_lift` replaced, kept as the
reference: the identity (base + x) cap B = base + x K_n itself, with the
intersection formed by elimination and the right side built from the
products of x with a basis of K_n."""

from gradmult import PolyIdeal


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
