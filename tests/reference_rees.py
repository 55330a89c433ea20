"""The Rees presentation that `rees.rees_presentation` replaced, kept as the
reference: t eliminated from (P, T_j - g_j t) in k[x, T, t] by one basis in
a block order, over the minimal generators g_j, with the Rees ideal in
degrevlex."""

from gradmult.algebra import minimal_basis
from gradmult.groebner import PolyIdeal, _fresh_name, eliminate_into
from gradmult.monomials import MonomialOrder
from gradmult.polynomials import Polynomial, PolyRing, map_vars


def reference_rees_presentation(I):
    """(ring k[x, T], Rees ideal, its Krull dimension)."""
    algebra = I.algebra
    gens = minimal_basis(I)
    s = len(gens)
    names = list(algebra.ring.names)
    t_names = []
    for j in range(s):
        t_names.append(_fresh_name(set(names) | set(t_names), f"T{j + 1}"))
    tvar = _fresh_name(set(names) | set(t_names), "t")
    n = algebra.ring.n
    total = n + s + 1
    pring = PolyRing(tuple(names) + tuple(t_names), algebra.ring.field)
    ering = pring.extended((tvar,), MonomialOrder.elimination(total, (total - 1,)))
    pos = tuple(range(n))
    egens = [map_vars(p, ering, pos) for p in algebra.defining.groebner()]
    t = ering.var(total - 1)
    for j, g in enumerate(gens):
        egens.append(ering.var(n + j) - map_vars(g.rep, ering, pos) * t)
    rees = eliminate_into(egens, (total - 1,), pring)
    return pring, rees, rees.krull_dimension()


def reference_fiber(rees, n):
    """Phi in k[T]: the generators of the Rees ideal with every x set to 0."""
    ring = PolyRing(rees.ring.names[n:], rees.ring.field)
    return PolyIdeal(ring, tuple(
        Polynomial(ring, {e[n:]: c for e, c in g.coeffs.items() if not any(e[:n])})
        for g in rees.gens
    ))
