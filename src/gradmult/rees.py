"""Multi-Rees algebras: the one presentation behind every Rees-type invariant.

multi_rees presents (R/base)[I_1 t_1, .., I_r t_r] as k[x, T]/L, T_kj ->
g_kj t_k, in a weight order that compares w = sum deg(g_kj) beta_kj on
x^alpha T^beta first.  It serves rees_presentation (the Rees oracle and the
fiber cone of reductions._fiber_cone), the weak-FC check (reductions._ReesFc1),
the Bhattacharya table (mixed_rees) and the Samuel oracle's gr_q(S)
(multiplicity.samuel_oracle).

Counting.  For homogeneous base and g_kj, L is homogeneous for the degree
t = |alpha| + w and the block degrees, and its piece of block degree n is
K_n = prod I_k^(n_k) inside R/base.  m^c K_n is the image there of the span
F_c of the monomials of x-degree >= c.  Inside one multidegree the order
compares w = t - |alpha| first, so F_c is a down-set: a member of L lies in
F_c iff its lead does, in(F_c cap L) = F_c cap in(L), and dim (m^c K_n)_t
is the number of standard monomials of degree t and x-degree >= c
(hilbert.BlockSeries).
"""

from collections import namedtuple

from .algebra import minimal_basis
from .groebner import PolyIdeal, _fresh_name, buchberger
from .hilbert import BlockSeries
from .monomials import MonomialOrder
from .polynomials import Polynomial, PolyRing, map_vars


class MultiRees(namedtuple("MultiRees", "ideal n blocks")):
    """L = ideal in k[x, T], its reduced basis in the weight order known; the
    x's are the first n variables; blocks[k] lists the degrees deg g_kj of
    block k."""

    __slots__ = ()

    def series(self):
        return BlockSeries(self.ideal.leading_monomials(), self.n, self.blocks)


def multi_rees(base, blocks):
    """Present (R/base)[I_1 t_1, .., I_r t_r], blocks[k] listing the nonzero
    generators g_kj of I_k in base's ring R.

    With L' presenting A = (R/base)[I_1 t_1, .., I_(k-1) t_(k-1)],
    A[I_k t_k] inside A[t_k] is presented by (L' + (T_kj - g_kj t_k)) cap
    k[x, T]: one basis in an order that eliminates the t's and then is the
    weight order.  Its members free of the t's are the reduced basis of the
    new L in the weight order.  A lone block's variables are T1..Ts, those
    of block k of several Tk_1..; fresh names dodge those of R.
    """
    ring, n = base.ring, base.ring.n
    names = list(ring.names)
    single = len(blocks) == 1
    stems = [f"T{j + 1}" if single else f"T{k + 1}_{j + 1}"
             for k, gens in enumerate(blocks) for j in range(len(gens))]
    width = n + len(stems)
    stems += ["t" if single else f"t{k + 1}" for k in range(len(blocks))]
    for stem in stems:
        names.append(_fresh_name(set(names), stem))
    degrees = tuple(tuple(g.degree() for g in gens) for gens in blocks)
    weights = [0] * n + [w for ws in degrees for w in ws]
    order = MonomialOrder.weighted(len(names), weights + [0] * len(blocks), range(width, len(names)))
    ering = PolyRing(names, ring.field, order)
    pos = tuple(range(n))
    kernel = buchberger([map_vars(p, ering, pos) for p in base.gens])
    col = n
    for k, gens in enumerate(blocks):
        tk = ering.var(width + k)
        new = [ering.var(col + j) - map_vars(g, ering, pos) * tk for j, g in enumerate(gens)]
        col += len(gens)
        # a lead free of the t's makes the whole member free of them
        kernel = [g for g in buchberger(list(kernel) + new) if not any(g.leading_monomial()[width:])]
    pring = PolyRing(names[:width], ring.field, MonomialOrder.weighted(width, weights))
    basis = [Polynomial(pring, {e[:width]: c for e, c in g.coeffs.items()}) for g in kernel]
    return MultiRees(PolyIdeal.from_basis(pring, basis), n, degrees)


class ReesPresentation(namedtuple(
    "ReesPresentation", "ambient rees_ideal base_vars t_names generators dim"
)):
    __slots__ = ()


def rees_presentation(I):
    """The Rees algebra S[I t] = k[x, T]/L, T_j -> g_j t over the minimal
    generators g_j of I: one block of multi_rees over P."""
    algebra = I.algebra
    if I.is_zero() or not I.is_proper():
        raise ValueError("Rees presentation needs a nonzero proper ideal")
    gens = minimal_basis(I)
    rees = multi_rees(algebra.defining, [[g.rep for g in gens]]).ideal
    dim = rees.krull_dimension()
    height = algebra.dim - I.lift.krull_dimension()
    if height > 0 and dim != algebra.dim + 1:
        raise ArithmeticError(
            f"positive-height ideal gave Rees dimension {dim}, expected {algebra.dim + 1}"
        )
    n = algebra.ring.n
    return ReesPresentation(rees.ring, rees, n, rees.ring.names[n:], gens, dim)
