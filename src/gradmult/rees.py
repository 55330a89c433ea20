"""Multi-Rees algebras: the one presentation behind every Rees-type invariant.

multi_rees presents (R/base)[I_1 t_1, .., I_r t_r] as k[x, T]/L, T_kj ->
g_kj t_k, in a weight order that compares w = sum deg(g_kj) beta_kj on
x^alpha T^beta first.  It serves the weak-FC check (reductions._ReesFc1),
the Samuel oracle's gr_q(S) (multiplicity.samuel_oracle) and, with one block
per ideal over its minimal basis, the Bhattacharya table of any number of
ideals (mixed_rees); rees_presentation keeps S[I t], one block, on I for the
Rees oracle and the fiber cone (reductions._fiber_cone).

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
    x's are the first n variables, then the T's of each block in turn;
    blocks[k] lists the generators g_kj of block k, in R."""

    __slots__ = ()

    @property
    def degrees(self):
        return tuple(tuple(g.degree() for g in gens) for gens in self.blocks)

    def series(self):
        return BlockSeries(self.ideal.leading_monomials(), self.n, self.degrees)


def multi_rees(base, blocks):
    """Present (R/base)[I_1 t_1, .., I_r t_r], blocks[k] listing the nonzero
    generators g_kj of I_k in base's ring R.

    With L' presenting A = (R/base)[I_1 t_1, .., I_(k-1) t_(k-1)],
    A[I_k t_k] inside A[t_k] is presented by (L' + (T_kj - g_kj t_k)) cap
    k[x, T]: one basis in an order that eliminates the t's and then is the
    weight order.  Its members free of the t's are the reduced basis of the
    new L in the weight order.  Block k's variables are Tk_1.. and tk;
    fresh names dodge those of R.
    """
    ring, n = base.ring, base.ring.n
    names = list(ring.names)
    blocks = tuple(tuple(gens) for gens in blocks)
    stems = [f"T{k + 1}_{j + 1}" for k, gens in enumerate(blocks) for j in range(len(gens))]
    width = n + len(stems)
    stems += [f"t{k + 1}" for k in range(len(blocks))]
    for stem in stems:
        names.append(_fresh_name(set(names), stem))
    weights = [0] * n + [g.degree() for gens in blocks for g in gens]
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
    return MultiRees(PolyIdeal.from_basis(pring, basis), n, blocks)


def rees_presentation(I):
    """The Rees algebra S[I t] = k[x, T]/L, T1_j -> g_j t1 over the minimal
    generators g_j of I: one block of multi_rees over P, built and its
    dimension checked once, then kept in I._rees."""
    if I._rees is None:
        algebra = I.algebra
        if I.is_zero() or not I.is_proper():
            raise ValueError("Rees presentation needs a nonzero proper ideal")
        rees = multi_rees(algebra.defining, [[g.rep for g in minimal_basis(I)]])
        dim = rees.ideal.krull_dimension()
        height = algebra.dim - I.lift.krull_dimension()
        if height > 0 and dim != algebra.dim + 1:
            raise ArithmeticError(
                f"positive-height ideal gave Rees dimension {dim}, expected {algebra.dim + 1}"
            )
        I._rees = rees
    return I._rees
