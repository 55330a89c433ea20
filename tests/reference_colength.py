"""Colength routes that faster kernels replaced, kept as reference oracles.

adic_colength is the per-k colength that `PolyIdeal.tangent_cone` replaced:
one fresh basis of gens + (x)^k for every k.  power_lengths is the route the
Samuel oracle took before it read gr_q(S): one fresh basis of the product
q^(n-1) q for every n."""

from gradmult import PolyIdeal, colength
from gradmult.monomials import monomials_of_degree


def adic_colength(ring, gens, k):
    """dim_k ring/(gens + (x)^k), where (x) is the ideal of all the variables."""
    power = tuple(ring.monomial(m) for m in monomials_of_degree(ring.n, k))
    return PolyIdeal(ring, tuple(gens) + power).k_dimension()


def power_lengths(q, hi):
    """[l(S/q^n) for n = 0..hi], each the colength of the ideal power q^n."""
    return [colength(q.power(n)) for n in range(hi + 1)]
