"""The per-k colength that `PolyIdeal.tangent_cone` replaced, kept as the
reference oracle for the tangent-cone lengths: one fresh basis of
gens + (x)^k for every k."""

from gradmult import PolyIdeal
from gradmult.monomials import monomials_of_degree


def adic_colength(ring, gens, k):
    """dim_k ring/(gens + (x)^k), where (x) is the ideal of all the variables."""
    power = tuple(ring.monomial(m) for m in monomials_of_degree(ring.n, k))
    return PolyIdeal(ring, tuple(gens) + power).k_dimension()
