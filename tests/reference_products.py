"""The generator-product ideal product that `AlgIdeal.times` replaced, kept as
the reference for products and powers: every product of a generator of one
factor with a generator of the other, whatever bases are known."""

from gradmult import AlgIdeal


def reference_times(I, J):
    """I J, generated by the pairwise products of the generators of I and J."""
    return AlgIdeal(I.algebra, [a * b for a in I.gens for b in J.gens])


def reference_power(I, k):
    """I^k by k reference products, starting from the unit ideal."""
    out = AlgIdeal(I.algebra, (I.algebra.one(),))
    for _ in range(k):
        out = reference_times(out, I)
    return out
