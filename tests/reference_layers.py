"""The per-point layer lengths that `mixed_rees._layer_lengths` replaced, kept
as the reference: for each n0, the products m^(n0+1) K and m^n0 K and the
Hilbert-function difference of their quotients."""

from gradmult.hilbert import hilbert_data


def _length_between(cap, inner_lift, outer_lift):
    """l(outer/inner) for nested ideals as a sum of Hilbert-function
    differences; the module is generated in degrees <= cap, so the two
    quotient functions agree past it."""
    hd_inner = hilbert_data(inner_lift)
    hd_outer = hilbert_data(outer_lift)
    total = 0
    for t in range(cap + 1):
        total += hd_inner.hilbert_function(t) - hd_outer.hilbert_function(t)
    return total


def reference_layer_lengths(algebra, K, n0s):
    """{n0: l(m^n0 K / m^(n0+1) K)} from one pair of products per n0."""
    m = algebra.irrelevant_ideal()
    out = {}
    for n0 in n0s:
        small = m.power(n0 + 1).times(K)
        big = m.power(n0).times(K)
        cap = n0 + max((g.rep.degree() for g in K.gens), default=0)
        out[n0] = _length_between(cap, small.lift, big.lift)
    return out
