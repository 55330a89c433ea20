"""The two routes to the Bhattacharya layer lengths l(m^a K / m^(a+1) K)
that the one multi-Rees presentation of `mixed_rees._bhattacharya_columns`
replaced, kept as references, and the grid columns they give when K is
formed per column as a product of ideal powers.

- reference_layer_lengths: for each a, the products m^(a+1) K and m^a K and
  the Hilbert-function difference of their quotients.
- series_layer_lengths: one Hilbert series per degree of the homogeneous
  components of K's generators, with no product by a power of m.
"""

import itertools

from gradmult import AlgIdeal, Polynomial
from gradmult.groebner import PolyIdeal
from gradmult.hilbert import hilbert_data


def homogeneous_components(f):
    """dict degree -> homogeneous part of the polynomial f; empty for 0.
    Nothing in the package splits a polynomial by degree, so this lives
    with the reference that does."""
    parts = {}
    for e, c in f.coeffs.items():
        parts.setdefault(sum(e), {})[e] = c
    return {d: Polynomial(f.ring, p) for d, p in sorted(parts.items())}


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


def series_layer_lengths(algebra, K, n0s):
    """{a: l(m^a K / m^(a+1) K)} for each a in n0s, K a graded ideal of S = R/P.

    Split the generators of K into their homogeneous components.  These lie
    in K because K is graded, and they generate it.  For a degree j let L_j
    be the ideal P + (components of degree <= j) of R; with no components it
    is P, so L_j changes only at the component degrees s_1 < s_2 < ... .

    Identity: (m^a K)_t = (L_(t-a)/P)_t.  Proof: m^a K is generated by the
    products u g, u a monomial of degree a and g a component, so (m^a K)_t
    is the sum of S_(t-a-deg g) S_a g over the g with deg g <= t - a.  S is
    standard graded, so S_(t-a-deg g) S_a = S_(t-deg g), and the sum is the
    degree-t piece of the ideal of S generated by the components of degree
    <= t - a, which is (L_(t-a)/P)_t.

    Since dim (L/P)_t = HF(R/P)(t) - HF(R/L)(t), the layer in degree t has
    dimension HF(R/L_(t-a-1))(t) - HF(R/L_(t-a))(t).  It vanishes unless
    t - a is a component degree s, where L_(t-a-1) = L_(s-), s- the previous
    component degree.  Summing over t,

        l(m^a K / m^(a+1) K) = sum_s [HF(R/L_(s-))(a + s) - HF(R/L_s)(a + s)].

    A unit L_s (K = S) has HF = 0.
    """
    parts = {}
    for g in K.gens:
        for d, part in homogeneous_components(g.rep).items():
            parts.setdefault(d, []).append(part)
    lengths = dict.fromkeys(n0s, 0)
    L = algebra.defining
    before = algebra.hilbert.hilbert_function
    for s in sorted(parts):
        L = PolyIdeal(algebra.ring, L.groebner() + tuple(parts[s]))
        after = (lambda t: 0) if L.is_unit() else hilbert_data(L).hilbert_function
        for a in lengths:
            lengths[a] += before(a + s) - after(a + s)
        before = after
    return lengths


def power_product(ideals, ns):
    """K = prod_k I_k^(ns_k), the unit ideal for no factor."""
    algebra = ideals[0].algebra
    K = AlgIdeal(algebra, (algebra.one(),))
    for I, nj in zip(ideals, ns):
        K = K.times(I.power(nj))
    return K


def reference_columns(ideals, n0s, axes, lengths=reference_layer_lengths):
    """{ns: {a: l(m^a K / m^(a+1) K)}} over the product of the axes, with K
    formed per column (power_product)."""
    algebra = ideals[0].algebra
    return {
        ns: lengths(algebra, power_product(ideals, ns), n0s)
        for ns in itertools.product(*axes)
    }
