"""The first Hilbert numerator of the kernel, kept as the reference for
`hilbert.leading_series` and `hilbert.multigraded_numerator`: a pivot on one
variable of degree 1, N(I) = N(I + p) + t N(I : p), with every colon
re-minimalised and pairwise-coprime generators as the only base case."""

from gradmult.hilbert import _poly_add, _poly_mul, _poly_trim
from gradmult.monomials import minimal_monomials


def _poly_shift(a, k):
    return _poly_trim([0] * k + list(a))


def _one_minus_tk(k):
    out = [0] * (k + 1)
    out[0] = 1
    out[k] = -1
    return out


def expand(num, d, n):
    """num * (1-t)^(n - d): a reduced numerator over (1-t)^d brought back
    over (1-t)^n."""
    out = list(num)
    for _ in range(n - d):
        out = _poly_mul(out, _one_minus_tk(1))
    return out


def reference_numerator(gens):
    """Numerator over (1-t)^n for the monomial ideal with these minimal generators."""
    if not gens:
        return [1]
    n = len(gens[0])
    counts = [0] * n
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    top = max(counts)
    if top <= 1:
        # supports pairwise disjoint: complete intersection of monomials
        out = [1]
        for m in gens:
            out = _poly_mul(out, _one_minus_tk(sum(m)))
        return out
    pivot = counts.index(top)
    pure = tuple(1 if i == pivot else 0 for i in range(n))
    plus_gens = [m for m in gens if m[pivot] == 0] + [pure]
    colon_gens = minimal_monomials(
        m[:pivot] + (m[pivot] - 1,) + m[pivot + 1:] if m[pivot] else m for m in gens
    )
    return _poly_add(
        reference_numerator(plus_gens), _poly_shift(reference_numerator(colon_gens), 1)
    )
