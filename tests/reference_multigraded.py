"""Standard monomials of k[x, T]/in(L), counted box by box: the oracle for
`hilbert.multigraded_numerator` and `hilbert.BlockSeries`.

A box is one x-degree a and one block degree b.  It holds finitely many
monomials x^alpha T^beta, and each is tested against every lead.

Also `BlockSeries.slice` as it was before it cached slices and built the
bound c from c - 1 (uncached_slice): every call sums the rows of the
x-degrees below c afresh.
"""

import itertools
import math

from gradmult.hilbert import _poly_add, _poly_mul, _poly_trim
from gradmult.monomials import mono_divides, monomials_of_degree


def block_monomials(blocks, b):
    """(T exponents, weight) of every T monomial of block degree b."""
    per_block = []
    for ws, d in zip(blocks, b):
        per_block.append([
            (e, sum(u * w for u, w in zip(e, ws))) for e in monomials_of_degree(len(ws), d)
        ] if ws else ([((), 0)] if d == 0 else []))
    out = []
    for parts in itertools.product(*per_block):
        exps = tuple(itertools.chain.from_iterable(e for e, _ in parts))
        out.append((exps, sum(w for _, w in parts)))
    return out


def box_counts(leads, n, blocks, a, b):
    """{weight: number of standard monomials of x-degree a and block degree b}."""
    counts = {}
    for alpha in monomials_of_degree(n, a):
        for beta, w in block_monomials(blocks, b):
            m = alpha + beta
            if not any(mono_divides(g, m) for g in leads):
                counts[w] = counts.get(w, 0) + 1
    return counts


def expanded_numerator(numerator, n, blocks, a, b):
    """{weight: coefficient} of the series numerator / prod (1 - z^deg v) in
    the box (a, b), expanded term by term with the T monomials counted by
    block_monomials."""
    out = {}
    for degree, c in numerator.items():
        a0, w0, b0 = degree[0], degree[1], degree[2:]
        gap = tuple(u - v for u, v in zip(b, b0))
        if a0 > a or min(gap, default=0) < 0:
            continue
        xs = math.comb(a - a0 + n - 1, n - 1)
        for _, w in block_monomials(blocks, gap):
            out[w0 + w] = out.get(w0 + w, 0) + c * xs
    return {w: v for w, v in out.items() if v}


def sliced_series(leads, n, blocks, b, c, top):
    """Coefficients of t^0..t^top of sum over x-degrees a >= c of the standard
    monomials of block degree b, t marking x-degree plus weight."""
    out = [0] * (top + 1)
    for a in range(c, top + 1):
        for w, count in box_counts(leads, n, blocks, a, b).items():
            if a + w <= top:
                out[a + w] += count
    return out


def series_coefficients(numerator, n, top):
    """Coefficients of t^0..t^top of numerator / (1 - t)^n."""
    return [
        sum(q * math.comb(t - j + n - 1, n - 1) for j, q in enumerate(numerator) if j <= t)
        for t in range(top + 1)
    ]


def uncached_slice(series, b, c=0):
    """series.slice(b, c): the whole series less the polynomial of the
    x-degrees below c, both built afresh."""
    n = series.n
    grid = series._grid(b)
    num = [0] * (max((a + w for a, w in grid), default=-1) + 1)
    for (a, w), v in grid.items():
        num[a + w] += v
    low = {}
    for a in range(c):
        for w, v in series._x_degree(grid, a).items():
            low[a + w] = low.get(a + w, 0) + v
    if low:
        below = [0] * (max(low) + 1)
        for e, v in low.items():
            below[e] = v
        one_minus_t_n = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
        num = _poly_add(num, [-v for v in _poly_mul(below, one_minus_t_n)])
    return _poly_trim(num)
