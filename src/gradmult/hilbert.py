"""Hilbert series read off the leading ideal: homogeneous quotients, colengths
and Krull dimensions.

Every numerator is computed from a monomial ideal by Bigatti's pivot
recursion (Bigatti 1997; Bayer-Stillman 1992) with vector degrees
(multigraded_numerator): split on a power p^k of a most-frequent variable
p, using N(I) = N(I + p^k) + z^(k deg p) * N(I : p^k), where k is the lower
median of the positive exponents of p.  Two closed forms end the
recursion: generators with pairwise-coprime supports (a complete
intersection), and generators in at most two variables, whose staircase
resolution is read off directly.  The series of k[x_1..x_n]/(leads) in
one variable t is the grading with every degree 1 (leading_series).

BlockSeries reads off a multigraded numerator, for k[x, T]/(leads) with T
in weighted blocks, the series in one variable t at one block multidegree,
over (1 - t)^n, counting only the monomials of x-degree at least c, and the
number of monomials of one block multidegree, at one x-degree or at all of
them.
"""

import functools
import math
from collections import namedtuple
from itertools import accumulate

from .monomials import minimal_monomials, mono_lcm


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va == 0:
            continue
        for j, vb in enumerate(b):
            out[i + j] += va * vb
    return _poly_trim(out)


def _over_one_minus_t(num, k):
    """num / (1-t)^k as a list, by k rounds of prefix sums.

    The last prefix sum of a round is the remainder, num(1); a nonzero one
    means the quotient is no polynomial, an infinite series, and raises
    ArithmeticError.  A trimmed num gives a trimmed quotient.
    """
    for _ in range(k):
        num = list(accumulate(num))
        if num and num.pop():
            raise ArithmeticError("infinitely many nonzero terms: (1-t) leaves a remainder")
    return num


class HilbertData(namedtuple("HilbertData", "numerator dimension multiplicity")):
    """Reduced Hilbert series Q(t)/(1-t)^d of a homogeneous quotient."""

    __slots__ = ()

    def hilbert_function(self, m):
        """dim_k of the degree-m graded piece."""
        if m < 0:
            return 0
        d = self.dimension
        if d == 0:
            return self.numerator[m] if m < len(self.numerator) else 0
        total = 0
        for j, q in enumerate(self.numerator):
            if j > m:
                break
            total += q * math.comb(m - j + d - 1, d - 1)
        return total


@functools.lru_cache(maxsize=1024)
def leading_series(leads, n):
    """(numerator, dimension) of the reduced Hilbert series of k[x_1..x_n]/(leads).

    leads is a tuple of the minimal generators of a proper monomial ideal,
    such as the leading monomials of a reduced Groebner basis.  Factors 1 - t
    are cancelled from the numerator over (1-t)^n while it vanishes at t = 1,
    so the series is numerator / (1-t)^dimension with the numerator nonzero
    at 1.  The numerator is a tuple.  Memoised by (leads, n), which fix the
    answer exactly; the 1024 most recently used inputs are kept.
    """
    flat = {d: c for (d,), c in multigraded_numerator(leads, ((1,),) * n).items()}
    num = [0] * (max(flat, default=-1) + 1)
    for d, c in flat.items():
        num[d] = c
    d = n
    while num and sum(num) == 0:
        num = _over_one_minus_t(num, 1)
        d -= 1
    return tuple(num), d


def hilbert_data(ideal):
    """Hilbert data of ring/ideal for a homogeneous proper ideal (zero ideal allowed)."""
    gb = ideal.groebner()
    for g in gb:
        if not g.is_homogeneous():
            raise ValueError("hilbert_data requires a homogeneous ideal")
    if ideal.is_unit():
        raise ValueError("hilbert_data of the unit ideal (empty quotient)")
    num, d = leading_series(ideal.leading_monomials(), ideal.ring.n)
    e = sum(num)
    if e <= 0 or d < 0:
        raise ArithmeticError("inconsistent Hilbert series reduction")
    return HilbertData(numerator=num, dimension=d, multiplicity=e)


def series_difference(a, b):
    """The polynomial HS(ring/a) - HS(ring/b), as a trimmed list, for
    homogeneous ideals a and b of one ring whose series differ in finitely
    many degrees; a unit ideal's series is zero.

    Each series is that of the leading ideal (Macaulay).  The numerators are
    brought over (1-t)^n and their difference is divided by it, which
    raises ArithmeticError when the series differ in infinitely many degrees.
    """
    n = a.ring.n
    diff = []
    for ideal, sign in ((a, 1), (b, -1)):
        if ideal.is_unit():
            continue
        num, d = leading_series(ideal.leading_monomials(), n)
        num = [sign * v for v in num]
        for _ in range(n - d):
            num = _poly_mul(num, [1, -1])
        diff = _poly_add(diff, num)
    return _over_one_minus_t(diff, n)


# -- multigraded series ------------------------------------------------------


def _mono_degree(m, degrees):
    """The vector degree of the monomial m, degrees[i] being that of variable i."""
    out = [0] * len(degrees[0])
    for i, e in enumerate(m):
        if e:
            for j, d in enumerate(degrees[i]):
                out[j] += e * d
    return tuple(out)


def _mpoly_add(acc, poly, shift=None):
    """acc += z^shift * poly for polynomials {degree vector: coefficient}."""
    for d, c in poly.items():
        if shift is not None:
            d = tuple(x + y for x, y in zip(d, shift))
        v = acc.get(d, 0) + c
        if v:
            acc[d] = v
        else:
            acc.pop(d, None)
    return acc


def multigraded_numerator(gens, degrees):
    """Numerator of the multigraded Hilbert series of k[v_1..v_N]/(gens).

    gens are the minimal generators of a monomial ideal and degrees[i] is the
    nonnegative degree vector of v_i, all of one length r.  The series is the
    returned numerator, {degree vector: nonzero coefficient}, over
    prod_i (1 - z^degrees[i]).  The pivot and both closed forms hold for any
    grading by monomials, their exact sequences and resolutions being
    multigraded.
    """
    zero = (0,) * len(degrees[0])
    if not gens:
        return {zero: 1}
    n = len(gens[0])
    counts = [0] * n
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    top = max(counts)
    if top <= 1:
        # supports pairwise disjoint: complete intersection of monomials
        out = {zero: 1}
        for m in gens:
            out = _mpoly_add(dict(out), {d: -c for d, c in out.items()}, _mono_degree(m, degrees))
        return out
    support = [i for i, c in enumerate(counts) if c]
    if len(support) <= 2:
        a = support[0]
        gens = sorted(gens, key=lambda m: m[a])
        out = {zero: 1}
        for g in gens:
            _mpoly_add(out, {_mono_degree(g, degrees): -1})
        # sorted by ascending exponent of a, the other exponent strictly
        # descends, and the consecutive lcms are the only syzygies
        for g, h in zip(gens, gens[1:]):
            _mpoly_add(out, {_mono_degree(mono_lcm(g, h), degrees): 1})
        return out
    p = counts.index(top)
    exps = sorted(m[p] for m in gens if m[p])
    # the lower median: at least two generators have p-exponent >= k, so
    # fewer generators involve p in I + p^k, and fewer in I : p^k
    k = exps[(len(exps) - 1) // 2]
    # I + p^k needs no minimalising: a pure power of p would be the only
    # generator with the largest p-exponent, above k, so no kept one divides p^k
    plus_gens = [m for m in gens if m[p] < k]
    plus_gens.append(tuple(k if i == p else 0 for i in range(n)))
    colon_gens = minimal_monomials(
        m[:p] + (max(m[p] - k, 0),) + m[p + 1:] for m in gens
    )
    shift = tuple(k * d for d in degrees[p])
    return _mpoly_add(
        multigraded_numerator(plus_gens, degrees),
        multigraded_numerator(colon_gens, degrees),
        shift,
    )


class BlockSeries:
    """Series of k[x, T]/(leads) at one block multidegree, from one
    multigraded numerator.

    The first n variables are the x's, of degree (1, 0, 0..0) in
    (x-degree, weight, block degrees).  Then come the blocks in order: a
    variable of weight w in block k has degree (0, w, e_k).  The numerator
    terms are grouped by block degree once, and the (x-degree, weight)
    numerator at a block degree, the weights of a block's monomials of one
    degree and the slice at a (block degree, x-degree bound) are each built
    once, when first asked for.
    """

    def __init__(self, leads, n, blocks):
        self.leads = tuple(sorted(leads))
        self.n = n
        self.blocks = tuple(tuple(ws) for ws in blocks)
        r = len(self.blocks)
        degrees = [(1, 0) + (0,) * r] * n
        for k, ws in enumerate(self.blocks):
            unit = tuple(int(j == k) for j in range(r))
            degrees.extend((0, w) + unit for w in ws)
        self._terms = {}
        for d, c in multigraded_numerator(self.leads, degrees).items():
            self._terms.setdefault(d[2:], []).append((d[0], d[1], c))
        self._grids = {}
        self._weights = {}
        self._slices = {}
        self._one_minus_t_n = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]

    def _block_weights(self, k, d):
        """{weight: count} of the degree-d monomials in block k's variables,
        built once per (k, d)."""
        if (k, d) not in self._weights:
            table = [{0: 1}] + [{} for _ in range(d)]
            for w in self.blocks[k]:
                # a monomial of degree e misses this variable or is it times one of degree e - 1
                for e in range(1, d + 1):
                    row = table[e]
                    for v, c in table[e - 1].items():
                        row[v + w] = row.get(v + w, 0) + c
            self._weights[(k, d)] = table[d]
        return self._weights[(k, d)]

    def _grid(self, b):
        """{(x-degree, weight): coefficient}: the numerator over (1 - z)^n, z
        marking x-degree, of the (x-degree, weight) series at block degree b.

        The block variables of degree b - b0 are finitely many, so each
        numerator term of block degree b0 <= b contributes its coefficient
        times their weights; only the x's stay in the denominator.
        """
        b = tuple(b)
        if b not in self._grids:
            grid = {}
            for b0, terms in self._terms.items():
                gap = [u - v for u, v in zip(b, b0)]
                if any(g < 0 for g in gap):
                    continue
                weights = {0: 1}
                for k, d in enumerate(gap):
                    if d:
                        prod = {}
                        for v, c1 in weights.items():
                            for u, c2 in self._block_weights(k, d).items():
                                prod[v + u] = prod.get(v + u, 0) + c1 * c2
                        weights = prod
                for a0, w0, c in terms:
                    for w, count in weights.items():
                        key = (a0, w0 + w)
                        grid[key] = grid.get(key, 0) + c * count
            self._grids[b] = {key: v for key, v in grid.items() if v}
        return self._grids[b]

    def _x_degree(self, grid, a):
        """{weight w: count} of the standard monomials of x-degree a in the
        grid's block degree; a grid term q z^a0 u^w counts q binom(a - a0 +
        n - 1, n - 1) of them if a >= a0."""
        out = {}
        for (a0, w), v in grid.items():
            if a0 <= a:
                out[w] = out.get(w, 0) + v * math.comb(a - a0 + self.n - 1, self.n - 1)
        return out

    def layer(self, b, a):
        """The number of standard monomials of block degree b and x-degree a."""
        return sum(self._x_degree(self._grid(b), a).values())

    def count(self, b):
        """The number of standard monomials of block degree b, all x-degrees.

        The numerator of slice(b) is divided by (1 - t)^n; the quotient is
        the series itself, a polynomial when the count is finite, so
        infinitely many raise ArithmeticError.
        """
        return sum(_over_one_minus_t(self.slice(b), self.n))

    def slice(self, b, c=0):
        """Numerator over (1 - t)^n of sum_t h_t t^t, where h_t counts the
        standard monomials of block degree b, x-degree at least c and
        x-degree plus weight t, as a trimmed list, shared between callers
        and never mutated.

        At c = 0 it is the grid's numerator with x-degree and weight added.
        Each step c - 1 -> c takes away the x-degree c - 1 row of
        _x_degree, a polynomial in t times (1 - t)^n, so the slice of
        (b, c) is built once from that of (b, c - 1).
        """
        b = tuple(b)
        out = self._slices.get((b, c))
        if out is not None:
            return out
        if (b, 0) not in self._slices:
            grid = self._grid(b)
            num = [0] * (max((a + w for a, w in grid), default=-1) + 1)
            for (a, w), v in grid.items():
                num[a + w] += v
            self._slices[(b, 0)] = _poly_trim(num)
        for a in range(c):
            if (b, a + 1) in self._slices:
                continue
            row = self._x_degree(self._grid(b), a)
            below = [0] * (a + max(row, default=-1) + 1)
            for w, v in row.items():
                below[a + w] -= v
            self._slices[(b, a + 1)] = _poly_add(
                self._slices[(b, a)], _poly_mul(below, self._one_minus_t_n)
            )
        return self._slices[(b, c)]
