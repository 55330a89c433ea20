"""Hilbert series read off the leading ideal: homogeneous quotients, colengths
and Krull dimensions.

The numerator over (1-t)^n is computed from the monomial leading ideal by
Bigatti's pivot recursion (Bigatti 1997; Bayer-Stillman 1992): split on a
power p^k of a most-frequent variable p, using
N(I) = N(I + p^k) + t^k * N(I : p^k), where k is the lower median of the
positive exponents of p.  Two closed forms end the recursion: generators
with pairwise-coprime supports (a complete intersection), and generators in
at most two variables, whose staircase resolution is read off directly.
"""

import functools
import math
from dataclasses import dataclass

from .monomials import minimal_monomials


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


def _poly_shift(a, k):
    return _poly_trim([0] * k + list(a))


def _one_minus_tk(k):
    out = [0] * (k + 1)
    out[0] = 1
    out[k] = -1
    return out


def _staircase_numerator(gens, a):
    """Numerator for minimal generators in two variables, a being one of them.

    Sorted by ascending exponent of a, the other exponent strictly descends,
    and the consecutive lcms are the only syzygies:
    1 - sum t^|g_i| + sum t^|lcm(g_i, g_(i+1))|.
    """
    gens = sorted(gens, key=lambda m: m[a])
    degrees = [sum(m) for m in gens]
    lcms = [
        sum(x if x > y else y for x, y in zip(g, h)) for g, h in zip(gens, gens[1:])
    ]
    out = [0] * (max(degrees + lcms) + 1)
    out[0] = 1
    for d in degrees:
        out[d] -= 1
    for d in lcms:
        out[d] += 1
    return _poly_trim(out)


def _numerator(gens):
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
    support = [i for i, c in enumerate(counts) if c]
    if len(support) <= 2:
        return _staircase_numerator(gens, support[0])
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
    return _poly_add(_numerator(plus_gens), _poly_shift(_numerator(colon_gens), k))


@dataclass(frozen=True)
class HilbertData:
    """Reduced Hilbert series Q(t)/(1-t)^d of a homogeneous quotient."""

    numerator: tuple
    dimension: int
    multiplicity: int

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
    num = _numerator(leads)
    d = n
    while num and sum(num) == 0:
        acc = 0
        out = []
        for v in num[:-1]:
            acc += v
            out.append(acc)
        num = _poly_trim(out)
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


def _series_numerator(ideal):
    """Numerator over (1-t)^n of the Hilbert series of ring/ideal; [] for the unit ideal."""
    if ideal.is_unit():
        return []
    num, d = leading_series(ideal.leading_monomials(), ideal.ring.n)
    out = list(num)
    for _ in range(ideal.ring.n - d):
        out = _poly_mul(out, [1, -1])
    return out


def series_difference(left, right):
    """Numerator over (1-t)^n of the sum of t^k HS(ring/I) over the pairs
    (I, k) in left, minus that sum over right, as a trimmed list.

    All ideals are homogeneous ideals of one ring, so each series is that of
    the leading ideal (Macaulay); unit ideals count as zero.
    """
    total = []
    for ideal, k in left:
        total = _poly_add(total, _poly_shift(_series_numerator(ideal), k))
    for ideal, k in right:
        total = _poly_add(total, [-v for v in _poly_shift(_series_numerator(ideal), k)])
    return total


def same_series(left, right):
    """True when the two sums of series_difference are equal."""
    return not series_difference(left, right)
