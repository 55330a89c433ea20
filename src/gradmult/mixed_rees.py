"""Mixed multiplicities and Rees algebra multiplicities, oracle and fast path.

The oracle side is exact arithmetic all the way down: Bhattacharya tables come
from layer lengths l(m^a K / m^(a+1) K) fitted by an exact polynomial.  Every
length of the grid, K running over the products of powers of any number of
ideals, counts standard monomials of one multi-Rees presentation
S[I_1 t_1, .., I_s t_s] over their minimal bases (rees.multi_rees), with no
power of an ideal and no product formed; for one ideal that is the Rees
presentation kept on it (rees.rees_presentation).  The Rees multiplicity
comes from the (x, T)-adic colengths of that kept presentation, off the
Hilbert function of its tangent cone at the origin (one Lazard standard
basis for every length).  Fast paths are the degree-sequence product
formulas on the minimal reduction of the one search per ideal
(reductions.find_minimal_reduction); the two sides are never mixed.  The
quotient route checks its elements by reductions.fc_chain.
"""

import itertools
from collections import namedtuple
from math import factorial, prod

from .algebra import AlgIdeal, minimal_basis
from .errors import FitMismatch, HypothesisFail
from .linalg import rref_insert
from .monomials import monomials_up_to
from .multiplicity import SamuelResult, adic_lengths, quotient_multiplicity, windowed_oracle
from .reductions import (
    _fc2_saturation,
    fc_chain,
    find_minimal_reduction,
    height_and_equimultiple,
    is_reduction,
    reduction_degrees,
)
from .rees import multi_rees, rees_presentation
from .scalars import QQ


def rees_multiplicity_oracle(I, window=None):
    """Multiplicity of the (x, T)-adic filtration on the presentation quotient.

    L_k = dim_k k[x, T]/(L + (x, T)^k), L the Rees ideal kept on I, the
    partial sums below k of the Hilbert function of the presentation's
    tangent cone at the origin; a standard graded presentation is its own
    tangent cone.  The witness route is "series" for a homogeneous
    presentation and "direct" otherwise.
    """
    rees = rees_presentation(I).ideal
    D = rees.krull_dimension()
    if D < 1:
        raise ValueError("Rees quotient is Artinian; adic multiplicity undefined")
    result = windowed_oracle(D, window, 1, adic_lengths(rees))
    result.witness["presentation_dim"] = D
    result.witness["route"] = "series" if rees.is_homogeneous() else "direct"
    # the value is taken at the maximal homogeneous ideal via its adic filtration
    result.witness["filtration"] = "N-adic"
    return result


def _reduction_degrees(I, h, seed):
    """The degree sequence of the minimal reduction the search certifies
    (reductions.reduction_degrees): h entries, as an equimultiple I has
    analytic spread h."""
    J, _ = find_minimal_reduction(I, seed=seed)
    degseq = reduction_degrees(I, J)
    if len(degseq) != h:
        raise ArithmeticError(f"minimal reduction has {len(degseq)} generators, height {h}")
    return degseq


def rees_multiplicity_fastpath(I, seed=0):
    """e(R(I)) = (1 + sum_{i<h} a_1..a_i) e(S) from a minimal reduction's
    degrees: the sum over i < h of the mixed fast-path values a_1..a_i e(S)."""
    algebra = I.algebra
    if not I.is_homogeneous():
        raise HypothesisFail("fast path needs a homogeneous ideal")
    hr = height_and_equimultiple(I)
    if not hr.equimultiple or hr.height < 1:
        raise HypothesisFail(
            "fast path needs a positive-height equimultiple ideal",
            height=hr.height,
            spread=hr.spread,
        )
    h = hr.height
    degseq = _reduction_degrees(I, h, seed)
    value = sum(prod(degseq[:i]) for i in range(h)) * algebra.mult
    return SamuelResult(
        value,
        "fastpath-cor-3.2(ii)",
        None,
        {"degree_sequence": list(degseq), "height": h, "ring_multiplicity": algebra.mult},
    )


class ReesReport(namedtuple("ReesReport", "fastpath oracle", defaults=(None, None))):
    """The SamuelResult of each route that ran, None for the other."""

    __slots__ = ()

    @property
    def agree(self):
        if self.fastpath is None or self.oracle is None:
            return None
        return self.fastpath.value == self.oracle.value

    @property
    def value(self):
        r = self.oracle or self.fastpath
        return r.value


def rees_multiplicity(I, mode="both", window=None, seed=0):
    """Rees algebra multiplicity by either or both routes."""
    if mode not in ("oracle", "fastpath", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    fastpath = oracle = None
    if mode in ("fastpath", "both"):
        fastpath = rees_multiplicity_fastpath(I, seed=seed)
    if mode in ("oracle", "both"):
        oracle = rees_multiplicity_oracle(I, window=window)
    return ReesReport(fastpath, oracle)


# -- Bhattacharya tables -----------------------------------------------------


class MixedMultiplicityTable(namedtuple(
    "MixedMultiplicityTable", "q entries n0_range n_ranges fit_points fit_residual"
)):
    """entries maps (k0, k...) with k0 + |k| = q - 1 to the (k0 + 1, k...)
    number; fit_residual is max |actual - predicted| over the held-out grid
    cells, and must be 0."""

    __slots__ = ()

    def entry(self, key):
        return self.entries[tuple(key)]

    def entry_for_type(self, i, slot=0):
        """Number of type i in the given ideal slot, the rest of the weight on m."""
        key = [0] * (1 + len(self.n_ranges))
        key[1 + slot] = i
        key[0] = self.q - 1 - i
        return self.entries[tuple(key)]


def _bhattacharya_columns(ideals, n0s, axes):
    """{ns: {a: l(m^a K / m^(a+1) K) for a in n0s}} for every ns of the
    product of the axes, K = prod_k I_k^(ns_k), off one presentation.

    Block k of S[I_1 t_1, .., I_s t_s] (rees.multi_rees) is the minimal
    basis of the graded I_k, whose members are homogeneous.  For one ideal
    that is S[I t] itself, so the table reads the presentation kept on I
    (rees.rees_presentation), and multi_rees builds one only for two or more
    ideals.  By the counting argument of the rees module the layer has
    length the number of standard monomials of block degree ns and x-degree
    exactly a (BlockSeries.layer); ns = 0 gives K = S.
    """
    if len(ideals) == 1:
        rees = rees_presentation(ideals[0])
    else:
        blocks = [[g.rep for g in minimal_basis(I)] for I in ideals]
        rees = multi_rees(ideals[0].algebra.defining, blocks)
    series = rees.series()
    return {ns: {a: series.layer(ns, a) for a in n0s} for ns in itertools.product(*axes)}


def bhattacharya_oracle(ideals, n0_range=(2, 5), n_ranges=None):
    """Mixed multiplicities from exact polynomial fit of adic layer lengths.

    h(n0, n) = l(m^{n0} K / m^{n0+1} K) with K the product of ideal powers
    (_bhattacharya_columns) is fitted exactly as a polynomial of total degree
    q - 1 on the deep end of the grid and validated on every remaining
    point.  The augmented rows [row | h(p)] of the deep end enter one echelon
    form up to full column rank, where it holds the fit; a pivot in the value
    column means no polynomial fits.  Entries are the normalized top
    coefficients, keyed by type tuples summing to q.  q is the Krull
    dimension of R/(P : (I_1 .. I_s)^inf), one saturation per ideal that no
    other one lies inside (reductions._fc2_saturation).
    """
    s = len(ideals)
    if not s:
        raise ValueError("need at least one ideal")
    algebra = ideals[0].algebra
    for I in ideals:
        if I.algebra != algebra:
            raise ValueError("ideals from different algebras")
        if I.is_zero() or not I.is_proper():
            raise ValueError("ideals must be nonzero and proper")
        if not I.is_homogeneous():
            raise ValueError("oracle needs homogeneous ideals")
    if n_ranges is None:
        n_ranges = tuple((2, 5) for _ in range(s))
    if len(n_ranges) != s:
        raise ValueError(f"need one n range per ideal: {s} ideals, {len(n_ranges)} ranges")
    for r in (n0_range, *n_ranges):
        if not (
            isinstance(r, (tuple, list)) and len(r) == 2
            and all(isinstance(v, int) for v in r) and 0 <= r[0] <= r[1]
        ):
            raise ValueError(f"range {r!r} must be a pair (lo, hi) with 0 <= lo <= hi")
    sat = _fc2_saturation(algebra.defining, [[g.rep for g in I.gens] for I in ideals])
    if sat.is_unit():
        raise ValueError("product of the ideals is nilpotent")
    q = sat.krull_dimension()
    if q < 1:
        raise ValueError("saturated quotient is Artinian; no positive-degree table")
    n0s = range(n0_range[0], n0_range[1] + 1)
    axes = [range(lo, hi + 1) for lo, hi in n_ranges]
    columns = _bhattacharya_columns(ideals, n0s, axes)
    grid = {p: columns[p[1:]][p[0]] for p in itertools.product(n0s, *axes)}

    monos = sorted(monomials_up_to(1 + s, q - 1), key=lambda e: (sum(e), e), reverse=True)
    points = sorted(grid, key=lambda p: (sum(p), p), reverse=True)
    rows = {p: [prod(b**x for b, x in zip(p, e)) for e in monos] for p in points}
    width = len(monos)
    chosen = []
    echelon = {}
    for p in points:
        chosen.append(p)
        rref_insert(echelon, {j: v for j, v in enumerate(rows[p] + [grid[p]]) if v}, QQ)
        # the fit is unique once the chosen rows have full column rank; a
        # pivot in the value column means no polynomial fits them
        if len(echelon) == width or width in echelon:
            break
    if width in echelon or len(echelon) < width:
        raise FitMismatch(
            "no invertible fit system inside the grid",
            grid={str(k): v for k, v in grid.items()},
        )
    coeffs = [echelon[j].get(width, 0) for j in range(width)]
    mismatches = []
    for p, val in grid.items():
        pred = sum(c * rv for c, rv in zip(coeffs, rows[p]))
        if pred != val:
            mismatches.append((p, val, pred))
    if mismatches:
        p, val, pred = mismatches[0]
        raise FitMismatch(
            "fitted polynomial misses grid values; enlarge the grid",
            point=list(p),
            actual=val,
            predicted=str(pred),
            mismatch_count=len(mismatches),
        )
    entries = {}
    for e, c in zip(monos, coeffs):
        if sum(e) != q - 1:
            continue
        norm = c
        for exp in e:
            norm *= factorial(exp)
        if norm.denominator != 1 or norm < 0:
            raise FitMismatch(
                "top coefficient failed integrality",
                monomial=list(e),
                value=str(norm),
            )
        entries[tuple(e)] = int(norm)
    return MixedMultiplicityTable(
        q=q,
        entries=entries,
        n0_range=tuple(n0_range),
        n_ranges=tuple(tuple(r) for r in n_ranges),
        fit_points=[list(p) for p in chosen],
        fit_residual=0,
    )


def mixed_fastpath(I, i=None, seed=0):
    """e(m^[d-i], I^[i]) = a_1..a_i e(S) for i < h; 0 for i >= h (vanishing)."""
    algebra = I.algebra
    d = algebra.dim
    if i is None or i < 0 or i > d - 1:
        raise ValueError(f"type index must satisfy 0 <= i <= {d - 1}")
    if not I.is_homogeneous():
        raise HypothesisFail("fast path needs a homogeneous ideal")
    hr = height_and_equimultiple(I)
    if not hr.equimultiple:
        raise HypothesisFail(
            "fast path needs an equimultiple ideal",
            height=hr.height,
            spread=hr.spread,
        )
    h = hr.height
    if i >= h:
        return SamuelResult(0, "fastpath-rem-3.5", None, {"height": h, "i": i})
    degseq = _reduction_degrees(I, h, seed)
    value = algebra.mult * prod(degseq[:i])
    return SamuelResult(
        value,
        "fastpath-cor-3.2(i)",
        None,
        {"degree_sequence": list(degseq), "height": h, "i": i},
    )


class QuotientRouteReport(namedtuple(
    "QuotientRouteReport",
    "value t fc_verified order_product order_route_value agree",
    defaults=(None, None, None),
)):
    __slots__ = ()


def mixed_via_fc_quotient(I, xs):
    """e(m^[d-t], I^[t]) as e(S/(x_1..x_t)) for a weak-FC sequence from I.

    Also evaluates the order-product route o(x_1)..o(x_t) e(S) when the initial
    forms cut the dimension fully, and reports agreement.
    """
    algebra = I.algebra
    t = len(xs)
    if t == 0:
        # empty sequence: the quotient is S itself
        return QuotientRouteReport(algebra.mult, 0, True, 1, algebra.mult, True)
    if I.is_zero() or not I.is_proper():
        raise ValueError("need a nonzero proper ideal")
    d = algebra.dim
    # the codimension alone: no fiber cone is built
    height = d - I.lift.krull_dimension()
    if t >= height:
        raise HypothesisFail("sequence length must stay below the height", height=height, t=t)
    quot = AlgIdeal(algebra, xs)
    quot_dim = quot.lift.krull_dimension()
    if quot_dim != d - t:
        raise HypothesisFail(
            "sequence does not drop the dimension by its length",
            quotient_dim=quot_dim,
            expected=d - t,
        )
    for rep in fc_chain(xs, [I, algebra.irrelevant_ideal()]):
        if not rep.ok:
            raise HypothesisFail(
                "element fails the FC checks",
                fc1=rep.fc1_pass,
                fc2=rep.fc2_pass,
                counterexample=list(rep.fc1_counterexample) if rep.fc1_counterexample else None,
            )
    value = quotient_multiplicity(quot).value
    init = AlgIdeal(algebra, [x.initial_form for x in xs])
    order_product = None
    order_value = None
    agree = None
    if init.lift.krull_dimension() == d - t:
        order_product = prod(x.order for x in xs)
        order_value = order_product * algebra.mult
        agree = order_value == value
    return QuotientRouteReport(value, t, True, order_product, order_value, agree)


class InvarianceReport(namedtuple(
    "InvarianceReport",
    "closure_certified degseq_lhs degseq_rhs rees_fastpath_lhs rees_fastpath_rhs"
    " rees_oracle_lhs rees_oracle_rhs mixed_lhs mixed_rhs",
    defaults=(None, None, None, None),
)):
    """The oracle fields are None unless invariance_check ran the oracles."""

    __slots__ = ()

    @property
    def agree(self):
        if self.degseq_lhs != self.degseq_rhs:
            return False
        if self.rees_fastpath_lhs != self.rees_fastpath_rhs:
            return False
        for pair in ((self.rees_oracle_lhs, self.rees_oracle_rhs),
                     (self.mixed_lhs, self.mixed_rhs)):
            if pair[0] is not None and pair[1] is not None and pair[0] != pair[1]:
                return False
        return True


def invariance_check(I, E, with_oracle=True, seed=0):
    """Same-closure ideals must share degree sequences, mixed and Rees numbers.

    The closure hypothesis is certified by checking both ideals reduce their
    sum; the invariants are then computed independently on each side.  Each
    degree sequence is the witness of that side's Rees fast path, read off
    the one search kept on the ideal.
    """
    algebra = I.algebra
    if E.algebra != algebra:
        raise ValueError("ideals from different algebras")
    total = I.plus(E)
    cert_i = is_reduction(I, total)
    cert_e = is_reduction(E, total)
    certified = cert_i.ok and cert_e.ok
    if not certified:
        raise HypothesisFail(
            "could not certify a common integral closure",
            lhs_verdict=cert_i.verdict,
            rhs_verdict=cert_e.verdict,
        )
    fp_i = rees_multiplicity_fastpath(I, seed=seed)
    fp_e = rees_multiplicity_fastpath(E, seed=seed)
    oracles = ()
    if with_oracle:
        oracles = (
            rees_multiplicity_oracle(I).value,
            rees_multiplicity_oracle(E).value,
            bhattacharya_oracle([I]).entries,
            bhattacharya_oracle([E]).entries,
        )
    seq_i, seq_e = (tuple(fp.witness["degree_sequence"]) for fp in (fp_i, fp_e))
    return InvarianceReport(certified, seq_i, seq_e, fp_i.value, fp_e.value, *oracles)
