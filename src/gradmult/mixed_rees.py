"""Mixed multiplicities and Rees algebra multiplicities, oracle and fast path.

The oracle side is exact arithmetic all the way down: Bhattacharya tables come
from layer lengths l(m^a K / m^(a+1) K) fitted by an exact polynomial.  All
the lengths of one K (one column of the grid) are read off one Hilbert series
per degree of the homogeneous components of K's generators, with no product
by a power of m.  The Rees multiplicity comes from the (x, T)-adic colengths
of the eliminated presentation, read off the Hilbert function of its tangent
cone at the origin (one Lazard standard basis for every length).  Fast paths
are the degree-sequence product formulas; the two sides are never mixed.
"""

import itertools
from dataclasses import dataclass
from math import factorial

from .algebra import AlgIdeal, minimal_basis
from .degseq import degree_sequence
from .errors import FitMismatch, HypothesisFail
from .groebner import PolyIdeal, _fresh_name, eliminate_into
from .hilbert import hilbert_data
from .linalg import rref_insert, solve
from .monomials import MonomialOrder, monomials_up_to
from .multiplicity import SamuelResult, adic_lengths, quotient_multiplicity, windowed_oracle
from .polynomials import PolyRing, map_vars
from .reductions import (
    FcWindow,
    _fc_check_on_lift,
    find_minimal_reduction,
    height_and_equimultiple,
    is_reduction,
)
from .scalars import QQ


@dataclass
class ReesPresentation:
    ambient: PolyRing
    rees_ideal: PolyIdeal
    base_vars: int
    t_names: tuple
    generators: list
    dim: int


def rees_presentation(I):
    """Present the Rees algebra: eliminate t from (P, T_j - g_j t) in k[x, T, t]."""
    algebra = I.algebra
    if I.is_zero() or not I.is_proper():
        raise ValueError("Rees presentation needs a nonzero proper ideal")
    gens = minimal_basis(I)
    s = len(gens)
    names = list(algebra.ring.names)
    t_names = []
    for j in range(s):
        t_names.append(_fresh_name(set(names) | set(t_names), f"T{j + 1}"))
    tvar = _fresh_name(set(names) | set(t_names), "t")
    n = algebra.ring.n
    total = n + s + 1
    pring = PolyRing(tuple(names) + tuple(t_names), algebra.ring.field)
    ering = pring.extended((tvar,), MonomialOrder.elimination(total, (total - 1,)))
    pos = tuple(range(n))
    egens = [map_vars(p, ering, pos) for p in algebra.defining.groebner()]
    t = ering.var(total - 1)
    for j, g in enumerate(gens):
        egens.append(ering.var(n + j) - map_vars(g.rep, ering, pos) * t)
    rees = eliminate_into(egens, (total - 1,), pring)
    dim = rees.krull_dimension()
    height = algebra.dim - I.lift.krull_dimension()
    if height > 0 and dim != algebra.dim + 1:
        raise ArithmeticError(
            f"positive-height ideal gave Rees dimension {dim}, expected {algebra.dim + 1}"
        )
    return ReesPresentation(pring, rees, n, tuple(t_names), gens, dim)


def rees_multiplicity_oracle(I, window=None):
    """Multiplicity of the (x, T)-adic filtration on the presentation quotient.

    L_k = dim_k k[x, T]/(rees + (x, T)^k), the partial sums below k of the
    Hilbert function of the presentation's tangent cone at the origin; a
    standard graded presentation is its own tangent cone.  The witness route
    is "series" for a homogeneous presentation and "direct" otherwise.
    """
    pres = rees_presentation(I)
    D = pres.dim
    if D < 1:
        raise ValueError("Rees quotient is Artinian; adic multiplicity undefined")
    rees = pres.rees_ideal
    result = windowed_oracle(D, window, 1, adic_lengths(rees))
    result.witness["presentation_dim"] = D
    result.witness["route"] = "series" if rees.is_homogeneous() else "direct"
    # the value is taken at the maximal homogeneous ideal via its adic filtration
    result.witness["filtration"] = "N-adic"
    return result


def _reduction_degrees(I, h, degseq, seed):
    """The given degree sequence, else that of a minimal reduction; h entries."""
    if degseq is None:
        J, _ = find_minimal_reduction(I, seed=seed)
        degseq = degree_sequence(J)
    degseq = tuple(degseq)
    if len(degseq) != h:
        raise ValueError(f"degree sequence must have height = {h} entries")
    return degseq


def rees_multiplicity_fastpath(I, degseq=None, seed=0):
    """e(R(I)) = (1 + sum_{i<h} a_1..a_i) e(S) from a minimal reduction's degrees."""
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
    degseq = _reduction_degrees(I, h, degseq, seed)
    total = 1
    prod = 1
    for a in degseq[: h - 1]:
        prod *= a
        total += prod
    value = total * algebra.mult
    # sum rule: same number as e(S) plus the partial-product mixed values
    check = algebra.mult
    for i in range(1, h):
        term = algebra.mult
        for a in degseq[:i]:
            term *= a
        check += term
    if check != value:
        raise ArithmeticError("sum rule violated in the closed form")
    return SamuelResult(
        value,
        "fastpath-cor-3.2(ii)",
        None,
        {"degree_sequence": list(degseq), "height": h, "ring_multiplicity": algebra.mult},
    )


@dataclass
class ReesReport:
    fastpath: SamuelResult = None
    oracle: SamuelResult = None

    @property
    def agree(self):
        if self.fastpath is None or self.oracle is None:
            return None
        return self.fastpath.value == self.oracle.value

    @property
    def value(self):
        r = self.oracle or self.fastpath
        return r.value


def rees_multiplicity(I, mode="both", degseq=None, window=None, seed=0):
    """Rees algebra multiplicity by either or both routes."""
    if mode not in ("oracle", "fastpath", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    report = ReesReport()
    if mode in ("fastpath", "both"):
        report.fastpath = rees_multiplicity_fastpath(I, degseq=degseq, seed=seed)
    if mode in ("oracle", "both"):
        report.oracle = rees_multiplicity_oracle(I, window=window)
    return report


# -- Bhattacharya tables -----------------------------------------------------


@dataclass
class MixedMultiplicityTable:
    q: int
    entries: dict  # (k0, k...) with k0 + |k| = q - 1 -> the (k0 + 1, k...) number
    n0_range: tuple
    n_ranges: tuple
    fit_points: list
    fit_residual: int  # max |actual - predicted| over held-out grid cells; must be 0

    def entry(self, key):
        return self.entries[tuple(key)]

    def entry_for_type(self, i, slot=0):
        """Number of type i in the given ideal slot, the rest of the weight on m."""
        key = [0] * (1 + len(self.n_ranges))
        key[1 + slot] = i
        key[0] = self.q - 1 - i
        return self.entries[tuple(key)]


def _layer_lengths(algebra, K, n0s):
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

        l(m^a K / m^(a+1) K) = sum_s [HF(R/L_(s-))(a + s) - HF(R/L_s)(a + s)],

    one Hilbert series per distinct component degree, whatever the range of
    a, and no product with a power of m.  A unit L_s (K = S) has HF = 0.
    """
    parts = {}
    for g in K.gens:
        for d, part in g.rep.homogeneous_components().items():
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


def bhattacharya_oracle(ideals, n0_range=(2, 5), n_ranges=None):
    """Mixed multiplicities from exact polynomial fit of adic layer lengths.

    h(n0, n) = l(m^{n0} K / m^{n0+1} K) with K the product of ideal powers is
    fitted exactly as a polynomial of total degree q - 1 on the deep end of the
    grid and validated on every remaining point; entries are the normalized
    top coefficients, keyed by type tuples summing to q.
    """
    if isinstance(ideals, AlgIdeal):
        ideals = [ideals]
    s = len(ideals)
    if s not in (1, 2):
        raise ValueError("supported for one or two ideals")
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
    prod = ideals[0]
    for I in ideals[1:]:
        prod = prod.times(I)
    sat = algebra.defining.saturate(
        PolyIdeal(algebra.ring, tuple(g.rep for g in prod.gens))
    )
    if sat.is_unit():
        raise ValueError("product of the ideals is nilpotent")
    q = sat.krull_dimension()
    if q < 1:
        raise ValueError("saturated quotient is Artinian; no positive-degree table")
    n0s = range(n0_range[0], n0_range[1] + 1)
    axes = [range(lo, hi + 1) for lo, hi in n_ranges]
    columns = {}
    for ns in itertools.product(*axes):
        K = AlgIdeal(algebra, (algebra.one(),))
        for I, nj in zip(ideals, ns):
            K = K.times(I.power(nj))
        columns[ns] = _layer_lengths(algebra, K, n0s)
    grid = {p: columns[p[1:]][p[0]] for p in itertools.product(n0s, *axes)}

    monos = [mo for mo in monomials_up_to(1 + s, q - 1)]
    monos.sort(key=lambda e: (sum(e), e), reverse=True)
    points = sorted(grid, key=lambda p: (sum(p), p), reverse=True)

    def row_for(p):
        out = []
        for e in monos:
            v = 1
            for base, exp in zip(p, e):
                v *= base ** exp
            out.append(v)
        return out

    rows = {p: row_for(p) for p in points}
    chosen = []
    coeffs = None
    echelon = {}
    for p in points:
        chosen.append(p)
        rref_insert(echelon, {j: v for j, v in enumerate(rows[p]) if v}, QQ)
        # the fit is unique only once the chosen rows have full column rank
        if len(echelon) < len(monos):
            continue
        columns = [dict(enumerate(col)) for col in zip(*(rows[p2] for p2 in chosen))]
        coeffs = solve(QQ, columns, dict(enumerate(grid[p2] for p2 in chosen)))
        if coeffs is not None:
            break
    if coeffs is None:
        raise FitMismatch(
            "no invertible fit system inside the grid",
            grid={str(k): v for k, v in grid.items()},
        )
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


def mixed_fastpath(I, degseq=None, i=None, seed=0):
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
    degseq = _reduction_degrees(I, h, degseq, seed)
    value = algebra.mult
    for a in degseq[:i]:
        value *= a
    return SamuelResult(
        value,
        "fastpath-cor-3.2(i)",
        None,
        {"degree_sequence": list(degseq), "height": h, "i": i},
    )


@dataclass
class QuotientRouteReport:
    value: int
    t: int
    fc_verified: bool
    order_product: int = None
    order_route_value: int = None
    agree: bool = None


def mixed_via_fc_quotient(I, xs, window=None):
    """e(m^[d-t], I^[t]) as e(S/(x_1..x_t)) for a weak-FC sequence from I.

    Also evaluates the order-product route o(x_1)..o(x_t) e(S) when the initial
    forms cut the dimension fully, and reports agreement.
    """
    algebra = I.algebra
    t = len(xs)
    if t == 0:
        # empty sequence: the quotient is S itself
        return QuotientRouteReport(algebra.mult, 0, True, 1, algebra.mult, True)
    hr = height_and_equimultiple(I)
    if t >= hr.height:
        raise HypothesisFail(
            "sequence length must stay below the height", height=hr.height, t=t
        )
    d = algebra.dim
    quot = AlgIdeal(algebra, xs)
    quot_dim = quot.lift.krull_dimension()
    if quot_dim != d - t:
        raise HypothesisFail(
            "sequence does not drop the dimension by its length",
            quotient_dim=quot_dim,
            expected=d - t,
        )
    m = algebra.irrelevant_ideal()
    gen_lists = [[g.rep for g in I.gens], [g.rep for g in m.gens]]
    base_gens = algebra.defining.groebner()
    for x in xs:
        if not I.lift.contains(x.rep):
            raise ValueError("sequence element outside I")
        base = PolyIdeal(algebra.ring, base_gens)
        rep = _fc_check_on_lift(base, x, gen_lists, 0, FcWindow())
        if not rep.ok:
            raise HypothesisFail(
                "element fails the FC checks",
                fc1=rep.fc1_pass,
                fc2=rep.fc2_pass,
                counterexample=list(rep.fc1_counterexample) if rep.fc1_counterexample else None,
            )
        base_gens = base_gens + (x.rep,)
    value = quotient_multiplicity(quot, window=window).value
    init = AlgIdeal(algebra, [x.initial_form for x in xs])
    order_product = None
    order_value = None
    agree = None
    if init.lift.krull_dimension() == d - t:
        order_product = 1
        for x in xs:
            order_product *= x.order
        order_value = order_product * algebra.mult
        agree = order_value == value
    return QuotientRouteReport(value, t, True, order_product, order_value, agree)


@dataclass
class InvarianceReport:
    closure_certified: bool
    degseq_lhs: tuple
    degseq_rhs: tuple
    rees_fastpath_lhs: int
    rees_fastpath_rhs: int
    rees_oracle_lhs: int = None
    rees_oracle_rhs: int = None
    mixed_lhs: dict = None
    mixed_rhs: dict = None

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
    sum; the invariants are then computed independently on each side.
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
    J_i, _ = find_minimal_reduction(I, seed=seed)
    J_e, _ = find_minimal_reduction(E, seed=seed)
    seq_i = degree_sequence(J_i)
    seq_e = degree_sequence(J_e)
    fp_i = rees_multiplicity_fastpath(I, degseq=seq_i)
    fp_e = rees_multiplicity_fastpath(E, degseq=seq_e)
    report = InvarianceReport(
        closure_certified=certified,
        degseq_lhs=seq_i,
        degseq_rhs=seq_e,
        rees_fastpath_lhs=fp_i.value,
        rees_fastpath_rhs=fp_e.value,
    )
    if with_oracle:
        report.rees_oracle_lhs = rees_multiplicity_oracle(I).value
        report.rees_oracle_rhs = rees_multiplicity_oracle(E).value
        report.mixed_lhs = bhattacharya_oracle([I]).entries
        report.mixed_rhs = bhattacharya_oracle([E]).entries
    return report
