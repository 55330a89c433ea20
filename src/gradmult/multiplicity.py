"""Hilbert-Samuel multiplicities: the length oracle and the two fast paths.

The oracle takes d-th finite differences of colengths over a window and
demands a terminal run of three equal values, so enlarging a stabilized
window can never change the answer.  The Samuel oracle reads every colength
l(S/q^n) off one basis of the associated graded ring gr_q(S).
"""

from collections import namedtuple

from .algebra import AlgIdeal
from .degseq import initial_ideal
from .errors import HypothesisFail, Inconclusive, NoStabilization
from .groebner import INFINITE, PolyIdeal
from .hilbert import BlockSeries, hilbert_data
from .polynomials import map_vars
from .reductions import is_reduction
from .rees import multi_rees


class SamuelResult(namedtuple(
    "SamuelResult", "value method window witness", defaults=(None, None)
)):
    __slots__ = ()


def colength(ideal):
    """Length of S/I; raises unless I is m-primary."""
    v = ideal.lift.k_dimension()
    if v is INFINITE:
        raise ValueError("colength of a non-m-primary ideal")
    return v


def finite_differences(values):
    return [b - a for a, b in zip(values, values[1:])]


def stable_difference(lengths, order, window):
    """Terminal run of >= 3 equal order-th differences; raises NoStabilization."""
    diffs = list(lengths)
    for _ in range(order):
        diffs = finite_differences(diffs)
    if len(diffs) < 3:
        raise ValueError("window too small for the requested difference order")
    run = 1
    while run < len(diffs) and diffs[-run - 1] == diffs[-run]:
        run += 1
    if run < 3:
        raise NoStabilization(
            "finite differences did not stabilize in the window",
            window=list(window),
            differences=diffs,
        )
    value = diffs[-1]
    witness = {
        "differences": diffs,
        "stable_from": window[1] - run + 1 - order,
        "run_length": run,
    }
    return value, witness


def windowed_oracle(order, window, lo_min, length):
    """The order-th difference of length(k) over the window, once it stabilizes.

    The window defaults to (1, order + 6); it must start at lo_min or later
    and span at least order + 3 steps, and the value must come out positive.
    """
    if window is None:
        window = (1, order + 6)
    lo, hi = window
    if lo < lo_min or hi - lo < order + 3:
        raise ValueError(
            f"window must start at {lo_min} or later and span at least {order + 3} steps"
        )
    lengths = [length(k) for k in range(lo, hi + 1)]
    value, witness = stable_difference(lengths, order, window)
    if value < 1:
        raise ArithmeticError("multiplicity came out nonpositive")
    return SamuelResult(value, "finite-difference-oracle", tuple(window), witness)


def adic_lengths(ideal):
    """k -> dim_k ring/(ideal + (x)^k), where (x) is the ideal of all the variables.

    The lengths are the partial sums below k of the Hilbert function of the
    tangent cone at the origin, so one standard basis serves every k.
    """
    hf = hilbert_data(ideal.tangent_cone()).hilbert_function
    return lambda k: sum(map(hf, range(k)))


def _associated_graded(q):
    """BlockSeries of k[x, T]/(L + (g)) = gr_q(S), for samuel_oracle."""
    algebra = q.algebra
    n = algebra.ring.n
    gens = [g.rep for g in AlgIdeal(algebra, q.lift.groebner()).gens]
    rees = multi_rees(algebra.defining, [gens])
    ring = rees.ideal.ring
    lifted = tuple(map_vars(g, ring, range(n)) for g in gens)
    graded = PolyIdeal(ring, rees.ideal.groebner() + lifted)
    return BlockSeries(graded.leading_monomials(), n, rees.degrees)


def samuel_oracle(q, window=None):
    """e(q; S) by the colengths l(S/q^n) over the window and d-th differences.

    The colengths come off one basis of gr_q(S) = sum_k q^k/q^(k+1), not
    one per power of q.  Let g be the nonzero residues mod P of GB(P + q),
    which generate q, and S[q t] = k[x, T]/L, T_j -> g_j t, the Rees algebra
    (rees.multi_rees).  Then S[q t]/q S[q t] = gr_q(S), and q S[q t] is the
    image of (g), so gr_q(S) = k[x, T]/(L + (g)) with q^k/q^(k+1) its piece
    of T-degree k.  L and (g) are homogeneous for the T-degree, hence so is
    the reduced basis of L + (g), in any term order and whether or not q is
    homogeneous, and normal forms keep the T-degree: the standard monomials
    of T-degree k are a basis of q^k/q^(k+1).  So
    l(S/q^n) = sum_(k<n) dim q^k/q^(k+1), each term a BlockSeries.count.
    """
    if not q.is_proper() or q.is_zero():
        raise ValueError("oracle needs a proper nonzero ideal")
    if q.lift.k_dimension() is INFINITE:
        raise ValueError("oracle needs an m-primary ideal")
    graded = _associated_graded(q)
    sums = [0]

    def length(n):
        while len(sums) <= n:
            sums.append(sums[-1] + graded.count((len(sums) - 1,)))
        return sums[n]

    return windowed_oracle(q.algebra.dim, window, 0, length)


def _require_initial_sop(init, orders):
    """Raise HypothesisFail unless the initial forms generating init, of the
    given orders, are a system of parameters: S/init has dimension 0."""
    init_dim = init.lift.krull_dimension()
    if init_dim != 0:
        raise HypothesisFail(
            "initial forms are not a system of parameters",
            initial_quotient_dim=init_dim,
            orders=orders,
        )


def samuel_fastpath_general(xs):
    """e((x_1..x_d); S) = o(x_1)...o(x_d) e(S) when the initial forms are a sop.

    Raises HypothesisFail when they are not.
    """
    if not xs:
        raise ValueError("empty system")
    algebra = xs[0].algebra
    d = algebra.dim
    if len(xs) != d:
        raise ValueError(f"need exactly dim S = {d} elements")
    if any(x.is_zero() for x in xs):
        raise ValueError("zero element in the system")
    q = algebra.ideal(xs)
    if q.lift.k_dimension() is INFINITE:
        raise ValueError("the given elements are not a system of parameters")
    orders = [x.order for x in xs]
    _require_initial_sop(algebra.ideal([x.initial_form for x in xs]), orders)
    value = algebra.mult
    for o in orders:
        value *= o
    return SamuelResult(
        value,
        "fastpath-thm-2.10",
        None,
        {"orders": orders, "ring_multiplicity": algebra.mult},
    )


def samuel_fastpath_domain(I, J, domain_asserted=False):
    """e(I; S) = c_1...c_d e(S) from the degree sequence of a minimal reduction J.

    Valid when S is a domain, which cannot be checked here: the caller must
    assert it.  J is re-verified as a d-generated reduction of I, and the
    initial forms of its adjusted minimal basis f_1..f_d (degseq.initial_ideal,
    of orders c_1..c_d) must be a system of parameters, the hypothesis of
    samuel_fastpath_general (Thm 2.10), checked the same way.

    The argument.  A reduction has the multiplicity of the ideal it reduces,
    so e(I) = e(J).  J is m-primary with I and d-generated, so f_1..f_d is a
    system of parameters; when their initial forms are one too, Thm 2.10
    gives e(J) = o(f_1)..o(f_d) e(S) = c_1..c_d e(S).  Without that the
    product can be wrong in a domain: in k[x, y], J = (xy, y^2 + x^3) has
    degree sequence [2, 2] but e(J) = 2 + 3 = 5, as the initial forms xy,
    y^2 share the line y = 0.  Such a J raises HypothesisFail.
    """
    if not domain_asserted:
        raise ValueError("this fast path needs the caller to assert S is a domain")
    algebra = I.algebra
    d = algebra.dim
    if I.lift.k_dimension() is INFINITE:
        raise ValueError("I must be m-primary")
    cert = is_reduction(J, I)
    if cert.verdict != "REDUCTION":
        raise Inconclusive("could not certify J as a reduction of I")
    init, basis = initial_ideal(J)
    seq = sorted(b.order for b in basis)
    if len(seq) != d:
        raise ValueError(f"J must be generated by dim S = {d} elements, got {len(seq)}")
    _require_initial_sop(init, seq)
    value = algebra.mult
    for c in seq:
        value *= c
    return SamuelResult(
        value,
        "fastpath-thm-2.8",
        None,
        {
            "degree_sequence": seq,
            "ring_multiplicity": algebra.mult,
            "reduction_witness": cert.n_witness,
        },
    )


def quotient_multiplicity(I):
    """e(S/I) at the origin: the multiplicity of the lift's tangent cone.

    l(S/(I + m^k)) is the sum over j < k of the cone's Hilbert function, so
    its d-th difference, d the dimension of the cone (the local dimension),
    is e(cone) from some k on: the series gives it with no window.
    """
    lift = I.lift
    if lift.is_unit():
        raise ValueError("quotient ring is zero")
    cone = lift.tangent_cone()
    if cone.is_unit():
        raise HypothesisFail("quotient is zero at the origin")
    hd = hilbert_data(cone)
    return SamuelResult(
        hd.multiplicity, "homogeneous-series", None, {"dimension": hd.dimension}
    )
