"""Hilbert-Samuel multiplicities: the length oracle and the two fast paths.

The oracle takes d-th finite differences of colengths over a window and
demands a terminal run of three equal values, so enlarging a stabilized
window can never change the answer.
"""

from dataclasses import dataclass

from .algebra import minimal_basis
from .degseq import degree_sequence
from .errors import HypothesisFail, Inconclusive, NoStabilization
from .groebner import INFINITE, PolyIdeal
from .hilbert import hilbert_data
from .monomials import monomials_of_degree


@dataclass
class SamuelResult:
    value: int
    method: str
    window: tuple = None
    witness: dict = None


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


def adic_colength(ring, gens, k):
    """dim_k ring/(gens + (x)^k), where (x) is the ideal of all the variables."""
    power = tuple(ring.monomial(m) for m in monomials_of_degree(ring.n, k))
    return PolyIdeal(ring, tuple(gens) + power).k_dimension()


def samuel_oracle(q, window=None):
    """e(q; S) by colengths of q^n over the window and d-th differences."""
    if not q.is_proper() or q.is_zero():
        raise ValueError("oracle needs a proper nonzero ideal")
    if q.lift.k_dimension() is INFINITE:
        raise ValueError("oracle needs an m-primary ideal")
    return windowed_oracle(q.algebra.dim, window, 0, lambda n: colength(q.power(n)))


def samuel_fastpath_general(xs, check_oracle_window=None):
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
    init = algebra.ideal([x.initial_form for x in xs])
    init_dim = init.lift.krull_dimension()
    if init_dim != 0:
        raise HypothesisFail(
            "initial forms are not a system of parameters",
            initial_quotient_dim=init_dim,
            orders=[x.order for x in xs],
        )
    orders = [x.order for x in xs]
    value = algebra.mult
    for o in orders:
        value *= o
    return SamuelResult(
        value,
        "fastpath-thm-2.10",
        None,
        {"orders": orders, "ring_multiplicity": algebra.mult},
    )


def samuel_fastpath_domain(I, J, domain_asserted=False, n_max=8):
    """e(I; S) = c_1...c_d e(S) from the degree sequence of a minimal reduction J.

    Valid when S is a domain, which cannot be checked here: the caller must
    assert it.  J is re-verified as a d-generated reduction of I.
    """
    from .reductions import is_reduction

    if not domain_asserted:
        raise ValueError("this fast path needs the caller to assert S is a domain")
    algebra = I.algebra
    d = algebra.dim
    if I.lift.k_dimension() is INFINITE:
        raise ValueError("I must be m-primary")
    cert = is_reduction(J, I, n_max=n_max)
    if cert.verdict != "REDUCTION":
        raise Inconclusive(
            "could not certify J as a reduction of I within the power bound",
            n_max=n_max,
        )
    seq = degree_sequence(J)
    if len(seq) != d:
        raise ValueError(f"J must be generated by dim S = {d} elements, got {len(seq)}")
    value = algebra.mult
    for c in seq:
        value *= c
    return SamuelResult(
        value,
        "fastpath-thm-2.8",
        None,
        {
            "degree_sequence": list(seq),
            "ring_multiplicity": algebra.mult,
            "reduction_witness": cert.n_witness,
        },
    )


def quotient_multiplicity(I, window=None):
    """e(S/I) with respect to the image of the irrelevant ideal.

    Homogeneous quotients use the Hilbert series; otherwise lengths of
    S/(I + m^k) are differenced to the dimension of S/I.
    """
    lift = I.lift
    if lift.is_unit():
        raise ValueError("quotient ring is zero")
    if lift.is_homogeneous():
        hd = hilbert_data(lift)
        return SamuelResult(
            hd.multiplicity, "homogeneous-series", None, {"dimension": hd.dimension}
        )
    ring = I.algebra.ring
    return windowed_oracle(
        lift.krull_dimension(), window, 0, lambda k: adic_colength(ring, lift.gens, k)
    )
