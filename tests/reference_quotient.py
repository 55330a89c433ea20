"""The windowed route that `multiplicity.quotient_multiplicity` replaced,
kept as the reference: a homogeneous lift reads its Hilbert series, other
input differences the lengths l(S/(I + m^k)), read off the Hilbert function
of the lift's tangent cone, to the local dimension over a window, and
refuses with NoStabilization when the window is too short."""

from gradmult.errors import HypothesisFail
from gradmult.hilbert import hilbert_data
from gradmult.multiplicity import SamuelResult, adic_lengths, windowed_oracle


def quotient_multiplicity(I, window=None):
    """e(S/I) with respect to the image of the irrelevant ideal.

    Homogeneous quotients use the Hilbert series; otherwise the lengths of
    S/(I + m^k), read off the Hilbert function of the lift's tangent cone at
    the origin, are differenced to the dimension of S/I there.  When S/I is
    Artinian at the origin the window defaults to one long enough for any
    length up to its local colength.
    """
    lift = I.lift
    if lift.is_unit():
        raise ValueError("quotient ring is zero")
    if lift.is_homogeneous():
        hd = hilbert_data(lift)
        return SamuelResult(
            hd.multiplicity, "homogeneous-series", None, {"dimension": hd.dimension}
        )
    cone = lift.tangent_cone()
    if cone.is_unit():
        raise HypothesisFail("quotient is zero at the origin")
    # the order is the local dimension at the origin, which components of
    # S/I away from the origin can exceed globally
    order = hilbert_data(cone).dimension
    if order == 0 and window is None:
        # the lengths rise strictly until they are stable and never pass the
        # local colength, so they are stable from that colength on
        window = (1, max(6, cone.k_dimension() + 3))
    # the cone is homogeneous, so it is its own tangent cone: same lengths
    return windowed_oracle(order, window, 0, adic_lengths(cone))
