"""Rees presentations off the staged multi-Rees builder against the one
elimination they replaced (`tests/reference_rees.py`).

`rees.rees_presentation` is one block of `rees.multi_rees` over the minimal
generators, its Rees ideal carrying the builder's basis in the weight
order.  Over small and large prime fields and qq, in k[x,y], k[x,y,z], the
cusp y^2 z - x^3 and the fat line k[X,Y]/(XY, X^2), for equigenerated
ideals (a homogeneous Rees ideal), mixed-degree ones and ideals that are not
graded (a non-homogeneous one outside the fat line), it must give the reference's ideal, Krull
dimension and fiber-cone relations, and the basis it carries must be the
reduced basis of its ideal.
"""

import pytest

from gradmult import QQ, AlgIdeal, PolyIdeal, PrimeField, buchberger, make_algebra, poly_ring
from gradmult.polynomials import Polynomial
from gradmult.reductions import _fiber_cone
from gradmult.rees import rees_presentation

from reference_rees import reference_fiber, reference_rees_presentation

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]

# name -> (variables, relations, generator lists)
ALGEBRAS = {
    "k[x,y]": (("x", "y"), lambda x, y: [], lambda x, y: [
        [x * x, x * y, y * y],
        [x, y**3],
        [x * x, y**3],
        [x + y * y, x * y],
    ]),
    "k[x,y,z]": (("x", "y", "z"), lambda x, y, z: [], lambda x, y, z: [
        [x * x, y * y, z * z, x * y, y * z],
        [x, y * y, z**3],
        [x * y + z, y * y],
    ]),
    "cusp": (("x", "y", "z"), lambda x, y, z: [y * y * z - x**3], lambda x, y, z: [
        [x, y, z],
        [x * x, y * z, z],
    ]),
    "fat line": (("X", "Y"), lambda X, Y: [X * Y, X * X], lambda X, Y: [
        [X, Y],
        [X, Y * Y],
        [X + Y * Y, Y**3],
    ]),
}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_presentation_matches_reference(field, name):
    names, relations, ideals = ALGEBRAS[name]
    ring = poly_ring(names, field)
    algebra = make_algebra(ring, relations(*ring.gens()))
    homogeneity = set()
    for gens in ideals(*algebra.gens()):
        I = AlgIdeal(algebra, gens)
        pres = rees_presentation(I)
        ref_ring, ref_ideal, ref_dim = reference_rees_presentation(I)
        assert pres.ambient.names == ref_ring.names
        assert pres.t_names == ref_ring.names[ring.n:]
        assert pres.dim == ref_dim
        carried = pres.rees_ideal.groebner()
        assert carried == buchberger(pres.rees_ideal.gens)
        moved = PolyIdeal(ref_ring, tuple(Polynomial(ref_ring, dict(g.coeffs)) for g in carried))
        assert moved.equals(ref_ideal), gens
        fiber = _fiber_cone(AlgIdeal(algebra, gens)).relations
        assert fiber.equals(reference_fiber(ref_ideal, ring.n)), gens
        homogeneity.add(ref_ideal.is_homogeneous())
    # in the fat line X m = 0, so every Rees ideal there is homogeneous
    assert homogeneity == ({True} if name == "fat line" else {True, False})
