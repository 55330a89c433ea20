"""Shared fixtures and helpers for the test suite."""

import pytest

from gradmult import AlgIdeal, make_algebra, poly_ring


@pytest.fixture
def kxy():
    return make_algebra(poly_ring(("x", "y")))


@pytest.fixture
def kxyz():
    return make_algebra(poly_ring(("x", "y", "z")))


@pytest.fixture
def nondomain():
    # k[X,Y]/(XY, X^2): one-dimensional, e = 1, not a domain
    ring = poly_ring(("X", "Y"))
    X, Y = ring.gens()
    return make_algebra(ring, [X * Y, X * X])


@pytest.fixture
def hyper():
    # k[x,y,z]/(y^2 z - x^3): two-dimensional hypersurface, e = 3
    ring = poly_ring(("x", "y", "z"))
    x, y, z = ring.gens()
    return make_algebra(ring, [y * y * z - x**3])


def four_algebras(field):
    """k[x,y], k[x,y,z], the cusp k[x,y,z]/(y^2 z - x^3) and k[X,Y]/(XY, X^2)."""
    kxy = poly_ring(("x", "y"), field)
    kxyz = poly_ring(("x", "y", "z"), field)
    x, y, z = kxyz.gens()
    kXY = poly_ring(("X", "Y"), field)
    X, Y = kXY.gens()
    return [
        make_algebra(kxy),
        make_algebra(kxyz),
        make_algebra(kxyz, [y * y * z - x**3]),
        make_algebra(kXY, [X * Y, X * X]),
    ]


def regenerate(ideal, rng):
    """The same ideal with a new generating set.

    Applies a lower then an upper triangular pass with unit diagonal (so the
    mixing matrix is invertible over the field) and shuffles the result.
    """
    field = ideal.algebra.ring.field
    new = list(ideal.gens)
    t = len(new)
    for i in range(t):
        acc = field.random_nonzero(rng) * new[i]
        for j in range(i):
            acc = acc + field.random(rng) * new[j]
        new[i] = acc
    for i in reversed(range(t)):
        acc = new[i]
        for j in range(i + 1, t):
            acc = acc + field.random(rng) * new[j]
        new[i] = acc
    rng.shuffle(new)
    return AlgIdeal(ideal.algebra, new)


def random_poly(ring, rng, degree=None, constant=False):
    """A few terms with exponents at most 2, all of total degree `degree` when
    given; a constant term only when asked for."""
    f = ring.zero()
    while not f.coeffs:
        for _ in range(rng.randint(1, 3)):
            e = [0] * ring.n
            target = degree if degree is not None else rng.randint(1, 3)
            while sum(e) < target:
                i = rng.randrange(ring.n)
                if e[i] < 2:
                    e[i] += 1
            f = f + ring.monomial(e, ring.field.random_nonzero(rng))
    if constant:
        f = f + ring.constant(ring.field.random_nonzero(rng))
    return f


def origin_supported(ideal, bound=24):
    """True when some power of every variable lies in the lift.

    Finite colength alone allows zeros away from the origin; this check pins
    the support to the irrelevant maximal ideal, which the closed-form
    multiplicity statements assume.
    """
    lift = ideal.lift
    ring = ideal.algebra.ring
    for i in range(ring.n):
        v = ring.var(i)
        p = v
        for _ in range(bound):
            if lift.contains(p):
                break
            p = p * v
        else:
            return False
    return True


# Criterion registry: test_acceptance records one verdict per criterion and
# the terminal-summary hook prints them after the run.
ACCEPTANCE = {}


class _Criterion:
    def __init__(self, num, title):
        self.num = num
        self.title = title

    def __enter__(self):
        ACCEPTANCE[self.num] = (False, self.title)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            ACCEPTANCE[self.num] = (True, self.title)
        return False


def criterion(num, title):
    return _Criterion(num, title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        ok, title = ACCEPTANCE[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({title}): {verdict}")
