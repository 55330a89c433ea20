"""The multigraded Hilbert numerator and its block slices against standard
monomials counted box by box (`tests/reference_multigraded.py`), and the
cached slices against the uncached ones they replaced.

The presentations are the multi-Rees algebras the weak-FC check builds:
over the cusp y^2 z - x^3, over k[x,y,z]/(xy) with a zero-divisor in the
last block, over a quotient by a linear form, and over k[x,y].  Some blocks
have generators of two different degrees, so the weight order and the
weight grading are not those of the block degree.
"""

import itertools
import random

import pytest
from reference_multigraded import (
    box_counts,
    expanded_numerator,
    series_coefficients,
    sliced_series,
    uncached_slice,
)
from reference_hilbert import reference_numerator

from gradmult import QQ, PolyIdeal, PrimeField, poly_ring
from gradmult.hilbert import BlockSeries, multigraded_numerator
from gradmult.monomials import minimal_monomials
from gradmult.rees import multi_rees

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]


def rees_series(base, blocks):
    return multi_rees(base, blocks).series()


def presentations(field, rng):
    """(name, BlockSeries) of multi-Rees presentations with seeded coefficients."""
    c = field.random_nonzero(rng)
    ring = poly_ring(("x", "y", "z"), field)
    x, y, z = ring.gens()
    cusp = PolyIdeal(ring, (y * y * z - x**3,))
    yield "cusp", rees_series(cusp, [[x * x, y * z, z], [y + c * x]])
    yield "cusp over x", rees_series(cusp.plus(PolyIdeal(ring, (y + c * x,))), [[x * x, y * z, z]])
    planes = PolyIdeal(ring, (x * y,))
    yield "two planes", rees_series(planes, [[x * x, z + c * y], [x * x]])
    plane = poly_ring(("x", "y"), field)
    X, Y = plane.gens()
    yield "plane", rees_series(PolyIdeal(plane, ()), [[X**3, X * Y, Y * Y]])


def block_degrees(series, top):
    return itertools.product(*(range(top + 1) for _ in series.blocks))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_numerator_counts_every_box(field):
    rng = random.Random(400 + FIELDS.index(field))
    for name, series in presentations(field, rng):
        degrees = [(1, 0) + (0,) * len(series.blocks)] * series.n
        for k, ws in enumerate(series.blocks):
            unit = tuple(int(j == k) for j in range(len(series.blocks)))
            degrees.extend((0, w) + unit for w in ws)
        numerator = multigraded_numerator(series.leads, degrees)
        for a in range(4):
            for b in block_degrees(series, 2):
                expected = box_counts(series.leads, series.n, series.blocks, a, b)
                got = expanded_numerator(numerator, series.n, series.blocks, a, b)
                assert got == expected, (name, a, b)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_slices_count_every_degree(field):
    rng = random.Random(450 + FIELDS.index(field))
    top = 6
    for name, series in presentations(field, rng):
        for b in block_degrees(series, 2):
            for c in range(3):
                num = series.slice(b, c)
                expected = sliced_series(series.leads, series.n, series.blocks, b, c, top)
                assert series_coefficients(num, series.n, top) == expected, (name, b, c)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cached_slices_match_the_uncached_reference(field):
    # asked in a seeded order, so a bound c is met before, after or with no
    # smaller bound of its block degree cached
    rng = random.Random(470 + FIELDS.index(field))
    for name, series in presentations(field, rng):
        asks = [(b, c) for b in block_degrees(series, 3) for c in range(5)]
        rng.shuffle(asks)
        for b, c in asks + asks[:7]:
            assert series.slice(b, c) == uncached_slice(series, b, c), (name, b, c)


def test_each_slice_is_built_once(monkeypatch):
    # one x-degree row per step c - 1 -> c, each (b, c) built once however
    # often and in whatever order it is asked for
    rows = []
    real = BlockSeries._x_degree

    def counted(self, grid, a):
        rows.append(a)
        return real(self, grid, a)

    monkeypatch.setattr(BlockSeries, "_x_degree", counted)
    _name, series = next(presentations(QQ, random.Random(0)))
    asks = [(b, c) for b in block_degrees(series, 2) for c in (3, 1, 4, 0, 2, 4)]
    for b, c in asks:
        series.slice(b, c)
    assert len(rows) == 4 * len(set(b for b, _ in asks))
    assert set(series._slices) == {(b, c) for b, _ in asks for c in range(5)}


def test_some_blocks_mix_degrees():
    rng = random.Random(0)
    mixed = [
        name for name, series in presentations(QQ, rng)
        if any(len(set(ws)) > 1 for ws in series.blocks)
    ]
    assert mixed == ["cusp", "cusp over x", "two planes", "plane"]


def truncated_series(numerator, degrees, bound):
    """{degree: coefficient} of numerator / prod (1 - z^d) for degrees <= bound."""
    series = {d: v for d, v in numerator.items() if max(d) <= bound}
    box = sorted(itertools.product(range(bound + 1), repeat=len(degrees[0])), key=sum)
    for step in degrees:
        # multiply by 1 / (1 - z^step): add z^step times the running sum, in
        # increasing total degree so every multiple of step is reached
        for d in box:
            e = tuple(u + v for u, v in zip(d, step))
            if d in series and max(e) <= bound:
                series[e] = series.get(e, 0) + series[d]
    return {d: v for d, v in series.items() if v}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_seeded_monomial_ideals_with_vector_degrees(r):
    rng = random.Random(500 + r)
    bound = 3
    for _ in range(40):
        n = rng.randint(2, 5)
        degrees = tuple(tuple(rng.randint(0, 2) for _ in range(r)) for _ in range(n))
        degrees = tuple(d if any(d) else (1,) + d[1:] for d in degrees)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        gens = minimal_monomials(g for g in gens if any(g))
        if not gens:
            continue
        # every variable has a positive degree entry, so exponents stay <= bound
        counts = {}
        for m in itertools.product(range(bound + 1), repeat=n):
            d = tuple(sum(e * v[j] for e, v in zip(m, degrees)) for j in range(r))
            if max(d) <= bound and not any(all(x <= y for x, y in zip(g, m)) for g in gens):
                counts[d] = counts.get(d, 0) + 1
        numerator = multigraded_numerator(gens, degrees)
        assert truncated_series(numerator, degrees, bound) == counts
        # the standard grading of the same ideal is the single-variable numerator
        flat = {d[0]: v for d, v in multigraded_numerator(gens, ((1,),) * n).items()}
        expected = reference_numerator(gens)
        assert [flat.get(i, 0) for i in range(len(expected))] == expected


def test_a_block_without_generators_is_empty_past_degree_zero():
    series = BlockSeries([], 2, [[]])
    assert series.slice((0,), 0) == [1]
    assert series.slice((1,), 0) == []
