"""The exact linear algebra module against a dense Gauss-Jordan reference."""

import random

import pytest

from gradmult import QQ, PrimeField
from gradmult.linalg import rref_insert, solve

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(2147483647), QQ]


def dense_combination(field, vecs, target):
    """Coefficients expressing target as a combination of vecs, or None.

    Dense Gaussian elimination over the coefficient field; vectors are coeff
    dicts.  Free variables are set to zero.  This is the dense solver the
    sparse module replaced, kept as the reference.
    """
    cols = set(target)
    for v in vecs:
        cols.update(v)
    order = sorted(cols)
    index = {c: k for k, c in enumerate(order)}
    m, n = len(order), len(vecs)
    rows = [[field.zero] * n for _ in range(m)]
    for j, v in enumerate(vecs):
        for c, val in v.items():
            rows[index[c]][j] = val
    rhs = [field.zero] * m
    for c, val in target.items():
        rhs[index[c]] = val
    rank = 0
    piv = []
    for j in range(n):
        hit = next((i for i in range(rank, m) if rows[i][j] != field.zero), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        rhs[rank], rhs[hit] = rhs[hit], rhs[rank]
        inv = field.inv(rows[rank][j])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        rhs[rank] = field.mul(inv, rhs[rank])
        for i in range(m):
            if i != rank and rows[i][j] != field.zero:
                c = rows[i][j]
                rows[i] = [
                    field.sub(a, field.mul(c, b)) for a, b in zip(rows[i], rows[rank])
                ]
                rhs[i] = field.sub(rhs[i], field.mul(c, rhs[rank]))
        piv.append(j)
        rank += 1
        if rank == m:
            break
    for i in range(rank, m):
        if rhs[i] != field.zero:
            return None
    sol = [field.zero] * n
    for i, j in enumerate(piv):
        sol[j] = rhs[i]
    return sol


def random_vector(field, keys, rng):
    out = {}
    for k in rng.sample(keys, rng.randint(1, len(keys))):
        out[k] = field.random_nonzero(rng)
    return out


def combine(field, coeffs, vecs):
    """sum coeffs[j] * vecs[j], zeros dropped."""
    out = {}
    for c, v in zip(coeffs, vecs):
        for k, x in v.items():
            out[k] = field.add(out.get(k, field.zero), field.mul(c, x))
    return {k: x for k, x in out.items() if x != 0}


def random_system(field, kind, rng):
    """(columns, target) of a full-rank, rank-deficient or inconsistent system.

    Keys are exponent-like tuples, as in the callers.  Over fp(2) a random
    system may land in another kind; the reference decides every case.
    """
    keys = [(i, rng.randrange(3)) for i in range(rng.randint(2, 6))]
    keys = sorted(set(keys))
    n = rng.randint(2 if kind == "rank-deficient" else 1, len(keys))
    columns = [random_vector(field, keys, rng) for _ in range(n)]
    if kind == "rank-deficient":
        a, b = rng.sample(range(n), 2)
        columns[b] = combine(field, [field.random_nonzero(rng)], [columns[a]])
        columns.append(combine(field, [field.random_nonzero(rng)] * 2, columns[:2]))
    x = [field.random(rng) for _ in columns]
    target = combine(field, x, columns)
    if kind == "inconsistent":
        # a key no column touches makes the system unsolvable
        target[(len(keys) + 1, 0)] = field.random_nonzero(rng)
    return columns, target


def rank(field, columns):
    """Rank of the columns, by plain elimination on them as rows."""
    pivots = 0
    rows = [dict(c) for c in columns]
    keys = sorted({k for c in columns for k in c})
    for k in keys:
        hit = next((r for r in rows if r.get(k, 0) != 0), None)
        if hit is None:
            continue
        rows.remove(hit)
        inv = field.inv(hit[k])
        for r in rows:
            c = field.mul(r.get(k, field.zero), inv)
            for key, v in hit.items():
                r[key] = field.sub(r.get(key, field.zero), field.mul(c, v))
        pivots += 1
    return pivots


@pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "inconsistent"])
def test_solve_matches_dense_reference(field, kind):
    rng = random.Random(f"{field!r}-{kind}")
    nones = full = 0
    for _ in range(60):
        columns, target = random_system(field, kind, rng)
        ref = dense_combination(field, columns, target)
        got = solve(field, columns, target)
        assert got == ref
        if got is None:
            nones += 1
        else:
            assert combine(field, got, columns) == target
        full += rank(field, columns) == len(columns)
    assert nones == (60 if kind == "inconsistent" else 0)
    if kind == "rank-deficient":
        assert full == 0
    else:
        assert full > 0


@pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])
def test_solve_random_targets(field):
    """Targets drawn independently of the columns: the reference decides."""
    rng = random.Random(repr(field))
    for _ in range(60):
        keys = sorted({(rng.randrange(4), rng.randrange(3)) for _ in range(5)})
        columns = [random_vector(field, keys, rng) for _ in range(rng.randint(1, 4))]
        target = random_vector(field, keys, rng)
        ref = dense_combination(field, columns, target)
        got = solve(field, columns, target)
        assert got == ref
        if got is not None:
            assert combine(field, got, columns) == target


def test_solve_sets_free_unknowns_to_zero():
    # columns 0 and 1 are equal, so unknown 1 is free and stays zero
    col = {(1, 0): QQ.of(2), (0, 1): QQ.of(1)}
    target = {(1, 0): QQ.of(4), (0, 1): QQ.of(2)}
    assert solve(QQ, [col, dict(col)], target) == [2, 0]
    assert solve(QQ, [], {}) == []
    assert solve(QQ, [], {(0, 0): QQ.one}) is None


def check_echelon(pivots, field):
    for p, row in pivots.items():
        assert row[p] == field.one, "pivot not monic"
        assert p == min(row), "pivot is not the row's least column"
        assert all(v != 0 for v in row.values())
        for q in pivots:
            if q != p:
                assert q not in row, "pivot column appears in another row"


@pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])
def test_rref_insert_keeps_reduced_echelon_form(field):
    rng = random.Random(repr(field))
    for _ in range(30):
        keys = list(range(rng.randint(2, 7)))
        rows = [random_vector(field, keys, rng) for _ in range(rng.randint(1, 8))]
        pivots = {}
        for row in rows:
            before = len(pivots)
            added = rref_insert(pivots, row, field)
            assert added == (len(pivots) == before + 1)
            check_echelon(pivots, field)
        # every inserted row now lies in the span: it reduces to zero
        for row in rows:
            snapshot = {p: dict(r) for p, r in pivots.items()}
            assert rref_insert(pivots, row, field) is False
            assert pivots == snapshot


def test_rref_insert_clears_later_pivot_columns():
    field = PrimeField(7)
    pivots = {}
    rref_insert(pivots, {5: 1}, field)
    rref_insert(pivots, {2: 1, 5: 1}, field)
    assert pivots == {5: {5: 1}, 2: {2: 1}}
