"""Exact linear algebra over a coefficient field, on sparse vectors.

Vectors are dicts mapping a column key to a field scalar.  One routine keeps
a fully reduced row echelon form; solving a system inserts its augmented
rows.  The reduced echelon form of a row space is unique for a fixed column
order, so every result here is canonical.
"""


def rref_insert(pivots, row, field):
    """Insert a row (dict col->nonzero coeff) into a fully reduced echelon form in place.

    pivots maps each pivot column to its row; a row is monic at its pivot,
    which is its least column, and no pivot column appears in another row.
    Returns True if the row added a new pivot, False if it reduced to zero.
    """
    fsub, fmul = field.sub, field.mul
    r = dict(row)
    for p in [col for col in r if col in pivots]:
        c = r.pop(p)
        for col, pc in pivots[p].items():
            if col == p:
                continue
            v = fsub(r.get(col, 0), fmul(c, pc))
            if v == 0:
                r.pop(col, None)
            else:
                r[col] = v
    if not r:
        return False
    p = min(r)
    inv = field.inv(r[p])
    r = {col: fmul(v, inv) for col, v in r.items()}
    for prow in pivots.values():
        if p in prow:
            c = prow.pop(p)
            for col, v in r.items():
                if col == p:
                    continue
                w = fsub(prow.get(col, 0), fmul(c, v))
                if w == 0:
                    prow.pop(col, None)
                else:
                    prow[col] = w
    pivots[p] = r
    return True


def solve(field, columns, target):
    """Coefficients s with sum_j s[j] * columns[j] == target, or None.

    columns and target are vectors (dicts key -> scalar, zeros allowed) over
    the same keys.  s is the basic solution: the augmented system is reduced
    with the unknowns in index order and target last, and every free unknown
    is zero.  None means target lies outside the span of the columns.
    """
    n = len(columns)
    rows = {}
    for j, col in enumerate([*columns, target]):
        for key, v in col.items():
            if v != 0:
                rows.setdefault(key, {})[j] = v
    pivots = {}
    for row in rows.values():
        rref_insert(pivots, row, field)
    if n in pivots:
        return None
    sol = [field.zero] * n
    for p, prow in pivots.items():
        sol[p] = prow.get(n, field.zero)
    return sol
