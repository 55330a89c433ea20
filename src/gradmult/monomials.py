"""Monomials as bare exponent tuples, plus the global orders the kernel supports.

Each order is one table of integer rows (_order_rows), folded into one int
per monomial: MonomialOrder.key, and its negation rev_key.  Normal forms
reduce on packed monomials: an exponent vector packed into one int
(Packing) and its rev_key, both linear in the exponents, so a product of
monomials is one int add, and divisibility, lcm and coprimality are a few
int operations on the packed ints.
"""

import functools
import struct
from operator import mul

FIELD_BITS = 32
# the top bit of each packed field is a guard: exponents stay below it
EXP_LIMIT = 1 << (FIELD_BITS - 1)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def minimal_monomials(monos):
    """Minimal generators of the monomial ideal spanned by monos, smallest degree first."""
    out = []
    for m in sorted(set(monos), key=lambda e: (sum(e), e)):
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return out


def monomials_of_degree(n, d):
    """All exponent tuples in n variables of total degree exactly d."""
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in monomials_of_degree(n - 1, d - e):
            out.append((e,) + rest)
    return out


def monomials_up_to(n, cap):
    """All exponent tuples in n variables of total degree <= cap."""
    out = []
    for d in range(cap + 1):
        out.extend(monomials_of_degree(n, d))
    return out


class Packing:
    """Exponent vectors of n variables packed into one int, variable i in
    bits FIELD_BITS * i up to FIELD_BITS * (i + 1).

    With every exponent below EXP_LIMIT, a product is the sum of the packed
    ints, and a divides b exactly when (b - a) & mask is 0: a field of b
    below that of a borrows, which sets its guard bit.  A product whose sum
    has a guard bit set has left the packable range.  The helpers below take
    packable ints, every field below EXP_LIMIT.
    """

    __slots__ = ("mask", "_low", "_struct", "_width")

    def __init__(self, n):
        self.mask = sum(EXP_LIMIT << (FIELD_BITS * i) for i in range(n))
        self._low = self.mask >> (FIELD_BITS - 1)  # a 1 in every field
        self._struct = struct.Struct(f"<{n}I")
        self._width = FIELD_BITS // 8 * n

    def pack(self, e):
        if max(e) >= EXP_LIMIT:
            raise ArithmeticError(f"exponent {max(e)} reaches the packing guard bit")
        return int.from_bytes(self._struct.pack(*e), "little")

    def unpack(self, p):
        return self._struct.unpack(p.to_bytes(self._width, "little"))

    def divides(self, a, b):
        return not (b - a) & self.mask

    def lcm(self, a, b):
        """The field-wise max.  (a | mask) - b borrows in no field, and keeps
        a field's guard bit exactly when a's field is at least b's; each kept
        guard bit, less its shift to the field's bit 0, selects a's field."""
        keep = ((a | self.mask) - b) & self.mask
        return b ^ ((a ^ b) & (keep - (keep >> (FIELD_BITS - 1))))

    def coprime(self, a, b):
        """No variable in both: the guard bits of the nonzero fields,
        ((x | mask) - 1 in every field) & mask, are disjoint."""
        mask, low = self.mask, self._low
        return not ((a | mask) - low) & ((b | mask) - low) & mask

    def degree(self, p):
        return sum(self.unpack(p))

    def minimal(self, monos):
        """The minimal elements of monos under divisibility, ascending as
        ints: a divisor is the smaller int, b - a carrying no borrow."""
        mask = self.mask
        out = []
        for m in sorted(set(monos)):
            if all((m - k) & mask for k in out):
                out.append(m)
        return out


@functools.lru_cache(maxsize=None)
def packing(n):
    """The one Packing of n variables."""
    return Packing(n)


def _order_rows(kind, n, block, weights):
    """Integer rows whose dot products with m, compared in turn, compare
    monomials as the order does: a block compares its degree, then its
    exponents in reverse, negated (degrevlex); a weight row comes first
    without a block, after the block with one."""

    def degree(idx):
        return [tuple(int(i in idx) for i in range(n))]

    def revlex(idx):
        return [tuple(-int(i == j) for i in range(n)) for j in reversed(idx)]

    everything = tuple(range(n))
    rest = tuple(i for i in everything if i not in block)
    if kind == "degrevlex":
        return degree(everything) + revlex(everything)
    if kind == "block":
        return degree(block) + revlex(block) + degree(rest) + revlex(rest)
    if not block:
        return [weights] + degree(everything) + revlex(everything)
    return degree(block) + revlex(block) + [weights] + degree(rest) + revlex(rest)


@functools.lru_cache(maxsize=None)
def _rev_weights(kind, n, block, weights):
    """c with sum(c_i m_i) < sum(c_i m'_i) exactly when m > m' in the order,
    for exponents below EXP_LIMIT.

    The key's rows become digits of one int in base 2^bits, the first row
    most significant.  Each row's value is below half the base in absolute
    value, so comparing the ints compares the digit tuples.
    """
    rows = _order_rows(kind, n, block, weights)
    bound = max(sum(abs(v) for v in row) for row in rows) * (EXP_LIMIT - 1)
    bits = bound.bit_length() + 1
    r = len(rows)
    return tuple(
        -sum(row[i] << (bits * (r - 1 - k)) for k, row in enumerate(rows))
        for i in range(n)
    )


class MonomialOrder:
    """Global monomial order: degrevlex, a two-block elimination order, or a
    weight order.

    key(m) is one int that compares the same way the order does, so sorting
    and max() work directly; like Packing.pack it raises ArithmeticError at
    an exponent of EXP_LIMIT or more, where it would no longer be exact.
    Block orders put the eliminated variables first and use degrevlex inside
    each block.  A weight order compares the dot product with nonnegative
    integer weights first and breaks ties by degrevlex; with an eliminated
    block (of weight zero) it compares that block first, by degrevlex, and
    then the other variables by the weight order.

    rev_key(m) = -key(m), smaller for larger monomials and linear in m, so
    rev_key(a * b) = rev_key(a) + rev_key(b); it is unchecked, for callers
    that pack m too (the order's Packing, packing).
    """

    __slots__ = ("kind", "n", "block", "weights", "packing", "_rev")

    def __init__(self, kind, n, block=(), weights=()):
        if kind not in ("degrevlex", "block", "weight"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.n = n
        self.block = tuple(sorted(block))
        self.weights = tuple(weights)
        if any(i < 0 or i >= n for i in self.block):
            raise ValueError("elimination block must be a subset of the variables")
        if kind == "degrevlex":
            if self.block or self.weights:
                raise ValueError("degrevlex takes no block and no weights")
        elif kind == "block":
            if not self.block or self.weights:
                raise ValueError("elimination block must be a nonempty subset of the variables")
        else:
            if len(self.weights) != n or any(
                not isinstance(w, int) or w < 0 for w in self.weights
            ):
                raise ValueError("weights must be n nonnegative integers")
            if any(self.weights[i] for i in self.block):
                raise ValueError("eliminated variables carry no weight")
        self.packing = packing(n)
        self._rev = _rev_weights(kind, n, self.block, self.weights)

    def key(self, m):
        if max(m) >= EXP_LIMIT:
            raise ArithmeticError(f"exponent {max(m)} is past the order key's range")
        return -sum(map(mul, m, self._rev))

    def rev_key(self, m):
        return sum(map(mul, m, self._rev))

    @classmethod
    def degrevlex(cls, n):
        return cls("degrevlex", n)

    @classmethod
    def elimination(cls, n, block):
        return cls("block", n, block)

    @classmethod
    def weighted(cls, n, weights, block=()):
        return cls("weight", n, block, weights)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.n == self.n
            and other.block == self.block
            and other.weights == self.weights
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.block, self.weights))

    def __repr__(self):
        if self.kind == "block":
            return f"block(n={self.n}, elim={self.block})"
        if self.kind == "weight":
            return f"weight(n={self.n}, w={self.weights}, elim={self.block})"
        return f"{self.kind}(n={self.n})"
