"""Monomials as bare exponent tuples, plus the global orders the kernel supports."""

from operator import mul


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


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


def _degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _block_key(block, rest):
    def key(m):
        hi = tuple(m[i] for i in block)
        lo = tuple(m[i] for i in rest)
        return (
            sum(hi),
            tuple(-e for e in reversed(hi)),
            sum(lo),
            tuple(-e for e in reversed(lo)),
        )

    return key


def _weight_key(block, rest, weights):
    if not block:
        def key(m):
            return (sum(map(mul, m, weights)), sum(m), tuple(-e for e in reversed(m)))

        return key

    def key(m):
        hi = tuple(m[i] for i in block)
        lo = tuple(m[i] for i in rest)
        # the block carries no weight, so the dot product is that of lo
        return (
            sum(hi),
            tuple(-e for e in reversed(hi)),
            sum(map(mul, m, weights)),
            sum(lo),
            tuple(-e for e in reversed(lo)),
        )

    return key


class MonomialOrder:
    """Global monomial order: degrevlex, a two-block elimination order, or a
    weight order.

    Keys are tuples that compare the same way the order does, so sorting and
    max() work directly; key is chosen once, when the order is made.  Block
    orders put the eliminated variables first and use degrevlex inside each
    block.  A weight order compares the dot product with nonnegative integer
    weights first and breaks ties by degrevlex; with an eliminated block (of
    weight zero) it compares that block first, by degrevlex, and then the
    other variables by the weight order.
    """

    __slots__ = ("kind", "n", "block", "weights", "key")

    def __init__(self, kind, n, block=(), weights=()):
        if kind not in ("degrevlex", "block", "weight"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.n = n
        self.block = tuple(sorted(block))
        self.weights = tuple(weights)
        if any(i < 0 or i >= n for i in self.block):
            raise ValueError("elimination block must be a subset of the variables")
        inblock = set(self.block)
        rest = tuple(i for i in range(n) if i not in inblock)
        if kind == "degrevlex":
            if self.block or self.weights:
                raise ValueError("degrevlex takes no block and no weights")
            self.key = _degrevlex_key
        elif kind == "block":
            if not self.block or self.weights:
                raise ValueError("elimination block must be a nonempty subset of the variables")
            self.key = _block_key(self.block, rest)
        else:
            if len(self.weights) != n or any(
                not isinstance(w, int) or w < 0 for w in self.weights
            ):
                raise ValueError("weights must be n nonnegative integers")
            if any(self.weights[i] for i in self.block):
                raise ValueError("eliminated variables carry no weight")
            self.key = _weight_key(self.block, rest, self.weights)

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
