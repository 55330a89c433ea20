"""Monomials as bare exponent tuples, plus the global orders the kernel supports."""


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


class MonomialOrder:
    """Global monomial order: degrevlex or a two-block elimination order.

    Keys are tuples that compare the same way the order does, so sorting and
    max() work directly.  Block orders put the eliminated variables first and
    use degrevlex inside each block.
    """

    __slots__ = ("kind", "n", "block", "_rest")

    def __init__(self, kind, n, block=()):
        if kind not in ("degrevlex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.n = n
        self.block = tuple(sorted(block))
        if kind == "block":
            if not self.block or any(i < 0 or i >= n for i in self.block):
                raise ValueError("elimination block must be a nonempty subset of the variables")
            inblock = set(self.block)
            self._rest = tuple(i for i in range(n) if i not in inblock)
        else:
            self._rest = ()

    @classmethod
    def degrevlex(cls, n):
        return cls("degrevlex", n)

    @classmethod
    def elimination(cls, n, block):
        return cls("block", n, block)

    def key(self, m):
        if self.kind == "degrevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        hi = tuple(m[i] for i in self.block)
        lo = tuple(m[i] for i in self._rest)
        return (
            sum(hi),
            tuple(-e for e in reversed(hi)),
            sum(lo),
            tuple(-e for e in reversed(lo)),
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.n == self.n
            and other.block == self.block
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.block))

    def __repr__(self):
        if self.kind == "block":
            return f"block(n={self.n}, elim={self.block})"
        return f"{self.kind}(n={self.n})"
