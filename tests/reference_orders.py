"""The tuple order keys that `MonomialOrder.key` replaced, kept as the
reference: each order spelled as a tuple of degrees and reversed, negated
exponents, which Python compares entry by entry."""

from operator import mul


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


def reference_key(order):
    """The tuple key of a MonomialOrder: larger tuples for larger monomials."""
    rest = tuple(i for i in range(order.n) if i not in order.block)
    if order.kind == "degrevlex":
        return _degrevlex_key
    if order.kind == "block":
        return _block_key(order.block, rest)
    return _weight_key(order.block, rest, order.weights)
