"""Coefficient fields: prime fields with raw int arithmetic, and exact
rationals; and ZZ, the integers, on which the Buchberger core runs over qq.

Field objects are stateless descriptors; the scalars themselves are plain ints
(reduced to [0, p)) or fractions.Fraction, whichever the field dictates.  Hot
loops grab bound methods once and work on the raw values.

The Groebner kernel reads three steps off a domain: pair, the multipliers of
an S-pair; cancel, those of one reduction step; and normalise, the form a
finished basis element is kept in.  Over a field the reduced polynomial's
multiplier is 1 and elements are kept monic.  Over ZZ both sides are
multiplied (pseudo-division) and elements are kept primitive with a positive
lead.  associate gives the coefficients Polynomial.key is built from: over
qq the primitive integer form, so rational multiples share one key.
"""

import operator
from fractions import Fraction
from math import gcd, lcm

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    # deterministic Miller-Rabin, exact for anything below 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Field:
    """The steps the Groebner kernel reads off a field (see the module
    docstring): the reduced polynomial's multiplier is 1, and basis
    elements are kept monic."""

    __slots__ = ()

    def pair(self, a, b):
        """(x, y) with x a = y b: 1/a and 1/b."""
        return (a if a == 1 else self.inv(a)), (b if b == 1 else self.inv(b))

    def cancel(self, a, c):
        """(m, q) with m c = q a, for f <- m f - q u r: 1 and c/a."""
        return 1, c if a == 1 else self.div(c, a)

    def normalise(self, poly):
        return poly.monic()


class PrimeField(_Field):
    """F_p with scalars stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p

    zero = 0
    one = 1

    def of(self, v):
        """Coerce an int or Fraction into the field."""
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return v.numerator % self.p * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {type(v).__name__} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def submul(self, a, b, c):
        """a - b * c."""
        return (a - b * c) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def associate(self, values):
        """values over the last of them."""
        if values[-1] == 1:
            return values
        inv, p = pow(values[-1], -1, self.p), self.p
        return [v * inv % p for v in values]

    def random(self, rng):
        return rng.randrange(self.p)

    def random_nonzero(self, rng):
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"fp({self.p})"

    def format(self, a):
        return str(a)


class RationalField(_Field):
    """Q with Fraction scalars."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v):
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise TypeError(f"cannot coerce {type(v).__name__} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def submul(self, a, b, c):
        """a - b * c."""
        return a - b * c

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def associate(self, values):
        """The primitive integer form of values: denominators cleared,
        content divided out, the last one positive."""
        ratios = [v.as_integer_ratio() for v in values]
        den = lcm(*[d for _, d in ratios])
        return ZZ.associate([n * (den // d) for n, d in ratios])

    def random(self, rng):
        # small numerators keep Groebner runs readable in randomized tests
        return Fraction(rng.randrange(-9, 10))

    def random_nonzero(self, rng):
        v = rng.randrange(1, 10)
        return Fraction(v if rng.randrange(2) else -v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("qq")

    def __repr__(self):
        return "qq"

    def format(self, a):
        return str(a)


class IntegerDomain:
    """ZZ, the domain of the primitive integer forms the Buchberger core
    reduces over qq: pair, cancel and normalise form no fraction
    (Monagan–Pearce, Sparse polynomial pseudo division using a heap, JSC 46,
    2011).  One instance, ZZ."""

    __slots__ = ()

    sub, mul, neg = operator.sub, operator.mul, operator.neg

    def submul(self, a, b, c):
        """a - b * c."""
        return a - b * c

    def pair(self, a, b):
        """(x, y) with x a = y b: b/g and a/g, g = gcd(a, b)."""
        g = gcd(a, b)
        return b // g, a // g

    def cancel(self, a, c):
        """(m, q) with m c = q a, for f <- m f - q u r: a/g and c/g, g = gcd(a, c)."""
        g = gcd(a, c)
        return a // g, c // g

    def associate(self, values):
        """values over their content, the last one made positive."""
        g = gcd(*values)
        if values[-1] < 0:
            g = -g
        return values if g == 1 else [v // g for v in values]

    def normalise(self, poly):
        """The primitive part of poly, lead positive; its packed view kept."""
        lk, lp, lc, tail = poly.packed()
        values = self.associate([c for _, _, c in tail] + [lc])
        if values[-1] == lc:
            return poly
        return poly.from_packed(poly.ring, [(lk, lp, values[-1])] + [
            (k, p, v) for (k, p, _), v in zip(tail, values)
        ])

    def __repr__(self):
        return "zz"


QQ = RationalField()
ZZ = IntegerDomain()
FP_DEFAULT = PrimeField(32003)


def field_from_text(text):
    """Parse a field descriptor: 'qq' or 'fp:P' / 'fp(P)'."""
    t = text.strip().lower()
    if t == "qq":
        return QQ
    for pre, post in (("fp:", ""), ("fp(", ")")):
        if t.startswith(pre) and t.endswith(post) and len(t) > len(pre) + len(post):
            body = t[len(pre):len(t) - len(post)] if post else t[len(pre):]
            if body.isdigit():
                return PrimeField(int(body))
    raise ValueError(f"unrecognized field descriptor {text!r}")
