"""Coefficient fields: prime fields with raw int arithmetic, and exact rationals.

Field objects are stateless descriptors; the scalars themselves are plain ints
(reduced to [0, p)) or fractions.Fraction, whichever the field dictates.  Hot
loops grab bound methods once and work on the raw values.
"""

from fractions import Fraction

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


class PrimeField:
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


class RationalField:
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


QQ = RationalField()
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
