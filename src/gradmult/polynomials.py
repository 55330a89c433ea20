"""Multivariate polynomials over an exact field, stored sparsely.

A Polynomial owns a dict mapping exponent tuples to nonzero field scalars.
Term order only matters at the surface (leading data, display), so arithmetic
is plain dict merging; ordered views are produced on demand.
"""

from .monomials import MonomialOrder, mono_degree, mono_mul
from .scalars import FP_DEFAULT, PrimeField, QQ


class PolyRing:
    """k[x_1..x_n] with a fixed coefficient field and monomial order."""

    __slots__ = ("names", "field", "order")

    def __init__(self, names, field=None, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if not names:
            raise ValueError("need at least one variable")
        self.names = names
        self.field = field if field is not None else FP_DEFAULT
        self.order = order if order is not None else MonomialOrder.degrevlex(len(names))
        if self.order.n != len(names):
            raise ValueError("order arity does not match variable count")

    @property
    def n(self):
        return len(self.names)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.n: self.field.one})

    def constant(self, c):
        c = self.field.of(c)
        return Polynomial(self, {} if c == 0 else {(0,) * self.n: c})

    def var(self, i):
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return tuple(self.var(i) for i in range(self.n))

    def monomial(self, exps, c=1):
        exps = tuple(exps)
        if len(exps) != self.n or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        c = self.field.of(c)
        return Polynomial(self, {} if c == 0 else {exps: c})

    def from_dict(self, d):
        clean = {}
        for exps, c in d.items():
            c = self.field.of(c)
            if c != 0:
                clean[tuple(exps)] = c
        return Polynomial(self, clean)

    def with_order(self, order):
        return PolyRing(self.names, self.field, order)

    def extended(self, extra_names, order=None):
        """Same field, extra variables appended."""
        return PolyRing(self.names + tuple(extra_names), self.field, order)

    def key(self):
        return (self.names, repr(self.field), self.order.kind, self.order.block)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; {self.field!r}; {self.order!r})"


class Polynomial:
    __slots__ = ("ring", "coeffs", "_lead")

    def __init__(self, ring, coeffs):
        # takes ownership of coeffs; zero values must already be gone
        self.ring = ring
        self.coeffs = coeffs
        self._lead = None

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.coeffs}
        return len(degs) <= 1

    def homogeneous_components(self):
        """dict degree -> homogeneous part; empty for 0."""
        parts = {}
        for e, c in self.coeffs.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: Polynomial(self.ring, p) for d, p in sorted(parts.items())}

    def terms(self):
        """(exponent tuple, coefficient) pairs, strictly decreasing in the ring order."""
        key = self.ring.order.key
        return tuple((e, self.coeffs[e]) for e in sorted(self.coeffs, key=key, reverse=True))

    def leading_monomial(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        if self._lead is None:
            self._lead = max(self.coeffs, key=self.ring.order.key)
        return self._lead

    def leading_coeff(self):
        return self.coeffs[self.leading_monomial()]

    def monic(self):
        if not self.coeffs:
            raise ValueError("cannot scale zero to monic")
        lc = self.leading_coeff()
        if lc == self.ring.field.one:
            return self
        inv = self.ring.field.inv(lc)
        return self.scale(inv)

    def is_term(self):
        return len(self.coeffs) == 1

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed-ring arithmetic")
            return other
        return self.ring.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        fadd = self.ring.field.add
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = fadd(out[e], c) if e in out else c
            if v == 0:
                del out[e]
            else:
                out[e] = v
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        fneg = self.ring.field.neg
        return Polynomial(self.ring, {e: fneg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        fsub, fneg = self.ring.field.sub, self.ring.field.neg
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = fsub(out[e], c) if e in out else fneg(c)
            if v == 0:
                del out[e]
            else:
                out[e] = v
        return Polynomial(self.ring, out)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def scale(self, c):
        c = self.ring.field.of(c)
        if c == 0:
            return self.ring.zero()
        fmul = self.ring.field.mul
        return Polynomial(self.ring, {e: fmul(v, c) for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if other.ring != self.ring:
            raise ValueError("mixed-ring arithmetic")
        fadd, fmul = self.ring.field.add, self.ring.field.mul
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = fmul(ca, cb)
                if e in out:
                    v = fadd(out[e], v)
                    if v == 0:
                        del out[e]
                        continue
                out[e] = v
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def mul_term(self, exps, c):
        """Multiply by the single term c * x^exps."""
        c = self.ring.field.of(c)
        if c == 0 or not self.coeffs:
            return self.ring.zero()
        fmul = self.ring.field.mul
        return Polynomial(
            self.ring,
            {mono_mul(e, exps): fmul(v, c) for e, v in self.coeffs.items()},
        )

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def substitute(self, assign):
        """Evaluate with variable i replaced by assign[i] (a same-ring Polynomial)."""
        ring = self.ring
        images = {}
        for i, img in assign.items():
            if not isinstance(img, Polynomial) or img.ring != ring:
                raise ValueError("substitution images must live in the same ring")
            images[i] = img
        out = ring.zero()
        for e, c in self.coeffs.items():
            term = ring.constant(c)
            for i, exp in enumerate(e):
                if exp == 0:
                    continue
                base = images.get(i)
                term = term * (base ** exp if base is not None else ring.monomial(
                    tuple(exp if j == i else 0 for j in range(ring.n))))
            out = out + term
        return out

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int) and other == 0:
                return not self.coeffs
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def sort_key(self):
        """Deterministic total key: compare by ordered term list."""
        return self.terms()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = self.ring.names
        fmt = self.ring.field.format
        parts = []
        for e, c in self.terms():
            factors = []
            for name, exp in zip(names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            cs = fmt(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            parts.append((neg, body))
        first_neg, first_body = parts[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in parts[1:]:
            text += (" - " if neg else " + ") + body
        return text


def map_vars(poly, new_ring, positions):
    """Transport poly into new_ring; positions[i] is the new index of old variable i."""
    if len(positions) != poly.ring.n:
        raise ValueError("positions must cover every source variable")
    out = {}
    for e, c in poly.coeffs.items():
        ne = [0] * new_ring.n
        for i, exp in enumerate(e):
            if exp:
                ne[positions[i]] = exp
        out[tuple(ne)] = new_ring.field.of(c)
    return new_ring.from_dict(out)


def poly_ring(names, field=None, order=None):
    """Convenience constructor; names may be a comma/space separated string."""
    if isinstance(names, str):
        names = [s for s in names.replace(",", " ").split() if s]
    return PolyRing(names, field, order)
