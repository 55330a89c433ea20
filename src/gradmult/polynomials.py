"""Multivariate polynomials over an exact field, stored sparsely.

A Polynomial owns a dict mapping exponent tuples to nonzero field scalars.
Term order only matters at the surface (leading data, display), so arithmetic
is plain dict merging; ordered views are produced on demand.  The Groebner
kernel reads a polynomial through its packed view (Polynomial.packed),
cached on first use, set directly on the S-polynomials and remainders it
builds, and kept by scale and monic.  Polynomials are never changed once
built, so each also caches its key (Polynomial.key), which names it up to a
nonzero scalar, and the hash of that key.
"""

import itertools

from .monomials import MonomialOrder, mono_mul
from .scalars import FP_DEFAULT


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
        return (
            self.names, repr(self.field), self.order.kind, self.order.block, self.order.weights
        )

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing) and other.key() == self.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; {self.field!r}; {self.order!r})"


class Polynomial:
    __slots__ = ("ring", "coeffs", "_lead", "_packed", "_key", "_hash")

    def __init__(self, ring, coeffs):
        # takes ownership of coeffs, which is never changed after;
        # zero values must already be gone
        self.ring = ring
        self.coeffs = coeffs
        self._lead = None
        self._packed = None
        self._key = None
        self._hash = None

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

    def packed(self):
        """(lead rev key, lead packed, lead coefficient, tail) of a nonzero
        polynomial, tail a tuple of (rev key, packed, coefficient) of the
        other terms: monomials as the ring order's rev_key and as its
        packing's ints.  Built once and cached, with the leading monomial;
        raises ArithmeticError when an exponent reaches the packing guard
        bit."""
        if self._packed is None:
            order = self.ring.order
            rev_key, pack = order.rev_key, order.packing.pack
            coeffs = self.coeffs
            keyed = sorted([(rev_key(e), e) for e in coeffs])
            terms = [(k, pack(e), coeffs[e]) for k, e in keyed]
            self._lead = keyed[0][1]
            self._packed = terms[0] + (tuple(terms[1:]),)
        return self._packed

    @staticmethod
    def from_packed(ring, terms):
        """The polynomial of nonzero (rev key, packed, coefficient) terms in
        strictly decreasing order (increasing rev key), with that packed view
        set; each exponent tuple is unpacked once."""
        if not terms:
            return Polynomial(ring, {})
        unpack = ring.order.packing.unpack
        exps = [unpack(p) for _, p, _ in terms]
        poly = Polynomial(ring, {e: c for e, (_, _, c) in zip(exps, terms)})
        poly._lead = exps[0]
        poly._packed = terms[0] + (tuple(terms[1:]),)
        return poly

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
        """c times self; a packed view already built is scaled with it, one
        product per term, and the exponents are read back off it."""
        c = self.ring.field.of(c)
        if c == 0:
            return self.ring.zero()
        fmul = self.ring.field.mul
        if self._packed is not None:
            lk, lp, lc, tail = self._packed
            out = Polynomial.from_packed(
                self.ring, [(lk, lp, fmul(lc, c))] + [(k, p, fmul(v, c)) for k, p, v in tail]
            )
        else:
            out = Polynomial(self.ring, {e: fmul(v, c) for e, v in self.coeffs.items()})
            out._lead = self._lead
        out._key, out._hash = self._key, self._hash
        return out

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

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int) and other == 0:
                return not self.coeffs
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def key(self):
        """self up to a nonzero scalar: one flat (exp, c, exp, c, ...) tuple
        of ints in increasing exponent, the c scaled by field.associate so
        that the last one is 1 over fp(p), or made the primitive integer form
        with the last one positive over qq.  Cached; buchberger's memo keys
        on it, and __hash__ hashes it."""
        if self._key is None:
            coeffs = self.coeffs
            exps = sorted(coeffs)
            values = self.ring.field.associate([coeffs[e] for e in exps]) if exps else ()
            self._key = tuple(itertools.chain.from_iterable(zip(exps, values)))
        return self._key

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
