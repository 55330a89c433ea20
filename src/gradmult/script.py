"""Session script parsing: one ring declaration, named elements and ideals,
then a list of commands with options.

Grammar (statements end with ';', '#' comments run to end of line):

    ring S vars [x,y] field fp(32003) relations [];
    elem f = x + y^2;
    ideal I = [x^2, x*y, y^2];
    cmd samuel f mode=both window=(1,8);

Polynomial expressions use integer or a/b coefficients, +, -, *, ^ and
parentheses; identifiers resolve to ring variables first, then to earlier
elem declarations.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import KernelError
from .monomials import EXP_LIMIT
from .polynomials import PolyRing
from .scalars import field_from_text


class ParseError(KernelError):
    code = "PARSE-ERROR"

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})", line=line, col=col)


class Token(namedtuple("Token", "kind text line col")):
    """kind is one of name, int and punct."""

    __slots__ = ()


_PUNCT = set("[](){}=,;+-*^/")


def tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return toks


class _Cursor:
    def __init__(self, toks, end_line):
        self.toks = toks
        self.pos = 0
        self.end_line = end_line

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of script", self.end_line, 1)
        self.pos += 1
        return t

    def expect(self, kind, text=None):
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {t.text!r}", t.line, t.col)
        return t

    def at_punct(self, text):
        t = self.peek()
        return t is not None and t.kind == "punct" and t.text == text


def _parse_scalar(cur):
    t = cur.expect("int")
    num = int(t.text)
    if cur.at_punct("/"):
        cur.next()
        t2 = cur.expect("int")
        den = int(t2.text)
        if den == 0:
            raise ParseError("zero denominator", t2.line, t2.col)
        return Fraction(num, den)
    return num


def parse_poly(cur, ring, env):
    """expr := term (('+'|'-') term)*; env maps names to ring polynomials.

    A result with an exponent of EXP_LIMIT or more, after ^ and * are
    applied, is refused: the kernel's monomial orders and packing hold none.
    """

    def atom():
        t = cur.peek()
        if t is None:
            raise ParseError("unexpected end of expression", cur.end_line, 1)
        if t.kind == "int":
            value = _parse_scalar(cur)
            try:
                return ring.constant(ring.field.of(value))
            except ZeroDivisionError as exc:
                raise ParseError(str(exc), t.line, t.col)
        if t.kind == "name":
            cur.next()
            if t.text in ring.names:
                return ring.var(ring.names.index(t.text))
            if t.text in env:
                return env[t.text]
            raise ParseError(f"unknown variable {t.text!r}", t.line, t.col)
        if t.kind == "punct" and t.text == "(":
            cur.next()
            inner = expr()
            cur.expect("punct", ")")
            return inner
        raise ParseError(f"unexpected token {t.text!r} in expression", t.line, t.col)

    def factor():
        if cur.at_punct("-"):
            cur.next()
            return ring.zero() - factor()
        base = atom()
        if cur.at_punct("^"):
            cur.next()
            t = cur.expect("int")
            return base ** int(t.text)
        return base

    def term():
        out = factor()
        while cur.at_punct("*"):
            cur.next()
            out = out * factor()
        return out

    def expr():
        out = term()
        while cur.at_punct("+") or cur.at_punct("-"):
            op = cur.next().text
            rhs = term()
            out = out + rhs if op == "+" else out - rhs
        return out

    start = cur.peek()
    poly = expr()
    top = max((max(e) for e in poly.coeffs), default=0)
    if top >= EXP_LIMIT:
        raise ParseError(
            f"exponent {top} is too large (at most {EXP_LIMIT - 1})", start.line, start.col
        )
    return poly


class Command(namedtuple("Command", "op args options line text")):
    __slots__ = ()


class SessionScript(namedtuple(
    "SessionScript", "ring_name var_names field relations elems ideals commands ring"
)):
    __slots__ = ()


def _parse_name_list(cur):
    cur.expect("punct", "[")
    names = []
    if not cur.at_punct("]"):
        while True:
            names.append(cur.expect("name").text)
            if cur.at_punct(","):
                cur.next()
                continue
            break
    cur.expect("punct", "]")
    return names


def _parse_poly_list(cur, ring, env):
    cur.expect("punct", "[")
    polys = []
    if not cur.at_punct("]"):
        while True:
            polys.append(parse_poly(cur, ring, env))
            if cur.at_punct(","):
                cur.next()
                continue
            break
    cur.expect("punct", "]")
    return polys


def _parse_option_value(cur):
    """Option values: name (its pieces may be joined by '-', as in
    graded-mult), signed int, or an (a,b) integer pair."""
    t = cur.peek()
    if t is None:
        raise ParseError("missing option value", cur.end_line, 1)
    if t.kind == "name":
        cur.next()
        text = t.text
        # no command argument starts with '-', so a '-' here continues the name
        while cur.at_punct("-"):
            cur.next()
            text += "-" + cur.expect("name").text
        return text
    if t.kind == "int":
        cur.next()
        return int(t.text)
    if t.kind == "punct" and t.text == "-":
        cur.next()
        t2 = cur.expect("int")
        return -int(t2.text)
    if t.kind == "punct" and t.text == "(":
        cur.next()
        vals = [int(cur.expect("int").text)]
        while cur.at_punct(","):
            cur.next()
            vals.append(int(cur.expect("int").text))
        cur.expect("punct", ")")
        return tuple(vals)
    raise ParseError(f"bad option value {t.text!r}", t.line, t.col)


def _statement_text(cmd_tokens):
    out = []
    prev = None
    for t in cmd_tokens:
        if prev is not None and (t.kind in ("name", "int")) and prev.kind in ("name", "int"):
            out.append(" ")
        out.append(t.text)
        if t.kind == "punct" and t.text == ",":
            out.append(" ")
        prev = t
    return "".join(out)


def parse_script(text, field_override=None):
    toks = tokenize(text)
    end_line = text.count("\n") + 1
    cur = _Cursor(toks, end_line)

    first = cur.peek()
    if first is None:
        raise ParseError("empty script", 1, 1)
    if not (first.kind == "name" and first.text == "ring"):
        raise ParseError("script must start with a ring declaration", first.line, first.col)
    cur.next()
    ring_name = cur.expect("name").text
    cur.expect("name", "vars")
    var_names = _parse_name_list(cur)
    if len(set(var_names)) != len(var_names) or not var_names:
        raise ParseError("ring variables must be distinct and nonempty", first.line, first.col)
    cur.expect("name", "field")
    ft = cur.next()
    if ft.kind != "name":
        raise ParseError("expected a field descriptor", ft.line, ft.col)
    if ft.text == "qq":
        field_text = "qq"
    elif ft.text == "fp":
        cur.expect("punct", "(")
        p = cur.expect("int")
        cur.expect("punct", ")")
        field_text = f"fp({p.text})"
    else:
        raise ParseError(f"unknown field {ft.text!r}", ft.line, ft.col)
    try:
        field_obj = field_override or field_from_text(field_text)
    except ValueError as exc:
        raise ParseError(str(exc), ft.line, ft.col)
    ring = PolyRing(tuple(var_names), field_obj)
    cur.expect("name", "relations")
    relations = _parse_poly_list(cur, ring, {})
    cur.expect("punct", ";")
    rel_tok = first
    for rel in relations:
        if not rel.is_homogeneous():
            raise ParseError(
                f"non-homogeneous relation {rel!r} in ring declaration",
                rel_tok.line,
                rel_tok.col,
            )

    elems = {}
    ideals = {}
    commands = []
    env = {}
    taken = set(var_names) | {ring_name}

    while cur.peek() is not None:
        head = cur.expect("name")
        if head.text == "ring":
            raise ParseError("only one ring declaration allowed", head.line, head.col)
        if head.text == "elem":
            nm = cur.expect("name")
            if nm.text in taken:
                raise ParseError(f"name {nm.text!r} already in use", nm.line, nm.col)
            cur.expect("punct", "=")
            poly = parse_poly(cur, ring, env)
            cur.expect("punct", ";")
            elems[nm.text] = poly
            env[nm.text] = poly
            taken.add(nm.text)
            continue
        if head.text == "ideal":
            nm = cur.expect("name")
            if nm.text in taken:
                raise ParseError(f"name {nm.text!r} already in use", nm.line, nm.col)
            cur.expect("punct", "=")
            polys = _parse_poly_list(cur, ring, env)
            if not polys:
                raise ParseError("ideal needs at least one generator", nm.line, nm.col)
            cur.expect("punct", ";")
            ideals[nm.text] = polys
            taken.add(nm.text)
            continue
        if head.text == "cmd":
            start = cur.pos - 1
            op = cur.expect("name").text
            args = []
            options = {}
            while not cur.at_punct(";"):
                t = cur.peek()
                if t is None:
                    raise ParseError("unterminated command", head.line, head.col)
                if t.kind == "name":
                    nxt = cur.toks[cur.pos + 1] if cur.pos + 1 < len(cur.toks) else None
                    if nxt is not None and nxt.kind == "punct" and nxt.text == "=":
                        cur.next()
                        cur.next()
                        options[t.text] = _parse_option_value(cur)
                        continue
                    cur.next()
                    known = t.text in env or t.text in ideals or t.text in ring.names
                    if not known:
                        raise ParseError(f"unknown name {t.text!r}", t.line, t.col)
                    args.append(t.text)
                    continue
                raise ParseError(f"unexpected token {t.text!r} in command", t.line, t.col)
            cur.expect("punct", ";")
            commands.append(
                Command(op, args, options, head.line, _statement_text(cur.toks[start:cur.pos - 1]))
            )
            continue
        raise ParseError(f"unknown statement {head.text!r}", head.line, head.col)

    return SessionScript(
        ring_name, tuple(var_names), field_obj, relations, elems, ideals, commands, ring
    )
