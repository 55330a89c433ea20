"""Session script tokenizer and parser."""

import pytest

from gradmult import QQ, PrimeField
from gradmult.script import ParseError, parse_script, tokenize

GOOD = """\
# demo session
ring S vars [x, y] field fp(32003) relations [];
elem f = x + y^2;
elem g = f - x;       # g = y^2
ideal I = [x^2, x*y, y^2];
ideal J = [f, y^3];
cmd degseq I;
cmd samuel f g mode=both window=(1, 8) seed=3;
"""


def test_tokenize_kinds_and_positions():
    toks = tokenize("ring S\n  vars [x]")
    assert [(t.kind, t.text) for t in toks] == [
        ("name", "ring"),
        ("name", "S"),
        ("name", "vars"),
        ("punct", "["),
        ("name", "x"),
        ("punct", "]"),
    ]
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[2].line, toks[2].col) == (2, 3)


def test_tokenize_comments_and_bad_chars():
    assert tokenize("# nothing\n") == []
    with pytest.raises(ParseError) as exc:
        tokenize("ring S?")
    assert (exc.value.details["line"], exc.value.details["col"]) == (1, 7)


def test_parse_full_script():
    script = parse_script(GOOD)
    assert script.ring_name == "S"
    assert script.var_names == ("x", "y")
    assert script.field == PrimeField(32003)
    assert script.relations == []
    assert set(script.elems) == {"f", "g"}
    assert set(script.ideals) == {"I", "J"}
    # g was defined through f, so it must already be y^2
    y2 = script.ring.var(1) ** 2
    assert script.elems["g"] == y2
    assert script.ideals["J"][1] == script.ring.var(1) ** 3
    assert len(script.commands) == 2
    samuel = script.commands[1]
    assert samuel.op == "samuel"
    assert samuel.args == ["f", "g"]
    assert samuel.options == {"mode": "both", "window": (1, 8), "seed": 3}
    assert samuel.line == 8


def test_command_text_echo():
    script = parse_script(GOOD)
    assert script.commands[0].text == "cmd degseq I"
    assert "window=(1, 8)" in script.commands[1].text


def test_parse_rational_field_and_fractions():
    script = parse_script(
        "ring R vars [t] field qq relations [];\nelem h = 1/2 * t;\ncmd order h;\n"
    )
    assert script.field == QQ
    from fractions import Fraction

    assert script.elems["h"].coeffs == {(1,): Fraction(1, 2)}


def test_parse_relations_and_quotient_declaration():
    script = parse_script(
        "ring A vars [X, Y] field qq relations [X*Y, X^2];\ncmd ring_info;\n"
    )
    assert len(script.relations) == 2
    assert script.relations[0] == script.ring.var(0) * script.ring.var(1)


def test_expression_precedence_and_unary_minus():
    script = parse_script(
        "ring R vars [x, y] field qq relations [];\n"
        "elem a = -x^2 + 2*y*(x - y);\n"
        "cmd order a;\n"
    )
    x = script.ring.var(0)
    y = script.ring.var(1)
    assert script.elems["a"] == -(x**2) + 2 * y * (x - y)


def test_field_override():
    script = parse_script(GOOD, field_override=QQ)
    assert script.field == QQ


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("", "empty script", 1),
        ("elem f = 1;", "must start with a ring declaration", 1),
        ("ring S vars [] field qq relations [];", "distinct and nonempty", 1),
        ("ring S vars [x, x] field qq relations [];", "distinct and nonempty", 1),
        ("ring S vars [x] field gf(4) relations [];", "unknown field", 1),
        ("ring S vars [x] field", "unexpected end of script", 1),
        ("ring S vars [x] field fp(7) relations [];\nelem f = 1/14;", "divisible by 7", 2),
        ("ring S vars [x] field qq relations [x + 1];", "non-homogeneous relation", 1),
        (
            "ring S vars [x] field qq relations [];\nring T vars [y] field qq relations [];",
            "only one ring declaration",
            2,
        ),
        ("ring S vars [x] field qq relations [];\nelem x = 1;", "already in use", 2),
        ("ring S vars [x] field qq relations [];\nelem f = w;", "unknown variable", 2),
        ("ring S vars [x] field qq relations [];\nideal I = [];", "at least one generator", 2),
        ("ring S vars [x] field qq relations [];\nelem f = 1/0;", "zero denominator", 2),
        ("ring S vars [x] field qq relations [];\ncmd degseq Q;", "unknown name", 2),
        ("ring S vars [x] field qq relations [];\ncmd samuel x", "unterminated command", 2),
        ("ring S vars [x] field qq relations [];\ncmd samuel mode=*;", "bad option value", 2),
        ("ring S vars [x] field qq relations [];\nfoo bar;", "unknown statement", 2),
        ("ring S vars [x] field qq relations [];\nelem f = ;", "unexpected token", 2),
    ],
)
def test_parse_errors_carry_positions(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_script(text)
    assert fragment in exc.value.message
    assert exc.value.details["line"] == line


def test_parse_error_column_points_at_token():
    with pytest.raises(ParseError) as exc:
        parse_script("ring S vars [x] field qq relations [];\nelem f = bad;")
    assert exc.value.details["line"] == 2
    assert exc.value.details["col"] == 10


def test_option_values_join_dashed_names_and_keep_signed_ints():
    script = parse_script(
        "ring S vars [x] field qq relations [];\n"
        "ideal P = [x];\n"
        "cmd transfer P kind=graded-mult;\n"
        "cmd samuel x seed=-3;\n"
    )
    assert script.commands[0].options == {"kind": "graded-mult"}
    assert script.commands[0].text == "cmd transfer P kind=graded-mult"
    assert script.commands[1].options == {"seed": -3}


HEAD = "ring S vars [x, y] field fp(32003) relations [];\n"


@pytest.mark.parametrize(
    "body",
    [
        "ideal J = [x^2147483648, y];",
        "ideal J = [x^2147483648*y + x, y^2];",
        "ideal J = [x^1073741824 * x^1073741824, y];",
        "elem f = x^1073741824;\nideal J = [y, f*f];",
    ],
)
def test_exponent_past_the_kernel_range_is_a_parse_error(body):
    with pytest.raises(ParseError) as exc:
        parse_script(HEAD + body)
    assert "exponent 2147483648 is too large" in exc.value.message


def test_largest_exponent_parses():
    script = parse_script(HEAD + "ideal J = [x^1073741823 * x^1073741824, y];")
    (lead, _), = script.ideals["J"][0].terms()
    assert lead == (2147483647, 0)
    # a product whose huge terms cancel leaves nothing to refuse
    script = parse_script(HEAD + "elem f = x^2147483648 - x^2147483648 + y;")
    assert script.elems["f"] == script.ring.var(1)
