"""Seeded mutations of the shipped fixtures: the parser returns a script or
raises a KernelError, never any other exception."""

import random
from pathlib import Path

import gradmult
from gradmult.errors import KernelError
from gradmult.script import parse_script

FIXTURES = sorted((Path(gradmult.__file__).parent / "suite").glob("*.gm"))
# pieces a mutation inserts or writes over a character with: every
# punctuation mark, keywords, field names, variables, short integers and
# layout.  Integers stay short so that a mutated exponent stays small.
PIECES = list("[](){}=,;+-*^/#_") + [
    "ring", "vars", "field", "relations", "elem", "ideal", "cmd", "qq", "fp",
    "x", "y", "z", "X", "Y", "0", "1", "2", "3", " ", "\n", "mode=", "window=(1,",
]
MUTANTS_PER_FIXTURE = 600


def mutate(text, rng):
    """One to three inserts, deletes or replacements at random positions."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert":
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
    return text


def test_mutated_fixtures_parse_or_raise_kernel_errors():
    rng = random.Random(0)
    escaped = []
    for path in FIXTURES:
        source = path.read_text()
        for _ in range(MUTANTS_PER_FIXTURE):
            text = mutate(source, rng)
            try:
                parse_script(text)
            except KernelError:
                pass
            except Exception as exc:  # the failure under test: report every one
                escaped.append((path.name, text, repr(exc)))
    assert len(FIXTURES) == 5
    assert not escaped, escaped[:3]
