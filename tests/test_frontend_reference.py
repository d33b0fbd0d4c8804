"""The regex lexer and the precedence-table parser against the front end
they replaced.

``tests/reference_frontend.py`` keeps the character-at-a-time lexer and
the precedence-ladder parser.  On every text below both front ends must
give the same tokens (kind, text, line, column) and the same AST, or
raise the same error type with the same message, line and column.

The one deliberate difference: a non-ASCII character outside a comment
is a located ``LexError`` now (``tests/test_lexer.py``), where the old
lexer took ``str.isdigit``/``isalpha`` characters as digits and letters.
Every text here is ASCII.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.generator import generate_program
from repro.minic.lexer import tokenize
from repro.minic.parser import parse_program
from repro.workloads.programs import BENCHMARKS, get_workload
from tests import reference_frontend as reference

EXAMPLES = sorted(Path(__file__).resolve().parents[1].glob("examples/*.mc"))

#: the chaos campaign's programs for these seeds (``{seed}:{index}``)
GENERATED_SEEDS = (0, 1)
GENERATED_PER_SEED = 150


def outcome(fn, text: str):
    """``fn(text)``'s result, or its error as (type, message, line, column)."""
    try:
        return fn(text)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def tokens(fn, text: str):
    result = outcome(fn, text)
    if isinstance(result, list):
        return [(t.kind, t.text, t.line, t.column) for t in result]
    return result


def assert_same_front_end(text: str) -> None:
    assert tokens(tokenize, text) == tokens(reference.tokenize, text)
    assert outcome(parse_program, text) == outcome(reference.parse_program, text)


def assert_same_program(source: str) -> None:
    """Like :func:`assert_same_front_end` for a valid program."""
    assert tokens(tokenize, source) == tokens(reference.tokenize, source)
    assert parse_program(source) == reference.parse_program(source)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_kernels(name):
    assert_same_program(get_workload(name).source)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples(path):
    assert_same_program(path.read_text())


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_programs(seed):
    for index in range(GENERATED_PER_SEED):
        source = generate_program(random.Random(f"{seed}:{index}"), index).source
        assert_same_program(source)


#: every statement form and every expression form, nested blocks included
GRAMMAR_TOUR = """
struct node { int key; float w[4]; struct node *next; };
int g[8];
float scale = 1.5;
struct node **heads;
void helper(int a, float *b) { *b = (float) a; return; }
int main() {
  int i = 0; int a[3]; struct node *n = alloc(struct node, 2);
  { int j; { j = 1; } i += j; }
  for (int k = 0; k < 3; k += 1) { if (k == 1) continue; else { a[k] = k; } }
  for (;;) break;
  while (i != 0 && !(i > 9) || -i >= 3) { i -= 1; i *= 2; i /= 3; }
  n->next = n; n[1].key = (int) n->w[2] % 5; helper(i, &n->w[0]);
  print(g[i] + *&i - scale * (float) a[0] / 2.0e1);
  return helper2(1, 2)[0];
}
"""


def test_grammar_tour():
    assert_same_program(GRAMMAR_TOUR)


MALFORMED = [
    # tests/test_parser.py's syntax errors
    "int main() { return 1 }",
    "int main() { if 1 { } }",
    "int main() { int x = ; }",
    "int main( { }",
    "struct s { int x; }",
    "int a[x]; int main() { }",
    "int main() { foo(1, ; }",
    "int main() {\n  return 1 2;\n}",
    # lexer edges
    "int main() {\n  return 1; /* never closed\n}",
    "int main() { return a @ b; }",
    "int main() { return 1.; }",
    "int main() { return 1e; }",
    "int main() { return 1e+; }",
    "int main() { return 3 .5; }",
    "1.",
    "1e",
    "1e+",
    "3 .5",
    # operator chains and unary/postfix mixes
    "int main() { return a || b && c == d < e + f * g % h - i / j; }",
    "int main() { return -a * !b - *p[1] + &q->f.g; }",
    "int main() { return a + ; }",
    "int main() { return (int) 1.5 <= (float) x >= y != z; }",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_and_edge_inputs(text):
    assert_same_front_end(text)


#: fragments that meet at the lexer's edges: number forms, comment
#: openers and closers, two-character operators split or joined
FRAGMENTS = (
    "int", "float", "x", "e", "E", "_a1", "0", "12", ".", "5", "+", "-",
    "*", "/", "%", "=", "!", "<", ">", "&", "|", "(", ")", "{", "}", "[",
    "]", ";", ",", "->", "/*", "*/", "//", " ", "\t", "\r", "\n", "@",
    "#", "$", "\\", "'", '"', "\x0b", "return", "main",
)

#: operands and operators, joined by spaces inside a return statement
#: so that many draws parse
EXPRESSION_PARTS = (
    "a", "b", "1", "2.5", "p", "+", "-", "*", "/", "%", "==", "!=", "<",
    "<=", ">", ">=", "&&", "||", "!", "&", "(", ")", "[", "]", "->", ".",
    "(int)", "(float)", "f(", ",",
)

ALPHABET = "".join(chr(c) for c in range(32, 127)) + "\t\r\n\x0b\x0c"


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
    st.lists(st.sampled_from(EXPRESSION_PARTS), max_size=20).map(
        lambda parts: "int main() { return " + " ".join(parts) + "; }"
    ),
    st.text(alphabet=ALPHABET, max_size=60),
))
def test_random_ascii_text(text):
    assert_same_front_end(text)
