"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.minic.lexer import Token, TokenKind, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind is not TokenKind.EOF]


def test_empty_source():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.EOF


def test_integer_literals():
    assert kinds("0 42 1234567890") == [
        (TokenKind.INT_LIT, "0"),
        (TokenKind.INT_LIT, "42"),
        (TokenKind.INT_LIT, "1234567890"),
    ]


def test_float_literals():
    assert kinds("1.5 0.25 2e3 1.5e-2") == [
        (TokenKind.FLOAT_LIT, "1.5"),
        (TokenKind.FLOAT_LIT, "0.25"),
        (TokenKind.FLOAT_LIT, "2e3"),
        (TokenKind.FLOAT_LIT, "1.5e-2"),
    ]


def test_integer_then_member_access_is_not_float():
    # "a.b" style after a number: 3 . x should not fuse into a float
    toks = kinds("3 .5")
    assert toks[0] == (TokenKind.INT_LIT, "3")


def test_keywords_vs_identifiers():
    assert kinds("int intx if ifx while whilex") == [
        (TokenKind.KEYWORD, "int"),
        (TokenKind.IDENT, "intx"),
        (TokenKind.KEYWORD, "if"),
        (TokenKind.IDENT, "ifx"),
        (TokenKind.KEYWORD, "while"),
        (TokenKind.IDENT, "whilex"),
    ]


def test_all_keywords_recognised():
    for kw in ("int", "float", "void", "struct", "if", "else", "while",
               "for", "return", "break", "continue", "print", "alloc"):
        assert kinds(kw) == [(TokenKind.KEYWORD, kw)]


def test_two_char_punctuation_longest_match():
    assert [t for _, t in kinds("->==!=<=>=&&||+=-=")] == [
        "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    ]


def test_arrow_vs_minus():
    assert [t for _, t in kinds("a->b a - b")] == ["a", "->", "b", "a", "-", "b"]


def test_line_comments():
    assert kinds("a // comment with * and /\nb") == [
        (TokenKind.IDENT, "a"),
        (TokenKind.IDENT, "b"),
    ]


def test_block_comments():
    assert kinds("a /* x\ny\nz */ b") == [
        (TokenKind.IDENT, "a"),
        (TokenKind.IDENT, "b"),
    ]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_invalid_character():
    with pytest.raises(LexError) as exc:
        tokenize("a @ b")
    assert exc.value.line == 1


def test_positions_track_lines_and_columns():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)


def test_underscore_identifiers():
    assert kinds("_x x_y _1") == [
        (TokenKind.IDENT, "_x"),
        (TokenKind.IDENT, "x_y"),
        (TokenKind.IDENT, "_1"),
    ]


@pytest.mark.parametrize(
    "source, char, line, column",
    [
        ("int main() { return ²; }", "²", 1, 21),
        ("int main() {\n  return ٣;\n}", "٣", 2, 10),
        ("int é;", "é", 1, 5),
        ("int main() {\n  int x² = 1;\n}", "²", 2, 8),
    ],
)
def test_non_ascii_outside_comments_is_a_located_error(source, char, line, column):
    # MiniC tokens are ASCII: str.isdigit/isalpha would take '²' and '٣'
    # as digits and 'é' as a letter.
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert str(exc.value) == f"{line}:{column}: unexpected character {char!r}"
    assert (exc.value.line, exc.value.column) == (line, column)


def test_non_ascii_digit_is_a_lex_error_end_to_end():
    from repro.pipeline import run_program

    with pytest.raises(LexError):
        run_program("int main() { return ²; }")


def test_comments_accept_any_character():
    assert kinds("a // em — dash, é, ²\nb /* ٣ — */ c") == [
        (TokenKind.IDENT, "a"),
        (TokenKind.IDENT, "b"),
        (TokenKind.IDENT, "c"),
    ]


def test_every_keyword_and_punctuation_text_is_one_token():
    # The lexer's pattern spells punctuation out on its own; each listed
    # text must come back whole, with its kind, and nothing else must.
    from repro.minic.lexer import KEYWORDS, PUNCTUATION

    for text in sorted(KEYWORDS):
        assert kinds(text) == [(TokenKind.KEYWORD, text)]
    for text in PUNCTUATION:
        assert kinds(text) == [(TokenKind.PUNCT, text)]
        assert kinds(f"a{text}b")[1] == (TokenKind.PUNCT, text)
    for char in "|^~?:#$@\\'\"`":
        with pytest.raises(LexError):
            tokenize(char)


def test_positions_after_comments_and_trailing_space():
    toks = tokenize("/* a\nbc */ x // y\n\t z /**/w \n\n")
    assert [(t.text, t.line, t.column) for t in toks] == [
        ("x", 2, 7), ("z", 3, 3), ("w", 3, 9), ("", 5, 1),
    ]
