"""MiniC lexer: one regular expression over the whole source.

MiniC's tokens are C's and are ASCII: digits ``[0-9]``, identifiers
``[A-Za-z_][A-Za-z0-9_]*``, and the punctuation below.  Comments may
hold any character; any other character raises :class:`LexError` at
its line and column.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexError


class TokenKind(enum.Enum):
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    IDENT = "ident"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    "int float void struct if else while for return break continue print alloc".split()
)

#: every punctuation token (``_TOKEN`` spells them out, longest first)
PUNCTUATION = (
    "-> == != <= >= && || += -= *= /= "
    "( ) { } [ ] ; , . + - * / % < > = ! &"
).split()

# One match per token: (the whitespace before it, its text).  Words come
# first, then punctuation, longest first ("/" only where no comment
# starts), numbers (a float where a fraction or exponent follows),
# comments, an unterminated block comment, and last any other single
# character -- or nothing, at the end of the input.
_TOKEN = re.compile(
    r"([ \t\r\n]*)"
    r"([A-Za-z_][A-Za-z0-9_]*"
    r"|->|[=!<>+\-*/]=|&&|\|\||[(){}\[\];,.+\-*%<>=!&]|/(?![/*])"
    r"|[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)?"
    r"|//[^\n]*|/\*.*?\*/|/\*|.?)",
    re.DOTALL,
)

#: the kind of every keyword and punctuation text
_FIXED_KINDS = {
    **{word: TokenKind.KEYWORD for word in KEYWORDS},
    **{text: TokenKind.PUNCT for text in PUNCTUATION},
}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC source, raising :class:`LexError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    new_token = tuple.__new__  # Token(...) without its Python-level __new__
    fixed_kind = _FIXED_KINDS.get
    line = 1
    line_start = 0  # index of the current line's first character
    pos = 0  # index of the current match's first character
    for space, text in _TOKEN.findall(source):
        if space:
            if "\n" in space:
                line += space.count("\n")
                line_start = pos + space.rindex("\n") + 1
            pos += len(space)
        kind = fixed_kind(text)
        if kind is None:
            first = text[:1]
            if first in _WORD_START:
                kind = TokenKind.IDENT
            elif first in _DIGITS:
                kind = TokenKind.INT_LIT if text.isdigit() else TokenKind.FLOAT_LIT
            elif text == "/*":
                raise LexError("unterminated block comment", line, pos - line_start + 1)
            elif first == "/":  # a comment
                if "\n" in text:
                    line += text.count("\n")
                    line_start = pos + text.rindex("\n") + 1
                pos += len(text)
                continue
            elif not text:  # the end of the input
                break
            else:
                raise LexError(
                    f"unexpected character {text!r}", line, pos - line_start + 1
                )
        append(new_token(Token, (kind, text, line, pos - line_start + 1)))
        pos += len(text)
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
