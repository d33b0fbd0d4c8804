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

# Longest first, so the alternation takes "->" before "-".
PUNCTUATION = (
    "-> == != <= >= && || += -= *= /= "
    "( ) { } [ ] ; , . + - * / % < > = ! &"
).split()

_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<open>/\*)"  # a block comment with no end
    r"|(?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    r"|(?P<int>[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)

_KINDS = {
    "float": TokenKind.FLOAT_LIT,
    "int": TokenKind.INT_LIT,
    "punct": TokenKind.PUNCT,
}


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
    line = 1
    line_start = 0  # index of the current line's first character
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        text = m.group()
        start = m.start()
        if group == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if group == "word":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        elif group == "open":
            raise LexError("unterminated block comment", line, column)
        elif group == "bad":
            raise LexError(f"unexpected character {text!r}", line, column)
        else:
            kind = _KINDS[group]
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
