"""The character-at-a-time lexer and the precedence-ladder parser,
kept as the reference for the MiniC front end.

This is ``repro.minic.lexer.tokenize`` and ``repro.minic.parser._Parser``
as they stood before the lexer became one regular expression and the
six binary-expression levels became one precedence table.
``tests/test_frontend_reference.py`` runs both front ends on the same
text and requires the same tokens (kind, text, line and column), the
same AST, or the same error with the same message, line and column.
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import LexError, ParseError
from repro.minic.ast import (
    AllocExpr,
    AssignStmt,
    Binary,
    BlockStmt,
    BreakStmt,
    CallExpr,
    Cast,
    ContinueStmt,
    DeclStmt,
    ExprNode,
    ExprStmt,
    FloatLit,
    ForStmt,
    FuncDef,
    GlobalDecl,
    Ident,
    IfStmt,
    Index,
    IntLit,
    Member,
    Param,
    Pos,
    PrintStmt,
    Program,
    ReturnStmt,
    StmtNode,
    StructDecl,
    TypeSpec,
    Unary,
    WhileStmt,
)
from repro.minic.lexer import TokenKind

KEYWORDS = {
    "int",
    "float",
    "void",
    "struct",
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "print",
    "alloc",
}

# Longest-match-first punctuation.
PUNCTUATION = [
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
]


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC source, raising :class:`LexError` on bad input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r\n":
            advance(1)
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        # numbers
        if ch.isdigit():
            start, start_line, start_col = i, line, col
            while i < n and source[i].isdigit():
                advance(1)
            is_float = False
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                is_float = True
                advance(1)
                while i < n and source[i].isdigit():
                    advance(1)
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    is_float = True
                    advance(j - i)
                    while i < n and source[i].isdigit():
                        advance(1)
            text = source[start:i]
            kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            start, start_line, start_col = i, line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        # punctuation
        for punct in PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token(TokenKind.PUNCT, punct, line, col))
                advance(len(punct))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


_TYPE_KEYWORDS = {"int", "float", "void", "struct"}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in (TokenKind.PUNCT, TokenKind.KEYWORD)

    def at_kind(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        if not self.at(text):
            tok = self.peek()
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return self.advance()

    def expect_ident(self) -> Token:
        if not self.at_kind(TokenKind.IDENT):
            tok = self.peek()
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.column)
        return self.advance()

    def _pos(self) -> Pos:
        tok = self.peek()
        return Pos(tok.line, tok.column)

    # -- types ---------------------------------------------------------

    def at_type(self) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_KEYWORDS

    def parse_type(self) -> TypeSpec:
        pos = self._pos()
        tok = self.advance()
        if tok.text == "struct":
            name_tok = self.expect_ident()
            spec = TypeSpec(name_tok.text, is_struct=True, pos=pos)
        elif tok.text in ("int", "float", "void"):
            spec = TypeSpec(tok.text, pos=pos)
        else:
            raise ParseError(f"expected type, found {tok.text!r}", tok.line, tok.column)
        while self.at("*"):
            self.advance()
            spec.pointer_depth += 1
        return spec

    # -- top level ------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while not self.at_kind(TokenKind.EOF):
            if self.at("struct") and self.peek(2).text == "{":
                program.structs.append(self.parse_struct_decl())
                continue
            if not self.at_type():
                tok = self.peek()
                raise ParseError(
                    f"expected declaration, found {tok.text!r}", tok.line, tok.column
                )
            spec = self.parse_type()
            name_tok = self.expect_ident()
            if self.at("("):
                program.functions.append(self.parse_func_def(spec, name_tok))
            else:
                program.globals.append(self.parse_global_decl(spec, name_tok))
        return program

    def parse_struct_decl(self) -> StructDecl:
        pos = self._pos()
        self.expect("struct")
        name = self.expect_ident().text
        self.expect("{")
        fields: list[tuple[TypeSpec, str, Optional[int]]] = []
        while not self.at("}"):
            ftype = self.parse_type()
            fname = self.expect_ident().text
            count: Optional[int] = None
            if self.at("["):
                self.advance()
                count_tok = self.advance()
                if count_tok.kind is not TokenKind.INT_LIT:
                    raise ParseError(
                        "array size must be an integer literal",
                        count_tok.line,
                        count_tok.column,
                    )
                count = int(count_tok.text)
                self.expect("]")
            self.expect(";")
            fields.append((ftype, fname, count))
        self.expect("}")
        self.expect(";")
        return StructDecl(name, fields, pos)

    def parse_global_decl(self, spec: TypeSpec, name_tok: Token) -> GlobalDecl:
        decl = GlobalDecl(spec, name_tok.text, pos=Pos(name_tok.line, name_tok.column))
        if self.at("["):
            self.advance()
            count_tok = self.advance()
            if count_tok.kind is not TokenKind.INT_LIT:
                raise ParseError(
                    "array size must be an integer literal", count_tok.line, count_tok.column
                )
            decl.array_count = int(count_tok.text)
            self.expect("]")
        if self.at("="):
            self.advance()
            decl.init = self.parse_expr()
        self.expect(";")
        return decl

    def parse_func_def(self, spec: TypeSpec, name_tok: Token) -> FuncDef:
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect_ident()
                params.append(Param(ptype, pname.text, Pos(pname.line, pname.column)))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return FuncDef(spec, name_tok.text, params, body, Pos(name_tok.line, name_tok.column))

    # -- statements --------------------------------------------------------

    def parse_block(self) -> list[StmtNode]:
        self.expect("{")
        stmts: list[StmtNode] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return stmts

    def parse_stmt(self) -> StmtNode:
        pos = self._pos()
        if self.at("{"):
            return BlockStmt(self.parse_block(), pos)
        if self.at("if"):
            return self.parse_if()
        if self.at("while"):
            return self.parse_while()
        if self.at("for"):
            return self.parse_for()
        if self.at("return"):
            self.advance()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return ReturnStmt(value, pos)
        if self.at("break"):
            self.advance()
            self.expect(";")
            return BreakStmt(pos)
        if self.at("continue"):
            self.advance()
            self.expect(";")
            return ContinueStmt(pos)
        if self.at("print"):
            self.advance()
            self.expect("(")
            value = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return PrintStmt(value, pos)
        if self.at_type():
            stmt = self.parse_decl_stmt()
            self.expect(";")
            return stmt
        stmt = self.parse_simple_stmt()
        self.expect(";")
        return stmt

    def parse_decl_stmt(self) -> DeclStmt:
        pos = self._pos()
        spec = self.parse_type()
        name = self.expect_ident().text
        decl = DeclStmt(spec, name, pos=pos)
        if self.at("["):
            self.advance()
            count_tok = self.advance()
            if count_tok.kind is not TokenKind.INT_LIT:
                raise ParseError(
                    "array size must be an integer literal", count_tok.line, count_tok.column
                )
            decl.array_count = int(count_tok.text)
            self.expect("]")
        if self.at("="):
            self.advance()
            decl.init = self.parse_expr()
        return decl

    def parse_simple_stmt(self) -> StmtNode:
        """Assignment, compound assignment, or expression statement.
        Used both as a normal statement and as a for-loop init/step."""
        pos = self._pos()
        if self.at_type():
            return self.parse_decl_stmt()
        expr = self.parse_expr()
        if self.at("="):
            self.advance()
            value = self.parse_expr()
            return AssignStmt(expr, value, pos)
        for compound in ("+=", "-=", "*=", "/="):
            if self.at(compound):
                self.advance()
                rhs = self.parse_expr()
                # Desugar: lv op= e  =>  lv = lv op e.  The lvalue
                # expression is reused on the RHS (sema re-checks it).
                desugared = Binary(compound[0], expr, rhs, pos)
                return AssignStmt(expr, desugared, pos)
        return ExprStmt(expr, pos)

    def parse_if(self) -> IfStmt:
        pos = self._pos()
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self._stmt_as_list()
        else_body: list[StmtNode] = []
        if self.at("else"):
            self.advance()
            else_body = self._stmt_as_list()
        return IfStmt(cond, then_body, else_body, pos)

    def parse_while(self) -> WhileStmt:
        pos = self._pos()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return WhileStmt(cond, self._stmt_as_list(), pos)

    def parse_for(self) -> ForStmt:
        pos = self._pos()
        self.expect("for")
        self.expect("(")
        init = None if self.at(";") else self.parse_simple_stmt()
        self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        step = None if self.at(")") else self.parse_simple_stmt()
        self.expect(")")
        return ForStmt(init, cond, step, self._stmt_as_list(), pos)

    def _stmt_as_list(self) -> list[StmtNode]:
        stmt = self.parse_stmt()
        if isinstance(stmt, BlockStmt):
            return stmt.body
        return [stmt]

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> ExprNode:
        return self.parse_or()

    def parse_or(self) -> ExprNode:
        left = self.parse_and()
        while self.at("||"):
            pos = self._pos()
            self.advance()
            left = Binary("||", left, self.parse_and(), pos)
        return left

    def parse_and(self) -> ExprNode:
        left = self.parse_equality()
        while self.at("&&"):
            pos = self._pos()
            self.advance()
            left = Binary("&&", left, self.parse_equality(), pos)
        return left

    def parse_equality(self) -> ExprNode:
        left = self.parse_relational()
        while self.at("==") or self.at("!="):
            pos = self._pos()
            op = self.advance().text
            left = Binary(op, left, self.parse_relational(), pos)
        return left

    def parse_relational(self) -> ExprNode:
        left = self.parse_additive()
        while self.at("<") or self.at("<=") or self.at(">") or self.at(">="):
            pos = self._pos()
            op = self.advance().text
            left = Binary(op, left, self.parse_additive(), pos)
        return left

    def parse_additive(self) -> ExprNode:
        left = self.parse_multiplicative()
        while self.at("+") or self.at("-"):
            pos = self._pos()
            op = self.advance().text
            left = Binary(op, left, self.parse_multiplicative(), pos)
        return left

    def parse_multiplicative(self) -> ExprNode:
        left = self.parse_unary()
        while self.at("*") or self.at("/") or self.at("%"):
            pos = self._pos()
            op = self.advance().text
            left = Binary(op, left, self.parse_unary(), pos)
        return left

    def parse_unary(self) -> ExprNode:
        pos = self._pos()
        # cast: '(' ('int'|'float') ')' unary
        if (
            self.at("(")
            and self.peek(1).kind is TokenKind.KEYWORD
            and self.peek(1).text in ("int", "float")
            and self.peek(2).text == ")"
        ):
            self.advance()
            target = self.advance().text
            self.advance()
            return Cast(target, self.parse_unary(), pos)
        for op in ("-", "!", "*", "&"):
            if self.at(op):
                self.advance()
                return Unary(op, self.parse_unary(), pos)
        return self.parse_postfix()

    def parse_postfix(self) -> ExprNode:
        expr = self.parse_primary()
        while True:
            pos = self._pos()
            if self.at("["):
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                expr = Index(expr, index, pos)
            elif self.at("."):
                self.advance()
                expr = Member(expr, self.expect_ident().text, arrow=False, pos=pos)
            elif self.at("->"):
                self.advance()
                expr = Member(expr, self.expect_ident().text, arrow=True, pos=pos)
            else:
                return expr

    def parse_primary(self) -> ExprNode:
        tok = self.peek()
        pos = Pos(tok.line, tok.column)
        if tok.kind is TokenKind.INT_LIT:
            self.advance()
            return IntLit(int(tok.text), pos)
        if tok.kind is TokenKind.FLOAT_LIT:
            self.advance()
            return FloatLit(float(tok.text), pos)
        if self.at("alloc"):
            self.advance()
            self.expect("(")
            elem_type = self.parse_type()
            self.expect(",")
            count = self.parse_expr()
            self.expect(")")
            return AllocExpr(elem_type, count, pos)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            if self.at("("):
                self.advance()
                args: list[ExprNode] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.at(","):
                            self.advance()
                            continue
                        break
                self.expect(")")
                return CallExpr(tok.text, args, pos)
            return Ident(tok.text, pos)
        if self.at("("):
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def parse_program(source: str) -> Program:
    """Parse MiniC source into an AST."""
    return _Parser(tokenize(source)).parse_program()
