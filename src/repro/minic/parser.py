"""Recursive-descent parser for MiniC.

Grammar (informal)::

    program      := (struct_decl | global_decl | func_def)*
    struct_decl  := 'struct' IDENT '{' (type IDENT ';')* '}' ';'
    type         := ('int' | 'float' | 'void' | 'struct' IDENT) '*'*
    global_decl  := type IDENT ('[' INT ']')? ('=' expr)? ';'
    func_def     := type IDENT '(' params? ')' block
    stmt         := decl | assign/expr ';' | if | while | for | return
                  | break | continue | print | block
    assignment targets: IDENT, *e, e[i], e.f, e->f
    compound assignment (+=, -=, *=, /=) desugars to load-op-store.

Binary expressions are parsed by precedence climbing over one table,
``_BINARY_PRECEDENCE`` (low to high: ``||`` < ``&&`` < equality <
relational < additive < multiplicative; every level left-associative),
with unary and then postfix operators binding tighter still.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
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
from repro.minic.lexer import Token, TokenKind, tokenize

_TYPE_KEYWORDS = {"int", "float", "void", "struct"}

#: Binary operators by precedence, loosest first.  Only punctuation
#: tokens carry these texts.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

_UNARY_OPS = {"-", "!", "*", "&"}
_COMPOUND_OPS = {"+=", "-=", "*=", "/="}

_EOF = TokenKind.EOF
_FIXED_KINDS = (TokenKind.PUNCT, TokenKind.KEYWORD)


class _Parser:
    """``tokens[pos]`` is the current token and ``pos`` never passes the
    EOF token.  ``texts[i]`` is token i's text if it is punctuation or a
    keyword, else None, so testing the current token for a fixed text is
    one index and one compare; two None entries past the end let the
    parser look two tokens ahead without a bounds check."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.texts = [t.text if t.kind in _FIXED_KINDS else None for t in tokens]
        self.texts += [None, None]
        self.pos = 0

    # -- token helpers --------------------------------------------------

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if self.texts[self.pos] != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def _pos(self) -> Pos:
        tok = self.tokens[self.pos]
        return Pos(tok.line, tok.column)

    def _array_count(self) -> int:
        """``'[' INT ']'``, the current token being the ``'['``."""
        self.pos += 1
        count_tok = self.advance()
        if count_tok.kind is not TokenKind.INT_LIT:
            raise ParseError(
                "array size must be an integer literal", count_tok.line, count_tok.column
            )
        self.expect("]")
        return int(count_tok.text)

    # -- types ---------------------------------------------------------

    def at_type(self) -> bool:
        return self.texts[self.pos] in _TYPE_KEYWORDS

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
        texts = self.texts
        while texts[self.pos] == "*":
            self.pos += 1
            spec.pointer_depth += 1
        return spec

    # -- top level ------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while self.tokens[self.pos].kind is not _EOF:
            if self.at("struct") and self.texts[self.pos + 2] == "{":
                program.structs.append(self.parse_struct_decl())
                continue
            if not self.at_type():
                tok = self.tokens[self.pos]
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
            count = self._array_count() if self.at("[") else None
            self.expect(";")
            fields.append((ftype, fname, count))
        self.expect("}")
        self.expect(";")
        return StructDecl(name, fields, pos)

    def parse_global_decl(self, spec: TypeSpec, name_tok: Token) -> GlobalDecl:
        decl = GlobalDecl(spec, name_tok.text, pos=Pos(name_tok.line, name_tok.column))
        if self.at("["):
            decl.array_count = self._array_count()
        if self.at("="):
            self.pos += 1
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
                    self.pos += 1
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return FuncDef(spec, name_tok.text, params, body, Pos(name_tok.line, name_tok.column))

    # -- statements --------------------------------------------------------

    def parse_block(self) -> list[StmtNode]:
        self.expect("{")
        stmts: list[StmtNode] = []
        texts = self.texts
        while texts[self.pos] != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
        return stmts

    def parse_stmt(self) -> StmtNode:
        text = self.texts[self.pos]
        if text == "{":
            pos = self._pos()
            return BlockStmt(self.parse_block(), pos)
        elif text == "if":
            return self.parse_if()
        elif text == "while":
            return self.parse_while()
        elif text == "for":
            return self.parse_for()
        elif text == "return":
            pos = self._pos()
            self.pos += 1
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return ReturnStmt(value, pos)
        elif text == "break" or text == "continue":
            pos = self._pos()
            self.pos += 1
            self.expect(";")
            return BreakStmt(pos) if text == "break" else ContinueStmt(pos)
        elif text == "print":
            pos = self._pos()
            self.pos += 1
            self.expect("(")
            value = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return PrintStmt(value, pos)
        elif text in _TYPE_KEYWORDS:
            stmt = self.parse_decl_stmt()
        else:
            stmt = self.parse_simple_stmt()
        self.expect(";")
        return stmt

    def parse_decl_stmt(self) -> DeclStmt:
        pos = self._pos()
        spec = self.parse_type()
        name = self.expect_ident().text
        decl = DeclStmt(spec, name, pos=pos)
        if self.at("["):
            decl.array_count = self._array_count()
        if self.at("="):
            self.pos += 1
            decl.init = self.parse_expr()
        return decl

    def parse_simple_stmt(self) -> StmtNode:
        """Assignment, compound assignment, or expression statement.
        Used both as a normal statement and as a for-loop init/step."""
        if self.at_type():
            return self.parse_decl_stmt()
        pos = self._pos()
        expr = self.parse_expr()
        text = self.texts[self.pos]
        if text == "=":
            self.pos += 1
            value = self.parse_expr()
            return AssignStmt(expr, value, pos)
        if text in _COMPOUND_OPS:
            self.pos += 1
            rhs = self.parse_expr()
            # Desugar: lv op= e  =>  lv = lv op e.  The lvalue
            # expression is reused on the RHS (sema re-checks it).
            desugared = Binary(text[0], expr, rhs, pos)
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
            self.pos += 1
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
        return self.parse_binary(1)

    def parse_binary(self, min_prec: int) -> ExprNode:
        """Precedence climbing over :data:`_BINARY_PRECEDENCE`.  Every
        level is left-associative; a node's position is its operator's."""
        left = self.parse_unary()
        texts = self.texts
        while True:
            prec = _BINARY_PRECEDENCE.get(texts[self.pos], 0)
            if prec < min_prec:
                return left
            tok = self.tokens[self.pos]
            self.pos += 1
            right = self.parse_binary(prec + 1)
            left = Binary(tok.text, left, right, Pos(tok.line, tok.column))

    def parse_unary(self) -> ExprNode:
        """Casts and prefix operators, then a primary expression and its
        postfix operators (``[i]``, ``.f``, ``->f``)."""
        texts = self.texts
        i = self.pos
        text = texts[i]
        if text in _UNARY_OPS:
            pos = self._pos()
            self.pos = i + 1
            return Unary(text, self.parse_unary(), pos)
        if text == "(" and texts[i + 1] in ("int", "float") and texts[i + 2] == ")":
            pos = self._pos()
            self.pos = i + 3
            return Cast(texts[i + 1], self.parse_unary(), pos)
        expr = self.parse_primary()
        while True:
            text = texts[self.pos]
            if text == "[":
                pos = self._pos()
                self.pos += 1
                index = self.parse_expr()
                self.expect("]")
                expr = Index(expr, index, pos)
            elif text == "." or text == "->":
                pos = self._pos()
                self.pos += 1
                expr = Member(expr, self.expect_ident().text, arrow=text == "->", pos=pos)
            else:
                return expr

    def parse_primary(self) -> ExprNode:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is TokenKind.IDENT:
            self.pos += 1
            if self.texts[self.pos] != "(":
                return Ident(tok.text, Pos(tok.line, tok.column))
            self.pos += 1
            args: list[ExprNode] = []
            if not self.at(")"):
                while True:
                    args.append(self.parse_expr())
                    if self.at(","):
                        self.pos += 1
                        continue
                    break
            self.expect(")")
            return CallExpr(tok.text, args, Pos(tok.line, tok.column))
        if kind is TokenKind.INT_LIT:
            self.pos += 1
            return IntLit(int(tok.text), Pos(tok.line, tok.column))
        if kind is TokenKind.FLOAT_LIT:
            self.pos += 1
            return FloatLit(float(tok.text), Pos(tok.line, tok.column))
        text = self.texts[self.pos]
        if text == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if text == "alloc":
            pos = Pos(tok.line, tok.column)
            self.pos += 1
            self.expect("(")
            elem_type = self.parse_type()
            self.expect(",")
            count = self.parse_expr()
            self.expect(")")
            return AllocExpr(elem_type, count, pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def parse_program(source: str) -> Program:
    """Parse MiniC source into an AST."""
    return _Parser(tokenize(source)).parse_program()
