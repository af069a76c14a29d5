"""Recursive-descent parser for MiniJ.

The grammar (expressions in increasing precedence)::

    program    := (classdecl | interfacedecl | testdecl)*
    classdecl  := "class" IDENT ("implements" IDENT ("," IDENT)*)? "{" member* "}"
    member     := fielddecl | methoddecl | ctordecl
    fielddecl  := type IDENT ("=" expr)? ";"
    methoddecl := "synchronized"? (type | "void") IDENT "(" params? ")" block
    ctordecl   := IDENT "(" params? ")" block          -- IDENT == class name
    interfacedecl := "interface" IDENT "{" (sig ";")* "}"
    testdecl   := "test" IDENT block
    stmt       := vardecl | assign | if | while | return | sync | assert | exprstmt
    expr       := or-expr; or > and > equality > relational > additive
                  > multiplicative > unary > postfix > primary

The six binary levels, all left-associative, are one precedence table
(:data:`_BINARY_OPS`) read by one precedence-climbing loop.

Every AST node receives a unique ``node_id`` used as its static site
identity by the tracer, the pair generator, and the race detectors.
"""

from __future__ import annotations

from repro._util.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import BOOL, INT, VOID, Type, class_type


#: Binary operators: token kind -> (precedence, operator text), loosest
#: first.
_BINARY_OPS: dict[TokenKind, tuple[int, str]] = {
    TokenKind.OR: (1, "||"),
    TokenKind.AND: (2, "&&"),
    TokenKind.EQ: (3, "=="),
    TokenKind.NE: (3, "!="),
    TokenKind.LT: (4, "<"),
    TokenKind.LE: (4, "<="),
    TokenKind.GT: (4, ">"),
    TokenKind.GE: (4, ">="),
    TokenKind.PLUS: (5, "+"),
    TokenKind.MINUS: (5, "-"),
    TokenKind.STAR: (6, "*"),
    TokenKind.SLASH: (6, "/"),
    TokenKind.PERCENT: (6, "%"),
}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token]) -> None:
        # ``tokens`` ends with EOF and ``_advance`` never moves past it,
        # so one more EOF as a sentinel keeps every one-token lookahead
        # (``_peek(1)``) in range without a bounds check.
        self._tokens = [*tokens, tokens[-1]]
        self._pos = 0
        self._next_node_id = 0

    # ------------------------------------------------------------------
    # Token stream helpers.

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _at(self, kind: TokenKind, offset: int = 0) -> bool:
        return self._tokens[self._pos + offset].kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    # ``_expect`` and ``_accept`` step past the token without the EOF
    # check of ``_advance``: the kinds they match are never EOF.

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            wanted = what or kind.value
            raise ParseError(
                f"expected {wanted}, found {token.text!r}", token.line, token.column
            )
        self._pos += 1
        return token

    def _accept(self, kind: TokenKind) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            return None
        self._pos += 1
        return token

    def _stamp(self, node, token: Token):
        """Assign position and identity to a freshly built node."""
        node.line = token.line
        node.node_id = self._next_node_id
        self._next_node_id += 1
        return node

    # ------------------------------------------------------------------
    # Declarations.

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.KW_CLASS):
                program.classes.append(self._parse_class())
            elif self._at(TokenKind.KW_INTERFACE):
                program.interfaces.append(self._parse_interface())
            elif self._at(TokenKind.KW_TEST):
                program.tests.append(self._parse_test())
            else:
                token = self._peek()
                raise ParseError(
                    f"expected class, interface or test, found {token.text!r}",
                    token.line,
                    token.column,
                )
        return program

    def _parse_class(self) -> ast.ClassDecl:
        start = self._expect(TokenKind.KW_CLASS)
        name = self._expect(TokenKind.IDENT, "class name").text
        implements: list[str] = []
        if self._accept(TokenKind.KW_IMPLEMENTS):
            implements.append(self._expect(TokenKind.IDENT).text)
            while self._accept(TokenKind.COMMA):
                implements.append(self._expect(TokenKind.IDENT).text)
        self._expect(TokenKind.LBRACE)
        decl = ast.ClassDecl(name=name, implements=implements, line=start.line)
        while not self._at(TokenKind.RBRACE):
            self._parse_member(decl)
        self._expect(TokenKind.RBRACE)
        return decl

    def _parse_member(self, decl: ast.ClassDecl) -> None:
        token = self._peek()
        synchronized = self._accept(TokenKind.KW_SYNCHRONIZED) is not None

        # Constructor: IDENT equal to the class name followed by "(".
        if (
            not synchronized
            and self._at(TokenKind.IDENT)
            and self._peek().text == decl.name
            and self._at(TokenKind.LPAREN, 1)
        ):
            ctor_token = self._advance()
            params = self._parse_params()
            body = self._parse_block()
            decl.methods.append(
                ast.MethodDecl(
                    name=decl.name,
                    params=params,
                    return_type=VOID,
                    body=body,
                    synchronized=False,
                    is_constructor=True,
                    line=ctor_token.line,
                )
            )
            return

        member_type = self._parse_type(allow_void=True)
        name_token = self._expect(TokenKind.IDENT, "member name")
        if self._at(TokenKind.LPAREN):
            params = self._parse_params()
            body = self._parse_block()
            decl.methods.append(
                ast.MethodDecl(
                    name=name_token.text,
                    params=params,
                    return_type=member_type,
                    body=body,
                    synchronized=synchronized,
                    line=name_token.line,
                )
            )
            return

        if synchronized:
            raise ParseError(
                "fields cannot be synchronized", token.line, token.column
            )
        if member_type == VOID:
            raise ParseError(
                "fields cannot have type void", token.line, token.column
            )
        init: ast.Expr | None = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenKind.SEMI)
        decl.fields.append(
            ast.FieldDecl(
                name=name_token.text,
                field_type=member_type,
                init=init,
                line=name_token.line,
            )
        )

    def _parse_interface(self) -> ast.InterfaceDecl:
        start = self._expect(TokenKind.KW_INTERFACE)
        name = self._expect(TokenKind.IDENT, "interface name").text
        self._expect(TokenKind.LBRACE)
        decl = ast.InterfaceDecl(name=name, line=start.line)
        while not self._at(TokenKind.RBRACE):
            sig_type = self._parse_type(allow_void=True)
            sig_name = self._expect(TokenKind.IDENT, "method name")
            params = self._parse_params()
            self._expect(TokenKind.SEMI)
            decl.signatures.append(
                ast.MethodSig(
                    name=sig_name.text,
                    param_types=[p.param_type for p in params],
                    return_type=sig_type,
                    line=sig_name.line,
                )
            )
        self._expect(TokenKind.RBRACE)
        return decl

    def _parse_test(self) -> ast.TestDecl:
        start = self._expect(TokenKind.KW_TEST)
        name = self._expect(TokenKind.IDENT, "test name").text
        body = self._parse_block()
        return ast.TestDecl(name=name, body=body, line=start.line)

    def _parse_params(self) -> list[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            params.append(self._parse_param())
            while self._accept(TokenKind.COMMA):
                params.append(self._parse_param())
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_param(self) -> ast.Param:
        param_type = self._parse_type()
        name = self._expect(TokenKind.IDENT, "parameter name")
        return ast.Param(name=name.text, param_type=param_type, line=name.line)

    def _parse_type(self, allow_void: bool = False) -> Type:
        token = self._peek()
        if self._accept(TokenKind.KW_INT):
            return INT
        if self._accept(TokenKind.KW_BOOL):
            return BOOL
        if allow_void and self._accept(TokenKind.KW_VOID):
            return VOID
        if self._at(TokenKind.IDENT):
            return class_type(self._advance().text)
        raise ParseError(
            f"expected a type, found {token.text!r}", token.line, token.column
        )

    # ------------------------------------------------------------------
    # Statements.

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE)
        block = ast.Block()
        self._stamp(block, start)
        while not self._at(TokenKind.RBRACE):
            block.stmts.append(self._parse_stmt())
        self._expect(TokenKind.RBRACE)
        return block

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.LBRACE:
            return self._parse_block()
        if token.kind is TokenKind.KW_IF:
            return self._parse_if()
        if token.kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if token.kind is TokenKind.KW_RETURN:
            return self._parse_return()
        if token.kind is TokenKind.KW_SYNCHRONIZED:
            return self._parse_sync()
        if token.kind is TokenKind.KW_ASSERT:
            return self._parse_assert()
        if token.kind is TokenKind.KW_FORK:
            return self._parse_fork()
        if self._looks_like_var_decl():
            return self._parse_var_decl()
        return self._parse_assign_or_expr()

    def _looks_like_var_decl(self) -> bool:
        kind = self._peek().kind
        if kind in (TokenKind.KW_INT, TokenKind.KW_BOOL):
            return True
        # "Ident Ident" introduces a class-typed local.
        return kind is TokenKind.IDENT and self._at(TokenKind.IDENT, 1)

    def _parse_var_decl(self) -> ast.VarDecl:
        decl_type = self._parse_type()
        name = self._expect(TokenKind.IDENT, "variable name")
        init: ast.Expr | None = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenKind.SEMI)
        node = ast.VarDecl(decl_type=decl_type, name=name.text, init=init)
        return self._stamp(node, name)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self._parse_block()
        else_body: ast.Stmt | None = None
        if self._accept(TokenKind.KW_ELSE):
            if self._at(TokenKind.KW_IF):
                else_body = self._parse_if()
            else:
                else_body = self._parse_block()
        node = ast.If(cond=cond, then_body=then_body, else_body=else_body)
        return self._stamp(node, start)

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_block()
        node = ast.While(cond=cond, body=body)
        return self._stamp(node, start)

    def _parse_return(self) -> ast.Return:
        start = self._expect(TokenKind.KW_RETURN)
        value: ast.Expr | None = None
        if not self._at(TokenKind.SEMI):
            value = self._parse_expr()
        self._expect(TokenKind.SEMI)
        node = ast.Return(value=value)
        return self._stamp(node, start)

    def _parse_sync(self) -> ast.Sync:
        start = self._expect(TokenKind.KW_SYNCHRONIZED)
        self._expect(TokenKind.LPAREN)
        lock = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_block()
        node = ast.Sync(lock=lock, body=body)
        return self._stamp(node, start)

    def _parse_assert(self) -> ast.Assert:
        start = self._expect(TokenKind.KW_ASSERT)
        cond = self._parse_expr()
        self._expect(TokenKind.SEMI)
        node = ast.Assert(cond=cond)
        return self._stamp(node, start)

    def _parse_fork(self) -> ast.Fork:
        start = self._expect(TokenKind.KW_FORK)
        body = self._parse_block()
        node = ast.Fork(body=body)
        return self._stamp(node, start)

    def _parse_assign_or_expr(self) -> ast.Stmt:
        start = self._peek()
        expr = self._parse_expr()
        if self._accept(TokenKind.ASSIGN):
            value = self._parse_expr()
            self._expect(TokenKind.SEMI)
            if isinstance(expr, ast.VarRef):
                node: ast.Stmt = ast.AssignVar(name=expr.name, value=value)
            elif isinstance(expr, ast.FieldGet):
                node = ast.AssignField(
                    target=expr.target, field_name=expr.field_name, value=value
                )
            else:
                raise ParseError(
                    "left-hand side of assignment must be a variable or field",
                    start.line,
                    start.column,
                )
            return self._stamp(node, start)
        self._expect(TokenKind.SEMI)
        node = ast.ExprStmt(expr=expr)
        return self._stamp(node, start)

    # ------------------------------------------------------------------
    # Expressions.

    def _parse_expr(self, min_precedence: int = 1) -> ast.Expr:
        """Binary expressions by precedence climbing over
        :data:`_BINARY_OPS`; every level is left-associative.

        Node ids come out in the same post-order as a one-method-per-
        level descent: both operands are stamped before their operator.
        """
        left = self._parse_unary()
        while True:
            op_token = self._peek()
            entry = _BINARY_OPS.get(op_token.kind)
            if entry is None or entry[0] < min_precedence:
                return left
            precedence, op = entry
            self._pos += 1  # a binary operator is never EOF
            right = self._parse_expr(precedence + 1)
            node = ast.Binary(op=op, left=left, right=right)
            left = self._stamp(node, op_token)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.NOT:
            self._advance()
            node = ast.Unary(op="!", operand=self._parse_unary())
            return self._stamp(node, token)
        if token.kind is TokenKind.MINUS:
            self._advance()
            node = ast.Unary(op="-", operand=self._parse_unary())
            return self._stamp(node, token)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at(TokenKind.DOT):
            self._advance()
            name = self._expect(TokenKind.IDENT, "member name")
            if self._at(TokenKind.LPAREN):
                args = self._parse_args()
                node: ast.Expr = ast.Call(target=expr, method=name.text, args=args)
            else:
                node = ast.FieldGet(target=expr, field_name=name.text)
            expr = self._stamp(node, name)
        return expr

    def _parse_args(self) -> list[ast.Expr]:
        self._expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            args.append(self._parse_expr())
            while self._accept(TokenKind.COMMA):
                args.append(self._parse_expr())
        self._expect(TokenKind.RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            try:
                value = int(token.text)
            except ValueError:  # past the interpreter's int-string limit
                raise ParseError(
                    f"integer literal too long ({len(token.text)} digits)",
                    token.line,
                    token.column,
                ) from None
            return self._stamp(ast.IntLit(value=value), token)
        if token.kind is TokenKind.KW_TRUE:
            self._advance()
            return self._stamp(ast.BoolLit(value=True), token)
        if token.kind is TokenKind.KW_FALSE:
            self._advance()
            return self._stamp(ast.BoolLit(value=False), token)
        if token.kind is TokenKind.KW_NULL:
            self._advance()
            return self._stamp(ast.NullLit(), token)
        if token.kind is TokenKind.KW_THIS:
            self._advance()
            return self._stamp(ast.This(), token)
        if token.kind is TokenKind.KW_RAND:
            self._advance()
            self._expect(TokenKind.LPAREN)
            self._expect(TokenKind.RPAREN)
            return self._stamp(ast.Rand(), token)
        if token.kind is TokenKind.KW_NEW:
            self._advance()
            name = self._expect(TokenKind.IDENT, "class name")
            args = self._parse_args()
            return self._stamp(ast.New(class_name=name.text, args=args), token)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return self._stamp(ast.VarRef(name=token.text), token)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        raise ParseError(
            f"expected an expression, found {token.text!r}", token.line, token.column
        )


def parse(source: str) -> ast.Program:
    """Parse MiniJ source text into a Program.

    Args:
        source: MiniJ program text (classes, interfaces, tests).

    Returns:
        The parsed program; every node has a unique ``node_id``.

    Raises:
        LexError: on malformed tokens.
        ParseError: on syntax errors.
    """
    return Parser(tokenize(source)).parse_program()
