"""MiniC recursive-descent parser."""

from __future__ import annotations

from typing import List, Optional

from repro.minic import ast
from repro.minic.errors import ParseError
from repro.minic.lexer import Token, TokenKind, tokenize

_TYPE_KEYWORDS = {"int", "void", "thread_t", "mutex_t", "cond_t",
                  "barrier_t", "struct"}

# Statement-level Pthreads intrinsics and their accepted spellings.
_FORK_NAMES = {"fork", "pthread_create"}
_JOIN_NAMES = {"join", "pthread_join"}
_LOCK_NAMES = {"lock", "pthread_mutex_lock"}
_UNLOCK_NAMES = {"unlock", "pthread_mutex_unlock"}
_WAIT_NAMES = {"wait", "pthread_cond_wait"}
_SIGNAL_NAMES = {"signal", "pthread_cond_signal"}
_BROADCAST_NAMES = {"broadcast", "pthread_cond_broadcast"}
_BARRIER_INIT_NAMES = {"barrier_init", "pthread_barrier_init"}
_BARRIER_WAIT_NAMES = {"barrier_wait", "pthread_barrier_wait"}

#: Deepest nesting the parser accepts. One counter covers statements
#: and expressions: open blocks and statement bodies, sub-expressions
#: (parenthesised, call arguments, indices) and unary operators on the
#: parse path, plus the height of the expression tree being built
#: (operator and postfix chains nest left-deep). A parenthesised level
#: costs the parser about ten Python frames, and lowering recurses
#: over the finished tree, so this bound keeps both well inside the
#: interpreter's default recursion limit: hostile input fails with a
#: ParseError instead of a RecursionError.
MAX_NESTING = 64

#: Longest decimal literal the parser accepts: no 64-bit value needs
#: more than 20 digits. A fixed cap keeps over-long literals a located
#: ParseError whatever the interpreter's own int-from-text limit is.
MAX_NUMBER_DIGITS = 20


class Parser:
    """Parses a token stream into a :class:`repro.minic.ast.Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        # Open nesting levels on the parse path, and the height of the
        # expression tree the last expression method returned; see
        # MAX_NESTING.
        self.depth = 0
        self._height = 0

    # -- token helpers --------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _check(self, text: str) -> bool:
        tok = self._peek()
        return tok.kind in (TokenKind.PUNCT, TokenKind.KEYWORD) and tok.text == text

    def _accept(self, text: str) -> Optional[Token]:
        if self._check(text):
            return self._advance()
        return None

    def _expect(self, text: str) -> Token:
        if not self._check(text):
            tok = self._peek()
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self._advance()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        return self._advance()

    def _at_type(self) -> bool:
        tok = self._peek()
        return tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_KEYWORDS

    # -- nesting bound ----------------------------------------------------

    def _too_deep(self, tok: Token) -> ParseError:
        return ParseError(f"nesting deeper than {MAX_NESTING} levels",
                          tok.line, tok.col)

    def _enter(self) -> None:
        """Open one nesting level at the next token; the caller closes
        it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._too_deep(self._peek())

    def _grow(self, height: int, tok: Token) -> None:
        """Record that the expression just built at *tok* has tree
        height *height*."""
        if self.depth + height > MAX_NESTING:
            raise self._too_deep(tok)
        self._height = height

    # -- top level ------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self._peek().kind is not TokenKind.EOF:
            if self._check("struct") and self._peek(2).text == "{":
                program.structs.append(self._parse_struct_def())
                continue
            spec = self._parse_type_spec()
            name_tok = self._expect_ident()
            if self._check("("):
                program.functions.append(self._parse_function(spec, name_tok))
            else:
                array_size = self._parse_array_size()
                init = None
                if self._accept("="):
                    init = self._parse_expr()
                self._expect(";")
                program.globals.append(
                    ast.GlobalDecl(type_spec=spec, name=name_tok.text,
                                   array_size=array_size, line=name_tok.line,
                                   init=init))
        return program

    def _parse_struct_def(self) -> ast.StructDef:
        start = self._expect("struct")
        name = self._expect_ident().text
        self._expect("{")
        fields: List[ast.ParamDecl] = []
        while not self._check("}"):
            spec = self._parse_type_spec()
            fname = self._expect_ident()
            array_size = self._parse_array_size()
            self._expect(";")
            fields.append(ast.ParamDecl(type_spec=spec, name=fname.text,
                                        line=fname.line, array_size=array_size))
        self._expect("}")
        self._expect(";")
        return ast.StructDef(name=name, fields=fields, line=start.line)

    def _parse_array_size(self) -> Optional[int]:
        """The size of an optional ``[N]`` declarator suffix."""
        if not self._accept("["):
            return None
        size_tok = self._advance()
        if size_tok.kind is not TokenKind.NUMBER:
            raise ParseError("array size must be a number literal", size_tok.line)
        size = _number(size_tok)
        self._expect("]")
        return size

    def _parse_type_spec(self) -> ast.TypeSpec:
        tok = self._peek()
        if not self._at_type():
            raise ParseError(f"expected type, found {tok.text!r}", tok.line, tok.col)
        self._advance()
        base = tok.text
        if base == "struct":
            base = f"struct {self._expect_ident().text}"
        pointers = 0
        while self._accept("*"):
            pointers += 1
        return ast.TypeSpec(base=base, pointers=pointers, line=tok.line)

    def _parse_function(self, ret_spec: ast.TypeSpec, name_tok: Token) -> ast.FunctionDef:
        self._expect("(")
        params: List[ast.ParamDecl] = []
        if not self._check(")"):
            # `void` alone means an empty parameter list.
            if self._check("void") and self._peek(1).text == ")":
                self._advance()
            else:
                while True:
                    spec = self._parse_type_spec()
                    pname = self._expect_ident()
                    params.append(ast.ParamDecl(type_spec=spec, name=pname.text, line=pname.line))
                    if not self._accept(","):
                        break
        self._expect(")")
        body = self._parse_block()
        return ast.FunctionDef(ret_type=ret_spec, name=name_tok.text,
                               params=params, body=body, line=name_tok.line)

    # -- statements -----------------------------------------------------

    def _parse_block(self) -> List[ast.Stmt]:
        self._enter()
        self._expect("{")
        stmts: List[ast.Stmt] = []
        while not self._check("}"):
            stmts.append(self._parse_statement())
        self._expect("}")
        self.depth -= 1
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if self._check("{"):
            # A bare block: flatten via an if(1)-free representation —
            # MiniC has no block scoping for locals, so inline the body.
            body = self._parse_block()
            return ast.IfStmt(cond=ast.NumberExpr(line=tok.line, value=1),
                              then_body=body, else_body=[], line=tok.line)
        if self._at_type():
            return self._parse_declaration()
        if self._check("if"):
            return self._parse_if()
        if self._check("while"):
            return self._parse_while()
        if self._check("for"):
            return self._parse_for()
        if self._check("return"):
            self._advance()
            value = None if self._check(";") else self._parse_expr()
            self._expect(";")
            return ast.ReturnStmt(value=value, line=tok.line)
        if self._check("break"):
            self._advance()
            self._expect(";")
            return ast.BreakStmt(line=tok.line)
        if self._check("continue"):
            self._advance()
            self._expect(";")
            return ast.ContinueStmt(line=tok.line)
        return self._parse_simple_statement()

    def _parse_declaration(self) -> ast.DeclStmt:
        spec = self._parse_type_spec()
        name_tok = self._expect_ident()
        array_size = self._parse_array_size()
        init = None
        if self._accept("="):
            init = self._parse_expr()
        self._expect(";")
        return ast.DeclStmt(type_spec=spec, name=name_tok.text,
                            array_size=array_size, init=init, line=name_tok.line)

    def _parse_if(self) -> ast.IfStmt:
        tok = self._expect("if")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then_body = self._parse_body_or_single()
        else_body: List[ast.Stmt] = []
        if self._accept("else"):
            # An else-if nests like any other body: the chain lowers
            # recursively.
            else_body = self._parse_body_or_single()
        return ast.IfStmt(cond=cond, then_body=then_body, else_body=else_body, line=tok.line)

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = self._parse_body_or_single()
        return ast.WhileStmt(cond=cond, body=body, line=tok.line)

    def _parse_for(self) -> ast.ForStmt:
        tok = self._expect("for")
        self._expect("(")
        init: Optional[ast.Stmt] = None
        if not self._check(";"):
            if self._at_type():
                init = self._parse_declaration()  # consumes the ';'
            else:
                init = self._parse_assign_clause()
                self._expect(";")
        else:
            self._expect(";")
        cond = None if self._check(";") else self._parse_expr()
        self._expect(";")
        step = None if self._check(")") else self._parse_assign_clause()
        self._expect(")")
        body = self._parse_body_or_single()
        return ast.ForStmt(init=init, cond=cond, step=step, body=body, line=tok.line)

    def _parse_body_or_single(self) -> List[ast.Stmt]:
        if self._check("{"):
            return self._parse_block()
        self._enter()
        stmt = self._parse_statement()
        self.depth -= 1
        return [stmt]

    def _parse_assign_clause(self) -> ast.Stmt:
        """An assignment or expression without the trailing semicolon
        (used by for-headers). Compound assignments and ++/-- are
        desugared here: ``x += e`` becomes ``x = x + (e)``."""
        expr = self._parse_expr()
        if self._accept("="):
            value = self._parse_expr()
            return ast.AssignStmt(target=expr, value=value, line=expr.line)
        for op in ("+=", "-=", "*=", "/="):
            if self._accept(op):
                rhs = self._parse_expr()
                value = ast.BinaryExpr(op=op[0], lhs=expr, rhs=rhs, line=expr.line)
                return ast.AssignStmt(target=expr, value=value, line=expr.line)
        if self._accept("++"):
            value = ast.BinaryExpr(op="+", lhs=expr,
                                   rhs=ast.NumberExpr(line=expr.line, value=1),
                                   line=expr.line)
            return ast.AssignStmt(target=expr, value=value, line=expr.line)
        if self._accept("--"):
            value = ast.BinaryExpr(op="-", lhs=expr,
                                   rhs=ast.NumberExpr(line=expr.line, value=1),
                                   line=expr.line)
            return ast.AssignStmt(target=expr, value=value, line=expr.line)
        return ast.ExprStmt(expr=expr, line=expr.line)

    def _parse_simple_statement(self) -> ast.Stmt:
        stmt = self._parse_assign_clause()
        self._expect(";")
        if isinstance(stmt, ast.ExprStmt):
            lowered = self._recognise_intrinsic(stmt.expr)
            if lowered is not None:
                return lowered
        return stmt

    def _recognise_intrinsic(self, expr: ast.Expr) -> Optional[ast.Stmt]:
        """Turn fork/join/lock/unlock calls into their statement forms."""
        if not isinstance(expr, ast.CallExpr) or not isinstance(expr.callee, ast.NameExpr):
            return None
        name = expr.callee.name
        args = expr.args
        line = expr.line
        if name in _FORK_NAMES:
            if name == "pthread_create":
                if len(args) != 4:
                    raise ParseError("pthread_create expects 4 arguments", line)
                handle, routine, arg = args[0], args[2], args[3]
            else:
                if len(args) != 3:
                    raise ParseError("fork expects 3 arguments (&handle, routine, arg)", line)
                handle, routine, arg = args[0], args[1], args[2]
            if isinstance(handle, ast.NullExpr) or (
                    isinstance(handle, ast.NumberExpr) and handle.value == 0):
                handle = None
            if isinstance(arg, ast.NullExpr) or (
                    isinstance(arg, ast.NumberExpr) and arg.value == 0):
                arg = None
            return ast.ForkStmt(handle=handle, routine=routine, arg=arg, line=line)
        if name in _JOIN_NAMES:
            expected = 2 if name == "pthread_join" else 1
            if len(args) != expected:
                raise ParseError(f"{name} expects {expected} argument(s)", line)
            return ast.JoinStmt(handle=args[0], line=line)
        if name in _LOCK_NAMES:
            if len(args) != 1:
                raise ParseError(f"{name} expects 1 argument", line)
            return ast.LockStmt(lock_expr=args[0], line=line)
        if name in _UNLOCK_NAMES:
            if len(args) != 1:
                raise ParseError(f"{name} expects 1 argument", line)
            return ast.UnlockStmt(lock_expr=args[0], line=line)
        if name in _WAIT_NAMES:
            if len(args) != 2:
                raise ParseError(f"{name} expects 2 arguments (&cv, &mutex)", line)
            return ast.WaitStmt(cond_expr=args[0], mutex_expr=args[1], line=line)
        if name in _SIGNAL_NAMES or name in _BROADCAST_NAMES:
            if len(args) != 1:
                raise ParseError(f"{name} expects 1 argument", line)
            return ast.SignalStmt(cond_expr=args[0],
                                  broadcast=name in _BROADCAST_NAMES, line=line)
        if name in _BARRIER_INIT_NAMES:
            # barrier_init(&b, n) or pthread_barrier_init(&b, attr, n).
            if name == "pthread_barrier_init":
                if len(args) != 3:
                    raise ParseError("pthread_barrier_init expects 3 arguments", line)
                barrier, count = args[0], args[2]
            else:
                if len(args) != 2:
                    raise ParseError("barrier_init expects 2 arguments", line)
                barrier, count = args[0], args[1]
            return ast.BarrierInitStmt(barrier_expr=barrier, count=count, line=line)
        if name in _BARRIER_WAIT_NAMES:
            if len(args) != 1:
                raise ParseError(f"{name} expects 1 argument", line)
            return ast.BarrierWaitStmt(barrier_expr=args[0], line=line)
        return None

    # -- expressions ----------------------------------------------------

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_expr(self) -> ast.Expr:
        self._enter()
        expr = self._parse_binary(0)
        self.depth -= 1
        return expr

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        lhs = self._parse_binary(level + 1)
        while any(self._check(op) for op in self._BINARY_LEVELS[level]):
            lhs_height = self._height
            op_tok = self._advance()
            rhs = self._parse_binary(level + 1)
            self._grow(max(lhs_height, self._height) + 1, op_tok)
            lhs = ast.BinaryExpr(op=op_tok.text, lhs=lhs, rhs=rhs, line=op_tok.line)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("&", "*", "-", "!"):
            self._enter()
            self._advance()
            operand = self._parse_unary()
            self.depth -= 1
            self._grow(self._height + 1, tok)
            return ast.UnaryExpr(op=tok.text, operand=operand, line=tok.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            height = self._height
            if self._accept("."):
                tok = self._expect_ident()
                expr = ast.MemberExpr(base=expr, field_name=tok.text, arrow=False, line=tok.line)
            elif self._accept("->"):
                tok = self._expect_ident()
                expr = ast.MemberExpr(base=expr, field_name=tok.text, arrow=True, line=tok.line)
            elif self._check("["):
                tok = self._advance()
                index = self._parse_expr()
                self._expect("]")
                height = max(height, self._height)
                expr = ast.IndexExpr(base=expr, index=index, line=tok.line)
            elif self._check("("):
                tok = self._advance()
                args: List[ast.Expr] = []
                if not self._check(")"):
                    while True:
                        args.append(self._parse_expr())
                        height = max(height, self._height)
                        if not self._accept(","):
                            break
                self._expect(")")
                if isinstance(expr, ast.NameExpr) and expr.name == "malloc":
                    expr = self._make_malloc(args, tok)
                else:
                    expr = ast.CallExpr(callee=expr, args=args, line=tok.line)
            else:
                return expr
            self._grow(height + 1, tok)

    def _make_malloc(self, args: List[ast.Expr], tok: Token) -> ast.MallocExpr:
        # malloc's argument parses as a _TypeArg for both `malloc(T)`
        # and `malloc(sizeof(T))`.
        if len(args) != 1 or not isinstance(args[0], _TypeArg):
            raise ParseError(
                "malloc expects a type argument: malloc(T) or malloc(sizeof(T))", tok.line)
        return ast.MallocExpr(alloc_type=args[0].type_spec, line=tok.line)

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        self._height = 0
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return ast.NumberExpr(value=_number(tok), line=tok.line)
        if self._check("null"):
            self._advance()
            return ast.NullExpr(line=tok.line)
        if self._check("sizeof"):
            self._advance()
            self._expect("(")
            spec = self._parse_type_spec()
            self._expect(")")
            return _TypeArg(type_spec=spec, line=tok.line)
        if self._at_type():
            # A bare type may only appear as malloc's argument.
            spec = self._parse_type_spec()
            return _TypeArg(type_spec=spec, line=tok.line)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.NameExpr(name=tok.text, line=tok.line)
        if self._accept("("):
            # A nesting level (in _parse_expr) but no tree node: the
            # inner expression's height stands.
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _number(tok: Token) -> int:
    """The value of NUMBER token *tok*, at most MAX_NUMBER_DIGITS long."""
    if len(tok.text) > MAX_NUMBER_DIGITS:
        raise ParseError(f"number literal longer than {MAX_NUMBER_DIGITS} digits",
                         tok.line, tok.col)
    return int(tok.text)


class _TypeArg(ast.Expr):
    """Internal marker: a type used as an argument (malloc/sizeof)."""

    def __init__(self, type_spec: ast.TypeSpec, line: int) -> None:
        super().__init__(line=line)
        self.type_spec = type_spec


def parse(source: str) -> ast.Program:
    """Parse MiniC *source* text into an AST."""
    return Parser(tokenize(source)).parse_program()
