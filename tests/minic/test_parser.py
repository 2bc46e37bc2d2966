"""Parser tests: structure of the produced AST."""

import ast as pyast
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.minic import ast, parse, parser as parser_module
from repro.minic.errors import ParseError
from repro.minic.lexer import KEYWORDS, PUNCTUATORS, TokenKind, tokenize
from repro.minic.parser import MAX_NESTING
from repro.workloads import get_workload, workload_names


class TestTopLevel:
    def test_global_declarations(self):
        p = parse("int g; int *q; thread_t t; mutex_t m;")
        assert [g.name for g in p.globals] == ["g", "q", "t", "m"]
        assert p.globals[1].type_spec.pointers == 1

    def test_global_array(self):
        p = parse("int buf[16];")
        assert p.globals[0].array_size == 16

    def test_struct_definition(self):
        p = parse("struct node { int v; struct node *next; };")
        s = p.structs[0]
        assert s.name == "node"
        assert [f.name for f in s.fields] == ["v", "next"]
        assert s.fields[1].type_spec.base == "struct node"

    def test_struct_array_field(self):
        p = parse("struct f { int xs[8]; };")
        assert p.structs[0].fields[0].array_size == 8

    def test_function_definition(self):
        p = parse("int add(int a, int b) { return a + b; }")
        f = p.functions[0]
        assert f.name == "add"
        assert [x.name for x in f.params] == ["a", "b"]

    def test_void_param_list(self):
        p = parse("void f(void) { }")
        assert p.functions[0].params == []

    def test_pointer_return_type(self):
        p = parse("void *f(void *arg) { return null; }")
        assert p.functions[0].ret_type.pointers == 1


class TestStatements:
    def _body(self, code):
        return parse(f"int main() {{ {code} }}").functions[0].body

    def test_declaration_with_init(self):
        stmt = self._body("int x = 5;")[0]
        assert isinstance(stmt, ast.DeclStmt)
        assert isinstance(stmt.init, ast.NumberExpr)

    def test_assignment(self):
        stmt = self._body("x = y;")[0]
        assert isinstance(stmt, ast.AssignStmt)

    def test_if_else_chain(self):
        stmt = self._body("if (a) { } else if (b) { } else { x = 1; }")[0]
        assert isinstance(stmt, ast.IfStmt)
        assert isinstance(stmt.else_body[0], ast.IfStmt)

    def test_while(self):
        stmt = self._body("while (x < 3) { x = x + 1; }")[0]
        assert isinstance(stmt, ast.WhileStmt)

    def test_for_with_decl_init(self):
        stmt = self._body("for (int i = 0; i < 4; i = i + 1) { }")[0]
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_for_with_empty_clauses(self):
        stmt = self._body("for (;;) { break; }")[0]
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_break_continue_return(self):
        body = self._body("while (1) { break; } while (1) { continue; } return 0;")
        assert isinstance(body[2], ast.ReturnStmt)

    def test_single_statement_bodies(self):
        stmt = self._body("if (x) y = 1;")[0]
        assert len(stmt.then_body) == 1


class TestIntrinsics:
    def _stmt(self, code):
        return parse(f"int main() {{ {code} }}").functions[0].body[0]

    def test_fork(self):
        s = self._stmt("fork(&t, worker, null);")
        assert isinstance(s, ast.ForkStmt)
        assert isinstance(s.routine, ast.NameExpr)
        assert s.arg is None  # null arg normalised away

    def test_pthread_create_spelling(self):
        s = self._stmt("pthread_create(&t, 0, worker, arg);")
        assert isinstance(s, ast.ForkStmt)
        assert isinstance(s.arg, ast.NameExpr)

    def test_join_and_pthread_join(self):
        assert isinstance(self._stmt("join(t);"), ast.JoinStmt)
        assert isinstance(self._stmt("pthread_join(t, 0);"), ast.JoinStmt)

    def test_lock_unlock(self):
        assert isinstance(self._stmt("lock(&m);"), ast.LockStmt)
        assert isinstance(self._stmt("unlock(&m);"), ast.UnlockStmt)
        assert isinstance(self._stmt("pthread_mutex_lock(&m);"), ast.LockStmt)
        assert isinstance(self._stmt("pthread_mutex_unlock(&m);"), ast.UnlockStmt)

    def test_fork_arity_error(self):
        with pytest.raises(ParseError):
            self._stmt("fork(worker);")

    def test_malloc_with_type(self):
        s = self._stmt("p = malloc(struct node);")
        assert isinstance(s.value, ast.MallocExpr)
        assert s.value.alloc_type.base == "struct node"

    def test_malloc_with_sizeof(self):
        s = self._stmt("p = malloc(sizeof(int));")
        assert isinstance(s.value, ast.MallocExpr)

    def test_malloc_bad_argument(self):
        with pytest.raises(ParseError):
            self._stmt("p = malloc(x + 1);")


class TestExpressions:
    def _expr(self, code):
        stmt = parse(f"int main() {{ x = {code}; }}").functions[0].body[0]
        return stmt.value

    def test_precedence_mul_over_add(self):
        e = self._expr("a + b * c")
        assert e.op == "+"
        assert e.rhs.op == "*"

    def test_parentheses(self):
        e = self._expr("(a + b) * c")
        assert e.op == "*"

    def test_comparison_chain(self):
        e = self._expr("a < b == c")
        assert e.op == "=="

    def test_logical_levels(self):
        e = self._expr("a && b || c")
        assert e.op == "||"

    def test_unary_deref_addr(self):
        e = self._expr("*p + &q")
        assert e.lhs.op == "*" and e.rhs.op == "&"

    def test_member_chain(self):
        e = self._expr("a->b.c")
        assert isinstance(e, ast.MemberExpr) and not e.arrow
        assert isinstance(e.base, ast.MemberExpr) and e.base.arrow

    def test_index_and_call(self):
        e = self._expr("f(a)[3]")
        assert isinstance(e, ast.IndexExpr)
        assert isinstance(e.base, ast.CallExpr)

    def test_call_with_no_args(self):
        e = self._expr("f()")
        assert isinstance(e, ast.CallExpr) and e.args == []


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int main() { x = 1 }")

    def test_unclosed_brace(self):
        with pytest.raises(ParseError):
            parse("int main() { ")

    def test_bad_type(self):
        with pytest.raises(ParseError):
            parse("float main() { }")

    def test_array_size_must_be_literal(self):
        with pytest.raises(ParseError):
            parse("int g[n];")

    def test_struct_requires_semicolon(self):
        with pytest.raises(ParseError):
            parse("struct s { int a; }")


class TestCompoundAssignment:
    def _body(self, code):
        return parse(f"int main() {{ {code} }}").functions[0].body

    def test_plus_equals_desugars(self):
        stmt = self._body("x += 2;")[0]
        assert isinstance(stmt, ast.AssignStmt)
        assert stmt.value.op == "+"
        assert isinstance(stmt.value.lhs, ast.NameExpr)

    def test_all_compound_ops(self):
        for op, expect in (("+=", "+"), ("-=", "-"), ("*=", "*"), ("/=", "/")):
            stmt = self._body(f"x {op} 3;")[0]
            assert stmt.value.op == expect

    def test_increment_decrement(self):
        inc = self._body("x++;")[0]
        dec = self._body("x--;")[0]
        assert inc.value.op == "+" and inc.value.rhs.value == 1
        assert dec.value.op == "-" and dec.value.rhs.value == 1

    def test_increment_in_for_header(self):
        stmt = self._body("for (int i = 0; i < 3; i++) { }")[0]
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.step, ast.AssignStmt)

    def test_compound_on_member(self):
        stmt = parse("""
        struct s { int v; };
        struct s g;
        int main() { g.v += 1; }
        """).functions[0].body[0]
        assert isinstance(stmt.target, ast.MemberExpr)


# Nesting shapes, one level per line: (fixed levels around the nest,
# builder for n nested levels). ``main``'s body is one level and an
# expression another, so the deepest point of a shape sits at
# n + overhead.
NESTING_SHAPES = {
    "parens": (2, lambda n: "int main() { int x; x =\n" + "(\n" * n
               + "1" + ")" * n + "; return 0; }"),
    "blocks": (1, lambda n: "int main() {\n" + "{\n" * n + "}" * n
               + " return 0; }"),
    "ifs": (2, lambda n: "int main() { int x; x = 1;\n" + "if (x)\n" * n
            + "x = 2; return 0; }"),
}

HOSTILE_SHAPES = {
    "parens": "int main() { int x; x = " + "(" * 5000 + "1" + ")" * 5000
              + "; }",
    "blocks": "int main() { " + "{" * 3000 + "}" * 3000 + " }",
    "ifs": "int main() { int x; " + "if (x) " * 3000 + "x = 1; }",
    "else_ifs": "int main() { int x; if (x) x = 1;"
                + " else if (x) x = 1;" * 3000 + " }",
    "unary": "int main() { int x; x = " + "- " * 5000 + "1; }",
    # Left-deep trees built by loops, not by parser recursion.
    "operator_chain": "int main() { int x; x = " + "+".join(["1"] * 5000)
                      + "; }",
    "index_chain": "int main() { int a[2]; int x; x = a" + "[0]" * 5000
                   + "; }",
}


class TestNestingLimit:
    """Nesting is bounded by one counter, so hostile input fails with a
    located ParseError instead of a RecursionError, and everything
    at the limit still compiles (lowering recurses over the AST too)."""

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_compiles_at_the_limit(self, shape):
        overhead, build = NESTING_SHAPES[shape]
        compile_source(build(MAX_NESTING - overhead))

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_parse_error_one_past_the_limit(self, shape):
        overhead, build = NESTING_SHAPES[shape]
        n = MAX_NESTING - overhead + 1
        with pytest.raises(ParseError, match="nesting deeper than") as info:
            compile_source(build(n))
        # Located inside the nest: one level per line from line 2.
        assert 2 <= info.value.line <= n + 2
        assert info.value.col is not None

    @pytest.mark.parametrize("shape", sorted(HOSTILE_SHAPES))
    def test_hostile_nesting_is_a_parse_error(self, shape):
        with pytest.raises(ParseError, match="nesting deeper than"):
            compile_source(HOSTILE_SHAPES[shape])


TEXT_HELPERS = {"_check", "_accept", "_expect"}


def _text_literals():
    """``(line, literal)`` for every text the parser matches a token
    against by text alone: the arguments of ``_check``, ``_accept`` and
    ``_expect`` (a loop variable stands for each literal it iterates
    over) and the constants compared with a token's ``.text``."""
    tree = pyast.parse(Path(parser_module.__file__).read_text("utf-8"))
    loops = {}
    for node in pyast.walk(tree):
        if isinstance(node, pyast.For) and isinstance(node.target, pyast.Name) \
                and isinstance(node.iter, (pyast.Tuple, pyast.List)):
            loops.setdefault(node.target.id, []).extend(
                pyast.literal_eval(elt) for elt in node.iter.elts)
    found = []
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Call) and isinstance(node.func, pyast.Attribute) \
                and node.func.attr in TEXT_HELPERS:
            (arg,) = node.args
            if isinstance(arg, pyast.Constant):
                found.append((node.lineno, arg.value))
            else:
                assert isinstance(arg, pyast.Name) and arg.id in loops, \
                    f"line {node.lineno}: {node.func.attr} needs a literal"
                found.extend((node.lineno, text) for text in loops[arg.id])
        elif isinstance(node, pyast.Compare) \
                and isinstance(node.left, pyast.Attribute) and node.left.attr == "text":
            for right in node.comparators:
                if isinstance(right, pyast.Constant):
                    found.append((node.lineno, right.value))
    return found


class TestTextOnlyChecks:
    """The parser tells keywords and punctuators apart from other
    tokens by text alone, which is sound only while every text it
    matches is a keyword or punctuator: the scanner gives no other
    token such a text."""

    def test_every_matched_literal_is_a_keyword_or_punctuator(self):
        found = _text_literals()
        texts = {text for _, text in found}
        assert {"+=", "-=", "*=", "/=", "{", "}", "if", "sizeof"} <= texts
        stray = [(line, text) for line, text in found
                 if text not in KEYWORDS and text not in PUNCTUATORS]
        assert not stray

    def test_operator_and_type_tables_hold_keywords_and_punctuators(self):
        for table in (parser_module._BINARY_LEVELS, parser_module._UNARY_OPS,
                      parser_module._TYPE_KEYWORDS):
            assert set(table) <= KEYWORDS | set(PUNCTUATORS)

    def test_other_tokens_never_carry_such_a_text(self):
        reserved = KEYWORDS | set(PUNCTUATORS)
        for name in workload_names():
            for tok in tokenize(get_workload(name).source(1)):
                if tok.kind not in (TokenKind.KEYWORD, TokenKind.PUNCT):
                    assert tok.text not in reserved
