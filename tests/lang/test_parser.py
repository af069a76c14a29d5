"""Unit tests for the MiniJ parser."""

import pytest

from repro._util.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.types import BOOL, INT, VOID


class TestDeclarations:
    def test_empty_class(self):
        program = parse("class A { }")
        assert len(program.classes) == 1
        assert program.classes[0].name == "A"

    def test_fields_and_types(self):
        program = parse("class A { int x; bool b; B other; }")
        fields = program.classes[0].fields
        assert [f.name for f in fields] == ["x", "b", "other"]
        assert fields[0].field_type == INT
        assert fields[1].field_type == BOOL
        assert fields[2].field_type.name == "B"

    def test_field_initializer(self):
        program = parse("class A { int x = 7; }")
        init = program.classes[0].fields[0].init
        assert isinstance(init, ast.IntLit) and init.value == 7

    def test_method_signature(self):
        program = parse("class A { int m(B b, int k) { return k; } }")
        method = program.classes[0].methods[0]
        assert method.name == "m"
        assert method.return_type == INT
        assert [p.name for p in method.params] == ["b", "k"]
        assert not method.synchronized

    def test_synchronized_method(self):
        program = parse("class A { synchronized void m() { } }")
        assert program.classes[0].methods[0].synchronized

    def test_constructor_recognized(self):
        program = parse("class A { A(int x) { } void A2() { } }")
        ctor = program.classes[0].methods[0]
        assert ctor.is_constructor
        assert ctor.return_type == VOID

    def test_interface(self):
        program = parse("interface Q { void removeFirst(); int size(); }")
        iface = program.interfaces[0]
        assert iface.name == "Q"
        assert [s.name for s in iface.signatures] == ["removeFirst", "size"]

    def test_implements_list(self):
        program = parse("interface I {} interface J {} class A implements I, J { }")
        assert program.classes[0].implements == ["I", "J"]

    def test_test_declaration(self):
        program = parse("class A { } test T { A a = new A(); }")
        test = program.tests[0]
        assert test.name == "T"
        assert isinstance(test.body.stmts[0], ast.VarDecl)

    def test_synchronized_field_rejected(self):
        with pytest.raises(ParseError):
            parse("class A { synchronized int x; }")

    def test_void_field_rejected(self):
        with pytest.raises(ParseError):
            parse("class A { void x; }")


class TestStatements:
    def _stmt(self, text):
        program = parse("class A { void m(int p, B q) { %s } }" % text)
        return program.classes[0].methods[0].body.stmts[0]

    def test_var_decl_with_init(self):
        stmt = self._stmt("int x = 1;")
        assert isinstance(stmt, ast.VarDecl)
        assert stmt.name == "x"

    def test_class_typed_var_decl(self):
        stmt = self._stmt("B other = q;")
        assert isinstance(stmt, ast.VarDecl)
        assert stmt.decl_type.name == "B"

    def test_assign_var(self):
        stmt = self._stmt("p = 2;")
        assert isinstance(stmt, ast.AssignVar)

    def test_assign_field(self):
        stmt = self._stmt("this.x = p;")
        assert isinstance(stmt, ast.AssignField)
        assert stmt.field_name == "x"
        assert isinstance(stmt.target, ast.This)

    def test_assign_nested_field(self):
        stmt = self._stmt("q.inner.x = p;")
        assert isinstance(stmt, ast.AssignField)
        assert isinstance(stmt.target, ast.FieldGet)

    def test_assign_to_call_rejected(self):
        with pytest.raises(ParseError):
            self._stmt("q.m2() = 1;")

    def test_if_else_chain(self):
        stmt = self._stmt("if (p > 0) { } else if (p < 0) { } else { }")
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.else_body, ast.If)
        assert isinstance(stmt.else_body.else_body, ast.Block)

    def test_while(self):
        stmt = self._stmt("while (p > 0) { p = p - 1; }")
        assert isinstance(stmt, ast.While)

    def test_return_value_and_void(self):
        assert isinstance(self._stmt("return;"), ast.Return)
        stmt = self._stmt("return p;")
        assert isinstance(stmt.value, ast.VarRef)

    def test_synchronized_block(self):
        stmt = self._stmt("synchronized (this) { p = 1; }")
        assert isinstance(stmt, ast.Sync)
        assert isinstance(stmt.lock, ast.This)

    def test_assert(self):
        stmt = self._stmt("assert p > 0;")
        assert isinstance(stmt, ast.Assert)

    def test_expression_statement(self):
        stmt = self._stmt("q.m2();")
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.Call)


class TestExpressions:
    def _expr(self, text):
        program = parse("class A { void m(int p, int q) { int r = %s; } }" % text)
        return program.classes[0].methods[0].body.stmts[0].init

    def test_precedence_mul_over_add(self):
        expr = self._expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_compare_over_and(self):
        program = parse("class A { void m(int p) { bool b = p > 1 && p < 3; } }")
        expr = program.classes[0].methods[0].body.stmts[0].init
        assert expr.op == "&&"
        assert expr.left.op == ">"

    def test_left_associativity(self):
        expr = self._expr("10 - 2 - 3")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_unary_operators(self):
        expr = self._expr("-p")
        assert isinstance(expr, ast.Unary) and expr.op == "-"

    def test_parenthesized(self):
        expr = self._expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_chained_field_and_call(self):
        program = parse("class A { void m(B q) { int r = q.inner.size(); } }")
        expr = program.classes[0].methods[0].body.stmts[0].init
        assert isinstance(expr, ast.Call)
        assert isinstance(expr.target, ast.FieldGet)

    def test_new_with_args(self):
        expr = self._expr("new A()")
        assert isinstance(expr, ast.New)

    def test_rand(self):
        expr = self._expr("rand()")
        assert isinstance(expr, ast.Rand)

    def test_literals(self):
        assert self._expr("true").value is True
        assert self._expr("false").value is False
        assert isinstance(self._expr("null"), ast.NullLit)


class TestNodeIds:
    def test_node_ids_unique(self):
        program = parse(
            "class A { int x; void m(int p) { this.x = p; int y = this.x; } }"
            " test T { A a = new A(); a.m(3); }"
        )
        seen = set()

        def collect(node):
            if isinstance(node, (ast.Stmt, ast.Expr)):
                assert node.node_id >= 0
                assert node.node_id not in seen
                seen.add(node.node_id)
            for value in vars(node).values():
                if isinstance(value, (ast.Stmt, ast.Expr)):
                    collect(value)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, (ast.Stmt, ast.Expr)):
                            collect(item)

        for cls in program.classes:
            for method in cls.methods:
                collect(method.body)
        for test in program.tests:
            collect(test.body)
        assert len(seen) > 10


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "class {",
            "class A { int; }",
            "class A { void m( { } }",
            "test T { x = ; }",
            "class A } ",
            "int x;",  # top-level statement
        ],
    )
    def test_syntax_errors(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_oversized_int_literal_is_a_parse_error(self):
        # Past the interpreter's int-string limit: int() itself refuses.
        source = "class A {\n  int f = " + "7" * 5000 + "; }"
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert (exc.value.line, exc.value.column) == (2, 11)
        assert "5000 digits" in str(exc.value)
