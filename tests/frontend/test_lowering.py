"""AST -> IR lowering tests (pre- and post-mem2reg)."""

import pytest

from repro.frontend import compile_source, lower_program
from repro.fsam import analyze_source
from repro.ir import (
    AddrOf, Call, Fork, Gep, Join, Load, Lock, Phi, Ret, Store, Unlock,
    verify_module,
)
from repro.ir.printer import print_module
from repro.ir.types import ArrayType, PointerType, StructType
from repro.ir.values import ObjectKind
from repro.minic import parse
from repro.minic.errors import SemanticError


def instrs_of(module, fn, kind):
    return [i for i in module.functions[fn].instructions() if isinstance(i, kind)]


class TestBasics:
    def test_simple_program_verifies(self):
        m = compile_source("int main() { return 0; }")
        verify_module(m)
        assert "main" in m.functions

    def test_globals_registered(self):
        m = compile_source("int g; int *p; int main() { return 0; }")
        assert set(m.globals) == {"g", "p"}
        assert m.globals["g"].kind is ObjectKind.GLOBAL

    def test_global_array_monolithic(self):
        m = compile_source("int a[4]; int main() { a[2] = 1; return 0; }")
        assert m.globals["a"].is_array
        assert isinstance(m.globals["a"].type, ArrayType)

    def test_address_taken_local_stays_in_memory(self):
        m = compile_source("""
        int main() { int x; int *p; p = &x; *p = 1; return x; }
        """)
        # x is address-taken: an AddrOf of a stack object must survive.
        addrs = [i for i in instrs_of(m, "main", AddrOf)
                 if i.obj.kind is ObjectKind.STACK]
        assert addrs, "address-taken local must remain a stack object"

    def test_promotable_local_vanishes(self):
        m = compile_source("int main() { int x; x = 1; x = x + 1; return x; }")
        # x never has its address taken: mem2reg removes all loads/stores.
        assert not instrs_of(m, "main", Load)
        assert not instrs_of(m, "main", Store)

    def test_malloc_creates_heap_object(self):
        m = compile_source("""
        struct s { int v; };
        int main() { struct s *p; p = malloc(struct s); return 0; }
        """)
        heaps = [o for o in m.objects if o.kind is ObjectKind.HEAP]
        assert len(heaps) == 1
        assert isinstance(heaps[0].type, StructType)

    def test_distinct_malloc_sites_distinct_objects(self):
        m = compile_source("""
        int main() { int *p; int *q;
            p = malloc(int);
            q = malloc(int);
            return 0; }
        """)
        heaps = [o for o in m.objects if o.kind is ObjectKind.HEAP]
        assert len(heaps) == 2

    def test_field_access_lowers_to_gep(self):
        m = compile_source("""
        struct s { int a; int b; };
        struct s g;
        int main() { g.b = 1; return 0; }
        """)
        geps = instrs_of(m, "main", Gep)
        assert any(g.field_index == 1 for g in geps)

    def test_array_index_lowers_to_monolithic_gep(self):
        m = compile_source("int a[4]; int main() { a[1] = 2; return 0; }")
        geps = instrs_of(m, "main", Gep)
        assert any(g.field_index is None for g in geps)

    def test_struct_array_field_indexing(self):
        m = compile_source("""
        struct mb { int q; };
        struct fr { struct mb mbs[4]; };
        struct fr g;
        int main() { g.mbs[1].q = 3; return 0; }
        """)
        verify_module(m)


class TestControlFlow:
    def test_if_produces_branch_blocks(self):
        m = compile_source("int main() { int x; if (1) { x = 1; } else { x = 2; } return x; }")
        assert len(m.functions["main"].blocks) >= 4

    def test_loop_var_gets_phi(self):
        m = compile_source("int main() { int i; for (i = 0; i < 3; i = i + 1) { } return i; }")
        assert instrs_of(m, "main", Phi)

    def test_break_and_continue(self):
        m = compile_source("""
        int main() { int i;
            for (i = 0; i < 9; i = i + 1) {
                if (i == 2) { continue; }
                if (i == 5) { break; }
            }
            return i; }
        """)
        verify_module(m)

    def test_code_after_return_pruned(self):
        m = compile_source("int g; int main() { return 0; g = 1; }")
        stores = instrs_of(m, "main", Store)
        assert not stores  # the dead store was unreachable

    def test_multiple_returns(self):
        m = compile_source("int main() { if (1) { return 1; } return 2; }")
        rets = instrs_of(m, "main", Ret)
        assert len(rets) == 2

    def test_implicit_return_added(self):
        m = compile_source("void f() { } int main() { f(); return 0; }")
        assert instrs_of(m, "f", Ret)

    BARE_BLOCK = """
    int a; int b; int *p;
    int main() {
        int *q;
        q = &a;
        %s
        p = q;
        return 0;
    }
    """

    def test_bare_block_lowers_as_its_body(self):
        # MiniC has no block scoping: a bare block is its statements,
        # with no branch around them.
        braced = compile_source(self.BARE_BLOCK % "{ q = &b; { } }")
        flat = compile_source(self.BARE_BLOCK % "q = &b;")
        assert print_module(braced) == print_module(flat)

    def test_bare_block_keeps_the_strong_update(self):
        # A branch around the block would merge q's value from before
        # it, so p would also point to a.
        result = analyze_source(self.BARE_BLOCK % "{ q = &b; }")
        assert result.global_pts_names("p") == {"b"}
        assert result.query("p", obj=True).names() == ["b"]


class TestCallsAndThreads:
    def test_direct_call(self):
        m = compile_source("int f(int a) { return a; } int main() { return f(1); }")
        calls = instrs_of(m, "main", Call)
        assert len(calls) == 1 and not calls[0].is_indirect

    def test_fork_join_lock_unlock_lowered(self):
        m = compile_source("""
        mutex_t mu;
        void *w(void *a) { return null; }
        int main() { thread_t t;
            lock(&mu);
            fork(&t, w, null);
            unlock(&mu);
            join(t);
            return 0; }
        """)
        assert instrs_of(m, "main", Fork)
        assert instrs_of(m, "main", Join)
        assert instrs_of(m, "main", Lock)
        assert instrs_of(m, "main", Unlock)

    def test_thread_handle_not_promoted(self):
        m = compile_source("""
        void *w(void *a) { return null; }
        int main() { thread_t t; fork(&t, w, null); join(t); return 0; }
        """)
        # The fork takes &t: t must stay a stack object.
        fork = instrs_of(m, "main", Fork)[0]
        assert fork.handle_ptr is not None

    def test_function_pointer_value(self):
        m = compile_source("""
        int f(int a) { return a; }
        int main() { int *fp; fp = f; return fp(2); }
        """)
        verify_module(m)

    def test_recursion_marks_locals(self):
        m = compile_source("""
        int fact(int n) { int tmp; int *p; p = &tmp; if (n < 2) { return 1; } return n * fact(n - 1); }
        int main() { return fact(3); }
        """)
        rec_objs = [o for o in m.objects if o.in_recursion and o.alloc_fn == "fact"]
        assert rec_objs, "locals of recursive functions must be flagged"
        assert all(not o.is_singleton for o in rec_objs)


class TestSemanticErrors:
    def test_unknown_variable(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { x = 1; return 0; }")

    def test_unknown_struct(self):
        with pytest.raises(SemanticError):
            compile_source("struct nope *p; int main() { return 0; }")

    def test_unknown_field(self):
        with pytest.raises(SemanticError):
            compile_source("""
            struct s { int a; };
            struct s g;
            int main() { g.b = 1; return 0; }
            """)

    def test_duplicate_local(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { int x; int x; return 0; }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { break; return 0; }")

    def test_member_on_non_struct(self):
        with pytest.raises(SemanticError):
            compile_source("int g; int main() { g.a = 1; return 0; }")

    def test_assign_to_literal(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { 3 = 4; return 0; }")
