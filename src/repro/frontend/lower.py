"""AST -> IR lowering.

Produces *naive* IR: every local variable lives in a stack object and
is accessed through explicit AddrOf/Load/Store. The subsequent
mem2reg pass (:mod:`repro.frontend.mem2reg`) promotes non-address-
taken scalars into SSA temps, yielding the partial-SSA form the paper
analyses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.builder import IRBuilder
from repro.ir.instructions import Branch, Jump, Ret
from repro.ir.module import BasicBlock, Module
from repro.ir.types import (
    ArrayType, BarrierType, CondType, FunctionType, IntType, LockType,
    PointerType, StructType, ThreadType, Type, VoidType, INT, VOID,
)
from repro.ir.values import Constant, Function, MemObject, Temp, Value
from repro.minic import ast
from repro.minic.errors import SemanticError

_THREAD = ThreadType()
_LOCK = LockType()


class _LocalSlot:
    """A local variable's backing stack object."""

    def __init__(self, obj: MemObject, ty: Type) -> None:
        self.obj = obj
        self.type = ty


class Lowerer:
    """Lowers one :class:`repro.minic.ast.Program` to a Module."""

    def __init__(self, program: ast.Program, name: str = "module") -> None:
        self.program = program
        self.module = Module(name)
        self.builder = IRBuilder(self.module)
        self.structs: Dict[str, StructType] = {}
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, MemObject] = {}
        self.locals: Dict[str, _LocalSlot] = {}
        # Stack of (break_target, continue_target) blocks.
        self._loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []
        self._recursive_fns: set = set()

    # -- type resolution ------------------------------------------------

    def resolve_type(self, spec: ast.TypeSpec) -> Type:
        base: Type
        if spec.base == "int":
            base = INT
        elif spec.base == "void":
            base = VOID
        elif spec.base == "thread_t":
            base = _THREAD
        elif spec.base == "mutex_t":
            base = _LOCK
        elif spec.base == "cond_t":
            base = CondType()
        elif spec.base == "barrier_t":
            base = BarrierType()
        elif spec.base.startswith("struct "):
            sname = spec.base[len("struct "):]
            if sname not in self.structs:
                raise SemanticError(f"unknown struct {sname}", spec.line)
            base = self.structs[sname]
        else:
            raise SemanticError(f"unknown type {spec.base}", spec.line)
        ty = base
        for _ in range(spec.pointers):
            ty = PointerType(ty)
        return ty

    # -- program --------------------------------------------------------

    def lower(self) -> Module:
        # Pass 1: declare struct shells (so recursive structs resolve).
        for sdef in self.program.structs:
            if sdef.name in self.structs:
                raise SemanticError(f"duplicate struct {sdef.name}", sdef.line)
            self.structs[sdef.name] = StructType(sdef.name)
        for sdef in self.program.structs:
            struct = self.structs[sdef.name]
            fields = []
            for f in sdef.fields:
                fty = self.resolve_type(f.type_spec)
                if f.array_size is not None:
                    fty = ArrayType(fty, f.array_size)
                fields.append((f.name, fty))
            struct.fields = fields
            self.module.structs[sdef.name] = struct

        # Pass 2: globals.
        self._global_inits = []
        for gdecl in self.program.globals:
            if gdecl.name in self.globals:
                raise SemanticError(f"duplicate global {gdecl.name}", gdecl.line)
            ty = self.resolve_type(gdecl.type_spec)
            is_array = gdecl.array_size is not None
            if is_array:
                ty = ArrayType(ty, gdecl.array_size)
            obj = self.module.add_global(gdecl.name, ty, is_array=is_array)
            self.globals[gdecl.name] = obj
            if gdecl.init is not None:
                self._check_constant_init(gdecl.init)
                self._global_inits.append((obj, gdecl.init, gdecl.line))

        # Pass 3: declare all function signatures (forward references).
        for fdef in self.program.functions:
            if fdef.name in self.functions:
                raise SemanticError(f"duplicate function {fdef.name}", fdef.line)
            ret = self.resolve_type(fdef.ret_type)
            params = [self.resolve_type(p.type_spec) for p in fdef.params]
            fn = Function(fdef.name, FunctionType(ret, params))
            for i, p in enumerate(fdef.params):
                fn.params.append(Temp(f"{fdef.name}.{p.name}", params[i]))
            self.module.add_function(fn)
            self.functions[fdef.name] = fn

        self._recursive_fns = _recursive_functions(self.program, set(self.functions))

        # Pass 4: bodies.
        for fdef in self.program.functions:
            self._lower_function(fdef)
        return self.module

    # -- functions ------------------------------------------------------

    def _lower_function(self, fdef: ast.FunctionDef) -> None:
        fn = self.functions[fdef.name]
        self.locals = {}
        self._loop_stack = []
        entry = BasicBlock(f"{fdef.name}.entry", fn)
        fn.blocks.append(entry)
        self.builder.position(fn, entry)

        in_rec = fdef.name in self._recursive_fns
        # Global initialisers execute "before main": lower them as
        # stores at main's entry.
        if fdef.name == "main":
            for obj, init, line in self._global_inits:
                value = self._rvalue(init)
                addr = self.builder.addr_of(obj, hint=f"a.{obj.name}", line=line)
                self.builder.store(addr, value, line=line)

        # Spill parameters into named stack slots so the body can take
        # their address; mem2reg will promote the non-escaping ones.
        for param_decl, param_temp in zip(fdef.params, fn.params):
            ty = self.resolve_type(param_decl.type_spec)
            slot = self._declare_local(param_decl.name, ty, None, in_rec, param_decl.line)
            addr = self.builder.addr_of(slot.obj, hint=f"a.{param_decl.name}")
            self.builder.store(addr, param_temp, line=param_decl.line)

        self._lower_stmts(fdef.body)

        # Implicit return, and a terminator for any dangling block.
        self._seal_blocks(fn)
        _prune_unreachable(fn)

    def _seal_blocks(self, fn: Function) -> None:
        ret_ty = fn.type.ret if isinstance(fn.type, FunctionType) else VOID
        for block in fn.blocks:
            if block.terminator is None:
                self.builder.position(fn, block)
                if isinstance(ret_ty, VoidType):
                    self.builder.ret()
                else:
                    self.builder.ret(Constant(0, ret_ty) if not ret_ty.is_pointer()
                                     else Constant.null(ret_ty))

    def _check_constant_init(self, expr: ast.Expr) -> None:
        """Global initialisers must be C-style constants: a number,
        null, &global, or a function name."""
        if isinstance(expr, (ast.NumberExpr, ast.NullExpr)):
            return
        if isinstance(expr, ast.NameExpr):
            # A function name (a constant address). Globals-by-value
            # are not constant in C.
            if any(f.name == expr.name for f in self.program.functions):
                return
            raise SemanticError(
                f"global initialiser must be constant, got variable {expr.name}",
                expr.line)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "&" \
                and isinstance(expr.operand, ast.NameExpr):
            return  # &global — resolved during lowering
        raise SemanticError("global initialiser must be a constant expression",
                            expr.line)

    def _declare_local(self, name: str, ty: Type, array_size: Optional[int],
                       in_recursion: bool, line: int) -> _LocalSlot:
        if name in self.locals:
            raise SemanticError(f"duplicate local {name}", line)
        is_array = array_size is not None
        obj_ty = ArrayType(ty, array_size) if is_array else ty
        fn_name = self.builder.function.name
        obj = MemObject(f"{fn_name}::{name}", obj_ty, kind=_stack_kind(),
                        alloc_fn=fn_name, is_array=is_array, in_recursion=in_recursion)
        self.module.register_object(obj)
        slot = _LocalSlot(obj, obj_ty)
        self.locals[name] = slot
        return slot

    # -- statements -----------------------------------------------------

    def _lower_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt.target, stmt.value, stmt.line)
        elif isinstance(stmt, ast.ExprStmt):
            self._rvalue(stmt.expr, result_used=False)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            value = self._rvalue(stmt.value) if stmt.value is not None else None
            self.builder.ret(value, line=stmt.line)
            self._start_dead_block()
        elif isinstance(stmt, ast.BreakStmt):
            if not self._loop_stack:
                raise SemanticError("break outside loop", stmt.line)
            self.builder.jump(self._loop_stack[-1][0], line=stmt.line)
            self._start_dead_block()
        elif isinstance(stmt, ast.ContinueStmt):
            if not self._loop_stack:
                raise SemanticError("continue outside loop", stmt.line)
            self.builder.jump(self._loop_stack[-1][1], line=stmt.line)
            self._start_dead_block()
        elif isinstance(stmt, ast.ForkStmt):
            self._lower_fork(stmt)
        elif isinstance(stmt, ast.JoinStmt):
            handle = self._as_temp(self._rvalue(stmt.handle))
            self.builder.join(handle, line=stmt.line)
        elif isinstance(stmt, ast.LockStmt):
            self.builder.lock(self._as_temp(self._rvalue(stmt.lock_expr)), line=stmt.line)
        elif isinstance(stmt, ast.UnlockStmt):
            self.builder.unlock(self._as_temp(self._rvalue(stmt.lock_expr)), line=stmt.line)
        elif isinstance(stmt, ast.WaitStmt):
            cv = self._as_temp(self._rvalue(stmt.cond_expr))
            mu = self._as_temp(self._rvalue(stmt.mutex_expr))
            self.builder.wait(cv, mu, line=stmt.line)
        elif isinstance(stmt, ast.SignalStmt):
            cv = self._as_temp(self._rvalue(stmt.cond_expr))
            self.builder.signal(cv, broadcast=stmt.broadcast, line=stmt.line)
        elif isinstance(stmt, ast.BarrierInitStmt):
            ptr = self._as_temp(self._rvalue(stmt.barrier_expr))
            count = self._rvalue(stmt.count)
            self.builder.barrier_init(ptr, count, line=stmt.line)
        elif isinstance(stmt, ast.BarrierWaitStmt):
            ptr = self._as_temp(self._rvalue(stmt.barrier_expr))
            self.builder.barrier_wait(ptr, line=stmt.line)
        else:
            raise SemanticError(f"cannot lower statement {type(stmt).__name__}", stmt.line)

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        ty = self.resolve_type(stmt.type_spec)
        in_rec = self.builder.function.name in self._recursive_fns
        slot = self._declare_local(stmt.name, ty, stmt.array_size, in_rec, stmt.line)
        if stmt.init is not None:
            value = self._rvalue(stmt.init)
            addr = self.builder.addr_of(slot.obj, hint=f"a.{stmt.name}", line=stmt.line)
            self.builder.store(addr, value, line=stmt.line)

    def _lower_assign(self, target: ast.Expr, value: ast.Expr, line: int) -> None:
        addr = self._lvalue(target)
        val = self._rvalue(value)
        self.builder.store(addr, val, line=line)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        cond = self._rvalue(stmt.cond)
        then_block = self.builder.new_block("if.then")
        else_block = self.builder.new_block("if.else")
        merge = self.builder.new_block("if.end")
        self.builder.branch(cond, then_block, else_block, line=stmt.line)
        self.builder.position_at(then_block)
        self._lower_stmts(stmt.then_body)
        if self.builder.block.terminator is None:
            self.builder.jump(merge)
        self.builder.position_at(else_block)
        self._lower_stmts(stmt.else_body)
        if self.builder.block.terminator is None:
            self.builder.jump(merge)
        self.builder.position_at(merge)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.builder.new_block("while.head")
        body = self.builder.new_block("while.body")
        exit_block = self.builder.new_block("while.end")
        self.builder.jump(header, line=stmt.line)
        self.builder.position_at(header)
        cond = self._rvalue(stmt.cond)
        self.builder.branch(cond, body, exit_block, line=stmt.line)
        self.builder.position_at(body)
        self._loop_stack.append((exit_block, header))
        self._lower_stmts(stmt.body)
        self._loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.jump(header)
        self.builder.position_at(exit_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        header = self.builder.new_block("for.head")
        body = self.builder.new_block("for.body")
        step_block = self.builder.new_block("for.step")
        exit_block = self.builder.new_block("for.end")
        self.builder.jump(header, line=stmt.line)
        self.builder.position_at(header)
        if stmt.cond is not None:
            cond = self._rvalue(stmt.cond)
            self.builder.branch(cond, body, exit_block, line=stmt.line)
        else:
            self.builder.jump(body)
        self.builder.position_at(body)
        self._loop_stack.append((exit_block, step_block))
        self._lower_stmts(stmt.body)
        self._loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.jump(step_block)
        self.builder.position_at(step_block)
        if stmt.step is not None:
            self._lower_stmt(stmt.step)
        self.builder.jump(header)
        self.builder.position_at(exit_block)

    def _lower_fork(self, stmt: ast.ForkStmt) -> None:
        handle_ptr: Optional[Temp] = None
        if stmt.handle is not None:
            handle_ptr = self._as_temp(self._rvalue(stmt.handle))
        routine = self._rvalue(stmt.routine)
        arg = self._rvalue(stmt.arg) if stmt.arg is not None else None
        self.builder.fork(handle_ptr, routine, arg, line=stmt.line)

    def _start_dead_block(self) -> None:
        dead = self.builder.new_block("dead")
        self.builder.position_at(dead)

    # -- expressions ----------------------------------------------------

    def _as_temp(self, value: Value) -> Temp:
        """Materialise *value* as a Temp (constants get copied)."""
        if isinstance(value, Temp):
            return value
        return self.builder.copy(value)

    def _lvalue(self, expr: ast.Expr) -> Temp:
        """Lower *expr* as an lvalue; returns the address temp."""
        if isinstance(expr, ast.NameExpr):
            slot = self.locals.get(expr.name)
            if slot is not None:
                return self.builder.addr_of(slot.obj, hint=f"a.{expr.name}", line=expr.line)
            gobj = self.globals.get(expr.name)
            if gobj is not None:
                return self.builder.addr_of(gobj, hint=f"a.{expr.name}", line=expr.line)
            raise SemanticError(f"unknown variable {expr.name}", expr.line)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            return self._as_temp(self._rvalue(expr.operand))
        if isinstance(expr, ast.MemberExpr):
            return self._member_address(expr)
        if isinstance(expr, ast.IndexExpr):
            return self._element_address(expr)
        raise SemanticError(f"expression is not assignable", expr.line)

    def _member_address(self, expr: ast.MemberExpr) -> Temp:
        if expr.arrow:
            base_ptr = self._as_temp(self._rvalue(expr.base))
            base_ty = base_ptr.type.pointee if isinstance(base_ptr.type, PointerType) else None
        else:
            base_ptr = self._lvalue(expr.base)
            base_ty = base_ptr.type.pointee if isinstance(base_ptr.type, PointerType) else None
        # Arrays of structs: a[i].f — the element address is typed as
        # the element struct.
        if isinstance(base_ty, ArrayType):
            base_ty = base_ty.element
        if not isinstance(base_ty, StructType):
            raise SemanticError(
                f"member access {expr.field_name!r} on non-struct value", expr.line)
        try:
            index = base_ty.field_index(expr.field_name)
        except KeyError as exc:
            raise SemanticError(str(exc), expr.line) from None
        field_ty = base_ty.field_type(index)
        return self.builder.gep(base_ptr, index, field_ty, line=expr.line)

    def _element_address(self, expr: ast.IndexExpr) -> Temp:
        # Array variable or array-typed struct field: index its object
        # (decay to the address); pointer: index its target.
        base: Temp
        elem_ty: Type = INT
        if (isinstance(expr.base, ast.NameExpr) and self._name_is_array(expr.base.name)) \
                or isinstance(expr.base, ast.MemberExpr):
            base = self._lvalue(expr.base)
            pointee = base.type.pointee if isinstance(base.type, PointerType) else None
            if isinstance(pointee, ArrayType):
                elem_ty = pointee.element
            elif pointee is not None:
                # A pointer-typed field indexed like an array: load the
                # pointer value first.
                base = self.builder.load(base, line=expr.line)
                inner = base.type.pointee if isinstance(base.type, PointerType) else None
                elem_ty = inner if inner is not None else INT
        else:
            base = self._as_temp(self._rvalue(expr.base))
            pointee = base.type.pointee if isinstance(base.type, PointerType) else None
            if isinstance(pointee, ArrayType):
                elem_ty = pointee.element
            elif pointee is not None:
                elem_ty = pointee
        self._rvalue(expr.index, result_used=False)  # evaluate for effects
        return self.builder.gep(base, None, elem_ty, line=expr.line)

    def _name_is_array(self, name: str) -> bool:
        slot = self.locals.get(name)
        if slot is not None:
            return isinstance(slot.type, ArrayType)
        gobj = self.globals.get(name)
        return gobj is not None and isinstance(gobj.type, ArrayType)

    def _rvalue(self, expr: ast.Expr, result_used: bool = True) -> Value:
        """Lower *expr* as an rvalue."""
        if isinstance(expr, ast.NumberExpr):
            return Constant(expr.value, INT)
        if isinstance(expr, ast.NullExpr):
            return Constant.null(PointerType(VOID))
        if isinstance(expr, ast.NameExpr):
            return self._name_rvalue(expr)
        if isinstance(expr, ast.UnaryExpr):
            if expr.op == "&":
                return self._lvalue(expr.operand)
            if expr.op == "*":
                ptr = self._as_temp(self._rvalue(expr.operand))
                return self.builder.load(ptr, line=expr.line)
            operand = self._rvalue(expr.operand)
            return self.builder.binop(expr.op, Constant(0, INT), operand, line=expr.line)
        if isinstance(expr, ast.BinaryExpr):
            lhs = self._rvalue(expr.lhs)
            rhs = self._rvalue(expr.rhs)
            return self.builder.binop(expr.op, lhs, rhs, line=expr.line)
        if isinstance(expr, (ast.MemberExpr, ast.IndexExpr)):
            addr = self._lvalue(expr)
            return self.builder.load(addr, line=expr.line)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr, result_used)
        if isinstance(expr, ast.MallocExpr):
            ty = self.resolve_type(expr.alloc_type)
            obj = self.builder.heap_object(f"malloc.l{expr.line}", ty)
            return self.builder.addr_of(obj, hint="m", line=expr.line)
        raise SemanticError(f"cannot lower expression {type(expr).__name__}", expr.line)

    def _name_rvalue(self, expr: ast.NameExpr) -> Value:
        fn = self.functions.get(expr.name)
        if fn is not None:
            return fn
        slot = self.locals.get(expr.name)
        if slot is not None:
            if isinstance(slot.type, ArrayType):
                # Array-to-pointer decay: the value is the address.
                return self.builder.addr_of(slot.obj, hint=f"a.{expr.name}", line=expr.line)
            addr = self.builder.addr_of(slot.obj, hint=f"a.{expr.name}", line=expr.line)
            return self.builder.load(addr, hint=f"v.{expr.name}", line=expr.line)
        gobj = self.globals.get(expr.name)
        if gobj is not None:
            if isinstance(gobj.type, ArrayType):
                return self.builder.addr_of(gobj, hint=f"a.{expr.name}", line=expr.line)
            addr = self.builder.addr_of(gobj, hint=f"a.{expr.name}", line=expr.line)
            return self.builder.load(addr, hint=f"v.{expr.name}", line=expr.line)
        raise SemanticError(f"unknown name {expr.name}", expr.line)

    def _lower_call(self, expr: ast.CallExpr, result_used: bool) -> Value:
        args = [self._rvalue(a) for a in expr.args]
        callee: Value
        ret_ty: Type = INT
        if isinstance(expr.callee, ast.NameExpr) and expr.callee.name in self.functions:
            callee = self.functions[expr.callee.name]
            ret_ty = callee.type.ret
        else:
            callee = self._as_temp(self._rvalue(expr.callee))
            if isinstance(callee.type, PointerType) and isinstance(callee.type.pointee, FunctionType):
                ret_ty = callee.type.pointee.ret
            elif isinstance(callee.type, FunctionType):
                ret_ty = callee.type.ret
        dst = None
        if result_used and not isinstance(ret_ty, VoidType):
            dst = self.builder.temp(ret_ty, "r")
        self.builder.call(callee, args, dst=dst, line=expr.line)
        return dst if dst is not None else Constant(0, INT)


def _stack_kind():
    from repro.ir.values import ObjectKind
    return ObjectKind.STACK


def _prune_unreachable(fn: Function) -> None:
    """Drop blocks unreachable from the entry (dead-code landing pads
    created after return/break/continue)."""
    from repro.cfg.cfg import CFG
    reachable = CFG(fn).reachable_blocks()
    fn.blocks = [b for b in fn.blocks if b in reachable]


def _recursive_functions(program: ast.Program, known: set) -> set:
    """Names of functions participating in call-graph cycles, computed
    syntactically (sound over-approximation for locals-in-recursion).

    Functions whose address is taken anywhere are conservatively
    treated as recursive, because indirect calls could form cycles the
    syntactic scan cannot see.
    """
    from repro.graphs.digraph import DiGraph
    from repro.graphs.scc import tarjan_scc

    graph = DiGraph()
    address_taken: set = set()
    for fdef in program.functions:
        graph.add_node(fdef.name)

        def visit_expr(expr: ast.Expr, caller: str = fdef.name) -> None:
            if isinstance(expr, ast.CallExpr):
                if isinstance(expr.callee, ast.NameExpr) and expr.callee.name in known:
                    graph.add_edge(caller, expr.callee.name)
                else:
                    visit_expr(expr.callee, caller)
                for a in expr.args:
                    visit_expr(a, caller)
            elif isinstance(expr, ast.NameExpr):
                if expr.name in known:
                    address_taken.add(expr.name)
            elif isinstance(expr, ast.UnaryExpr):
                visit_expr(expr.operand, caller)
            elif isinstance(expr, ast.BinaryExpr):
                visit_expr(expr.lhs, caller)
                visit_expr(expr.rhs, caller)
            elif isinstance(expr, ast.MemberExpr):
                visit_expr(expr.base, caller)
            elif isinstance(expr, ast.IndexExpr):
                visit_expr(expr.base, caller)
                visit_expr(expr.index, caller)

        def visit_stmt(stmt: ast.Stmt) -> None:
            for child in _stmt_exprs(stmt):
                if child is not None:
                    visit_expr(child)
            for child_stmt in _stmt_children(stmt):
                visit_stmt(child_stmt)
            if isinstance(stmt, ast.ForkStmt) and isinstance(stmt.routine, ast.NameExpr):
                if stmt.routine.name in known:
                    # A fork edge: the routine runs, so cycles through
                    # forks count as recursion for its locals.
                    graph.add_edge(fdef.name, stmt.routine.name)

        for stmt in fdef.body:
            visit_stmt(stmt)

    in_cycle = set()
    for scc in tarjan_scc(graph):
        if len(scc) > 1:
            in_cycle.update(scc)
        elif graph.has_edge(scc[0], scc[0]):
            in_cycle.add(scc[0])
    return in_cycle | address_taken


def _stmt_exprs(stmt: ast.Stmt):
    """Direct child expressions of a statement."""
    if isinstance(stmt, ast.DeclStmt):
        return [stmt.init]
    if isinstance(stmt, ast.AssignStmt):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ast.ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, ast.IfStmt):
        return [stmt.cond]
    if isinstance(stmt, ast.WhileStmt):
        return [stmt.cond]
    if isinstance(stmt, ast.ForStmt):
        return [stmt.cond]
    if isinstance(stmt, ast.ReturnStmt):
        return [stmt.value]
    if isinstance(stmt, ast.ForkStmt):
        return [stmt.handle, stmt.arg]
    if isinstance(stmt, ast.JoinStmt):
        return [stmt.handle]
    if isinstance(stmt, (ast.LockStmt, ast.UnlockStmt)):
        return [stmt.lock_expr]
    return []


def _stmt_children(stmt: ast.Stmt):
    """Direct child statements of a statement."""
    if isinstance(stmt, ast.IfStmt):
        return stmt.then_body + stmt.else_body
    if isinstance(stmt, ast.WhileStmt):
        return stmt.body
    if isinstance(stmt, ast.ForStmt):
        children = list(stmt.body)
        if stmt.init is not None:
            children.append(stmt.init)
        if stmt.step is not None:
            children.append(stmt.step)
        return children
    return []


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower *program* to naive (pre-mem2reg) IR."""
    return Lowerer(program, name).lower()
