"""MiniC abstract syntax tree.

Plain dataclasses; the parser builds these and the lowering pass in
:mod:`repro.frontend` consumes them. Type syntax is represented
separately from semantic types (:mod:`repro.ir.types`), which the
semantic pass resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


# -- type syntax -------------------------------------------------------


@dataclass
class TypeSpec:
    """A parsed type: a base name plus pointer depth.

    ``base`` is ``"int"``, ``"void"``, ``"thread_t"``, ``"mutex_t"``,
    or ``"struct <name>"``.
    """

    base: str
    pointers: int = 0
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:
        return self.base + "*" * self.pointers


# -- expressions -------------------------------------------------------


@dataclass
class Expr:
    line: int = 0
    col: int = 0


@dataclass
class NumberExpr(Expr):
    value: int = 0


@dataclass
class NullExpr(Expr):
    pass


@dataclass
class NameExpr(Expr):
    name: str = ""


@dataclass
class UnaryExpr(Expr):
    op: str = ""  # '&', '*', '-', '!'
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class BinaryExpr(Expr):
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class MemberExpr(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""

    base: Expr = None  # type: ignore[assignment]
    field_name: str = ""
    arrow: bool = False


@dataclass
class IndexExpr(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class CallExpr(Expr):
    callee: Expr = None  # type: ignore[assignment]
    args: List[Expr] = field(default_factory=list)


@dataclass
class MallocExpr(Expr):
    """``malloc(T)`` — a typed allocation for simplicity; each textual
    occurrence is a distinct allocation site."""

    alloc_type: TypeSpec = None  # type: ignore[assignment]


# -- statements --------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0
    col: int = 0


@dataclass
class DeclStmt(Stmt):
    """``T name;`` or ``T name[N];`` with optional initialiser."""

    type_spec: TypeSpec = None  # type: ignore[assignment]
    name: str = ""
    array_size: Optional[int] = None
    init: Optional[Expr] = None


@dataclass
class AssignStmt(Stmt):
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class ForkStmt(Stmt):
    """``fork(&handle, routine, arg);`` — pthread_create."""

    handle: Optional[Expr] = None  # the &handle expression (may be null)
    routine: Expr = None  # type: ignore[assignment]
    arg: Optional[Expr] = None


@dataclass
class JoinStmt(Stmt):
    """``join(handle);`` — pthread_join."""

    handle: Expr = None  # type: ignore[assignment]


@dataclass
class LockStmt(Stmt):
    """``lock(&m);`` — pthread_mutex_lock."""

    lock_expr: Expr = None  # type: ignore[assignment]


@dataclass
class UnlockStmt(Stmt):
    lock_expr: Expr = None  # type: ignore[assignment]


@dataclass
class WaitStmt(Stmt):
    """``wait(&cv, &mu);`` — pthread_cond_wait."""

    cond_expr: Expr = None  # type: ignore[assignment]
    mutex_expr: Expr = None  # type: ignore[assignment]


@dataclass
class SignalStmt(Stmt):
    """``signal(&cv);`` / ``broadcast(&cv);``."""

    cond_expr: Expr = None  # type: ignore[assignment]
    broadcast: bool = False


@dataclass
class BarrierInitStmt(Stmt):
    """``barrier_init(&b, n);``."""

    barrier_expr: Expr = None  # type: ignore[assignment]
    count: Expr = None  # type: ignore[assignment]


@dataclass
class BarrierWaitStmt(Stmt):
    """``barrier_wait(&b);``."""

    barrier_expr: Expr = None  # type: ignore[assignment]


# -- top level ---------------------------------------------------------


@dataclass
class ParamDecl:
    """A parameter or struct-field declaration; fields may carry an
    array size (``struct macroblock mbs[16];``)."""

    type_spec: TypeSpec = None  # type: ignore[assignment]
    name: str = ""
    line: int = 0
    col: int = 0
    array_size: Optional[int] = None


@dataclass
class FunctionDef:
    ret_type: TypeSpec = None  # type: ignore[assignment]
    name: str = ""
    params: List[ParamDecl] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class StructDef:
    name: str = ""
    fields: List[ParamDecl] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class GlobalDecl:
    type_spec: TypeSpec = None  # type: ignore[assignment]
    name: str = ""
    array_size: Optional[int] = None
    line: int = 0
    col: int = 0
    # C-style constant initialiser: a number, null, &global, or a
    # function name (lowered as a store at the top of main).
    init: Optional[Expr] = None


@dataclass
class Program:
    structs: List[StructDef] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
