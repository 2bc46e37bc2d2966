"""IR values: temporaries, constants, functions, and abstract memory objects.

The value universe follows the paper's partial-SSA split: ``Temp``s are
the top-level variables ``T`` (kept in registers, thread-local), while
``MemObject``s are the address-taken variables / abstract heap objects
``A``, only ever accessed through loads and stores.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Optional

from repro.ir.types import Type


class Value:
    """Base class of everything an instruction may reference."""

    def __init__(self, name: str, ty: Type) -> None:
        self.name = name
        self.type = ty

    def __repr__(self) -> str:
        return self.name


class Temp(Value):
    """A top-level (register) variable; unique definition in SSA form."""

    _ids = itertools.count()

    def __init__(self, name: str, ty: Type) -> None:
        super().__init__(name, ty)
        self.id = next(Temp._ids)

    def __repr__(self) -> str:
        return f"%{self.name}"


class Constant(Value):
    """An integer constant or the null pointer."""

    def __init__(self, value: int, ty: Type, is_null: bool = False) -> None:
        super().__init__(str(value) if not is_null else "null", ty)
        self.value = value
        self.is_null = is_null

    @classmethod
    def null(cls, ty: Type) -> "Constant":
        return cls(0, ty, is_null=True)

    def __repr__(self) -> str:
        return "null" if self.is_null else str(self.value)


class ObjectKind(enum.Enum):
    """The storage class of an abstract memory object.

    The kind decides singleton-ness, which gates strong updates in the
    sparse solver (paper Figure 10: heap, arrays, and locals of
    recursive functions are excluded from ``singletons``).
    """

    GLOBAL = "global"
    STACK = "stack"
    HEAP = "heap"
    FUNCTION = "function"
    DUMMY = "dummy"  # models unknown/external memory


class MemObject(Value):
    """An address-taken abstract object (a member of ``A``).

    One object is created per allocation site (paper Section 4.2):
    per global, per address-taken local, per malloc site. With
    field-sensitivity on, each struct field gets its own derived
    object sharing the base's allocation site.
    """

    _ids = itertools.count()

    def __init__(
        self,
        name: str,
        ty: Type,
        kind: ObjectKind,
        alloc_fn: Optional[str] = None,
        is_array: bool = False,
        in_recursion: bool = False,
    ) -> None:
        super().__init__(name, ty)
        self.id = next(MemObject._ids)
        self.kind = kind
        self.alloc_fn = alloc_fn  # function containing the allocation site
        self.is_array = is_array
        self.in_recursion = in_recursion
        self.base: Optional[MemObject] = None  # set on field objects
        self.field_index: Optional[int] = None
        self._fields: Dict[int, MemObject] = {}
        # Set for function objects so indirect calls can resolve.
        self.function: Optional["Function"] = None

    def field(self, index: int, ty: Type) -> "MemObject":
        """The derived object for struct field *index* (memoised)."""
        if index in self._fields:
            return self._fields[index]
        sub = MemObject(
            f"{self.name}.f{index}",
            ty,
            self.kind,
            alloc_fn=self.alloc_fn,
            is_array=self.is_array,
            in_recursion=self.in_recursion,
        )
        sub.base = self
        sub.field_index = index
        self._fields[index] = sub
        return sub

    def fields(self) -> Dict[int, "MemObject"]:
        return self._fields

    def root(self) -> "MemObject":
        """The base allocation this object derives from (itself if not a field)."""
        return self.base.root() if self.base is not None else self

    @property
    def is_singleton(self) -> bool:
        """True if this abstract object denotes exactly one runtime
        location — the precondition for a strong update."""
        if self.kind in (ObjectKind.HEAP, ObjectKind.DUMMY):
            return False
        if self.is_array or self.in_recursion:
            return False
        return True

    def __repr__(self) -> str:
        return f"@{self.name}"


class Function(Value):
    """A function definition: parameters plus a list of basic blocks.

    A function used as a value (stored through a function pointer)
    participates in points-to sets via its ``mem_object``, a
    FUNCTION-kind :class:`MemObject` created lazily.
    """

    def __init__(self, name: str, ty: Type) -> None:
        super().__init__(name, ty)
        self.params: list = []  # List[Temp]
        self.blocks: list = []  # List[BasicBlock]
        self.is_declaration = False
        self._mem_object: Optional[MemObject] = None

    @property
    def entry(self):
        """The entry basic block (the first one)."""
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    @property
    def mem_object(self) -> MemObject:
        """The abstract object representing this function's address."""
        if self._mem_object is None:
            obj = MemObject(f"fn:{self.name}", self.type, ObjectKind.FUNCTION)
            obj.function = self
            self._mem_object = obj
        return self._mem_object

    def instructions(self):
        """All instructions, block by block."""
        for block in self.blocks:
            for instr in block.instructions:
                yield instr

    def __repr__(self) -> str:
        return f"@{self.name}"


def object_key(obj: MemObject) -> str:
    """A cross-process identity key for an abstract object.

    Raw ``MemObject.id`` values come from a process-global counter;
    incremental analysis needs to match objects of a previous run
    against objects of a fresh pipeline, so it keys them by kind plus
    allocation-site-derived name instead. The key is only usable when
    it is globally unique within a module — the incremental layer
    verifies that and falls back to a cold solve when it is not.
    """
    return f"{obj.kind.value}:{obj.name}"
