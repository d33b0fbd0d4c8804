"""IR type system.

The machine model is word-oriented: every scalar (int, float, bool,
pointer) occupies one 8-byte word, which keeps address arithmetic simple
while still letting the alias analyses and the ALAT reason about object
extents.  Aggregates (arrays, structs) have sizes that are multiples of
the word size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import IRError

#: Size in bytes of every scalar value and of one memory word.
WORD_SIZE = 8


class Type:
    """Base class of all IR types.  Types are immutable and hashable."""

    def size(self) -> int:
        """Size of a value of this type in bytes."""
        raise NotImplementedError

    def size_words(self) -> int:
        """Size of a value of this type in machine words."""
        return self.size() // WORD_SIZE

    @property
    def is_scalar(self) -> bool:
        """True for types that fit in a single register."""
        return False

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_aggregate(self) -> bool:
        return False


@dataclass(frozen=True)
class IntType(Type):
    """64-bit signed integer."""

    def size(self) -> int:
        return WORD_SIZE

    @property
    def is_scalar(self) -> bool:
        return True

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolType(Type):
    """Result type of comparisons; stored as a full word (0 or 1)."""

    def size(self) -> int:
        return WORD_SIZE

    @property
    def is_scalar(self) -> bool:
        return True

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class FloatType(Type):
    """64-bit IEEE float.  FP loads have longer latency on Itanium."""

    def size(self) -> int:
        return WORD_SIZE

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_float(self) -> bool:
        return True

    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class VoidType(Type):
    """Type of functions that return nothing."""

    def size(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to a pointee type.  One word wide."""

    pointee: Type

    def size(self) -> int:
        return WORD_SIZE

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    """Fixed-length array of ``count`` elements."""

    element: Type
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise IRError(f"array count must be non-negative, got {self.count}")

    def size(self) -> int:
        return self.element.size() * self.count

    @property
    def is_aggregate(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass(frozen=True)
class StructField:
    """One named field of a struct, at a byte offset from the base."""

    name: str
    type: Type
    offset: int


class StructType(Type):
    """Named struct type with ordered fields.

    Structs are nominal: two structs with the same layout but different
    names are distinct types.  Fields are laid out contiguously at
    word-aligned offsets.  A struct may be declared first and have its
    fields filled in later (for self-referential types such as linked
    lists); :meth:`define` completes the type.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._fields: list[StructField] = []
        self._by_name: dict[str, StructField] = {}
        self._size = 0
        self._defined = False

    def define(self, fields: list[tuple[str, Type]]) -> "StructType":
        """Set the field list.  Returns self for chaining."""
        if self._defined:
            raise IRError(f"struct {self.name} already defined")
        offset = 0
        for fname, ftype in fields:
            if fname in self._by_name:
                raise IRError(f"duplicate field {fname} in struct {self.name}")
            field = StructField(fname, ftype, offset)
            self._fields.append(field)
            self._by_name[fname] = field
            offset += ftype.size()
        self._size = offset
        self._defined = True
        return self

    @property
    def is_defined(self) -> bool:
        return self._defined

    @property
    def fields(self) -> list[StructField]:
        return list(self._fields)

    def field(self, name: str) -> StructField:
        """Look up a field by name, raising IRError if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise IRError(f"struct {self.name} has no field {name!r}") from None

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def size(self) -> int:
        if not self._defined:
            raise IRError(f"struct {self.name} used before its fields are defined")
        return self._size

    @property
    def is_aggregate(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"struct {self.name}"

    def __repr__(self) -> str:
        return f"StructType({self.name!r})"


#: Singleton scalar types (types are immutable, so sharing is safe).
INT = IntType()
FLOAT = FloatType()
BOOL = BoolType()
VOID = VoidType()


def element_type(ty: Type) -> Type:
    """The type obtained by dereferencing ``ty``.

    Pointers yield their pointee; arrays yield their element (arrays decay
    to element pointers in address arithmetic).
    """
    if isinstance(ty, PointerType):
        return ty.pointee
    if isinstance(ty, ArrayType):
        return ty.element
    raise IRError(f"cannot dereference non-pointer type {ty}")


def iter_struct_types(ty: Type) -> Iterator[StructType]:
    """Yield every struct type reachable from ``ty`` (without recursion
    through pointers, so self-referential structs terminate)."""
    if isinstance(ty, StructType):
        yield ty
    elif isinstance(ty, ArrayType):
        yield from iter_struct_types(ty.element)


def types_compatible(a: Type, b: Type) -> bool:
    """Structural compatibility used by the type checker.

    Scalars must match exactly; pointers are compatible when their
    pointees are; structs are nominal.
    """
    if a is b or a == b:
        return True
    if isinstance(a, PointerType) and isinstance(b, PointerType):
        return types_compatible(a.pointee, b.pointee)
    return False
