"""Partitions, Young-diagram cells, skew shapes, and box additions.

Cells are 1-based (row, col) pairs.  A partition is a weakly decreasing
tuple of nonnegative parts with trailing zeros stripped.  Adding a letter
i to a shape appends one box to row i; a sequence of additions is valid
only when every intermediate shape is again a partition.  _skew_cells
keeps the cell tuple of every shape asked for as long as the process
lives.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import index, le
from typing import Any, Iterable, Iterator, NamedTuple, TypeVar

Cell = tuple[int, int]
V = TypeVar("V", bound="Value")


class cached_attribute(cached_property):
    """cached_property without the RLock that Python 3.11 takes on every first read."""

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class NotWeaklyDecreasing(ValueError):
    """Parts must weakly decrease."""


class NegativePart(ValueError):
    """Parts must be nonnegative."""


class NotContained(ValueError):
    """The inner shape sticks out of the outer one."""


class Value:
    """Base of the validated value types.  A subclass names its fields in
    _fields, and its __init__ checks and canonicalises its arguments before
    Value.__init__ sets the fields in order past __setattr__.  _unchecked
    builds a value, without those checks, from field values that the caller
    guarantees are what __init__ would set.  The base gives the rest: equality
    with a value of the same class only (NotImplemented otherwise), the hash of
    the tuple of field values, the repr Name(field=value, ...), refused
    assignment and deletion, and copies and pickles rebuilt through the checked
    __init__.  No subclass overrides the pair: the searches' caches key on raw
    tuples, so no search hashes or compares a value."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls: type[V], *values: object) -> V:
        value = object.__new__(cls)
        Value.__init__(value, *values)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return (self._values() == other._values() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values()


class Partition(Value):
    """Weakly decreasing nonnegative parts, stored with trailing zeros stripped."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(map(index, parts))
        for k, p in enumerate(parts):
            if p < 0:
                raise NegativePart(f"part {k + 1} is {p}")
            if k > 0 and parts[k - 1] < p:
                raise NotWeaklyDecreasing(
                    f"part {k} is {parts[k - 1]} but part {k + 1} is {p}")
        # the parts weakly decrease, so every part from the first zero on is zero
        if 0 in parts:
            parts = parts[:parts.index(0)]
        super().__init__(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        """The parts as the CLI reads them: "3,1,1", and "-" for the empty shape."""
        return ",".join(map(str, self.parts)) or "-"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; rows past the last part are 0."""
        if i < 1:
            raise ValueError(f"row index must be positive, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def contains(self, other: Partition) -> bool:
        """Cellwise containment: every row of other fits in the same row here."""
        return len(other.parts) <= len(self.parts) and all(map(le, other.parts, self.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)


make_partition = Partition


def cells(shape: Partition) -> tuple[Cell, ...]:
    """All cells of the diagram, row-major."""
    return _skew_cells(shape.parts, ())


class SkewShape(Value):
    """The cells of an outer shape not covered by an inner one."""

    __slots__ = _fields = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition) -> None:
        if not outer.contains(inner):
            raise NotContained(f"inner shape {inner} does not fit inside outer shape {outer}")
        super().__init__(outer, inner)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def cells(self) -> tuple[Cell, ...]:
        """Skew cells, row-major."""
        return _skew_cells(self.outer.parts, self.inner.parts)

    def to_json(self) -> dict:
        return {"outer": self.outer.to_json(), "inner": self.inner.to_json()}


@lru_cache(maxsize=None)
def _skew_cells(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[Cell, ...]:
    """The cells of outer minus inner, row-major, kept per pair of part tuples;
    cells and SkewShape.cells both read them here."""
    inner += (0,) * (len(outer) - len(inner))
    return tuple((i, j) for i, (p, q) in enumerate(zip(outer, inner), start=1)
                 for j in range(q + 1, p + 1))


skew = SkewShape


class BoxAddition(NamedTuple):
    shape: tuple[int, ...]
    cell: Cell
    is_partition: bool


class AdditionStep(NamedTuple):
    letter: int
    cell: Cell
    valid: bool


class AdditionResult(NamedTuple):
    """Outcome of adding a letter sequence to a shape, one box per step.

    steps records every attempted addition up to and including the first
    invalid one; failed_at is that step's 1-based index, or None when the
    whole sequence is valid and final holds the resulting partition.
    """

    final: Partition | None
    steps: tuple[AdditionStep, ...]
    failed_at: int | None

    @property
    def ok(self) -> bool:
        return self.failed_at is None

    def destinations(self) -> tuple[Cell, ...]:
        """The cell each letter landed in, in letter order."""
        return tuple(step.cell for step in self.steps)


def add_box(shape: Partition, i: int) -> BoxAddition:
    """Append one box to row i, reporting whether the result is a partition.

    Rows past the last part count as empty, so any positive row index is
    allowed.  Invalid results are reported rather than raised, so a caller
    can see where a sequence of additions breaks.
    """
    if i < 1:
        raise ValueError(f"row index must be positive, got {i}")
    parts = list(shape.parts) + [0] * (i - len(shape.parts))
    parts[i - 1] += 1
    destination = (i, parts[i - 1])
    ok = all(parts[k] >= parts[k + 1] for k in range(len(parts) - 1))
    return BoxAddition(tuple(parts), destination, ok)


def add_sequence(shape: Partition, letters: Iterable[int]) -> AdditionResult:
    """Add letters left to right, stopping at the first invalid step."""
    current = shape
    steps: list[AdditionStep] = []
    for k, letter in enumerate(letters, start=1):
        added = add_box(current, letter)
        steps.append(AdditionStep(letter, added.cell, added.is_partition))
        if not added.is_partition:
            return AdditionResult(final=None, steps=tuple(steps), failed_at=k)
        current = Partition(added.shape)
    return AdditionResult(final=current, steps=tuple(steps), failed_at=None)


@lru_cache(maxsize=None)
def _partition_tuples(total: int, largest: int) -> tuple[tuple[int, ...], ...]:
    if total == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    for first in range(min(total, largest), 0, -1):
        for rest in _partition_tuples(total - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(total: int) -> tuple[Partition, ...]:
    """All partitions of the given size, in descending lexicographic order."""
    if total < 0:
        return ()
    return tuple(Partition(t) for t in _partition_tuples(total, total))


def subpartitions(shape: Partition) -> tuple[Partition, ...]:
    """All partitions contained cellwise in the given one, largest first."""
    rows: list[tuple[int, ...]] = [()]
    for bound in shape.parts:
        rows = [acc + (p,) for acc in rows
                for p in range(min(bound, acc[-1] if acc else bound) + 1)]
    ordered = sorted(rows, key=lambda t: (sum(t), t), reverse=True)
    return tuple(Partition(t) for t in ordered)
