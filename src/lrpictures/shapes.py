"""Partitions, Young-diagram cells, skew shapes, and box additions.

Cells are 1-based (row, col) pairs.  A partition is a weakly decreasing
tuple of nonnegative parts with trailing zeros stripped.  Adding a letter
i to a shape appends one box to row i; a sequence of additions is valid
only when every intermediate shape is again a partition.  add_box and
add_sequence report an invalid step rather than raise it; they are the
public form of that addition, and the library itself runs it on row
lengths in lr._landings.

Partition, SkewShape and the other validated types (Tableau, Word,
TotalOrder, Picture, LRInstance) derive from Value: immutable, checked in
__init__, compared and hashed by their field values.  Unchecked records,
like AdditionResult and the lr reports, are NamedTuples.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Iterable, Iterator, NamedTuple

Cell = tuple[int, int]


class NotWeaklyDecreasing(ValueError):
    """Parts must weakly decrease."""


class NegativePart(ValueError):
    """Parts must be nonnegative."""


class NotContained(ValueError):
    """The inner shape sticks out of the outer one."""


class Value:
    """Base of the validated value types.  A subclass names its fields in
    _fields, sets them once in __init__ past __setattr__, and defines __eq__
    (same class only) and __hash__ (that of the tuple of field values);
    copies and pickles are rebuilt through __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(getattr(self, name) for name in self._fields)


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
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other: object) -> bool:
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

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
        return all(p <= self.part(i) for i, p in enumerate(other.parts, start=1))

    def to_json(self) -> list[int]:
        return list(self.parts)


def make_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a part sequence."""
    return Partition(tuple(parts))


@lru_cache(maxsize=None)
def cells(shape: Partition) -> tuple[Cell, ...]:
    """All cells of the diagram, row-major."""
    return tuple((i, j)
                 for i, p in enumerate(shape.parts, start=1)
                 for j in range(1, p + 1))


class SkewShape(Value):
    """The cells of an outer shape not covered by an inner one."""

    __slots__ = _fields = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition) -> None:
        if not outer.contains(inner):
            raise NotContained(f"{inner.parts} does not fit inside {outer.parts}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def __eq__(self, other: object) -> bool:
        return ((self.outer, self.inner) == (other.outer, other.inner)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

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
    """SkewShape.cells, kept per pair of part tuples as cells keeps each partition's."""
    inner += (0,) * (len(outer) - len(inner))
    return tuple((i, j) for i, (p, q) in enumerate(zip(outer, inner), start=1)
                 for j in range(q + 1, p + 1))


def skew(outer: Partition, inner: Partition) -> SkewShape:
    """The skew shape outer minus inner; inner must fit inside outer."""
    return SkewShape(outer, inner)


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
