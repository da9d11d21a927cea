"""Cell orders, admissible total orders, standardness, and picture enumeration.

The componentwise partial order compares cells coordinate by coordinate.
The row-reading total order ("jay") lists cells row by row, right to
left within a row; the column-reading total order ("eff") lists them
column by column from the rightmost, top to bottom within a column.  An
admissible order puts each cell before every other cell weakly below and
weakly to its left.  That precedence is generated by _direct_predecessors,
which both is_admissible_order and the admissible-order listing read.  A
picture is a bijection between two cell sets that is standard in both
directions.

TotalOrder(...), Picture(...) and the order listing canonicalise every
coordinate with operator.index, so a non-integral one raises TypeError, and
Picture sorts its pairs and rejects a repeated source or target.  Row
readings, listed orders and enumerate_pictures' pictures skip the checks via
_unchecked (TotalOrder's also presets _key and admissible); _picture_targets,
the search under enumerate_pictures, runs on two listings and yields targets.

A TotalOrder keeps what the searches derive from it until it is freed: its
sorted cells and admissibility, set at the start on row readings and listed
orders, each cell's listing position, the picture search's tables, the
filling steps and the reading gather.  Two caches live as long as the
process, both keyed on raw tuples so that no lookup hashes a value:
_row_reading holds one row reading per skew shape's outer and inner part
tuples, a partition reading as its skew shape over the empty partition,
and _admissible_orders the whole listing of every cell set it is asked
about, a search's result: 24,024 orders for the cells of 4,4,4,4.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .shapes import Cell, Partition, SkewShape, Value, _skew_cells, cached_attribute


class OrderCellMismatch(ValueError):
    """The order lists different cells than the shape has."""


class OrderNotAdmissible(ValueError):
    """The listing breaks the admissibility constraint."""


class SizeMismatch(ValueError):
    """Source and target cell sets have different sizes."""


def leq_P(a: Cell, b: Cell) -> bool:
    """Componentwise partial order: both coordinates weakly increase."""
    return a[0] <= b[0] and a[1] <= b[1]


def _jay_key(cell: Cell) -> tuple[int, int]:
    return (cell[0], -cell[1])


def _eff_key(cell: Cell) -> tuple[int, int]:
    return (-cell[1], cell[0])


def leq_J(a: Cell, b: Cell) -> bool:
    """Row-reading total order: lower row first, right before left in a row."""
    return _jay_key(a) <= _jay_key(b)


def leq_F(a: Cell, b: Cell) -> bool:
    """Column-reading total order: righter column first, top before bottom."""
    return _eff_key(a) <= _eff_key(b)


class TotalOrder(Value):
    """A total order on a finite cell set, materialized as a listing.

    Earlier in the listing means smaller in the order.
    """

    _fields = ("cells",)

    def __init__(self, cells: tuple[Cell, ...]) -> None:
        listing = tuple((index(r), index(c)) for r, c in cells)
        if len(set(listing)) != len(listing):
            raise ValueError("listing repeats a cell")
        super().__init__(listing)

    @classmethod
    def _unchecked(cls, listing: tuple[Cell, ...], key: tuple[Cell, ...]) -> TotalOrder:
        """Value._unchecked for an admissible listing whose sorted cells are key:
        the order starts with _key and admissible set, in one update of its dict."""
        order = object.__new__(cls)
        vars(order).update(cells=listing, _key=key, admissible=True)
        return order

    @classmethod
    def jay(cls, cell_set: Iterable[Cell]) -> TotalOrder:
        """The row-reading order on the given cells."""
        return cls(tuple(sorted(cell_set, key=_jay_key)))

    @classmethod
    def eff(cls, cell_set: Iterable[Cell]) -> TotalOrder:
        """The column-reading order on the given cells."""
        return cls(tuple(sorted(cell_set, key=_eff_key)))

    @cached_attribute
    def positions(self) -> dict[Cell, int]:
        return {cell: k for k, cell in enumerate(self.cells)}

    @cached_attribute
    def admissible(self) -> bool:
        return is_admissible_order(self)

    @cached_attribute
    def _key(self) -> tuple[Cell, ...]:
        """The listed cells sorted, which for a shape is its row-major cell tuple."""
        return tuple(sorted(self.cells))

    @cached_attribute
    def _key_positions(self) -> tuple[int, ...]:
        """The listing position of each cell of _key, in _key's order: the argsort."""
        return tuple(sorted(range(len(self.cells)), key=self.cells.__getitem__))

    @cached_attribute
    def _domain_tables(self) -> tuple[tuple[tuple[int, int, int, int], ...],
                                      tuple[int, ...], tuple[int, ...]]:
        return _build_domain_tables(self.cells)

    @cached_attribute
    def _codomain_tables(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                        tuple[int, ...], int]:
        return _build_codomain_tables(self.cells, self.positions)

    @cached_attribute
    def _filling_steps(self) -> tuple[tuple[int, int, int, int], ...]:
        return _build_filling_steps(self.cells, self._key)

    @cached_attribute
    def _gather(self) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """The entries along the listing, from the row-major entries of a
        tableau whose shape has exactly the listed cells."""
        # itemgetter returns a scalar for one index and needs at least one
        return itemgetter(*[step[0] for step in self._filling_steps]) if len(self) > 1 else tuple

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> dict:
        return {"cells": [list(cell) for cell in self.cells]}


def _build_domain_tables(sources: tuple[Cell, ...]
                   ) -> tuple[tuple[tuple[int, int, int, int], ...],
                              tuple[int, ...], tuple[int, ...]]:
    """enumerate_pictures' tables for a domain listing.

    nbrs[t] holds source t's neighbours above, left, below and right by
    index, len(sources) standing for none; before[t] and after[t] count the
    later-listed sources componentwise below and above source t.  The counts
    run from the last source back, keeping each line's coordinates of the
    sources already passed sorted, so a source costs one bisection per line.
    The componentwise order treats both coordinates alike, so the lines are
    the rows or the columns, whichever are fewer.
    """
    n = len(sources)
    index = {x: t for t, x in enumerate(sources)}
    nbrs = tuple((index.get((i - 1, j), n), index.get((i, j - 1), n),
                  index.get((i + 1, j), n), index.get((i, j + 1), n)) for i, j in sources)
    points = sources
    if len({i for i, _ in sources}) > len({j for _, j in sources}):
        points = tuple((j, i) for i, j in sources)
    # passed[a]: the second coordinates of the passed points on line a, sorted
    passed: dict[int, list[int]] = {a: [] for a in sorted({a for a, _ in points})}
    before = [0] * n
    after = [0] * n
    for t in range(n - 1, -1, -1):
        i, j = points[t]
        for a, line in passed.items():
            if a <= i:
                before[t] += bisect_right(line, j)
            if a >= i:
                after[t] += len(line) - bisect_left(line, j)
        insort(passed[i], j)
    return nbrs, tuple(before), tuple(after)


def _build_codomain_tables(listing: tuple[Cell, ...], position: Mapping[Cell, int]
                     ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                tuple[int, ...], int]:
    """enumerate_pictures' tables for a codomain listing.

    need[q] holds the listed cells just above and left of position q as
    bits; taking q may open the positions opens[q] just below and right of
    it, and freeing q closes them, closes[q] as bits.  The last entry is the
    initial frontier: the positions that need nothing, as bits.
    """
    n = len(listing)
    need = [0] * n
    opens: list[list[int]] = [[] for _ in listing]
    closes = [0] * n
    for q, (a, b) in enumerate(listing):
        for v in ((a + 1, b), (a, b + 1)):
            if v in position:
                p = position[v]
                need[p] |= 1 << q
                opens[q].append(p)
                closes[q] |= 1 << p
    frontier = sum(1 << q for q in range(n) if not need[q])
    return tuple(need), tuple(map(tuple, opens)), tuple(closes), frontier


def _build_filling_steps(listing: tuple[Cell, ...], key: tuple[Cell, ...]
                   ) -> tuple[tuple[int, int, int, int], ...]:
    """tableaux._pruned_fillings' steps for a listing, one per listed cell:
    its index in the sorted cells (row-major, for a shape), the indices of
    its right neighbour and of the cell above it (-1 for none), and the
    number of cells below it in its column.

    A cell with no right neighbour stores ~r in place of -1, r the cells of
    the first column listed before it: rows 1..r are then all listed, and
    no later cell holds an entry <= r.  That rests on "row i holds only
    entries >= i", true of a straight shape alone, so any other cell set (a
    skew shape's) keeps r = 0, that is -1, and no row counts as complete."""
    flat = {cell: k for k, cell in enumerate(key)}
    below: dict[Cell, int] = {}
    seen: dict[int, int] = {}
    for i, j in reversed(key):
        below[(i, j)] = seen.get(j, 0)
        seen[j] = below[(i, j)] + 1
    straight = all((i == 1 or (i - 1, j) in flat) and (j == 1 or (i, j - 1) in flat)
                   for i, j in key)
    steps = []
    done = 0
    for i, j in listing:
        steps.append((flat[(i, j)], flat.get((i, j + 1), ~done), flat.get((i - 1, j), -1),
                      below[(i, j)]))
        if straight and j == 1:
            done += 1
    return tuple(steps)


def _row_reading(shape: Partition | SkewShape) -> TotalOrder:
    """The row reading of a partition's or a skew shape's cells, one order
    object per pair of part tuples, a partition's being (parts, ()), so the
    searches build its tables once per shape and compare no value."""
    if isinstance(shape, SkewShape):
        return _skew_row_reading(shape.outer.parts, shape.inner.parts)
    return _skew_row_reading(shape.parts, ())


@lru_cache(maxsize=None)
def _skew_row_reading(outer: tuple[int, ...], inner: tuple[int, ...]) -> TotalOrder:
    key = _skew_cells(outer, inner)
    return TotalOrder._unchecked(tuple(sorted(key, key=_jay_key)), key)


def is_admissible_order(order: TotalOrder) -> bool:
    """Whether each listed cell comes after its _direct_predecessors, and so
    after every other cell weakly above and weakly right of it."""
    position = order.positions
    return all(position[a] < position[b]
               for b, direct in _direct_predecessors(order._key).items() for a in direct)


def enumerate_admissible_orders(cell_set: Iterable[Cell],
                                limit: int | None = None) -> tuple[TotalOrder, ...]:
    """All admissible orders on the cells, deterministically.

    These are the linear extensions of the precedence relation used by
    is_admissible_order; candidates are tried in row-major order at each
    step, which fixes the output order.  A limit truncates the output.
    """
    key = tuple(sorted({(index(r), index(c)) for r, c in set(cell_set)}))
    orders = _admissible_orders(key)
    return orders if limit is None else orders[:max(limit, 0)]


def _direct_predecessors(todo: tuple[Cell, ...]) -> dict[Cell, set[Cell]]:
    """For each cell (i, j) of the sorted cells, the leftmost cell at column
    >= j in each row above and the nearest cell at column > j in its own row.

    A cell must precede (i, j) in every admissible order exactly when it is
    another cell weakly above and weakly right of it.  Such a cell is reached
    from one of these by steps right along its row, each to a cell that must
    precede the last, so this relation's closure is the whole precedence.
    """
    lines: dict[int, list[int]] = {}
    for r, c in todo:
        lines.setdefault(r, []).append(c)
    predecessors: dict[Cell, set[Cell]] = {}
    for i, j in todo:
        direct = predecessors[(i, j)] = set()
        for r, line in lines.items():  # rows in increasing order, as todo is sorted
            if r > i:
                break
            k = bisect_left(line, j) if r < i else bisect_right(line, j)
            if k < len(line):
                direct.add((r, line[k]))
    return predecessors


@lru_cache(maxsize=None)
def _admissible_orders(todo: tuple[Cell, ...]) -> tuple[TotalOrder, ...]:
    # a candidate is ready once its direct predecessors are placed: each placed
    # cell's were, so the placed cells stay closed under the whole precedence
    predecessors = _direct_predecessors(todo)
    out: list[TotalOrder] = []
    listing: list[Cell] = []
    placed: set[Cell] = set()
    # one scan of todo per listed cell, so stepping back resumes after the cell listed
    levels = [iter(todo)]
    while levels:
        if len(listing) == len(todo):
            out.append(TotalOrder._unchecked(tuple(listing), todo))
        for candidate in levels[-1]:
            if candidate not in placed and predecessors[candidate] <= placed:
                listing.append(candidate)
                placed.add(candidate)
                levels.append(iter(todo))
                break
        else:
            levels.pop()
            if listing:
                placed.discard(listing.pop())
    return tuple(out)


def is_standard(mapping: Mapping[Cell, Cell], codomain_order: TotalOrder) -> bool:
    """Order compatibility of a cell map.

    Whenever two distinct source cells compare componentwise, their
    images must respect the codomain listing.  Images that the listing
    does not mention make the map nonstandard.  A prefix maximum over the
    sources' rows and columns gives the latest image below each source.
    """
    position = codomain_order.positions
    col_rank = {c: k for k, c in enumerate(sorted({c for _, c in mapping}))}
    rows: dict[int, dict[int, int]] = {}
    for (r, c), image in mapping.items():
        if image not in position:
            return False
        rows.setdefault(r, {})[col_rank[c]] = position[image]
    # best[k]: latest image position at column rank <= k in the rows so far
    best = [-1] * len(col_rank)
    for r in sorted(rows):
        here, running = rows[r], -1
        for k, above in enumerate(best):
            if above > running:
                running = above
            if k in here:
                if running > here[k]:
                    return False
                running = here[k]
            best[k] = running
    return True


class Picture(Value):
    """A bijection between two cell sets, stored as pairs sorted by source."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[Cell, Cell], ...]) -> None:
        pairs = tuple(sorted(((index(a), index(b)), (index(c), index(d)))
                             for (a, b), (c, d) in pairs))
        if len({p[0] for p in pairs}) != len(pairs):
            raise ValueError("pairing repeats a source cell")
        if len({p[1] for p in pairs}) != len(pairs):
            raise ValueError("pairing repeats a target cell")
        super().__init__(pairs)

    @cached_attribute
    def mapping(self) -> dict[Cell, Cell]:
        return dict(self.pairs)

    @cached_attribute
    def inverse(self) -> dict[Cell, Cell]:
        return {image: source for source, image in self.pairs}

    def apply(self, cell: Cell) -> Cell:
        return self.mapping[cell]

    def domain(self) -> tuple[Cell, ...]:
        return tuple(p[0] for p in self.pairs)

    def image(self) -> tuple[Cell, ...]:
        return tuple(p[1] for p in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {"pairs": [[list(a), list(b)] for a, b in self.pairs]}


def is_picture(pairing, domain_order: TotalOrder, codomain_order: TotalOrder) -> bool:
    """Bijectivity plus standardness of the map and of its inverse.

    Accepts a Picture, a mapping, or an iterable of (source, target)
    pairs.  Returns False rather than raising on any structural defect.
    """
    try:
        items = (pairing.pairs if isinstance(pairing, Picture)
                 else tuple(pairing.items()) if isinstance(pairing, Mapping)
                 else tuple(pairing))
        forward = dict(items)
        images = set(forward.values())
    except (TypeError, ValueError):  # no iterable of pairs, or an unhashable cell
        return False
    if len(forward) != len(items):
        return False
    if forward.keys() != domain_order.positions.keys():
        return False
    if len(images) != len(forward) or images != codomain_order.positions.keys():
        return False
    inverse = {image: source for source, image in forward.items()}
    return (is_standard(forward, codomain_order)
            and is_standard(inverse, domain_order))


def enumerate_pictures(mu: Partition | SkewShape, skew_shape: SkewShape,
                       domain_order: TotalOrder | None = None,
                       codomain_order: TotalOrder | None = None) -> tuple[Picture, ...]:
    """All pictures from the cells of mu onto the skew cells, sorted by pair list.

    Either side may be a partition or a skew shape.  The orders default to
    their shared row readings (_row_reading); any listing of a side's cells
    is accepted, and is checked against that reading.  All pictures share
    their sources, so sorting _picture_targets' target tuples sorts them.
    """
    domain_reading, codomain_reading = _row_reading(mu), _row_reading(skew_shape)
    if len(domain_reading) != len(codomain_reading):
        raise SizeMismatch(
            f"{len(domain_reading)} source cells vs {len(codomain_reading)} target cells")
    if domain_order is None:
        domain_order = domain_reading
    if codomain_order is None:
        codomain_order = codomain_reading
    if domain_order._key != domain_reading._key:
        raise OrderCellMismatch("domain order must list the cells of the source shape")
    if codomain_order._key != codomain_reading._key:
        raise OrderCellMismatch("codomain order must list the skew cells")
    found = sorted(_picture_targets(domain_order, codomain_order))
    sources = domain_reading._key
    return tuple([Picture._unchecked(tuple(zip(sources, targets))) for targets in found])


def _picture_targets(domain_order: TotalOrder,
                     codomain_order: TotalOrder) -> Iterator[tuple[Cell, ...]]:
    """enumerate_pictures' search on two listings of equally many cells: it yields
    each picture's targets, the images of the domain's cells in row-major order.

    Sources are placed in domain-listing order; an image must follow the
    images of the placed neighbours above and left, precede those below
    and right, and find the skew cells above and left of it taken.  Both
    shapes are convex, so these constant-time tests are exactly the two
    standardness conditions.

    The targets passing the second test form the frontier, a bit mask
    over codomain positions: taking a target removes it and adds each
    neighbour below or right of it whose cells above and left are now
    all taken, and freeing it undoes that.  Each source tries the
    frontier bits inside its window of the first test in increasing
    position, and stepping back resumes after its current choice.  A
    count cuts what cannot complete: if before[t] later-listed sources
    lie componentwise below source t and after[t] above it, forward
    standardness puts their images at distinct positions before and
    after t's image, so position q needs at least before[t] free positions
    below it and after[t] above it.  That holds for any listing, so the
    cut loses no picture, and it stops a level at the first q with too
    few above, since that number only falls as q grows.
    """
    source_positions = domain_order._key_positions
    listing = codomain_order.cells
    n = len(listing)
    nbrs, before, after = domain_order._domain_tables
    need, opens, closes, frontier = codomain_order._codomain_tables
    used = 0
    # images[t]: the position source t maps to, -1 while unplaced; images[n], read for
    # a missing neighbour, stays -1
    images = [-1] * (n + 1)
    # choices[t]: the frontier positions source t has yet to try
    choices = [0] * n
    t = 0
    while t >= 0:
        if t == n:
            yield tuple([listing[images[s]] for s in source_positions])
            t -= 1
            continue
        q = images[t]
        if q >= 0:
            used ^= 1 << q
            frontier = (frontier | 1 << q) & ~closes[q]
        else:
            # forward standardness against the placed neighbours; later ones read -1
            up, left, down, right = nbrs[t]
            low = images[up] if images[up] > images[left] else images[left]
            high = images[down] if images[down] >= 0 else n
            if 0 <= images[right] < high:
                high = images[right]
            choices[t] = frontier & ((1 << high) - (1 << low + 1)) if low < high else 0
        rest = choices[t]
        while rest:
            bit = rest & -rest
            rest ^= bit
            q = bit.bit_length() - 1
            # the later sources that must map below and above t need free positions there
            if q - (used & (bit - 1)).bit_count() < before[t]:
                continue
            if n - 1 - q - (used >> q).bit_count() < after[t]:
                rest = 0  # the free positions above only shrink as q grows
                continue
            used |= bit
            frontier ^= bit
            for p in opens[q]:
                if used & need[p] == need[p]:
                    frontier |= 1 << p
            choices[t] = rest
            images[t] = q
            t += 1
            break
        else:
            images[t] = -1
            t -= 1
