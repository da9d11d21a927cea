"""Littlewood-Richardson crystals, the picture bijection, and count oracles.

An instance fixes three shapes with lam inside nu and sizes adding up,
plus an entry bound for tableaux.  The filtered crystal consists of the
tableaux over mu whose reading word, added to lam one box at a time,
stays a partition throughout and lands exactly on nu.  That is a prefix
property, so the filter runs the filling search of the tableaux module
with nu as the cap, and never builds a tableau that fails it.  _landings
walks the same addition on row lengths for one word and names the cell
each box lands in; psi's membership test and both lemma checks use it.
phi turns a picture into such a tableau by recording the row coordinate
of each image cell; psi inverts it by sending each cell to the row named
by its entry, at the column just past lam plus the entry's position from
the right among equal entries.

phi is the map under verification, so it checks that its input is a
picture and builds its tableau through the validating Tableau(...); a
broken phi shows up as an error rather than as a malformed tableau.  psi
and conjecture_experiment build their pictures through
Picture._unchecked: _psi_pairs lists the cells of mu in row-major order
and gives each entry value's cells distinct columns, so its pairs are
already sorted by source with no target repeated.  Whether such a
pairing is a picture is decided where it is used, by membership in the
enumerated pictures: verify_bijection's for the row readings,
conjecture_experiment's for its order pair.

lr_coefficient_lattice is a deliberately separate oracle: it counts
lattice-word fillings of the skew shape by a backtracking loop of its own
over raw part tuples and never touches the tableau, crystal, or picture
code paths, so agreement between all three counts is meaningful evidence.
It keeps its own cache of per-shape steps, _lattice_steps, keyed on the raw
part tuples of nu and lam, rather than sharing the row readings the other
two paths cache; the count itself runs on every call.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cached_property, lru_cache
from operator import index
from typing import Iterable, Iterator, NamedTuple

from .pictures import (Picture, SizeMismatch, TotalOrder, _row_reading,
                       enumerate_admissible_orders, enumerate_pictures, is_picture)
from .shapes import (Cell, NotContained, Partition, SkewShape, Value, cells, partitions_of,
                     subpartitions)
from .tableaux import Tableau, _pruned_fillings, _row_lengths, _tableaux_of
# not used here; kept as names in lr that the perfbench tracer test patches
from .shapes import add_sequence  # noqa: F401
from .tableaux import enumerate_ssyt  # noqa: F401


class RankTooSmall(ValueError):
    """The entry bound cannot accommodate the shapes involved."""


class NotAPicture(ValueError):
    """The pairing fails the picture conditions for this instance."""


class NotLRCrystal(ValueError):
    """The tableau is not in the filtered crystal for this instance."""


class LRInstance(Value):
    """Three shapes with compatible sizes, plus the entry bound for tableaux.

    rank_bound defaults to the number of rows of nu: entries name rows
    added to lam, and a letter beyond that count could never land on nu.
    """

    _fields = ("lam", "mu", "nu", "rank_bound")

    def __init__(self, lam: Partition, mu: Partition, nu: Partition,
                 rank_bound: int | None = None) -> None:
        if lam.size + mu.size != nu.size:
            raise SizeMismatch(f"sizes must add up: {lam.size} + {mu.size} != {nu.size}")
        if not nu.contains(lam):
            raise NotContained(f"{lam.parts} does not fit inside {nu.parts}")
        rank_bound = max(1, len(nu)) if rank_bound is None else index(rank_bound)
        if rank_bound < max(1, len(nu)):
            raise RankTooSmall(
                f"rank bound {rank_bound} below the {len(nu)} rows of the target")
        for name, value in zip(self._fields, (lam, mu, nu, rank_bound)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return ((self.lam, self.mu, self.nu, self.rank_bound)
                == (other.lam, other.mu, other.nu, other.rank_bound)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.lam, self.mu, self.nu, self.rank_bound))

    @cached_property
    def skew_shape(self) -> SkewShape:
        return SkewShape(self.nu, self.lam)

    @cached_property
    def _row_readings(self) -> tuple[TotalOrder, TotalOrder]:
        """The row readings of mu and of the skew shape: the shared order objects
        that enumerate_pictures defaults to, so their tables are built once per shape."""
        return _row_reading(self.mu), _row_reading(self.skew_shape)

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(),
                "nu": self.nu.to_json(), "rank_bound": self.rank_bound}


def lr_filter(inst: LRInstance, order: TotalOrder | None = None) -> tuple[Tableau, ...]:
    """Tableaux over mu whose reading adds onto lam box by box, ending at nu.

    The reading defaults to the row reading; any admissible order on the
    cells of mu may be passed instead.  The filling search runs along that
    reading with nu as the cap, so it cuts a filling that leaves the
    partitions or outgrows nu at its first bad box.  Output is in
    lexicographic row-major order, whatever the reading.
    """
    # an entry past the rows of nu never lands on nu, so the rows of nu bound the search
    return _tableaux_of(inst.mu, _pruned_fillings(inst.mu, inst.lam, order,
                                                  len(inst.nu), inst.nu))


def _landings(letters: Iterable[int], inst: LRInstance) -> list[Cell] | None:
    """Add the letters to lam one box at a time, letter v onto row v, and
    return the cell each box lands in; None if a row would overtake the row
    above it or the shape reached is not nu."""
    nu = inst.nu.parts
    # rows[v] is the current length of row v; rows[0] never binds
    rows = _row_lengths(inst.nu.size + 1, inst.lam, len(nu))
    landed = []
    for v in letters:
        if v > len(nu) or rows[v] >= rows[v - 1]:
            return None
        rows[v] += 1
        landed.append((v, rows[v]))
    return landed if rows[1:] == [*nu] else None


def _in_lr_crystal(tab: Tableau, inst: LRInstance) -> bool:
    """tab is over mu and its row reading adds onto lam, landing on nu."""
    return tab.shape == inst.mu and _landings(
        [v for row in tab.rows for v in reversed(row)], inst) is not None


def phi(pic: Picture, inst: LRInstance) -> Tableau:
    """Turn a picture into a tableau by taking the row coordinate of each image."""
    if not is_picture(pic, *inst._row_readings):
        raise NotAPicture("the pairing is not a picture for this instance")
    mapping = pic.mapping
    rows = tuple(tuple(mapping[(i, j)][0] for j in range(1, p + 1))
                 for i, p in enumerate(inst.mu.parts, start=1))
    return Tableau(inst.mu, rows)


def _psi_pairs(tab: Tableau, lam: Partition) -> tuple[tuple[Cell, Cell], ...]:
    """Each cell with its psi target.  Equal entries form a horizontal strip, so rows
    top down, each right to left, meet each level set in p_function's order."""
    seen: dict[int, int] = {}
    pairs = []
    for i, row in enumerate(tab.rows, start=1):
        row_pairs = []
        for j in range(len(row), 0, -1):
            value = row[j - 1]
            seen[value] = p = seen.get(value, 0) + 1
            row_pairs.append(((i, j), (value, lam.part(value) + p)))
        pairs += reversed(row_pairs)
    return tuple(pairs)


def psi(tab: Tableau, inst: LRInstance) -> Picture:
    """Turn a filtered-crystal tableau into a picture.

    Each cell goes to the row named by its entry, in the column just past
    lam shifted by the entry's position from the right among its equals.
    """
    if not _in_lr_crystal(tab, inst):
        raise NotLRCrystal("the tableau is not in the filtered crystal for this instance")
    return Picture._unchecked(_psi_pairs(tab, inst.lam))


class BijectionReport(NamedTuple):
    """Outcome of checking the picture-crystal correspondence on one instance."""

    instance: LRInstance
    pictures: int
    crystals: int
    lattice: int
    bijection: str
    counterexample: dict | None

    @property
    def ok(self) -> bool:
        return self.bijection == "ok"

    def to_json(self) -> dict:
        return {"instance": self.instance.to_json(),
                "counts": {"pictures": self.pictures, "crystals": self.crystals,
                           "lattice": self.lattice},
                "bijection": self.bijection,
                "counterexample": self.counterexample}


def verify_bijection(inst: LRInstance) -> BijectionReport:
    """Enumerate both sides, push each picture through phi and psi, and compare.

    The report carries all three counts; bijection reads "ok" only when
    the maps are mutually inverse between the enumerated sets and the
    counts agree with the lattice oracle.  One round trip per picture
    suffices.  It shows phi injective into the crystal with psi undoing it,
    so each tableau phi reaches passes the reverse check, and psi sends any
    other one outside the pictures or to a picture that phi sends elsewhere.
    """
    pics = enumerate_pictures(inst.mu, inst.skew_shape)
    tabs = lr_filter(inst)
    lattice = lr_coefficient_lattice(inst)
    crystal_set = set(tabs)
    matched: set[Tableau] = set()
    counterexample = None
    for pic in pics:
        tab = phi(pic, inst)
        if tab not in crystal_set:
            counterexample = {"kind": "phi_image_outside_crystal",
                              "picture": pic.to_json()}
            break
        if psi(tab, inst) != pic:
            counterexample = {"kind": "psi_phi_not_identity",
                              "picture": pic.to_json()}
            break
        matched.add(tab)
    if counterexample is None:
        unmatched = next((tab for tab in tabs if tab not in matched), None)
        if unmatched is not None:
            kind = ("phi_psi_not_identity" if psi(unmatched, inst) in pics
                    else "psi_image_outside_pictures")
            counterexample = {"kind": kind, "tableau": unmatched.to_json()}
    if counterexample is None and not len(pics) == len(tabs) == lattice:
        counterexample = {"kind": "count_mismatch", "pictures": len(pics),
                          "crystals": len(tabs), "lattice": lattice}
    status = "ok" if counterexample is None else "fail"
    return BijectionReport(inst, len(pics), len(tabs), lattice, status, counterexample)


def lemma_add_check(pic: Picture, inst: LRInstance) -> bool:
    """Source cells of the reading map to the matching addition destinations.

    Reads phi of the picture row by row, adds the word to lam, and checks
    that the picture sends each letter's source cell to the cell that
    letter's box landed in.
    """
    tab, sources = phi(pic, inst), inst._row_readings[0].cells
    return [pic.mapping[c] for c in sources] == _landings(map(tab.entry, sources), inst)


def lemma_destination_check(tab: Tableau, inst: LRInstance) -> bool:
    """psi sends each cell to the addition destination of the letter read there."""
    mapping, sources = psi(tab, inst).mapping, inst._row_readings[0].cells
    return [mapping[c] for c in sources] == _landings(map(tab.entry, sources), inst)


def decompose_tensor(lam: Partition, mu: Partition, rank_bound: int,
                     order: TotalOrder | None = None) -> dict[Partition, int]:
    """Multiplicity of each final shape over all tableaux with valid additions.

    Both input shapes must have strictly fewer rows than rank_bound;
    entries are at most rank_bound, so every final shape has at most
    rank_bound rows.  The reading defaults to the row reading.  Runs the
    filling search of the crystal filter with no cap; a filling's final
    shape is lam plus its content, so fillings are counted by content.
    """
    if len(lam) > rank_bound - 1 or len(mu) > rank_bound - 1:
        raise RankTooSmall(
            f"input shapes must have fewer than {rank_bound} rows")
    contents = Counter(tuple(sorted(entries)) for entries in _pruned_fillings(
        mu, lam, order, rank_bound, None))
    multiplicities: dict[tuple[int, ...], int] = {}
    for content, count in contents.items():
        final = [*lam.parts] + [0] * (rank_bound - len(lam))
        for v in content:
            final[v - 1] += 1
        multiplicities[tuple(final)] = count
    ordered = sorted(multiplicities.items(), reverse=True)
    return {Partition(final): count for final, count in ordered}


@lru_cache(maxsize=None)
def _lattice_steps(nu: tuple[int, ...], lam: tuple[int, ...]
                   ) -> tuple[tuple[int | None, int | None], ...]:
    """The lattice oracle's steps for the skew shape nu/lam, one per skew cell in
    reverse row-reading order: the steps of the already filled neighbours above
    it and to its right, None for none.  Cached on the raw part tuples, so a
    sweep builds them once per skew shape."""
    fill_order = [(i, j) for i in range(len(nu))
                  for j in range(nu[i], lam[i] if i < len(lam) else 0, -1)]
    step_of = {cell: t for t, cell in enumerate(fill_order)}
    return tuple((step_of.get((i - 1, j)), step_of.get((i, j + 1))) for i, j in fill_order)


def lr_coefficient_lattice(inst: LRInstance) -> int:
    """Count lattice-word fillings of the skew shape by a backtracking loop.

    Fills the skew cells of nu over lam in reverse row-reading order with
    content mu, keeping rows weakly increasing, columns strictly
    increasing, and every prefix of the reading word lattice: at each
    point the letter k-1 must have appeared more often than k.  Works on
    raw part tuples only; independence from the tableau, crystal, and
    picture paths is the point of this oracle.
    """
    mu = inst.mu.parts
    neighbours = _lattice_steps(inst.nu.parts, inst.lam.parts)
    placed = [0] * (len(mu) + 1)
    letters = [0] * len(neighbours)  # 0 while a cell is unfilled
    total = 0
    t = 0
    while t >= 0:
        if t == len(neighbours):
            total += 1
            t -= 1
            continue
        above, right = neighbours[t]
        v = letters[t]
        if v:
            placed[v] -= 1
        elif above is not None:
            v = letters[above]
        high = len(mu) if right is None else letters[right]
        v += 1
        while v <= high and (placed[v] >= mu[v - 1]
                             or v > 1 and placed[v - 1] <= placed[v]):
            v += 1
        if v > high:
            letters[t] = 0
            t -= 1
        else:
            placed[v] += 1
            letters[t] = v
            t += 1
    return total


class CountTriple(NamedTuple):
    pictures: int
    crystals: int
    lattice: int


def lr_coefficient_all_methods(inst: LRInstance) -> CountTriple:
    """Three independently computed counts; agreement is the headline check."""
    return CountTriple(
        pictures=len(enumerate_pictures(inst.mu, inst.skew_shape)),
        crystals=len(lr_filter(inst)),
        lattice=lr_coefficient_lattice(inst),
    )


class ConjectureReport(NamedTuple):
    """One order pair's outcome: does psi biject the filtered crystal onto
    the generalized picture set for that pair.  Reports only; asserts nothing."""

    instance: LRInstance
    codomain_order: TotalOrder
    domain_order: TotalOrder
    crystals: int
    pictures: int
    well_defined: bool
    injective: bool
    surjective: bool

    @property
    def holds(self) -> bool:
        return self.well_defined and self.injective and self.surjective

    def to_json(self) -> dict:
        return {"instance": self.instance.to_json(),
                "codomain_order": self.codomain_order.to_json(),
                "domain_order": self.domain_order.to_json(),
                "crystals": self.crystals, "pictures": self.pictures,
                "well_defined": self.well_defined, "injective": self.injective,
                "surjective": self.surjective,
                "verdict": "holds" if self.holds else "fails"}


def conjecture_experiment(inst: LRInstance, codomain_order: TotalOrder,
                          domain_order: TotalOrder) -> ConjectureReport:
    """Apply psi to the crystal filtered along domain_order and compare its
    image with the pictures for the order pair.

    psi itself is unchanged from the row-reading case; only the filter and
    the picture set vary with the orders.  The report states whether every
    image is such a picture, whether psi is injective on the filter, and
    whether every picture is hit.  An image is such a picture exactly when
    enumerate_pictures, which returns every picture of the pair, lists it:
    both sort their pairs by source, so equal pairings are equal Pictures.
    """
    tabs = lr_filter(inst, domain_order)
    pics = set(enumerate_pictures(inst.mu, inst.skew_shape,
                                  domain_order, codomain_order))
    images = [Picture._unchecked(_psi_pairs(tab, inst.lam)) for tab in tabs]
    image_set = set(images)
    return ConjectureReport(
        inst, codomain_order, domain_order,
        crystals=len(tabs), pictures=len(pics),
        well_defined=image_set <= pics,
        injective=len(image_set) == len(images),
        surjective=pics <= image_set,
    )


def instances_of_size(total: int) -> Iterator[LRInstance]:
    """All instances whose target shape has the given size, deterministically."""
    mus = [partitions_of(size) for size in range(total + 1)]
    for nu in partitions_of(total):
        for lam in subpartitions(nu):
            for mu in mus[total - lam.size]:
                yield LRInstance(lam, mu, nu)


def iter_instances(max_size: int) -> Iterator[LRInstance]:
    """All instances with target size up to max_size, smallest sizes first."""
    for total in range(max_size + 1):
        yield from instances_of_size(total)


class SizeSummary(NamedTuple):
    size: int
    instances: int
    mismatches: int
    max_coefficient: int


class SweepReport(NamedTuple):
    """Aggregate outcome of verify_bijection over every instance up to a size."""

    max_size: int
    instances: int
    per_size: tuple[SizeSummary, ...]
    failures: tuple[BijectionReport, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # seconds stays off the wire so identical runs emit identical bytes
        return {"max_size": self.max_size, "instances": self.instances,
                "per_size": [s._asdict() for s in self.per_size],
                "failures": [f.to_json() for f in self.failures],
                "ok": self.ok}


def sweep(max_size: int) -> SweepReport:
    """Run verify_bijection on every instance with target size up to max_size."""
    start = time.perf_counter()
    per_size: list[SizeSummary] = []
    failures: list[BijectionReport] = []
    total = 0
    for size in range(max_size + 1):
        count = 0
        bad = 0
        top = 0
        for inst in instances_of_size(size):
            report = verify_bijection(inst)
            count += 1
            top = max(top, report.lattice)
            if not report.ok:
                bad += 1
                failures.append(report)
        per_size.append(SizeSummary(size, count, bad, top))
        total += count
    elapsed = round(time.perf_counter() - start, 3)
    return SweepReport(max_size, total, tuple(per_size), tuple(failures), elapsed)


def conjecture_rows(inst: LRInstance) -> tuple[ConjectureReport, ...]:
    """The conjecture experiment on every admissible (codomain, domain)
    order pair of one instance, codomain orders outermost."""
    return tuple(conjecture_experiment(inst, codomain, domain)
                 for codomain in enumerate_admissible_orders(inst.skew_shape.cells())
                 for domain in enumerate_admissible_orders(cells(inst.mu)))


def conjecture_sweep(max_size: int) -> tuple[ConjectureReport, ...]:
    """The conjecture experiment on every admissible order pair of every
    instance with target size up to max_size."""
    return tuple(row for inst in iter_instances(max_size) for row in conjecture_rows(inst))
