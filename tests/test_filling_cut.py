"""The filling search's row-completion cut loses no filling and moves none.

Given a cap, tableaux._pruned_fillings cuts a branch once a row r of mu is
complete, its cell (r, 1) placed, while row r of lam plus the letters placed
is short of the cap's row r.  Its fillings, order included, are compared
here with an uncut search kept in this file, under the row reading and
under every admissible domain order.  The uncapped searches behind
decompose_tensor and enumerate_ssyt are compared with brute force.  Two
mutants of the cut must fail the comparison, and a skew listing must carry
no completed-row count, since "row i holds only entries >= i" fails there.
"""

import inspect
import textwrap
from collections import Counter
from itertools import product

import pytest

from lrpictures import tableaux
from lrpictures.lr import decompose_tensor, iter_instances
from lrpictures.pictures import _build_filling_steps, _row_reading, enumerate_admissible_orders
from lrpictures.shapes import Partition, _skew_cells, cells, partitions_of


def uncut_fillings(mu, lam, order, rank_bound, cap):
    """The filling search with no row-completion cut: a cell with no right
    neighbour is bounded by rank_bound and the cells below it alone."""
    if order is None:
        order = _row_reading(mu)
    steps = order._filling_steps
    n = len(steps)
    unbounded = n + lam.size + 1

    def padded(parts):
        parts = parts[:rank_bound]
        return [unbounded, *parts] + [0] * (rank_bound - len(parts))

    rows = padded(lam.parts)
    limit = [unbounded] * (rank_bound + 1) if cap is None else padded(cap.parts)
    entries = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            yield tuple(entries)
            k -= 1
            continue
        cell, right, above, below = steps[k]
        high = rank_bound - below
        v = entries[cell]
        if v:
            rows[v] -= 1
        elif above >= 0:
            v = entries[above]
        if right >= 0:
            high = min(high, entries[right])
        v += 1
        while v <= high and (rows[v] >= rows[v - 1] or rows[v] >= limit[v]):
            v += 1
        if v > high:
            entries[cell] = 0
            k -= 1
        else:
            rows[v] += 1
            entries[cell] = v
            k += 1


def filter_mismatches(search, max_size, every_order):
    """The instances and orders, up to |nu| = max_size, on which the search with
    nu as its cap lists other fillings, or the same in another order, than the
    uncut search; under the row reading alone, or every admissible domain order."""
    mismatches = []
    for inst in iter_instances(max_size):
        orders = enumerate_admissible_orders(cells(inst.mu)) if every_order else (None,)
        for order in orders:
            args = (inst.mu, inst.lam, order, len(inst.nu), inst.nu)
            if list(search(*args)) != list(uncut_fillings(*args)):
                mismatches.append((inst, order))
    return mismatches


def test_the_cut_keeps_every_filling_in_order_under_the_row_reading():
    assert filter_mismatches(tableaux._pruned_fillings, 8, every_order=False) == []


def test_the_cut_keeps_every_filling_in_order_under_every_domain_order():
    assert filter_mismatches(tableaux._pruned_fillings, 7, every_order=True) == []


@pytest.mark.slow
def test_the_cut_keeps_every_filling_in_order_up_to_nine_boxes():
    assert filter_mismatches(tableaux._pruned_fillings, 9, every_order=False) == []


STAIRCASE = Partition((5, 4, 3, 2, 1))


@pytest.mark.parametrize("nu, count", [((10, 9, 5, 3, 2, 1), 0), ((8, 7, 6, 4, 3, 2), 76),
                                       ((9, 8, 7, 3, 2, 1), 4), ((7, 6, 5, 4, 3, 2, 2, 1), 160)])
def test_the_cut_keeps_every_filling_in_order_on_staircases(nu, count):
    nu = Partition(nu)
    args = (STAIRCASE, STAIRCASE, None, len(nu), nu)
    fillings = list(tableaux._pruned_fillings(*args))
    assert len(fillings) == count
    assert fillings == list(uncut_fillings(*args))


def mutant(old, new):
    """_pruned_fillings with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(tableaux._pruned_fillings))
    assert source.count(old) == 1
    namespace = dict(vars(tableaux))
    exec(compile(source.replace(old, new), tableaux.__file__, "exec"), namespace)
    return namespace["_pruned_fillings"]


@pytest.mark.parametrize("new", ["rows[~right + 1] < need[~right + 1]",
                                 "rows[~right] <= need[~right]"])
def test_a_wrong_cut_fails_the_comparison(new):
    wrong = mutant("rows[~right] < need[~right]", new)
    assert filter_mismatches(wrong, 6, every_order=False)


def brute_ssyt(shape, max_entry):
    """The row-major entries of the shape's semistandard tableaux, by brute force."""
    found = []
    for entries in product(range(1, max_entry + 1), repeat=shape.size):
        value = dict(zip(cells(shape), entries))
        if all(value.get((i, j + 1), v) >= v and value.get((i + 1, j), v + 1) > v
               for (i, j), v in value.items()):
            found.append(entries)
    return found


def test_enumerate_ssyt_runs_uncapped_and_matches_brute_force():
    for shape in (p for total in range(6) for p in partitions_of(total)):
        for max_entry in range(5):
            listed = [sum(tab.rows, ()) for tab in tableaux.enumerate_ssyt.__wrapped__(
                shape, max_entry)]
            assert listed == brute_ssyt(shape, max_entry)


def brute_decompose(lam, mu, rank_bound, order):
    """decompose_tensor by brute force: add each tableau's reading to lam."""
    finals = Counter()
    for entries in brute_ssyt(mu, rank_bound):
        letters = [entries[cells(mu).index(cell)] for cell in order.cells]
        rows = list(lam.parts) + [0] * rank_bound
        for v in letters:
            if v > 1 and rows[v - 1] >= rows[v - 2]:
                break
            rows[v - 1] += 1
        else:
            finals[Partition(tuple(rows))] += 1
    return dict(finals)


def test_decompose_tensor_runs_uncapped_and_matches_brute_force():
    for lam in (p for total in range(4) for p in partitions_of(total)):
        for mu in (p for total in range(5) for p in partitions_of(total)):
            for rank_bound in range(max(len(lam), len(mu)) + 1, 5):
                for order in enumerate_admissible_orders(cells(mu)):
                    assert (decompose_tensor(lam, mu, rank_bound, order)
                            == brute_decompose(lam, mu, rank_bound, order))


def test_uncapped_searches_list_what_the_uncut_search_lists():
    for lam in (p for total in range(4) for p in partitions_of(total)):
        for mu in (p for total in range(6) for p in partitions_of(total)):
            for rank_bound in range(len(mu), 6):
                for order in enumerate_admissible_orders(cells(mu)):
                    args = (mu, lam, order, rank_bound, None)
                    assert (list(tableaux._pruned_fillings(*args))
                            == list(uncut_fillings(*args)))


def completed_rows(steps):
    """The completed-row count of each step whose cell has no right neighbour."""
    return [~right for _, right, _, _ in steps if right < 0]


def test_a_straight_listing_counts_the_first_column_cells_placed():
    assert completed_rows(_row_reading(Partition((1, 1, 1)))._filling_steps) == [0, 1, 2]
    assert completed_rows(_row_reading(Partition((3, 2, 2)))._filling_steps) == [0, 1, 2]
    # the column reading of 2,2 lists both right ends before (1, 1)
    column = ((1, 2), (2, 2), (1, 1), (2, 1))
    assert completed_rows(_build_filling_steps(column, cells(Partition((2, 2))))) == [0, 0]


def test_a_skew_listing_carries_no_completed_row_count():
    # in 3,2,1 / 2,1 the cell (3, 1) may hold 1, and so may (2, 2) and (1, 3) after
    # it: counting (3, 1) as row 1's first-column cell would cut a growing row 1
    key = _skew_cells((3, 2, 1), (2, 1))
    assert completed_rows(_build_filling_steps(((3, 1), (2, 2), (1, 3)), key)) == [0, 0, 0]
    skews = {inst.skew_shape.cells() for inst in iter_instances(6) if inst.lam.parts}
    assert len(skews) > 50
    for cell_set in skews:
        for order in enumerate_admissible_orders(cell_set):
            assert set(completed_rows(order._filling_steps)) <= {0}
