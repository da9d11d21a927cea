from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrpictures import pictures
from lrpictures.lr import LRInstance, lr_coefficient_lattice, lr_filter, phi
from lrpictures.pictures import (OrderCellMismatch, Picture, SizeMismatch,
                                 TotalOrder, _direct_predecessors,
                                 enumerate_admissible_orders,
                                 enumerate_pictures, is_admissible_order,
                                 is_picture, is_standard, leq_F, leq_J, leq_P)
from lrpictures.shapes import Partition, cells, partitions_of, skew, subpartitions

# the five-cell reference instance used throughout: (3,1,1) inside
# (4,3,2,1), source shape (3,2)
REF_MU = Partition((3, 2))
REF_SKEW = skew(Partition((4, 3, 2, 1)), Partition((3, 1, 1)))
REF_PIC_A = Picture((((1, 1), (1, 4)), ((1, 2), (2, 3)), ((1, 3), (2, 2)),
                     ((2, 1), (3, 2)), ((2, 2), (4, 1))))
REF_PIC_B = Picture((((1, 1), (1, 4)), ((1, 2), (2, 2)), ((1, 3), (4, 1)),
                     ((2, 1), (2, 3)), ((2, 2), (3, 2))))


def test_componentwise_order():
    assert leq_P((1, 2), (1, 2))
    assert leq_P((1, 2), (2, 2))
    assert not leq_P((1, 2), (2, 1))
    assert not leq_P((2, 1), (1, 2))


def test_row_reading_comparator():
    assert leq_J((1, 3), (1, 2))
    assert leq_J((1, 1), (2, 2))
    assert not leq_J((2, 2), (1, 1))


def test_column_reading_comparator():
    assert leq_F((2, 2), (1, 1))
    assert not leq_F((1, 1), (2, 2))
    assert leq_F((1, 3), (2, 3))


def test_named_orders_on_a_two_row_shape():
    cell_set = cells(Partition((3, 2)))
    assert TotalOrder.jay(cell_set).cells == (
        (1, 3), (1, 2), (1, 1), (2, 2), (2, 1))
    assert TotalOrder.eff(cell_set).cells == (
        (1, 3), (1, 2), (2, 2), (1, 1), (2, 1))


def test_order_rejects_duplicate_cells():
    with pytest.raises(ValueError):
        TotalOrder(((1, 1), (1, 1)))


@pytest.mark.parametrize("listing", [((1.9, 1),), ((1, 2), (1, 1.0)), (("1", 1),)])
def test_order_rejects_non_integral_coordinates(listing):
    with pytest.raises(TypeError):
        TotalOrder(listing)


def test_order_positions_and_json():
    order = TotalOrder.jay(cells(Partition((2,))))
    assert order.positions == {(1, 2): 0, (1, 1): 1}
    assert order.to_json() == {"cells": [[1, 2], [1, 1]]}
    assert len(order) == 2


def test_row_major_listing_is_not_admissible():
    # (1,2) must precede (1,1), so reading a row left to right breaks it
    assert not is_admissible_order(TotalOrder(((1, 1), (1, 2))))
    assert is_admissible_order(TotalOrder(((1, 2), (1, 1))))


def test_named_orders_are_always_admissible():
    for total in range(6):
        for shape in partitions_of(total):
            cell_set = cells(shape)
            assert is_admissible_order(TotalOrder.jay(cell_set))
            assert is_admissible_order(TotalOrder.eff(cell_set))


def test_admissible_orders_of_the_square():
    orders = enumerate_admissible_orders(cells(Partition((2, 2))))
    assert orders == (TotalOrder(((1, 2), (1, 1), (2, 2), (2, 1))),
                      TotalOrder(((1, 2), (2, 2), (1, 1), (2, 1))))
    assert orders[0] == TotalOrder.jay(cells(Partition((2, 2))))
    assert orders[1] == TotalOrder.eff(cells(Partition((2, 2))))


def test_admissible_orders_of_a_column():
    assert enumerate_admissible_orders(cells(Partition((1, 1)))) == (
        TotalOrder(((1, 1), (2, 1))),)


def test_admissible_order_limit():
    cell_set = cells(Partition((2, 2)))
    assert len(enumerate_admissible_orders(cell_set, limit=1)) == 1
    assert enumerate_admissible_orders(cell_set, limit=0) == ()


def test_admissible_orders_match_permutation_filter():
    """Brute force over all cell permutations agrees with the enumerator."""
    for parts in ((2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 2, 1), (3, 2, 1)):
        cell_set = cells(Partition(parts))
        expected = {perm for perm in permutations(cell_set)
                    if is_admissible_order(TotalOrder(perm))}
        listed = enumerate_admissible_orders(cell_set)
        assert {order.cells for order in listed} == expected
        assert len(set(listed)) == len(listed)


def reference_must_precede(a, b):
    return a != b and a[0] <= b[0] and a[1] >= b[1]


def reference_is_admissible_order(order):
    """The pair loop is_admissible_order ran before it tested standardness."""
    position = order.positions
    return not any(reference_must_precede(a, b) and position[a] >= position[b]
                   for a in order.cells for b in order.cells)


def reference_admissible_orders(cell_set):
    """The recursive extender _admissible_orders ran before it became a loop."""
    todo = tuple(sorted(set(cell_set)))
    predecessors = {b: {a for a in todo if reference_must_precede(a, b)} for b in todo}
    out, listing, placed = [], [], set()

    def extend():
        if len(listing) == len(todo):
            out.append(TotalOrder(tuple(listing)))
            return
        for candidate in todo:
            if candidate not in placed and predecessors[candidate] <= placed:
                listing.append(candidate)
                placed.add(candidate)
                extend()
                placed.discard(candidate)
                listing.pop()

    extend()
    return tuple(out)


def skew_cell_sets(max_size):
    """The cells of nu / lam for every lam inside every nu with |nu| <= max_size;
    lam = () gives every straight shape."""
    return [skew(nu, lam).cells() for total in range(max_size + 1)
            for nu in partitions_of(total) for lam in subpartitions(nu)]


def test_admissible_orders_match_the_recursive_reference_order_included():
    for cell_set in skew_cell_sets(7):
        assert enumerate_admissible_orders(cell_set) == reference_admissible_orders(cell_set)


def test_admissibility_matches_the_pair_loop_on_every_listing():
    for cell_set in skew_cell_sets(5):
        for listing in permutations(cell_set):
            order = TotalOrder(listing)
            assert is_admissible_order(order) == reference_is_admissible_order(order)


signed_coordinates = st.one_of(st.integers(-4, 4), st.integers(-10**9, 10**9))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_admissibility_matches_the_pair_loop_on_sparse_cells(data):
    listing = data.draw(st.lists(st.tuples(signed_coordinates, signed_coordinates),
                                 max_size=9, unique=True))
    if data.draw(st.booleans()):
        # the row reading is admissible; one swap may break it
        listing.sort(key=lambda cell: (cell[0], -cell[1]))
        if len(listing) > 1 and data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(listing) - 2))
            listing[k], listing[k + 1] = listing[k + 1], listing[k]
    order = TotalOrder(tuple(listing))
    assert is_admissible_order(order) == reference_is_admissible_order(order)


def closure(relation):
    """Everything reachable by following a relation {cell: its predecessors}."""
    reach = {}
    for cell in relation:
        seen, stack = set(), list(relation[cell])
        while stack:
            a = stack.pop()
            if a not in seen:
                seen.add(a)
                stack.extend(relation[a])
        reach[cell] = seen
    return reach


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(signed_coordinates, signed_coordinates), max_size=8, unique=True))
def test_direct_predecessors_close_to_the_whole_precedence(cell_list):
    todo = tuple(sorted(cell_list))
    direct = _direct_predecessors(todo)
    assert all(reference_must_precede(a, b) for b in todo for a in direct[b])
    assert closure(direct) == {b: {a for a in todo if reference_must_precede(a, b)}
                               for b in todo}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(signed_coordinates, signed_coordinates), max_size=8, unique=True))
def test_admissible_orders_match_the_recursive_reference_on_any_cells(cell_list):
    # the uncached search, so that arbitrary cell sets do not fill the cache
    todo = tuple(sorted(cell_list))
    assert pictures._admissible_orders.__wrapped__(todo) == reference_admissible_orders(todo)


def test_standardness_of_a_tiny_map():
    codomain = TotalOrder.jay(cells(Partition((2,))))
    assert is_standard({(1, 1): (1, 2), (1, 2): (1, 1)}, codomain)
    assert not is_standard({(1, 1): (1, 1), (1, 2): (1, 2)}, codomain)


def test_standardness_requires_listed_images():
    codomain = TotalOrder.jay(cells(Partition((2,))))
    assert not is_standard({(1, 1): (9, 9)}, codomain)


def reference_is_standard(mapping, codomain_order):
    """The pairwise definition: every componentwise-comparable pair of
    distinct sources has its images in listing order."""
    position = codomain_order.positions
    items = list(mapping.items())
    if any(image not in position for _, image in items):
        return False
    return not any(x != y and leq_P(x, y) and position[u] > position[v]
                   for x, u in items for y, v in items)


# small coordinates make many comparable pairs; huge ones make gaps and
# sparse cell sets whose bounding box would not fit in memory
coordinates = st.one_of(st.integers(1, 4), st.integers(1, 10**9))
any_cell = st.tuples(coordinates, coordinates)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prefix_maximum_standardness_matches_the_pairwise_reference(data):
    sources = sorted(data.draw(st.lists(any_cell, max_size=8, unique=True)))
    listing = data.draw(st.lists(any_cell, min_size=max(1, len(sources)), max_size=10,
                                 unique=True))
    order = TotalOrder(tuple(listing))
    if data.draw(st.booleans()):
        # nondecreasing images along the row-major sources are standard;
        # repeats make the map non-injective, and a swap may break it
        ranks = sorted(data.draw(st.lists(st.integers(0, len(listing) - 1),
                                          min_size=len(sources), max_size=len(sources),
                                          unique=data.draw(st.booleans()))))
        images = [listing[k] for k in ranks]
        if len(images) > 1 and data.draw(st.booleans()):
            a, b = data.draw(st.lists(st.integers(0, len(images) - 1),
                                      min_size=2, max_size=2, unique=True))
            images[a], images[b] = images[b], images[a]
    else:
        # any images at all, some of them possibly missing from the listing
        pool = listing + data.draw(st.lists(any_cell, max_size=2))
        images = data.draw(st.lists(st.sampled_from(pool),
                                    min_size=len(sources), max_size=len(sources)))
    # any insertion order: an inverse map lists its sources unsorted
    mapping = dict(data.draw(st.permutations(list(zip(sources, images)))))
    assert is_standard(mapping, order) == reference_is_standard(mapping, order)


def test_standardness_on_sparse_cells_compares_only_comparable_pairs():
    codomain = TotalOrder(((5, 5), (1, 1), (10**9, 1)))
    far = {(1, 10**9): (5, 5), (10**9, 1): (1, 1), (10**9, 10**9): (10**9, 1)}
    assert is_standard(far, codomain) and reference_is_standard(far, codomain)
    far[(10**9, 10**9)] = (1, 1)
    assert is_standard(far, codomain)
    far[(10**9, 10**9)] = (5, 5)
    assert not is_standard(far, codomain) and not reference_is_standard(far, codomain)


def test_picture_pairs_are_canonicalized():
    scrambled = Picture((((2, 2), (4, 1)), ((1, 1), (1, 4)), ((1, 2), (2, 3)),
                         ((2, 1), (3, 2)), ((1, 3), (2, 2))))
    assert scrambled == REF_PIC_A
    assert scrambled.pairs[0] == ((1, 1), (1, 4))


def test_picture_rejects_repeats():
    with pytest.raises(ValueError):
        Picture((((1, 1), (1, 2)), ((1, 1), (2, 1))))
    with pytest.raises(ValueError):
        Picture((((1, 1), (1, 2)), ((2, 1), (1, 2))))


@pytest.mark.parametrize("pairs", [(((1.5, 1), (1, 1)),), (((1, 1), (1, 2.0)),),
                                   (((1, 1), ("1", 1)),)])
def test_picture_rejects_non_integral_coordinates(pairs):
    with pytest.raises(TypeError):
        Picture(pairs)


def test_picture_accessors():
    assert REF_PIC_A.apply((1, 3)) == (2, 2)
    assert REF_PIC_A.mapping[(2, 2)] == (4, 1)
    assert REF_PIC_A.inverse[(4, 1)] == (2, 2)
    assert REF_PIC_A.domain() == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
    assert REF_PIC_A.image() == ((1, 4), (2, 3), (2, 2), (3, 2), (4, 1))
    assert len(REF_PIC_A) == 5
    assert REF_PIC_A.to_json()["pairs"][0] == [[1, 1], [1, 4]]


def test_reference_pairings_are_pictures():
    domain = TotalOrder.jay(cells(REF_MU))
    codomain = TotalOrder.jay(REF_SKEW.cells())
    assert is_picture(REF_PIC_A, domain, codomain)
    assert is_picture(REF_PIC_B, domain, codomain)
    assert is_picture(REF_PIC_A.mapping, domain, codomain)
    assert is_picture(REF_PIC_A.pairs, domain, codomain)


def test_swapping_two_targets_breaks_the_picture():
    domain = TotalOrder.jay(cells(REF_MU))
    codomain = TotalOrder.jay(REF_SKEW.cells())
    swapped = dict(REF_PIC_A.mapping)
    swapped[(1, 1)], swapped[(1, 2)] = swapped[(1, 2)], swapped[(1, 1)]
    assert not is_picture(swapped, domain, codomain)


def test_is_picture_returns_false_on_wrong_cells():
    domain = TotalOrder.jay(cells(Partition((2,))))
    codomain = TotalOrder.jay(REF_SKEW.cells())
    assert not is_picture(REF_PIC_A, domain, codomain)
    assert not is_picture({}, domain, codomain)


def test_is_picture_returns_false_on_a_repeated_source():
    row = TotalOrder.jay(cells(Partition((2,))))
    assert is_picture((((1, 1), (1, 2)), ((1, 2), (1, 1))), row, row)
    # the last pair overwrites the first, leaving a bijection in the mapping
    repeated = (((1, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 1)))
    assert is_picture(repeated, row, row) is False


# items that are not (source, target) pairs of hashable cells; the last two
# are not iterables of pairs at all
@pytest.mark.parametrize("pairing", [
    [((1, 1), (1, 1), (1, 1))], [((1, 1),)], [1], "ab", {(1, 1): [1, 1]},
    [([1, 1], (1, 1))], 5, None])
def test_is_picture_returns_false_on_items_that_are_not_pairs_of_cells(pairing):
    one_cell = TotalOrder.jay(cells(Partition((1,))))
    assert is_picture([((1, 1), (1, 1))], one_cell, one_cell)
    assert is_picture(pairing, one_cell, one_cell) is False


def test_enumerate_pictures_on_the_reference_instance():
    assert enumerate_pictures(REF_MU, REF_SKEW) == (REF_PIC_B, REF_PIC_A)


def test_enumerate_pictures_size_mismatch():
    with pytest.raises(SizeMismatch):
        enumerate_pictures(Partition((2, 1)),
                           skew(Partition((3, 2, 1)), Partition((1, 1))))


def test_enumerate_pictures_order_cell_mismatch():
    wrong = TotalOrder.jay(cells(Partition((2, 2))))
    with pytest.raises(OrderCellMismatch):
        enumerate_pictures(REF_MU, REF_SKEW, domain_order=wrong)
    with pytest.raises(OrderCellMismatch):
        enumerate_pictures(REF_MU, REF_SKEW, codomain_order=wrong)


def test_single_picture_instances():
    expected = Picture((((1, 1), (1, 3)), ((1, 2), (1, 2)), ((2, 1), (2, 2))))
    tall = enumerate_pictures(Partition((2, 1)),
                              skew(Partition((3, 2, 1)), Partition((1, 1, 1))))
    assert tall == (expected,)
    short = enumerate_pictures(Partition((2, 1)),
                               skew(Partition((3, 2)), Partition((1, 1))))
    assert short == (expected,)


def test_empty_picture():
    out = enumerate_pictures(Partition(()), skew(Partition(()), Partition(())))
    assert out == (Picture(()),)


def test_enumerated_pictures_validate():
    for mu_parts, outer, inner in (((3, 2), (4, 3, 2, 1), (3, 1, 1)),
                                   ((2, 2), (3, 2, 1), (1, 1)),
                                   ((2, 1, 1), (2, 2, 2), (1, 1)),
                                   ((3,), (3, 2), (2,))):
        mu = Partition(mu_parts)
        shape = skew(Partition(outer), Partition(inner))
        domain = TotalOrder.jay(cells(mu))
        codomain = TotalOrder.jay(shape.cells())
        found = enumerate_pictures(mu, shape)
        assert all(is_picture(pic, domain, codomain) for pic in found)
        assert len(set(found)) == len(found)


def test_enumeration_respects_explicit_orders():
    """With eff on both sides the outputs validate against eff, and
    every classic picture is checked against the same predicate."""
    mu = Partition((2, 1))
    shape = skew(Partition((2, 2)), Partition((1,)))
    domain = TotalOrder.eff(cells(mu))
    codomain = TotalOrder.eff(shape.cells())
    found = enumerate_pictures(mu, shape, domain, codomain)
    assert all(is_picture(pic, domain, codomain) for pic in found)


# At |nu| <= 10 the reference visits at most ~1000 partial maps (mu = nu =
# (10) is the worst case); the limit discards any example that needs more.
REFERENCE_NODE_LIMIT = 20_000


def reference_pictures(mu, skew_shape, domain_order, codomain_order):
    """The pairwise backtracker: each candidate image is checked against
    every pair already placed.  None once it visits more than
    REFERENCE_NODE_LIMIT partial maps."""
    sources = domain_order.cells
    targets = skew_shape.cells()
    position = codomain_order.positions
    assigned, used, found = {}, set(), []
    nodes = 0

    def place(t):
        nonlocal nodes
        nodes += 1
        if nodes > REFERENCE_NODE_LIMIT:
            return
        if t == len(sources):
            found.append(Picture(tuple(assigned.items())))
            return
        x = sources[t]
        for u in targets:
            if u in used:
                continue
            if all(not (leq_P(y, x) and position[v] > position[u])
                   and not (leq_P(x, y) and position[u] > position[v])
                   and not (u != v and leq_P(u, v))
                   for y, v in assigned.items()):
                assigned[x] = u
                used.add(u)
                place(t + 1)
                del assigned[x]
                used.discard(u)

    place(0)
    if nodes > REFERENCE_NODE_LIMIT:
        return None
    return tuple(sorted(found, key=lambda picture: picture.pairs))


def draw_instance(data, low, high):
    """lam inside nu with |nu| in low..high, and mu any partition of the rest."""
    nu = data.draw(st.integers(low, high).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    lam = data.draw(st.sampled_from(subpartitions(nu)))
    mu = data.draw(st.sampled_from(partitions_of(nu.size - lam.size)))
    return LRInstance(lam, mu, nu)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_local_rules_match_the_pairwise_reference_on_row_readings(data):
    inst = draw_instance(data, 8, 10)
    domain = TotalOrder.jay(cells(inst.mu))
    codomain = TotalOrder.jay(inst.skew_shape.cells())
    expected = reference_pictures(inst.mu, inst.skew_shape, domain, codomain)
    assume(expected is not None)
    found = enumerate_pictures(inst.mu, inst.skew_shape)
    assert found == expected
    assert len(found) == lr_coefficient_lattice(inst)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_local_rules_match_the_pairwise_reference_on_admissible_orders(data):
    inst = draw_instance(data, 8, 10)
    domain = data.draw(st.sampled_from(enumerate_admissible_orders(cells(inst.mu))))
    codomain = data.draw(st.sampled_from(
        enumerate_admissible_orders(inst.skew_shape.cells())))
    expected = reference_pictures(inst.mu, inst.skew_shape, domain, codomain)
    assume(expected is not None)
    assert enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_local_rules_match_the_pairwise_reference_on_any_listing(data):
    inst = draw_instance(data, 0, 6)
    domain = TotalOrder(tuple(data.draw(st.permutations(cells(inst.mu)))))
    codomain = TotalOrder(tuple(data.draw(st.permutations(inst.skew_shape.cells()))))
    expected = reference_pictures(inst.mu, inst.skew_shape, domain, codomain)
    assume(expected is not None)
    assert enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain) == expected


def test_one_long_row_has_one_picture():
    row = Partition((200,))
    found = enumerate_pictures(row, skew(row, Partition(())))
    assert found == (Picture(tuple(((1, j), (1, 201 - j)) for j in range(1, 201))),)


def test_pictures_of_the_heavy_staircase_instance():
    stair = Partition((5, 4, 3, 2, 1))
    inst = LRInstance(stair, stair, Partition((8, 6, 5, 4, 3, 2, 1, 1)))
    found = enumerate_pictures(inst.mu, inst.skew_shape)
    assert len(found) == lr_coefficient_lattice(inst) == 176
    assert {phi(pic, inst) for pic in found} == set(lr_filter(inst))


def test_staircase_instance_without_pictures():
    stair = Partition((5, 4, 3, 2, 1))
    inst = LRInstance(stair, stair, Partition((10, 9, 5, 3, 2, 1)))
    assert enumerate_pictures(inst.mu, inst.skew_shape) == ()
    assert lr_coefficient_lattice(inst) == 0


def reference_window_pictures(mu, skew_shape, domain_order, codomain_order):
    """The window-scan loop enumerate_pictures ran before it kept a frontier
    and a counting cut: each level scans every codomain cell between the
    images of the placed neighbours for a free cell whose skew cells above
    and left are taken."""
    sources = domain_order.cells
    listing = codomain_order.cells
    position = codomain_order.positions
    upper_left = {(a, b): [v for v in ((a - 1, b), (a, b - 1)) if v in position]
                  for a, b in listing}
    assigned, used, found = {}, set(), []
    windows = [iter(())] * len(sources)
    t = 0
    while t >= 0:
        if t == len(sources):
            found.append(Picture(tuple(assigned.items())))
            t -= 1
            continue
        x = i, j = sources[t]
        if x in assigned:
            used.discard(assigned.pop(x))
        else:
            before = [position[assigned[y]] for y in ((i - 1, j), (i, j - 1)) if y in assigned]
            after = [position[assigned[y]] for y in ((i + 1, j), (i, j + 1)) if y in assigned]
            windows[t] = iter(listing[max(before, default=-1) + 1:
                                      min(after, default=len(listing))])
        for u in windows[t]:
            if u not in used and used.issuperset(upper_left[u]):
                assigned[x] = u
                used.add(u)
                t += 1
                break
        else:
            t -= 1
    return tuple(sorted(found, key=lambda picture: picture.pairs))


def draw_admissible_order(data, cell_set):
    """A random linear extension of the precedence relation, drawn cell by
    cell, so that no listing of all admissible orders is needed."""
    todo = sorted(cell_set)
    listing = []
    while todo:
        ready = [c for c in todo if not any(reference_must_precede(a, c) for a in todo)]
        cell = data.draw(st.sampled_from(ready))
        listing.append(cell)
        todo.remove(cell)
    return TotalOrder(tuple(listing))


def rows_of(cell_set):
    return len({i for i, _ in cell_set})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_frontier_and_counts_match_the_window_scan_on_admissible_orders(data):
    inst = draw_instance(data, 9, 14)
    assume(len(inst.mu) >= 2 and rows_of(inst.skew_shape.cells()) >= 2)
    domain = draw_admissible_order(data, cells(inst.mu))
    codomain = draw_admissible_order(data, inst.skew_shape.cells())
    found = enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain)
    assert found == reference_window_pictures(inst.mu, inst.skew_shape, domain, codomain)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frontier_and_counts_match_the_window_scan_on_any_listing(data):
    inst = draw_instance(data, 7, 10)
    domain = TotalOrder(tuple(data.draw(st.permutations(cells(inst.mu)))))
    codomain = TotalOrder(tuple(data.draw(st.permutations(inst.skew_shape.cells()))))
    found = enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain)
    assert found == reference_window_pictures(inst.mu, inst.skew_shape, domain, codomain)


def pieri_instance(lam_parts, n, nu_parts):
    return LRInstance(Partition(lam_parts), Partition((n,)), Partition(nu_parts))


def test_pieri_instance_with_150_cells_has_one_picture():
    inst = pieri_instance((100, 50), 150, (150, 100, 50))
    found = enumerate_pictures(inst.mu, inst.skew_shape)
    assert len(found) == 1 == lr_coefficient_lattice(inst)
    assert is_picture(found[0], TotalOrder.jay(cells(inst.mu)),
                      TotalOrder.jay(inst.skew_shape.cells()))


def test_pieri_instance_with_120_cells_and_no_picture():
    inst = pieri_instance((80, 40), 120, (100, 80, 60))
    assert enumerate_pictures(inst.mu, inst.skew_shape) == ()
    assert lr_coefficient_lattice(inst) == 0


def test_dual_pieri_staircase_has_one_picture():
    # lam = (30, ..., 1); a column of 32 cells fills one box in each of rows 1..32
    lam = Partition(tuple(range(30, 0, -1)))
    nu = Partition(tuple(p + 1 for p in lam.parts) + (1, 1))
    inst = LRInstance(lam, Partition((1,) * 32), nu)
    found = enumerate_pictures(inst.mu, inst.skew_shape)
    assert found == (Picture(tuple(((i, 1), (i, nu.part(i))) for i in range(1, 33))),)
    assert lr_coefficient_lattice(inst) == 1
