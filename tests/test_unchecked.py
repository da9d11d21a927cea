"""The searches build their tableaux, pictures and orders without the
constructors' checks, trusting that each value is valid by construction.
Rebuilding every such value through the validating constructor must give an
equal value with an equal hash: a filling out of order, a picture whose pairs
are not sorted by source, or a list where a tuple belongs fails here.  The
row readings and listed orders start with their sorted cells and their
admissibility set, which must be what the checked order derives.
verify_bijection's unchecked _phi and _psi, which map a picture's targets
(the images of mu's cells in row-major order) to and from mu's row-major
entries, must also agree with the public phi and psi, and both maps with
their definitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpictures.lr import LRInstance, _phi, _psi, iter_instances, lr_filter, phi, psi
from lrpictures.pictures import (Picture, TotalOrder, _row_reading, enumerate_admissible_orders,
                                 enumerate_pictures, is_admissible_order)
from lrpictures.shapes import SkewShape, cells, partitions_of, subpartitions
from lrpictures.tableaux import enumerate_ssyt, make_tableau, p_function


def assert_tableau_rebuilds(tab):
    rebuilt = make_tableau(tab.shape, tab.rows)
    assert rebuilt == tab and hash(rebuilt) == hash(tab)


def assert_picture_rebuilds(pic):
    rebuilt = Picture(pic.pairs)
    assert rebuilt == pic and hash(rebuilt) == hash(pic)


def shapes_up_to(partition_cells, outer_cells):
    """Every partition with at most partition_cells cells and every skew shape
    nu/lam with |nu| <= outer_cells."""
    for total in range(max(partition_cells, outer_cells) + 1):
        for nu in partitions_of(total):
            if total <= partition_cells:
                yield nu
            if total <= outer_cells:
                yield from (SkewShape(nu, lam) for lam in subpartitions(nu))


def shape_cells(shape):
    return shape.cells() if isinstance(shape, SkewShape) else cells(shape)


ORDER_ATTRIBUTES = ("cells", "_key", "_key_positions", "_filling_steps", "_domain_tables",
                    "_codomain_tables", "admissible")


def test_row_readings_equal_the_checked_row_orders():
    for shape in shapes_up_to(8, 8):
        reading, checked = _row_reading(shape), TotalOrder.jay(shape_cells(shape))
        assert reading == checked and hash(reading) == hash(checked)
        for name in ORDER_ATTRIBUTES:
            assert getattr(reading, name) == getattr(checked, name), name
        assert checked.admissible is True and is_admissible_order(reading)


def test_listed_orders_equal_the_checked_orders():
    for shape in shapes_up_to(8, 7):
        for order in enumerate_admissible_orders(shape_cells(shape)):
            checked = TotalOrder(order.cells)
            assert order == checked and hash(order) == hash(checked)
            assert (order._key, order.admissible) == (checked._key, checked.admissible)
            assert is_admissible_order(order)


def test_listing_canonicalises_cells_like_the_constructor():
    assert enumerate_admissible_orders([(True, 2), (1, 1)]) == enumerate_admissible_orders(
        [(1, 1), (1, 2)])
    assert all(type(v) is int for v in enumerate_admissible_orders([(True, 2)])[0].cells[0])
    # listed once with ints, the cells are still checked when they come as floats
    enumerate_admissible_orders([(1, 1)])
    with pytest.raises(TypeError):
        enumerate_admissible_orders([(1.0, 1)])


def test_enumerated_tableaux_rebuild():
    for total in range(9):
        for shape in partitions_of(total):
            for max_entry in range(1, 7):
                for tab in enumerate_ssyt(shape, max_entry):
                    assert_tableau_rebuilds(tab)


def test_filtered_tableaux_and_their_psi_pictures_rebuild():
    for inst in iter_instances(7):
        for tab in lr_filter(inst):
            assert_tableau_rebuilds(tab)
            assert_picture_rebuilds(psi(tab, inst))


def test_tableaux_filtered_along_every_admissible_order_rebuild():
    for inst in iter_instances(6):
        for order in enumerate_admissible_orders(cells(inst.mu)):
            for tab in lr_filter(inst, order):
                assert_tableau_rebuilds(tab)


def test_pictures_under_the_row_readings_rebuild():
    for inst in iter_instances(7):
        for pic in enumerate_pictures(inst.mu, inst.skew_shape):
            assert_picture_rebuilds(pic)


def test_unchecked_phi_images_equal_the_public_phis_and_rebuild():
    for inst in iter_instances(7):
        for pic in enumerate_pictures(inst.mu, inst.skew_shape):
            public = phi(pic, inst)
            assert _phi(pic.image(), inst) == sum(public.rows, ())
            # phi by its definition: each cell's entry is the row of its image
            mapping = pic.mapping
            assert all(public.rows[i - 1][j - 1] == mapping[(i, j)][0]
                       for i, j in cells(inst.mu))


def test_unchecked_psi_images_equal_the_public_psis_and_rebuild():
    for inst in iter_instances(7):
        for tab in lr_filter(inst):
            targets = _psi(sum(tab.rows, ()), inst)
            pic = psi(tab, inst)
            assert_picture_rebuilds(pic)
            assert pic.image() == targets and pic.domain() == tuple(cells(inst.mu))
            # psi by its definition: row v, column lam_v + the cell's p_function
            assert pic == Picture(tuple(
                ((i, j), (v, inst.lam.part(v) + p_function(tab, (i, j))))
                for i, row in enumerate(tab.rows, start=1)
                for j, v in enumerate(row, start=1)))


def draw_instance(data, low, high):
    nu = data.draw(st.integers(low, high).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    lam = data.draw(st.sampled_from(subpartitions(nu)))
    mu = data.draw(st.sampled_from(partitions_of(nu.size - lam.size)))
    return LRInstance(lam, mu, nu)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pictures_under_admissible_order_pairs_rebuild(data):
    inst = draw_instance(data, 2, 8)
    domain = data.draw(st.sampled_from(enumerate_admissible_orders(cells(inst.mu))))
    codomain = data.draw(st.sampled_from(
        enumerate_admissible_orders(inst.skew_shape.cells())))
    for pic in enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain):
        assert_picture_rebuilds(pic)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pictures_under_arbitrary_listings_rebuild(data):
    inst = draw_instance(data, 2, 7)
    domain = TotalOrder(tuple(data.draw(st.permutations(cells(inst.mu)))))
    codomain = TotalOrder(tuple(data.draw(st.permutations(inst.skew_shape.cells()))))
    for pic in enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain):
        assert_picture_rebuilds(pic)
