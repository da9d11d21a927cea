"""The searches build their tableaux and pictures without the constructors'
checks, trusting that each value is valid by construction.  Rebuilding
every such value through the validating constructor must give an equal
value with an equal hash: a filling out of order, a picture whose pairs
are not sorted by source, or a list where a tuple belongs fails here.
verify_bijection's unchecked _phi must also give what the public phi gives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from lrpictures.lr import LRInstance, _phi, iter_instances, lr_filter, phi, psi
from lrpictures.pictures import (Picture, TotalOrder, enumerate_admissible_orders,
                                 enumerate_pictures)
from lrpictures.shapes import cells, partitions_of, subpartitions
from lrpictures.tableaux import enumerate_ssyt, make_tableau


def assert_tableau_rebuilds(tab):
    rebuilt = make_tableau(tab.shape, tab.rows)
    assert rebuilt == tab and hash(rebuilt) == hash(tab)


def assert_picture_rebuilds(pic):
    rebuilt = Picture(pic.pairs)
    assert rebuilt == pic and hash(rebuilt) == hash(pic)


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
            tab = _phi(pic, inst)
            assert_tableau_rebuilds(tab)
            public = phi(pic, inst)
            assert tab == public and hash(tab) == hash(public)


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
