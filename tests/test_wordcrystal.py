import tracemalloc
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrpictures import wordcrystal
from lrpictures.pictures import (OrderCellMismatch, OrderNotAdmissible, TotalOrder,
                                 enumerate_admissible_orders)
from lrpictures.shapes import Partition, cells, partitions_of
from lrpictures.tableaux import (ColumnNotStrictlyIncreasing, RowNotWeaklyIncreasing,
                                 enumerate_ssyt, make_tableau, reading_by_order)
from lrpictures.wordcrystal import (IndexOutOfRange, TooManyTableaux, lowering_operator,
                                    raising_operator, verify_embedding)

words = st.lists(st.integers(min_value=1, max_value=4), max_size=8).map(tuple)
indices = st.integers(min_value=1, max_value=3)


def _oracle_survivors(word, i):
    """Repeated textual cancellation, the slow way the rule is stated."""
    signs = [[k, "+" if a == i else "-"]
             for k, a in enumerate(word) if a in (i, i + 1)]
    changed = True
    while changed:
        changed = False
        for k in range(len(signs) - 1):
            if signs[k][1] == "+" and signs[k + 1][1] == "-":
                del signs[k:k + 2]
                changed = True
                break
    return ([k for k, s in signs if s == "+"], [k for k, s in signs if s == "-"])


def _oracle_lower(word, i):
    plus, _ = _oracle_survivors(word, i)
    if not plus:
        return None
    out = list(word)
    out[plus[0]] = i + 1
    return tuple(out)


def _oracle_raise(word, i):
    _, minus = _oracle_survivors(word, i)
    if not minus:
        return None
    out = list(word)
    out[minus[-1]] = i
    return tuple(out)


def test_lowering_basics():
    assert lowering_operator((1,), 1, 2) == (2,)
    assert lowering_operator((1, 2), 1, 2) is None
    assert lowering_operator((2,), 1, 2) is None
    assert lowering_operator((1, 1), 1, 2) == (2, 1)
    assert lowering_operator((2, 1, 1), 1, 2) == (2, 2, 1)


def test_raising_basics():
    assert raising_operator((2,), 1, 2) == (1,)
    assert raising_operator((1, 2), 1, 2) is None
    assert raising_operator((2, 1), 1, 2) == (1, 1)
    assert raising_operator((2, 1, 1), 1, 2) == (1, 1, 1)
    assert raising_operator((1,), 1, 2) is None


def test_operators_only_touch_adjacent_letters():
    word = (3, 2, 1, 3)
    assert lowering_operator(word, 1, 3) == (3, 2, 2, 3)
    assert raising_operator(word, 1, 3) == (3, 1, 1, 3)
    # at index 2 the trailing 3 cancels the 2, leaving only the leading 3
    assert raising_operator(word, 2, 3) == (2, 2, 1, 3)
    assert lowering_operator(word, 2, 3) is None


def test_empty_word():
    assert lowering_operator((), 1, 3) is None
    assert raising_operator((), 2, 3) is None


def test_index_bounds():
    with pytest.raises(IndexOutOfRange):
        lowering_operator((1,), 0, 3)
    with pytest.raises(IndexOutOfRange):
        raising_operator((1,), 3, 3)


@pytest.mark.parametrize("call", [
    lambda: lowering_operator((1,), 1.5, 3),
    lambda: raising_operator((2.5, 2), 1, 3),
    lambda: lowering_operator((1,), 1, 3.0),
    lambda: verify_embedding(Partition((2,)), 2.5, TotalOrder.jay(cells(Partition((2,))))),
], ids=["index", "letter", "bound", "max_entry"])
def test_non_integral_letters_index_and_bound_are_rejected(call):
    with pytest.raises(TypeError):
        call()


def test_letters_outside_bound_are_rejected():
    with pytest.raises(ValueError):
        lowering_operator((0,), 1, 3)
    with pytest.raises(ValueError):
        lowering_operator((4,), 1, 3)


@given(words, indices)
def test_operators_match_repeated_cancellation(word, i):
    assert lowering_operator(word, i, 4) == _oracle_lower(word, i)
    assert raising_operator(word, i, 4) == _oracle_raise(word, i)


@given(words, indices)
def test_operators_are_mutually_inverse(word, i):
    lowered = lowering_operator(word, i, 4)
    if lowered is not None:
        assert raising_operator(lowered, i, 4) == word
    raised = raising_operator(word, i, 4)
    if raised is not None:
        assert lowering_operator(raised, i, 4) == word


@given(words, indices)
def test_operators_change_exactly_one_letter(word, i):
    lowered = lowering_operator(word, i, 4)
    if lowered is not None:
        diffs = [(a, b) for a, b in zip(word, lowered) if a != b]
        assert diffs == [(i, i + 1)]


@st.composite
def long_words(draw):
    """A letter bound past one byte, an index anywhere below it, and a word of
    up to 40 letters in runs mostly near that index, so that unmatched pluses
    pile up deep before the minuses cancel them."""
    max_letter = draw(st.integers(min_value=2, max_value=400))
    i = draw(st.integers(min_value=1, max_value=max_letter - 1))
    near = st.integers(min_value=max(1, i - 1), max_value=min(max_letter, i + 2))
    letters = st.one_of(near, near, st.integers(min_value=1, max_value=max_letter))
    runs = draw(st.lists(st.tuples(letters, st.integers(min_value=1, max_value=12)),
                         max_size=12))
    return tuple(a for a, length in runs for _ in range(length))[:40], i, max_letter


@settings(max_examples=300, deadline=None)
@given(long_words())
@example(((300,) * 20 + (301,) * 19, 300, 400))
@example(((301,) * 3 + (300,) * 17 + (301,) * 9 + (300,) * 2 + (301,) * 11, 300, 400))
@example(((300, 301) * 12 + (301, 299, 300, 302) * 4, 300, 400))
def test_operators_match_repeated_cancellation_on_long_words(drawn):
    word, i, max_letter = drawn
    assert lowering_operator(word, i, max_letter) == _oracle_lower(word, i)
    assert raising_operator(word, i, max_letter) == _oracle_raise(word, i)


def test_reading_image_is_closed_for_small_shapes():
    for total in range(5):
        for shape in partitions_of(total):
            order = TotalOrder.jay(cells(shape))
            for max_entry in (2, 3):
                report = verify_embedding(shape, max_entry, order)
                assert report.ok and report.counterexample is None


def test_closure_with_the_column_order():
    shape = Partition((2, 2))
    report = verify_embedding(shape, 3, TotalOrder.eff(cells(shape)))
    assert report.ok


def test_closure_rejects_inadmissible_orders():
    from lrpictures.pictures import OrderNotAdmissible
    with pytest.raises(OrderNotAdmissible):
        verify_embedding(Partition((2,)), 2, TotalOrder(((1, 1), (1, 2))))


def test_the_order_is_checked_when_no_tableau_exists():
    # entries up to 2 cannot fill three rows, so nothing is ever read
    with pytest.raises(OrderNotAdmissible):
        verify_embedding(Partition((1, 1, 1)), 2, TotalOrder(((3, 1), (2, 1), (1, 1))))


def test_the_order_cells_are_checked_when_no_tableau_exists():
    with pytest.raises(OrderCellMismatch):
        verify_embedding(Partition((1, 1, 1)), 2, TotalOrder.jay(cells(Partition((3,)))))


def reference_embedding(shape, max_entry, order):
    """Read every tableau through reading_by_order and apply each public
    operator to each image word."""
    image = {reading_by_order(tab, order).letters
             for tab in enumerate_ssyt(shape, max_entry)}
    for word in sorted(image):
        for i in range(1, max_entry):
            for name, operator in (("lowering", lowering_operator),
                                   ("raising", raising_operator)):
                result = operator(word, i, max_entry)
                if result is not None and result not in image:
                    return (False, {"word": list(word), "operator": name,
                                    "index": i, "result": list(result)})
    return (True, None)


def test_embedding_reports_match_the_per_tableau_reference():
    for size in range(7):
        for shape in partitions_of(size):
            for order in enumerate_admissible_orders(cells(shape)):
                for max_entry in range(1, 6):
                    assert verify_embedding(shape, max_entry, order) == reference_embedding(
                        shape, max_entry, order)


def every_listing(max_cells):
    """Each shape of at most max_cells cells with every listing of its cells, the
    non-admissible ones built through TotalOrder._unchecked, which presets
    admissible, so the check also meets readings that are no embedding."""
    for size in range(max_cells + 1):
        for shape in partitions_of(size):
            key = cells(shape)
            for listing in permutations(key):
                yield shape, TotalOrder._unchecked(listing, key)


# the check judges each operator result by the one cell it changes; every
# listing, admissible or not, pins it to the reference, which keeps the image
@pytest.mark.parametrize("max_cells, bounds", [
    *(pytest.param(5, (m,), id=f"5-cells-bound-{m}") for m in range(1, 5)),
    pytest.param(6, range(1, 6), marks=pytest.mark.slow, id="6-cells-bounds-1-5")])
def test_every_listing_gives_the_reference_report(max_cells, bounds):
    missed = set()
    for shape, order in every_listing(max_cells):
        for max_entry in bounds:
            report = verify_embedding(shape, max_entry, order)
            assert report == reference_embedding(shape, max_entry, order)
            if not report.ok:
                missed.add(report.counterexample["operator"])
    assert missed == (set() if max(bounds) == 1 else {"lowering", "raising"})


def _unread(shape, order, letters):
    """The rows whose reading along the order gives the letters."""
    return [[letters[order.positions[(i, j)]] for j in range(1, p + 1)]
            for i, p in enumerate(shape.parts, 1)]


# semistandardness itself, not the image, as the judge: the reported word is a
# tableau read along the listing, and the operator's result, within the bound, is none
@pytest.mark.parametrize("max_entry", [2, 3, 4])
def test_each_reported_result_breaks_the_one_cell_it_changes(max_entry):
    operators = {"lowering": lowering_operator, "raising": raising_operator}
    for shape, order in every_listing(5):
        report = verify_embedding(shape, max_entry, order)
        if report.ok:
            continue
        miss = report.counterexample
        word, result = tuple(miss["word"]), tuple(miss["result"])
        assert operators[miss["operator"]](word, miss["index"], max_entry) == result
        make_tableau(shape, _unread(shape, order, word))
        with pytest.raises((RowNotWeaklyIncreasing, ColumnNotStrictlyIncreasing)):
            make_tableau(shape, _unread(shape, order, result))


def test_the_check_lists_no_cached_tableaux():
    before = enumerate_ssyt.cache_info()
    shape = Partition((2, 1))
    for order in enumerate_admissible_orders(cells(shape)):
        assert verify_embedding(shape, 4, order).ok
    assert enumerate_ssyt.cache_info() == before


def test_the_check_keeps_no_image():
    # 9,075 tableaux: a set of their words alone would take about a megabyte
    shape = Partition((3, 3))
    tracemalloc.start()
    try:
        assert verify_embedding(shape, 10, TotalOrder.jay(cells(shape))).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# a slip in the resets after each letter would leave a stale plus or minus
# behind and report a miss on a closed image
def test_admissible_readings_are_closed_up_to_five_cells_and_at_bound_300():
    for size in range(6):
        for shape in partitions_of(size):
            for order in enumerate_admissible_orders(cells(shape)):
                for max_entry in range(1, 6):
                    assert verify_embedding(shape, max_entry, order).ok
    assert verify_embedding(Partition((1, 1)), 300, TotalOrder.jay(cells(Partition((1, 1))))).ok


# letters past one byte, at a bound where the reference is still cheap: a column
# or a row has one admissible listing, and its reverse misses
@pytest.mark.parametrize("shape", [Partition((1, 1)), Partition((2,))])
def test_the_failing_listing_at_bound_300_gives_the_reference_counterexample(shape):
    order = TotalOrder._unchecked(TotalOrder.jay(cells(shape)).cells[::-1], cells(shape))
    report = verify_embedding(shape, 300, order)
    assert not report.ok
    assert report == reference_embedding(shape, 300, order)


def test_two_byte_letters_close_on_one_cell():
    cell = Partition((1,))
    assert verify_embedding(cell, 300, TotalOrder.jay(cells(cell))).ok


@pytest.mark.parametrize("parts", [(), (1,)])
@pytest.mark.parametrize("max_entry", [1, 2, 3])
def test_embedding_holds_on_the_empty_shape_and_one_cell(parts, max_entry):
    shape = Partition(parts)
    (order,) = enumerate_admissible_orders(cells(shape))
    assert verify_embedding(shape, max_entry, order) == (True, None)


def test_the_tableau_limit_counts_exactly(monkeypatch):
    # at a limit equal to the number of tableaux the check runs; one below, it refuses
    for size in range(6):
        for shape in partitions_of(size):
            order = TotalOrder.jay(cells(shape))
            for max_entry in range(len(shape), 5):
                count = len(enumerate_ssyt(shape, max_entry))
                monkeypatch.setattr(TooManyTableaux, "limit", count)
                assert verify_embedding(shape, max_entry, order).ok
                monkeypatch.setattr(TooManyTableaux, "limit", count - 1)
                with pytest.raises(TooManyTableaux, match=f"^{count} tableaux of shape {shape} "):
                    verify_embedding(shape, max_entry, order)


def test_a_bound_below_the_rows_counts_no_tableaux(monkeypatch):
    # the hook-content product is no count there: it gave (1,1,1,1) at -10**6 about 4e22
    shape = Partition((1, 1, 1, 1))
    assert verify_embedding(shape, -10**6, TotalOrder.jay(cells(shape))) == (True, None)
    monkeypatch.setattr(TooManyTableaux, "limit", 0)
    for size in range(6):
        for shape in partitions_of(size):
            order = TotalOrder.jay(cells(shape))
            for max_entry in range(-3, len(shape)):
                assert enumerate_ssyt(shape, max_entry) == ()
                assert verify_embedding(shape, max_entry, order) == (True, None)


def test_a_shape_past_the_limit_is_refused_before_any_tableau_is_listed(monkeypatch):
    def refuse(*args):
        raise AssertionError("the filling search ran")
    monkeypatch.setattr(wordcrystal, "_ssyt_fillings", refuse)
    shape = Partition((3, 3))
    with pytest.raises(TooManyTableaux) as caught:
        verify_embedding(shape, 300, TotalOrder.jay(cells(shape)))
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == ("5113180686250 tableaux of shape 3,3 with entries at most 300, "
                                 "past the limit of 1,000,000")
