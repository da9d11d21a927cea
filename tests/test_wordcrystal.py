from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrpictures import wordcrystal
from lrpictures.pictures import (OrderCellMismatch, OrderNotAdmissible, TotalOrder,
                                 enumerate_admissible_orders)
from lrpictures.shapes import Partition, cells, partitions_of
from lrpictures.tableaux import Tableau, enumerate_ssyt, make_tableau, reading_by_order
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
             for tab in wordcrystal.enumerate_ssyt(shape, max_entry)}
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


# one missing word is never both operators' result on the same word, so
# pairs of dropped tableaux pin lowering-before-raising: on the row (2,),
# dropping 11 and 22 leaves 12 with both results missing at index 1
@pytest.mark.parametrize("shape", [Partition((2, 1)), Partition((2,))])
@pytest.mark.parametrize("reading", [TotalOrder.jay, TotalOrder.eff])
def test_dropped_tableaux_give_the_reference_counterexample(monkeypatch, shape, reading):
    real = wordcrystal.enumerate_ssyt
    order = reading(cells(shape))
    count = len(real(shape, 3))
    for dropped in [(k,) for k in range(count)] + list(combinations(range(count), 2)):
        monkeypatch.setattr(wordcrystal, "enumerate_ssyt", lambda shape, max_entry: tuple(
            tab for k, tab in enumerate(real(shape, max_entry)) if k not in dropped))
        report = verify_embedding(shape, 3, order)
        assert not report.ok
        assert tuple(report) == reference_embedding(shape, 3, order)


# a slip in the resets after each letter would leave a stale plus or minus
# behind and report a miss on a closed image
def test_admissible_readings_are_closed_up_to_five_cells_and_at_bound_300():
    for size in range(6):
        for shape in partitions_of(size):
            for order in enumerate_admissible_orders(cells(shape)):
                for max_entry in range(1, 6):
                    assert verify_embedding(shape, max_entry, order).ok
    assert verify_embedding(Partition((1, 1)), 300, TotalOrder.jay(cells(Partition((1, 1))))).ok


def _failing_words(words, max_entry):
    """The words, in their given order, with an operator result outside them."""
    image = set(words)
    return [word for word in words
            if any(result is not None and result not in image
                   for i in range(1, max_entry)
                   for result in (lowering_operator(word, i, max_entry),
                                  raising_operator(word, i, max_entry)))]


# the fast pass meets the words in tableau order, so its first miss can come
# after a smaller failing word; the reported counterexample must still be the
# reference's, the first in sorted order.  Under the column reading of (2,1)
# with bound 3, dropping the last tableau (23/3) first fails at the word 313
# in tableau order but at 223 in sorted order, and reversing the tableaux
# with the first (11/2) dropped first fails at 212 against 113.
@pytest.mark.parametrize("dropped, reverse", [(7, False), (0, True)])
def test_insertion_order_misses_give_the_sorted_counterexample(monkeypatch, dropped, reverse):
    shape = Partition((2, 1))
    order = TotalOrder.eff(cells(shape))
    tabs = [tab for k, tab in enumerate(wordcrystal.enumerate_ssyt(shape, 3)) if k != dropped]
    if reverse:
        tabs.reverse()
    failing = _failing_words([reading_by_order(tab, order).letters for tab in tabs], 3)
    assert failing[0] != min(failing)
    monkeypatch.setattr(wordcrystal, "enumerate_ssyt", lambda shape, max_entry: tuple(tabs))
    report = verify_embedding(shape, 3, order)
    assert report.counterexample["word"] == list(min(failing))
    assert tuple(report) == reference_embedding(shape, 3, order)


# shapes up to 5 cells with at most 4 rows, so a bound of 4 leaves a tableau to drop
small_shapes = [shape for size in range(6) for shape in partitions_of(size) if len(shape) <= 4]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_dropped_tableaux_give_the_reference_report(data):
    shape = data.draw(st.sampled_from(small_shapes))
    order = data.draw(st.sampled_from(enumerate_admissible_orders(cells(shape))))
    max_entry = data.draw(st.integers(min_value=max(len(shape), 1), max_value=4))
    real = wordcrystal.enumerate_ssyt
    tabs = real(shape, max_entry)
    dropped = data.draw(st.sets(st.sampled_from(range(len(tabs))), min_size=1))
    kept = tuple(tab for k, tab in enumerate(tabs) if k not in dropped)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wordcrystal, "enumerate_ssyt", lambda shape, max_entry: kept)
        assert tuple(verify_embedding(shape, max_entry, order)) == reference_embedding(
            shape, max_entry, order)


# an entry above the bound raises before any operator is tried, so the word
# (1,), whose lowering (2,) is missing and which sorts first, gives no report;
# 256 under the bound 255 would not fit the one-byte codes, and 0 is below 1
@pytest.mark.parametrize("max_entry, bad", [(3, 4), (255, 256), (300, 301), (300, 0)])
def test_letters_above_the_bound_raise_before_any_operator(monkeypatch, max_entry, bad):
    cell = Partition((1,))
    tabs = (make_tableau(cell, ((1,),)), Tableau._unchecked(cell, ((bad,),)))
    monkeypatch.setattr(wordcrystal, "enumerate_ssyt", lambda shape, max_entry: tabs)
    with pytest.raises(ValueError, match=rf"^letter {bad} outside 1\.\.{max_entry}$"):
        verify_embedding(cell, max_entry, TotalOrder.jay(cells(cell)))


# with letters above 255 each letter takes two bytes in the word codes; a few
# hand-picked tableaux keep the reference cheap at that bound
@pytest.mark.parametrize("entries", [
    ((255, 256), (255, 257), (256, 257)),
    ((1, 256), (1, 257), (2, 257), (255, 256)),
    ((254, 300), (255, 300), (256, 300), (255, 299), (256, 299)),
])
def test_two_byte_letters_give_the_reference_counterexample(monkeypatch, entries):
    column = Partition((1, 1))
    tabs = tuple(make_tableau(column, ((a,), (b,))) for a, b in entries)
    monkeypatch.setattr(wordcrystal, "enumerate_ssyt", lambda shape, max_entry: tabs)
    order = TotalOrder.jay(cells(column))
    report = verify_embedding(column, 300, order)
    assert not report.ok
    assert tuple(report) == reference_embedding(column, 300, order)


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
        raise AssertionError("enumerate_ssyt ran")
    monkeypatch.setattr(wordcrystal, "enumerate_ssyt", refuse)
    shape = Partition((3, 3))
    with pytest.raises(TooManyTableaux) as caught:
        verify_embedding(shape, 300, TotalOrder.jay(cells(shape)))
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == ("5113180686250 tableaux of shape 3,3 with entries at most 300, "
                                 "past the limit of 1,000,000")
