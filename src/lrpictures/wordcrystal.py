"""Raising and lowering operators on words of letters, via the signature rule.

For an index i, scan the word mapping letter i to "+", letter i+1 to "-",
everything else transparent, then cancel adjacent "+-" pairs until none
remain.  The lowering operator turns the leftmost surviving "+" into i+1;
the raising operator turns the rightmost surviving "-" into i.  Either
returns None when nothing survives, the word-level analogue of the
operator killing the element.  verify_embedding checks that reading
tableaux along an admissible order gives a set of words closed under
both operators.
"""

from __future__ import annotations

from math import prod
from operator import index
from typing import NamedTuple, Sequence

from .pictures import TotalOrder
from .shapes import Partition, cells
from .tableaux import _check_reading_order, _ssyt_fillings
# not used here; kept as wordcrystal.reading_by_order for the perfbench tracer test
from .tableaux import reading_by_order  # noqa: F401


class IndexOutOfRange(ValueError):
    """Operator index outside the valid range for the letter bound."""


class TooManyTableaux(ValueError):
    """More tableaux than verify_embedding checks: 900,000 take about 2 s."""
    limit = 1_000_000


def _checked(word: Sequence[int], i: int, max_letter: int) -> tuple[tuple[int, ...], int]:
    i, max_letter = index(i), index(max_letter)
    if not 1 <= i <= max_letter - 1:
        raise IndexOutOfRange(f"index {i} not in 1..{max_letter - 1}")
    letters = tuple(map(index, word))
    for a in letters:
        if not 1 <= a <= max_letter:
            raise ValueError(f"letter {a} outside 1..{max_letter}")
    return letters, i


def _lower_and_raise(letters: tuple[int, ...], i: int
                     ) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Both operators' results on checked letters, from one signature scan.

    A minus cancels the nearest unmatched plus to its left, so a count of
    unmatched pluses does the cancelling: the last plus met at count 0 is the
    leftmost survivor when the count ends above 0, and every minus met at
    count 0 survives, so the last such minus is the rightmost survivor."""
    unmatched, plus, minus = 0, -1, -1
    for k, a in enumerate(letters):
        if a == i:
            if not unmatched:
                plus = k
            unmatched += 1
        elif a == i + 1:
            if unmatched:
                unmatched -= 1
            else:
                minus = k
    return (letters[:plus] + (i + 1,) + letters[plus + 1:] if unmatched else None,
            letters[:minus] + (i,) + letters[minus + 1:] if minus >= 0 else None)


def lowering_operator(word: Sequence[int], i: int,
                      max_letter: int) -> tuple[int, ...] | None:
    """Turn the leftmost uncancelled letter i into i+1, or return None."""
    return _lower_and_raise(*_checked(word, i, max_letter))[0]


def raising_operator(word: Sequence[int], i: int,
                     max_letter: int) -> tuple[int, ...] | None:
    """Turn the rightmost uncancelled letter i+1 into i, or return None."""
    return _lower_and_raise(*_checked(word, i, max_letter))[1]


class EmbeddingReport(NamedTuple):
    ok: bool
    counterexample: dict | None


def verify_embedding(shape: Partition, max_entry: int,
                     order: TotalOrder) -> EmbeddingReport:
    """Check that reading along the order embeds the tableau set into words.

    The image of the reading map must be closed under both operators: either
    one applied to an image word yields None or another image word.  The least
    violation is the counterexample, words sorted, then indices, then lowering
    before raising.  No image is kept: an operator changes one letter by one, so
    its result is an image word exactly when the changed cell still fits its
    neighbours.  A shape with over TooManyTableaux.limit tableaux, by the
    hook-content formula, raises TooManyTableaux before any is listed."""
    max_entry = index(max_entry)
    _check_reading_order(order, shape)
    count = 0 if len(shape) > max_entry else prod(
        max_entry + j - i for i, j in cells(shape)) // prod(
        shape.parts[i - 1] - j + sum(p >= j for p in shape.parts[i:]) + 1 for i, j in cells(shape))
    if count > TooManyTableaux.limit:
        raise TooManyTableaux(f"{count} tableaux of shape {shape} with entries at most "
                              f"{max_entry}, past the limit of {TooManyTableaux.limit:,}")
    gather = order._gather
    n, at = len(order), order.positions
    right, below, left, above = ([at.get((i + di, j + dj), n) for i, j in order.cells]
                                 for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)))
    # one pass over the words in search order, each with one signature scan (letter a
    # is a plus of index a and a minus of index a - 1, so this is _lower_and_raise's
    # count run for every index at once) and one check loop over its letters.  Only
    # letter i raises unmatched[i], and plus[i] is read only while unmatched[i] is set,
    # so resetting unmatched[a] and minus[a - 1] for each letter a, miss or not,
    # restores the arrays; minus[0] belongs to no operator and is never read.  Lowering
    # a at position k misses iff its right neighbour holds a or the cell below a + 1;
    # raising a, iff its left neighbour holds a or the cell above a - 1.  Neighbours
    # are listing positions, n for none, where each word is padded with a 0 that no
    # test matches.  A miss is (word, index, rank, position), rank 0 lowering and 1
    # raising; the least is kept
    letters = max_entry + 1 if shape else 0  # one slot per letter; the empty word reads none
    unmatched = [0] * letters
    plus = [-1] * letters
    minus = [-1] * letters
    least = None
    for entries in _ssyt_fillings(shape, max_entry):
        word = gather(entries)
        padded = word + (0,)
        for k, a in enumerate(word):
            if unmatched[a - 1]:
                unmatched[a - 1] -= 1
            else:
                minus[a - 1] = k
            if not unmatched[a]:
                plus[a] = k
            unmatched[a] += 1
        for a in word:
            if unmatched[a]:
                k = plus[a]
                if a < max_entry and (padded[right[k]] == a or padded[below[k]] == a + 1):
                    miss = word, a, 0, k
                    least = min(least or miss, miss)
                unmatched[a] = 0
            k = minus[a - 1]
            if k >= 0 and a > 1:
                if padded[left[k]] == a or padded[above[k]] == a - 1:
                    miss = word, a - 1, 1, k
                    least = min(least or miss, miss)
                minus[a - 1] = -1
    if least is None:
        return EmbeddingReport(True, None)
    word, i, rank, k = least
    return EmbeddingReport(False, {"word": list(word), "operator": ("lowering", "raising")[rank],
                                   "index": i, "result": [*word[:k], i + 1 - rank, *word[k + 1:]]})
