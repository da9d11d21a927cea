"""Raising and lowering operators on words of letters, via the signature rule.

For an index i, scan the word mapping letter i to "+", letter i+1 to "-",
everything else transparent, then cancel adjacent "+-" pairs until none
remain.  The lowering operator turns the leftmost surviving "+" into i+1;
the raising operator turns the rightmost surviving "-" into i.  Either
returns None when nothing survives, the word-level analogue of the
operator killing the element.

The only consumer in this package is verify_embedding, which checks that
reading tableaux along an admissible order gives a set of words closed
under both operators.  It checks the order once, gathers each word from
the tableau's row-major entries at the flat indices of the order's
filling steps, range-checks each word by its least and greatest letter,
and holds the words as integer codes.  A fast pass then takes the words
in tableau order: one signature scan per word gives every index's
operators, and a second loop over the same letters tests each result by
one code lookup and resets only the state that letter wrote, so a word
costs its length, not the letter bound, and builds no set, list or sort.
Only when a result falls outside the image does an exact scan run: it
takes the words in sorted order and applies the operators' own signature
scan at each index the word touches, so it names the same first
counterexample a per-index check with the public operators would.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Sequence

from .pictures import TotalOrder
from .shapes import Partition
from .tableaux import _check_reading_order, enumerate_ssyt
# not used here; kept as wordcrystal.reading_by_order for the perfbench tracer test
from .tableaux import reading_by_order  # noqa: F401


class IndexOutOfRange(ValueError):
    """Operator index outside the valid range for the letter bound."""


def _check_letters(letters: tuple[int, ...], max_letter: int) -> None:
    for a in letters:
        if not 1 <= a <= max_letter:
            raise ValueError(f"letter {a} outside 1..{max_letter}")


def _checked(word: Sequence[int], i: int, max_letter: int) -> tuple[int, ...]:
    if not 1 <= i <= max_letter - 1:
        raise IndexOutOfRange(f"index {i} not in 1..{max_letter - 1}")
    letters = tuple(word)
    _check_letters(letters, max_letter)
    return letters


def _survivors(letters: tuple[int, ...], i: int) -> tuple[list[int], list[int]]:
    """Positions of the uncancelled plus and minus signs, left to right.

    A minus cancels the nearest unmatched plus to its left, so a stack of
    plus positions implements the repeated cancellation in one pass.
    """
    plus: list[int] = []
    minus: list[int] = []
    for k, a in enumerate(letters):
        if a == i:
            plus.append(k)
        elif a == i + 1:
            if plus:
                plus.pop()
            else:
                minus.append(k)
    return plus, minus


def _replaced(letters: tuple[int, ...], k: int, letter: int) -> tuple[int, ...] | None:
    """The letters with position k set to letter, or None for k = -1."""
    return letters[:k] + (letter,) + letters[k + 1:] if k >= 0 else None


def _lower_and_raise(letters: tuple[int, ...], i: int
                     ) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Both operators' results on checked letters, from one signature scan."""
    plus, minus = _survivors(letters, i)
    return (_replaced(letters, plus[0] if plus else -1, i + 1),
            _replaced(letters, minus[-1] if minus else -1, i))


def lowering_operator(word: Sequence[int], i: int,
                      max_letter: int) -> tuple[int, ...] | None:
    """Turn the leftmost uncancelled letter i into i+1, or return None."""
    return _lower_and_raise(_checked(word, i, max_letter), i)[0]


def raising_operator(word: Sequence[int], i: int,
                     max_letter: int) -> tuple[int, ...] | None:
    """Turn the rightmost uncancelled letter i+1 into i, or return None."""
    return _lower_and_raise(_checked(word, i, max_letter), i)[1]


class EmbeddingReport(NamedTuple):
    ok: bool
    counterexample: dict | None


def verify_embedding(shape: Partition, max_entry: int,
                     order: TotalOrder) -> EmbeddingReport:
    """Check that reading along the order embeds the tableau set into words.

    The image of the reading map must be closed under both operators:
    applying either to an image word yields None or another image word.
    The first violation is returned as the counterexample, trying words
    in sorted order, then indices, then lowering before raising.  Each
    word is one gather along the order's filling steps, and a word with a
    letter outside 1..max_entry raises ValueError before any operator runs.
    A fast pass tests every word's results in tableau order and returns ok
    when all are in the image; at its first miss, _first_counterexample
    runs the exact scan in the canonical order to pick the counterexample.
    """
    _check_reading_order(order, shape)
    # with one cell or none the word is the entries themselves: itemgetter
    # returns a scalar for one index and needs at least one
    n = shape.size
    gather = itemgetter(*[cell for cell, _, _, _ in order._filling_steps]) if n > 1 else tuple
    # each word as an integer, one big-endian digit of `width` bytes per letter:
    # the codes sort as the words do, and an operator's result is one addition
    width = (max_entry.bit_length() + 7) // 8
    digits = [a.to_bytes(width, "big") for a in range(max_entry + 1)]
    encode = bytes if width == 1 else lambda word: b"".join(map(digits.__getitem__, word))
    codes: dict[int, tuple[int, ...]] = {}
    for tab in enumerate_ssyt(shape, max_entry):
        word = gather(sum(tab.rows, ()))
        if word and (min(word) < 1 or max(word) > max_entry):
            _check_letters(word, max_entry)
        codes[int.from_bytes(encode(word), "big")] = word
    place = [1 << (n - 1 - k) * 8 * width for k in range(n)]
    # the fast pass: the words in tableau order, each with one signature scan
    # (letter a is a plus of index a and a minus of index a - 1; a count of
    # unmatched pluses and the position of the lowest stand for the stack of
    # _survivors) and one check loop over its letters.  Only letter i raises
    # unmatched[i], and plus[i] is read only while unmatched[i] is set, so
    # resetting unmatched[a] and minus[a - 1] for each letter a restores the
    # arrays; minus[0] belongs to no operator and is never read
    unmatched = [0] * (max_entry + 1)
    plus = [-1] * (max_entry + 1)
    minus = [-1] * (max_entry + 1)
    for code, word in codes.items():
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
                if a < max_entry and code + place[plus[a]] not in codes:
                    return _first_counterexample(codes, max_entry)
                unmatched[a] = 0
            k = minus[a - 1]
            if k >= 0 and a > 1:
                if code - place[k] not in codes:
                    return _first_counterexample(codes, max_entry)
                minus[a - 1] = -1
    return EmbeddingReport(True, None)


def _first_counterexample(codes: dict[int, tuple[int, ...]], max_entry: int) -> EmbeddingReport:
    """The first operator result outside the image, trying words in sorted
    order, then indices, then lowering before raising; ok if there is none.

    codes maps each image word's code to the word.  An index no letter of
    the word touches has no sign, so both operators give None there.
    """
    image = set(codes.values())
    for word in sorted(image):
        for i in sorted({i for a in word for i in (a - 1, a) if 1 <= i < max_entry}):
            for name, result in zip(("lowering", "raising"), _lower_and_raise(word, i)):
                if result is not None and result not in image:
                    return EmbeddingReport(False, {"word": list(word), "operator": name,
                                                   "index": i, "result": list(result)})
    return EmbeddingReport(True, None)
