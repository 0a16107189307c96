"""Copies and pickles of the value types and the coefficient rings."""

import copy
import pickle
from fractions import Fraction

import pytest

from renzeta.arith import DELTA
from renzeta.hopf import HopfElement, Letter, Word
from renzeta.laurent import (
    DELTA_FIELD,
    RATIONAL_FIELD,
    T,
    T_POLY_RING,
    TruncatedLaurentSeries,
)

F = Fraction

SERIES = [
    TruncatedLaurentSeries(RATIONAL_FIELD, -2, [F(1, 2), 0, 3]),
    TruncatedLaurentSeries(DELTA_FIELD, -1, [DELTA, 1]),
    TruncatedLaurentSeries(T_POLY_RING, 0, [T, 0]),
    TruncatedLaurentSeries(RATIONAL_FIELD, 0, [0, 0]),
]
VALUES = SERIES + [
    Letter(-1, F(1, 2)),
    Letter(0, 1 + DELTA),
    Word.from_pairs([(0, 1), (-2, F(3, 2))]),
    Word([]),
    HopfElement({Word.from_pairs([(-1, 2)]): F(1, 3),
                 Word.from_pairs([(0, DELTA)]): 2 * DELTA}),
    (1 + DELTA) / (3 * DELTA),
    T * T + F(1, 2),
]

DUPLICATES = [copy.copy, copy.deepcopy,
              lambda x: pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("duplicate", DUPLICATES)
@pytest.mark.parametrize("value", VALUES,
                         ids=lambda v: type(v).__name__)
def test_values_copy_and_pickle(value, duplicate):
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value
    if type(value).__hash__ is not None:
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("duplicate", DUPLICATES)
def test_a_copied_word_is_the_canonical_word(duplicate):
    word = Word.from_pairs([(-1, 2), (0, 1 + DELTA)])
    assert duplicate(word) is word


@pytest.mark.parametrize("duplicate", DUPLICATES)
@pytest.mark.parametrize("ring", [RATIONAL_FIELD, DELTA_FIELD, T_POLY_RING])
def test_rings_are_singletons(ring, duplicate):
    assert duplicate(ring) is ring


@pytest.mark.parametrize("duplicate", DUPLICATES)
def test_a_copied_series_meets_the_original(duplicate):
    for series in SERIES:
        twin = duplicate(series)
        assert (twin - series).is_zero_window()
        assert twin * series == series * series

