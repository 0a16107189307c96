"""Word algebra: product, coproduct, derivation, and their compatibilities."""

from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta.arith import DELTA, DeltaRationalFunction
from renzeta.hopf import (
    EMPTY_WORD,
    HopfElement,
    Letter,
    Word,
    coproduct,
    counit,
    differentiate,
    element_coproduct,
    mixable_shuffle_direct,
    quasi_shuffle,
    reduced_coproduct,
    tensor_quasi_shuffle,
)

F = Fraction
W = Word.from_pairs


def elem(*pairs_list):
    out = HopfElement.zero()
    for pairs in pairs_list:
        out = out + HopfElement.from_word(W(pairs))
    return out


ALPHABET = [(0, 1), (-1, 2), (-2, 1)]


def words_up_to(length, alphabet=None):
    alphabet = alphabet or ALPHABET
    out = [EMPTY_WORD]
    for n in range(1, length + 1):
        out.extend(W(p) for p in iproduct(alphabet, repeat=n))
    return out


class TestLetters:
    def test_merge_adds_componentwise(self):
        assert Letter(0, 1) * Letter(-2, 2) == Letter(-2, 3)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Letter(0, 0)
        with pytest.raises(ValueError):
            Letter(0, F(-1, 2))

    def test_delta_polynomial_directions(self):
        l = Letter(-1, 1 + DELTA)
        assert l.r == 1 + DELTA
        with pytest.raises(ValueError):
            Letter(0, 1 - DELTA)
        with pytest.raises(ValueError):
            Letter(0, 1 / DELTA)
        with pytest.raises(ValueError):
            Letter(0, DeltaRationalFunction(()))

    def test_merge_keeps_delta_directions_valid(self):
        l = Letter(0, DELTA) * Letter(-1, 1 + DELTA)
        assert l == Letter(-1, 1 + 2 * DELTA)


class TestWords:
    def test_slicing_and_concatenation(self):
        w = W([(0, 1), (-1, 2), (-2, 1)])
        assert w[:1] + w[1:] == w
        assert len(w[1:]) == 2
        assert w[0] == Letter(0, 1)

    def test_parse_format_round_trip(self):
        for text in ["()", "(0,1)", "(0,1)(-1,2)", "(-2,1/2)", "(0,1+2d)"]:
            assert str(Word.parse(text)) == text or text == ""
        assert Word.parse("()") == EMPTY_WORD
        assert Word.parse("(0,1)(-1,2)") == W([(0, 1), (-1, 2)])
        assert Word.parse("(0,1+2d)")[0].r == 1 + 2 * DELTA

    def test_pole_depth(self):
        assert W([(0, 1), (0, 1)]).pole_depth() == 2
        assert W([(-2, 1), (-1, 2)]).pole_depth() == 5
        assert EMPTY_WORD.pole_depth() == 0
        with pytest.raises(ValueError):
            W([(1, 1)]).pole_depth()


class TestProduct:
    def test_single_letter_recursion(self):
        x = elem([(0, 1)])
        y = elem([(-2, 2)])
        expect = HopfElement({
            W([(0, 1), (-2, 2)]): 1,
            W([(-2, 2), (0, 1)]): 1,
            W([(-2, 3)]): 1,
        })
        assert x * y == expect

    def test_depth_one_times_depth_two(self):
        x = elem([(-1, 1)])
        y = elem([(0, 1), (-2, 2)])
        expect = HopfElement({
            W([(-1, 1), (0, 1), (-2, 2)]): 1,
            W([(0, 1), (-1, 1), (-2, 2)]): 1,
            W([(0, 1), (-2, 2), (-1, 1)]): 1,
            W([(0, 1), (-3, 3)]): 1,
            W([(-1, 2), (-2, 2)]): 1,
        })
        assert x * y == expect

    def test_unit_is_neutral(self):
        x = elem([(0, 1), (-1, 2)])
        one = HopfElement.unit()
        assert x * one == x and one * x == x

    def test_square_of_zero_letter(self):
        a = elem([(0, 1)])
        assert a * a == HopfElement({
            W([(0, 1), (0, 1)]): 2,
            W([(0, 2)]): 1,
        })

    def test_matches_direct_enumeration_exhaustively(self):
        words = [w for w in words_up_to(2) if len(w) > 0]
        for u in words:
            for v in words:
                lhs = quasi_shuffle(
                    HopfElement.from_word(u), HopfElement.from_word(v))
                assert lhs == mixable_shuffle_direct(u, v), (u, v)

    def test_term_count_of_one_times_two(self):
        got = mixable_shuffle_direct(
            W([(-1, 1)]), W([(0, 1), (-2, 2)]))
        assert sum(got.terms.values()) == 5

    def test_filtration_bound(self):
        u = W([(0, 1), (-1, 2)])
        v = W([(-2, 1), (0, 1)])
        prod = quasi_shuffle(
            HopfElement.from_word(u), HopfElement.from_word(v))
        lengths = {len(w) for w in prod.terms}
        assert max(lengths) <= len(u) + len(v)
        assert min(lengths) >= max(len(u), len(v))

    def test_nonpositive_sector_closed(self):
        u = W([(0, 1), (-1, 2)])
        v = W([(-2, 1)])
        prod = quasi_shuffle(
            HopfElement.from_word(u), HopfElement.from_word(v))
        assert all(w.is_nonpositive() for w in prod.terms)


class TestCoalgebra:
    def test_deconcatenation(self):
        w = W([(0, 1), (-1, 2)])
        assert coproduct(w) == (
            (EMPTY_WORD, w),
            (W([(0, 1)]), W([(-1, 2)])),
            (w, EMPTY_WORD),
        )

    def test_reduced_coproduct_drops_unit_splits(self):
        w = W([(0, 1), (-1, 2), (-2, 1)])
        red = reduced_coproduct(w)
        assert len(red) == 2
        assert all(len(a) > 0 and len(b) > 0 for a, b in red)
        with pytest.raises(ValueError):
            reduced_coproduct(EMPTY_WORD)

    def test_counit(self):
        assert counit(HopfElement.unit()) == 1
        assert counit(elem([(0, 1)])) == 0
        mixed = HopfElement.unit() + elem([(0, 1)]).scale(F(3, 2))
        assert counit(mixed) == 1

    def test_counit_axiom(self):
        for w in words_up_to(3):
            pairs = coproduct(w)
            left = HopfElement.zero()
            right = HopfElement.zero()
            for a, b in pairs:
                if len(a) == 0:
                    left = left + HopfElement.from_word(b)
                if len(b) == 0:
                    right = right + HopfElement.from_word(a)
            assert left == HopfElement.from_word(w)
            assert right == HopfElement.from_word(w)

    def test_coproduct_is_multiplicative(self):
        for u in words_up_to(2)[1:6]:
            for v in words_up_to(2)[1:6]:
                x = HopfElement.from_word(u)
                y = HopfElement.from_word(v)
                lhs = element_coproduct(x * y)
                rhs = tensor_quasi_shuffle(
                    element_coproduct(x), element_coproduct(y))
                assert lhs == rhs, (u, v)


class TestDerivation:
    def test_single_word(self):
        d = differentiate(W([(0, 1), (0, 2)]))
        assert d == HopfElement({
            W([(-1, 1), (0, 2)]): 1,
            W([(0, 1), (-1, 2)]): 2,
        })

    def test_empty_word_maps_to_zero(self):
        assert differentiate(EMPTY_WORD).is_zero()

    def test_delta_directions_weight_the_terms(self):
        d = differentiate(W([(0, 1 + DELTA)]))
        [(w, c)] = list(d.terms.items())
        assert w == W([(-1, 1 + DELTA)])
        assert c == 1 + DELTA

    def test_leibniz_rule(self):
        for u in words_up_to(2)[1:8]:
            for v in words_up_to(2)[1:8]:
                x = HopfElement.from_word(u)
                y = HopfElement.from_word(v)
                lhs = differentiate(x * y)
                rhs = differentiate(x) * y + x * differentiate(y)
                assert lhs == rhs, (u, v)

    def test_co_leibniz_rule(self):
        for w in words_up_to(3):
            if len(w) == 0:
                continue
            lhs = element_coproduct(differentiate(w))
            rhs: dict = {}
            for a, b in coproduct(w):
                for wa, c in differentiate(a).terms.items():
                    rhs[(wa, b)] = rhs.get((wa, b), 0) + c
                for wb, c in differentiate(b).terms.items():
                    rhs[(a, wb)] = rhs.get((a, wb), 0) + c
            rhs = {k: v for k, v in rhs.items() if v != 0}
            assert lhs == rhs, w

    def test_sector_closed_under_derivation(self):
        d = differentiate(W([(0, 1), (-2, 1)]))
        assert all(w.is_nonpositive() for w in d.terms)


letters_strategy = st.sampled_from(
    [Letter(s, r) for s, r in ALPHABET + [(0, 2), (-1, 1)]])
words_strategy = st.builds(
    Word, st.lists(letters_strategy, min_size=0, max_size=3))


class TestProperties:
    @given(words_strategy, words_strategy)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, u, v):
        x = HopfElement.from_word(u)
        y = HopfElement.from_word(v)
        assert x * y == y * x

    @given(words_strategy, words_strategy, words_strategy)
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, u, v, w):
        x = HopfElement.from_word(u)
        y = HopfElement.from_word(v)
        z = HopfElement.from_word(w)
        assert (x * y) * z == x * (y * z)

    @given(words_strategy, words_strategy)
    @settings(max_examples=40, deadline=None)
    def test_product_matches_enumeration(self, u, v):
        assert quasi_shuffle(
            HopfElement.from_word(u), HopfElement.from_word(v)) \
            == mixable_shuffle_direct(u, v)

    @given(words_strategy)
    @settings(max_examples=40, deadline=None)
    def test_coproduct_counts_splits(self, w):
        assert len(coproduct(w)) == len(w) + 1


class TestSerialization:
    def test_element_text(self):
        x = HopfElement({W([(0, 1), (0, 1)]): F(2), W([(0, 2)]): 1})
        assert str(x) == "(0,2) + 2·(0,1)(0,1)"
