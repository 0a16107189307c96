"""Word algebra: product, coproduct, derivation, and their compatibilities."""

import copy
import pickle
import sys
import threading
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renzeta import hopf
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
from renzeta.mzv import argument_word

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


class TestDirectionTypes:
    """A constant delta-polynomial equals and hashes like its rational, but
    the two directions select different coefficient rings."""

    CONST = DELTA.from_rational(F(2))

    def test_constant_delta_letter_differs_from_rational_letter(self):
        assert self.CONST == F(2) and hash(self.CONST) == hash(F(2))
        assert Letter(0, self.CONST) != Letter(0, F(2))
        assert W([(0, self.CONST)]) != W([(0, F(2))])
        assert Letter(0, self.CONST) == Letter(0, DELTA.from_rational(2))

    @pytest.mark.parametrize("delta_first", [False, True])
    def test_square_keeps_the_direction_type(self, delta_first):
        hopf._shuffle_nonempty.cache_clear()
        order = [F(2), self.CONST]
        if delta_first:
            order.reverse()
        for r in order:
            w = W([(0, r)])
            square = HopfElement.from_word(w) * HopfElement.from_word(w)
            assert square == HopfElement({w + w: 2, W([(0, r + r)]): 1})
            for word in square.terms:
                assert all(type(l.r) is type(r) for l in word), (r, word)

    @pytest.mark.parametrize("delta_first", [False, True])
    def test_slices_keep_the_direction_type(self, delta_first):
        order = [F(2), self.CONST]
        if delta_first:
            order.reverse()
        for r in order:
            w = W([(0, r), (-1, r)])
            for part in (w[:1], w[1:], w[:1] + w[1:]):
                assert all(type(l.r) is type(r) for l in part), (r, part)


class TestWordIdentity:
    TARGET = [(0, 1), (-1, 2)]

    def routes(self):
        w = W(self.TARGET + [(-2, 1)])
        shuffled = quasi_shuffle(elem([(0, 1)]), elem([(-1, 2)]))
        derived = differentiate(W([(0, 1), (0, 2)]))
        return {
            "Word": Word([Letter(0, 1), Letter(-1, 2)]),
            "parse": Word.parse("(0,1)(-1,2)"),
            "from_pairs": Word.from_pairs(self.TARGET),
            "slice": w[:2],
            "concatenation": W([(0, 1)]) + W([(-1, 2)]),
            "shuffle term": next(t for t in shuffled.terms
                                 if t == W(self.TARGET)),
            "derivation term": next(t for t in derived.terms
                                    if t == W(self.TARGET)),
        }

    def test_every_route_gives_an_equal_interchangeable_key(self):
        routes = self.routes()
        for name, word in routes.items():
            keyed = {word: name}
            for other in routes.values():
                assert other == word and hash(other) == hash(word)
                assert keyed[other] == name
        assert len(set(routes.values())) == 1

    def test_equal_words_are_one_object(self):
        first, *rest = self.routes().values()
        assert all(word is first for word in rest)
        w = W([(0, 1), (-1, 2)])
        assert w[:0] is EMPTY_WORD and w[:1] + w[1:] is w

    def test_words_are_checked_and_immutable(self):
        with pytest.raises(TypeError):
            Word([Letter(0, 1), (0, 1)])
        with pytest.raises(TypeError):
            Word.from_pairs([(F(1, 2), 1)])
        w = W(self.TARGET)
        with pytest.raises(AttributeError):
            w.letters = ()
        with pytest.raises(AttributeError):
            w.extra = 1
        assert w == W(self.TARGET)


HALF = (0, F(1, 2))
DELTA_LETTER = (-1, DELTA)


def _coefficient_ok(c, delta_words):
    if delta_words:
        return type(c) in (Fraction, DeltaRationalFunction)
    return type(c) is Fraction


def _old_tensor_quasi_shuffle(t1, t2):
    """The tensor product as first written: one quasi_shuffle of elements
    per slot and per pair of splits."""
    out = {}
    for ((a1, a2), c), ((b1, b2), d) in iproduct(t1.items(), t2.items()):
        left = quasi_shuffle(
            HopfElement.from_word(a1), HopfElement.from_word(b1))
        right = quasi_shuffle(
            HopfElement.from_word(a2), HopfElement.from_word(b2))
        for w1, c1 in left.terms.items():
            for w2, c2 in right.terms.items():
                out[w1, w2] = out.get((w1, w2), 0) + c * d * c1 * c2
    return {k: v for k, v in out.items() if v != 0}


class TestCoefficientTypes:
    """Multiplicities are summed as ints inside the layer; what leaves it
    is a Fraction, or a delta function for delta-direction letters."""

    def elements(self):
        x = HopfElement({W([(0, 1)]): 1, W([HALF]): F(1, 2),
                         W([(-1, 2), (0, 1)]): F(3)})
        y = HopfElement({W([(0, 1)]): F(1, 2), W([(0, 1), HALF]): 2})
        z = HopfElement({W([DELTA_LETTER, (0, 1)]): 1,
                         W([(0, 1)]): F(1, 2)})
        return [(x, False), (y, False), (z, True)]

    def test_element_operations(self):
        for x, dx in self.elements():
            for y, dy in self.elements():
                delta = dx or dy
                outputs = [quasi_shuffle(x, y), x + y, x - y, x * y]
                for out in outputs:
                    assert all(_coefficient_ok(c, delta)
                               for c in out.terms.values()), out
            for out in (differentiate(x), x.scale(2), x.scale(F(1, 2)),
                        2 * x):
                assert all(_coefficient_ok(c, dx)
                           for c in out.terms.values()), out
            assert all(_coefficient_ok(c, dx)
                       for c in element_coproduct(x).values())

    def test_integral_sums_stay_exact(self):
        x = HopfElement({W([HALF]): F(1, 2)})
        total = x + x
        assert total.terms == {W([HALF]): F(1)}
        assert type(total.terms[W([HALF])]) is Fraction
        assert (x - x).is_zero()
        assert differentiate(W([HALF])).terms == {
            W([(-1, F(1, 2))]): F(1, 2)}

    def test_tensor_product_matches_its_old_definition(self):
        alphabet = [(0, F(1)), (-1, F(2)), (-2, F(1)), HALF, DELTA_LETTER]
        words = [w for w in words_up_to(3, alphabet) if len(w) > 0]
        checked = 0
        for u in words:
            for v in words:
                if len(u) + len(v) > 4:
                    continue
                delta = any(isinstance(l.r, DeltaRationalFunction)
                            for l in u + v)
                # every other pair scales u by 1/2, the rest stay integral
                half = F(1, 2) if checked % 2 else 1
                t1 = element_coproduct(HopfElement.from_word(u, half))
                t2 = element_coproduct(HopfElement.from_word(v))
                got = tensor_quasi_shuffle(t1, t2)
                assert got == _old_tensor_quasi_shuffle(t1, t2), (u, v)
                assert all(_coefficient_ok(c, delta)
                           for c in got.values()), (u, v)
                checked += 1
        assert checked == 2150


class TestSerialization:
    def test_element_text(self):
        x = HopfElement({W([(0, 1), (0, 1)]): F(2), W([(0, 2)]): 1})
        assert str(x) == "(0,2) + 2·(0,1)(0,1)"


class TestLetterIdentity:
    def test_every_route_gives_one_letter(self):
        letter = Letter(0, 1)
        routes = {
            "int direction": Letter(0, 1),
            "Fraction direction": Letter(0, F(1)),
            "parse": Word.parse("(0,1)")[0],
            "from_pairs": W([(0, 1)])[0],
            "product": Letter(0, F(1, 2)) * Letter(0, F(1, 2)),
            "lowered": hopf._lowered(Letter(1, 1))[0],
            "copy": copy.copy(letter),
            "deepcopy": copy.deepcopy(letter),
            "pickle": pickle.loads(pickle.dumps(letter)),
        }
        for name, other in routes.items():
            assert other is letter, name

    def test_constant_delta_letter_is_another_object(self):
        const = DELTA.from_rational(F(1))
        assert Letter(0, const) is not Letter(0, 1)
        assert Letter(0, const) is Letter(0, DELTA.from_rational(1))
        assert type(Letter(0, const).r) is DeltaRationalFunction
        assert type(Letter(0, 1).r) is Fraction

    def test_letters_are_immutable(self):
        with pytest.raises(AttributeError):
            Letter(0, 1).s = 1

    def test_bool_exponents_are_rejected(self):
        # False == 0 and hash(False) == hash(0): an admitted bool would
        # become the one letter of (0, r), and every later (0, r) would
        # print as (False,r)
        for s in (False, True):
            with pytest.raises(TypeError):
                Letter(s, 7)
            with pytest.raises(ValueError):
                argument_word((s,), (7,))
        assert type(Letter(0, 7).s) is int
        assert str(argument_word((0,), (7,))) == "(0,7)"


class TestCanonicalTablesUnderThreads:
    THREADS = 4

    def test_threads_get_one_object_per_letter_and_word(self):
        # exponents no other test builds, so every object here is new
        pairs = [(-1000 - i, F(7, 3)) for i in range(400)]
        barrier = threading.Barrier(self.THREADS, timeout=60)
        results = [None] * self.THREADS

        def build(slot):
            barrier.wait()
            letters = [Letter(s, r) for s, r in pairs]
            barrier.wait()
            words = [Word(letters[i:i + 3]) for i in range(len(letters))]
            results[slot] = (letters, words)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        first_letters, first_words = results[0]
        for letters, words in results[1:]:
            assert all(a is b for a, b in zip(letters, first_letters))
            assert all(a is b for a, b in zip(words, first_words))
        assert first_letters[0] is Letter(*pairs[0])
        assert first_words[0] is W(pairs[:3])


def _delta_value(a, b):
    return a + b * DELTA


coefficients_strategy = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(F, st.integers(-5, 5).filter(bool), st.sampled_from([2, 3]))
    .filter(lambda f: f.denominator > 1),
    st.builds(_delta_value, st.integers(-2, 2),
              st.integers(-2, 2).filter(bool)))
mixed_letters_strategy = st.sampled_from(
    [Letter(s, r) for s, r in ALPHABET + [HALF, DELTA_LETTER]])
elements_strategy = st.dictionaries(
    st.builds(Word, st.lists(mixed_letters_strategy, max_size=2)),
    coefficients_strategy, max_size=3)


def _oracle_sum(*terms_and_signs):
    out = {}
    for terms, sign in terms_and_signs:
        for w, c in terms.items():
            out[w] = out.get(w, F(0)) + sign * c
    return {w: c for w, c in out.items() if c != 0}


def _oracle_product(xt, yt):
    out = {}
    for (u, cu), (v, cv) in iproduct(xt.items(), yt.items()):
        for w, m in mixable_shuffle_direct(u, v).terms.items():
            out[w] = out.get(w, F(0)) + cu * cv * F(m)
    return {w: c for w, c in out.items() if c != 0}


def _oracle_derivative(xt):
    out = {}
    for w, c in xt.items():
        pairs = [(l.s, l.r) for l in w]
        for i, (s, r) in enumerate(pairs):
            low = W(pairs[:i] + [(s - 1, r)] + pairs[i + 1:])
            out[low] = out.get(low, F(0)) + c * r
    return {w: c for w, c in out.items() if c != 0}


def _oracle_coproduct(xt):
    out = {}
    for w, c in xt.items():
        ls = list(w)
        for i in range(len(ls) + 1):
            pair = (Word(ls[:i]), Word(ls[i:]))
            out[pair] = out.get(pair, F(0)) + c
    return {k: c for k, c in out.items() if c != 0}


class TestIntegerMultiplicities:
    """Elements keep integral multiplicities as ints; every operation must
    agree with a Fraction-only oracle and hand out Fractions or delta
    functions."""

    @given(elements_strategy, elements_strategy)
    # 1/2 times the multiplicity 2 of (0,1)(0,1) in (0,1) * (0,1) is 1
    @example({W([(0, 1)]): F(1, 2)}, {W([(0, 1)]): 1})
    @settings(max_examples=60, deadline=None)
    def test_operations_match_the_fraction_oracle(self, xd, yd):
        fractions = [{w: F(c) if isinstance(c, int) else c
                      for w, c in d.items()} for d in (xd, yd)]
        xt, yt = fractions
        x, y = HopfElement(xd), HopfElement(yd)
        assert x.terms == _oracle_sum((xt, 1))
        checks = [
            (x + y, _oracle_sum((xt, 1), (yt, 1))),
            (x - y, _oracle_sum((xt, 1), (yt, -1))),
            (quasi_shuffle(x, y), _oracle_product(xt, yt)),
            (x * y, _oracle_product(xt, yt)),
            (differentiate(x), _oracle_derivative(xt)),
        ]
        delta = any(isinstance(c, DeltaRationalFunction)
                    or any(isinstance(l.r, DeltaRationalFunction) for l in w)
                    for d in fractions for w, c in d.items())
        for got, want in checks:
            assert got.terms == want
            assert got == HopfElement(want)
            assert all(_coefficient_ok(c, delta) for c in got.terms.values())
            # inside the element, integral multiplicities are ints
            assert not any(type(c) is Fraction and c.denominator == 1
                           for c in got._terms.values())
        coproduct_terms = element_coproduct(x)
        assert coproduct_terms == _oracle_coproduct(xt)
        assert all(_coefficient_ok(c, delta)
                   for c in coproduct_terms.values())
        tensor = tensor_quasi_shuffle(coproduct_terms, element_coproduct(y))
        assert tensor == _oracle_coproduct(_oracle_product(xt, yt))
        assert all(_coefficient_ok(c, delta) for c in tensor.values())
        assert (x - x).is_zero() and (x + y == y + x)
