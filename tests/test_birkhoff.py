"""Decomposition engine: recursion, closed forms, and compatibilities."""

from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta.arith import DELTA
from renzeta.birkhoff import (
    Character,
    CheckReport,
    DecompositionSession,
    PrecisionBudget,
    convolve,
    verify_differential_compatibility,
    zplus_length2_direct,
)
from renzeta.hopf import (
    EMPTY_WORD,
    HopfElement,
    Word,
    quasi_shuffle,
    reduced_coproduct,
)
from renzeta.laurent import (
    DELTA_FIELD,
    InsufficientPrecision,
    RATIONAL_FIELD,
    TruncatedLaurentSeries,
    one_series,
    windows_agree,
)
from renzeta.mzv import (
    _word_session,
    argument_word,
    decomposition_session,
    expansion_character,
    regularized_expansion,
)

F = Fraction
W = Word.from_pairs

ALPHABET = [(0, 1), (-1, 2), (-2, 1)]


def words_of_length(n, alphabet=None):
    alphabet = alphabet or ALPHABET
    return [W(p) for p in iproduct(alphabet, repeat=n)]


@pytest.fixture(scope="module")
def session():
    return decomposition_session(taylor_order=1, max_pole_depth=14)


class TestPrecisionBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionBudget(requested_precision=0, max_pole_depth=0)
        with pytest.raises(ValueError):
            PrecisionBudget(requested_precision=3, max_pole_depth=-1)
        with pytest.raises(ValueError):
            PrecisionBudget(requested_precision=3, max_pole_depth=3)
        with pytest.raises(ValueError):
            PrecisionBudget(requested_precision=3, max_pole_depth=5)
        b = PrecisionBudget(requested_precision=3, max_pole_depth=2)
        assert b.max_pole_depth == 2


class TestCharacter:
    def test_empty_word_is_one(self, session):
        c = session.character
        s = c.on_word(EMPTY_WORD)
        assert s == one_series(c.ring, c.budget.requested_precision)

    def test_linear_extension(self, session):
        c = session.character
        x = HopfElement({W([(0, 1)]): F(2), W([(-1, 2)]): F(-1, 3)})
        direct = c.on_word(W([(0, 1)])).scale(2) \
            + c.on_word(W([(-1, 2)])).scale(F(-1, 3))
        assert windows_agree(c.on_element(x), direct)
        # over Q(delta): an int multiplicity weights one series sum, a
        # delta function scales its series
        c = expansion_character(DELTA_FIELD, 1, 3)
        u, v = W([(0, 1 + DELTA)]), W([(-1, 2)])
        x = HopfElement({u: 3, v: 1 / (1 + DELTA)})
        direct = c.on_word(u).scale(3) + c.on_word(v).scale(1 / (1 + DELTA))
        assert windows_agree(c.on_element(x), direct)
        assert not windows_agree(c.on_element(x), c.on_word(u) + direct)

    def test_positive_sector_rejected(self, session):
        with pytest.raises(ValueError):
            session.character.on_word(W([(1, 1)]))

    def test_short_word_window_rejected(self):
        # a word of pole depth M is owed a window to O(eps^(B - M))
        base = expansion_character(RATIONAL_FIELD, 1, 3)
        word = W([(-1, 2)])
        need = base.budget.requested_precision - word.pole_depth()

        def short(w):
            return base.on_word(w).truncated(need - 1)

        with pytest.raises(InsufficientPrecision, match=r"\(-1,2\)"):
            Character(RATIONAL_FIELD, short, base.budget).on_word(word)

        def exact(w):
            return base.on_word(w).truncated(need)

        char = Character(RATIONAL_FIELD, exact, base.budget)
        assert char.on_word(word).precision == need

    def test_depth_budget_enforced(self):
        small = decomposition_session(taylor_order=0, max_pole_depth=2)
        with pytest.raises(InsufficientPrecision):
            small.renormalized(W([(-2, 1)]))
        with pytest.raises(InsufficientPrecision):
            small.character.on_word(W([(0, 1), (0, 1), (0, 1)]))


class TestWordSizing:
    """The character expands a word of pole depth M to O(eps^(B - M))
    only; the decomposition reads no further (module docstring)."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_sized_session_equals_full_windows(self, data):
        depth = data.draw(st.integers(1, 4), label="depth")
        s = data.draw(st.lists(st.integers(-3, 0), min_size=depth,
                               max_size=depth))
        if data.draw(st.booleans(), label="delta"):
            ring, r = DELTA_FIELD, [-x + DELTA for x in s]
        else:
            ring = RATIONAL_FIELD
            r = data.draw(st.lists(
                st.builds(F, st.integers(1, 6), st.integers(1, 3)),
                min_size=len(s), max_size=len(s)))
        word = argument_word(s, r)
        sized = decomposition_session(
            data.draw(st.integers(0, 2), label="taylor order"),
            word.pole_depth(), ring)
        budget = sized.character.budget
        b = budget.requested_precision

        def full(w):
            return regularized_expansion(
                tuple(l.s for l in w), tuple(l.r for l in w), b)

        reference = DecompositionSession(Character(ring, full, budget))
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                x = word[i:j]
                for part in ("counterterm", "renormalized"):
                    got = getattr(sized, part)(x)
                    assert got.precision >= b - x.pole_depth(), (x, part)
                    assert windows_agree(
                        got, getattr(reference, part)(x)), (x, part)


class TestDecompositionValues:
    def test_depth_one_counterterm(self, session):
        m = session.counterterm(W([(0, 1)]))
        assert m.coefficient(-1) == 1
        assert m.finite_part().is_zero_window()

    def test_depth_two_counterterm(self, session):
        m = session.counterterm(W([(0, 1), (0, 1)]))
        assert m.coefficient(-2) == F(1, 2)
        assert m.coefficient(-1) == F(-1, 4)
        assert m.finite_part().is_zero_window()

    def test_depth_two_renormalized(self, session):
        p = session.renormalized(W([(0, 1), (0, 1)]))
        assert p.min_order >= 0
        assert p.constant_term() == F(3, 8)
        assert p.coefficient(1) == F(1, 8)

    def test_counterterm_of_square_is_square_of_counterterm(self, session):
        a = HopfElement.from_word(W([(0, 1)]))
        sq = quasi_shuffle(a, a)
        lhs = session.counterterm_of(sq)
        m = session.counterterm(W([(0, 1)]))
        assert windows_agree(lhs, m * m)

    def test_unit_values(self, session):
        one = one_series(
            session.character.ring,
            session.character.budget.requested_precision)
        assert session.counterterm(EMPTY_WORD) == one
        assert session.renormalized(EMPTY_WORD) == one


class TestRangeDiscipline:
    def test_counterterms_are_pure_poles(self, session):
        for n in (1, 2, 3):
            for w in words_of_length(n):
                m = session.counterterm(w)
                assert m.finite_part().is_zero_window(), w

    def test_renormalized_parts_are_pole_free(self, session):
        for n in (1, 2, 3):
            for w in words_of_length(n):
                p = session.renormalized(w)
                assert p.min_order >= 0, w


class TestConvolutionIdentity:
    def test_identity_on_all_small_words(self, session):
        for n in (1, 2, 3):
            for w in words_of_length(n):
                got = convolve(
                    session.counterterm, session.character.on_word, w)
                assert windows_agree(got, session.renormalized(w)), w

    def test_identity_on_length_four_samples(self, session):
        for w in [
            W([(0, 1), (0, 1), (0, 1), (0, 1)]),
            W([(0, 1), (-1, 2), (0, 1), (-2, 1)]),
            W([(-1, 2), (-1, 2), (0, 1), (0, 1)]),
        ]:
            got = convolve(
                session.counterterm, session.character.on_word, w)
            assert windows_agree(got, session.renormalized(w)), w


class TestMultiplicativity:
    def test_renormalized_part_is_multiplicative(self, session):
        pairs = [
            (W([(0, 1)]), W([(0, 1)])),
            (W([(0, 1)]), W([(-1, 2)])),
            (W([(-2, 1)]), W([(0, 1), (-1, 2)])),
            (W([(0, 1), (0, 1)]), W([(-1, 2), (-2, 1)])),
        ]
        for u, v in pairs:
            prod = quasi_shuffle(
                HopfElement.from_word(u), HopfElement.from_word(v))
            lhs = session.renormalized_of(prod)
            rhs = session.renormalized(u) * session.renormalized(v)
            assert windows_agree(lhs, rhs), (u, v)

    def test_counterterm_is_multiplicative(self, session):
        u = W([(0, 1), (-1, 2)])
        v = W([(-2, 1)])
        prod = quasi_shuffle(
            HopfElement.from_word(u), HopfElement.from_word(v))
        lhs = session.counterterm_of(prod)
        rhs = session.counterterm(u) * session.counterterm(v)
        assert windows_agree(lhs, rhs)


class TestClosedForm:
    def test_length_two_shortcut_agrees(self, session):
        for u in words_of_length(2):
            direct = zplus_length2_direct(session.character, u)
            assert windows_agree(direct, session.renormalized(u)), u

    def test_wrong_length_rejected(self, session):
        with pytest.raises(ValueError):
            zplus_length2_direct(session.character, W([(0, 1)]))


class TestDifferentialCompatibility:
    def test_example_word(self, session):
        reports = verify_differential_compatibility(
            session, W([(0, 1), (0, 2)]))
        assert [r.check for r in reports] == [
            "differential-plus", "differential-minus"]
        assert all(r.passed for r in reports)

    def test_depth_one_and_three(self, session):
        for w in [W([(0, 1)]), W([(-1, 2)]),
                  W([(0, 1), (-1, 2), (0, 1)])]:
            assert all(r.passed for r in
                       verify_differential_compatibility(session, w)), w

    def test_report_serialization(self, session):
        rep = verify_differential_compatibility(
            session, W([(0, 1)]))[0]
        obj = rep.to_json()
        assert set(obj) == {"word", "check", "pass", "lhs", "rhs"}
        assert obj["pass"] is True
        assert obj["word"] == "(0,1)"


class TestMemoization:
    def test_session_reuses_prefix_work(self):
        calls = []
        base = expansion_character(RATIONAL_FIELD, 1, 6)

        def counting(word):
            calls.append(word)
            return base.on_word(word)

        char = Character(RATIONAL_FIELD, counting, base.budget)
        sess = DecompositionSession(char)
        sess.renormalized(W([(0, 1), (0, 1)]))
        first = len(calls)
        sess.renormalized(W([(0, 1), (0, 1)]))
        sess.counterterm(W([(0, 1), (0, 1)]))
        assert len(calls) == first


SPLIT_EXPONENTS = (0, -1, 0, -2)


@pytest.mark.parametrize("directions", [
    (F(1), F(2), F(3, 2), F(1)),
    tuple(abs(x) + DELTA for x in SPLIT_EXPONENTS),
], ids=["rational", "abs-s-plus-delta"])
class TestProjection:
    """Both parts are projections of the prepared value: a cold session
    adds series only to sum the splits, k(k - 1)/2 of them for a word of
    length k, and no sum forms the renormalized part."""

    def test_only_split_sums(self, monkeypatch, directions):
        add = TruncatedLaurentSeries.__add__
        calls = []

        def counting(a, b):
            calls.append(1)
            return add(a, b)

        monkeypatch.setattr(TruncatedLaurentSeries, "__add__", counting)
        for k in range(1, len(SPLIT_EXPONENTS) + 1):
            word, session = _word_session(
                SPLIT_EXPONENTS[:k], directions[:k], 1)
            calls.clear()
            session.renormalized(word)
            assert len(calls) == k * (k - 1) // 2, k

    def test_parts_equal_the_sum_form(self, directions):
        word, session = _word_session(SPLIT_EXPONENTS, directions, 1)
        for end in range(1, len(word) + 1):
            x = word[:end]
            prepared = session.character.on_word(x)
            for left, right in reduced_coproduct(x):
                prepared = prepared + session.counterterm(left) \
                    * session.character.on_word(right)
            minus = session.counterterm(x)
            assert minus == -prepared.pole_part()
            assert session.renormalized(x) == prepared + minus
