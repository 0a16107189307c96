"""Birkhoff decomposition of series-valued characters on the word algebra.

A character assigns each word a truncated Laurent series, multiplicatively
for the quasi-shuffle product and sending the empty word to 1.  Against the
pole projector it splits as phi = counterterm^(-1) * renormalized in the
convolution algebra.  Both parts come from one recursion over proper
deconcatenation splits: with

    prepared(x) = phi(x) + sum counterterm(x') phi(x'')

over reduced splits x' (x) x'', the counterterm is -P(prepared(x)) and the
renormalized part is (1 - P)(prepared(x)), both projections: renormalized(x)
= prepared(x) + counterterm(x) holds, but no sum forms it.  Since suffixes
of prefixes are not themselves needed, a bottom-up pass over the prefixes
of a word fills the memo in one sweep.

Precision bookkeeping rides along.  A character carries a budget B and the
largest pole depth it is sized for, and its value on a word x of pole depth
M(x) need only be known below eps^(B - M(x)), with valuation >= -M(x):
B coefficients from the pole on, never more than the recursion reads.
``Character.on_word`` raises InsufficientPrecision for a window that stops
short of that.  The bound carries through the recursion by induction over
prefixes.  Pole depth adds over concatenation, M(x) = M(x') + M(x'').  If
counterterm(x') is known below eps^(B - M(x')) with valuation >= -M(x'),
then counterterm(x') phi(x'') is known below

    min(B - M(x') - M(x''), B - M(x'') - M(x')) = B - M(x),

since a product knows each factor's window shifted by the partner's
valuation.  So prepared(x) is known below eps^(B - M(x)), and so are its
projections counterterm(x) and renormalized(x), the counterterm again with
valuation >= -M(x).  With M(x) at most the budget's pole depth, the
renormalized part keeps B - max_pole_depth >= 1 Taylor coefficients, so
its constant term is exact.
"""

from __future__ import annotations

from collections import namedtuple

from renzeta.arith import _check_count
from renzeta.hopf import (
    EMPTY_WORD,
    HopfElement,
    Word,
    coproduct,
    differentiate,
    reduced_coproduct,
)
from renzeta.laurent import (
    InsufficientPrecision,
    TruncatedLaurentSeries,
    one_series,
    windows_agree,
    zero_series,
)

__all__ = [
    "PrecisionBudget",
    "Character",
    "DecompositionSession",
    "convolve",
    "zplus_length2_direct",
    "CheckReport",
    "verify_differential_compatibility",
]


class PrecisionBudget(namedtuple(
        "PrecisionBudget", "requested_precision max_pole_depth")):
    """How much window every character value carries, and for whom.

    requested_precision is B: a word of pole depth M has its value, its
    counterterm and its renormalized part known below eps^(B - M) (module
    docstring).  max_pole_depth is the deepest word the budget is sized
    for, so that renormalized parts keep B - max_pole_depth > 0 known
    Taylor coefficients.  Construction refuses a malformed count and
    B <= max_pole_depth; ``_replace`` and ``_make`` skip those checks.
    """

    __slots__ = ()

    def __new__(cls, requested_precision, max_pole_depth):
        _check_count("requested precision", requested_precision, 1)
        _check_count("pole depth budget", max_pole_depth, 0)
        if requested_precision <= max_pole_depth:
            raise ValueError(
                "exact constant terms need precision > pole depth budget")
        return super().__new__(cls, requested_precision, max_pole_depth)


def _linear_extension(character, word_map,
                      x: HopfElement) -> TruncatedLaurentSeries:
    """Sum of coeff * word_map(word) over the terms of x, in the ring and
    window of the character: an int multiplicity is the weight of one
    series sum, any other coefficient scales its series first."""
    acc = zero_series(character.ring, character.budget.requested_precision)
    for word, coeff in x._terms.items():
        term = word_map(word)
        acc = (acc._plus(term, coeff) if type(coeff) is int
               else acc + term.scale(coeff))
    return acc


class Character:
    """Word-indexed series with multiplicative meaning; linear on elements.

    Only words of the non-positive sector within the budget's pole depth
    have values; any other word raises before the word map runs.  The word
    map owes a word of pole depth M a window known below eps^(B - M); a
    shorter one raises InsufficientPrecision (module docstring).
    """

    __slots__ = ("ring", "budget", "_word_fn", "_cache")

    def __init__(self, ring, word_fn, budget: PrecisionBudget):
        self.ring = ring
        self.budget = budget
        self._word_fn = word_fn
        self._cache: dict[Word, TruncatedLaurentSeries] = {}

    def on_word(self, word: Word) -> TruncatedLaurentSeries:
        hit = self._cache.get(word)
        if hit is None:
            depth = word.pole_depth()
            if depth > self.budget.max_pole_depth:
                raise InsufficientPrecision(
                    f"word {word} has pole depth {depth}, beyond the "
                    f"budget {self.budget.max_pole_depth}")
            if len(word) == 0:
                hit = one_series(self.ring, self.budget.requested_precision)
            else:
                hit = self._word_fn(word)
                need = self.budget.requested_precision - depth
                if hit.precision < need:
                    raise InsufficientPrecision(
                        f"word {word} has a window to O(eps^{hit.precision})"
                        f", short of the O(eps^{need}) its pole depth "
                        f"{depth} needs")
            self._cache[word] = hit
        return hit

    def on_element(self, x: HopfElement) -> TruncatedLaurentSeries:
        return _linear_extension(self, self.on_word, x)


class DecompositionSession:
    """Memoized counterterm/renormalized values for one character: -P and
    (1 - P) of each prefix's prepared value (module docstring)."""

    __slots__ = ("character", "memo_minus", "memo_plus")

    def __init__(self, character: Character):
        self.character = character
        one = one_series(
            character.ring, character.budget.requested_precision)
        self.memo_minus: dict[Word, TruncatedLaurentSeries] = {
            EMPTY_WORD: one}
        self.memo_plus: dict[Word, TruncatedLaurentSeries] = {
            EMPTY_WORD: one}

    def _ensure(self, word: Word):
        for end in range(1, len(word) + 1):
            prefix = word[:end]
            if prefix in self.memo_minus:
                continue
            prepared = self.character.on_word(prefix)
            if end > 1:
                for left, right in reduced_coproduct(prefix):
                    prepared = prepared + self.memo_minus[left] \
                        * self.character.on_word(right)
            self.memo_minus[prefix] = -(prepared.pole_part())
            self.memo_plus[prefix] = prepared.finite_part()

    def counterterm(self, word: Word) -> TruncatedLaurentSeries:
        """The pure-pole part phi_minus on one word."""
        self._ensure(word)
        return self.memo_minus[word]

    def renormalized(self, word: Word) -> TruncatedLaurentSeries:
        """The pole-free part phi_plus on one word."""
        self._ensure(word)
        return self.memo_plus[word]

    def counterterm_of(self, x: HopfElement) -> TruncatedLaurentSeries:
        return _linear_extension(self.character, self.counterterm, x)

    def renormalized_of(self, x: HopfElement) -> TruncatedLaurentSeries:
        return _linear_extension(self.character, self.renormalized, x)


def convolve(f, g, word: Word) -> TruncatedLaurentSeries:
    """Convolution (f * g)(word) over all deconcatenation splits.

    f and g map words to series over one shared ring.
    """
    acc = None
    for left, right in coproduct(word):
        term = f(left) * g(right)
        acc = term if acc is None else acc + term
    return acc


def zplus_length2_direct(character: Character,
                         word: Word) -> TruncatedLaurentSeries:
    """Closed form of the renormalized part on a length-2 word:
    (1 - P)(phi(ab) - P(phi(a)) phi(b))."""
    if len(word) != 2:
        raise ValueError("closed form applies to length-2 words only")
    whole = character.on_word(word)
    head = character.on_word(word[:1])
    tail = character.on_word(word[1:])
    inner = whole - head.pole_part() * tail
    return inner.finite_part()


class CheckReport(namedtuple("CheckReport", "word check passed lhs rhs")):
    """One verified identity: what was compared and whether it held.

    passed is a bool; word, check and the printed sides lhs and rhs are
    strings.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "check": self.check,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def _differential_cases(session: DecompositionSession, word: Word):
    """(check, agree, lhs, rhs) for plus, then minus: part(d word) and
    (part(word))' as series, unformatted, and whether their windows agree."""
    lowered = differentiate(word)
    for check, by_word, linear in (
            ("differential-plus", session.renormalized,
             session.renormalized_of),
            ("differential-minus", session.counterterm,
             session.counterterm_of)):
        lhs = linear(lowered)
        rhs = by_word(word).derivative()
        yield check, windows_agree(lhs, rhs), lhs, rhs


def verify_differential_compatibility(session: DecompositionSession,
                                      word: Word) -> list:
    """Check that both decomposition parts intertwine the word derivation
    with d/d(eps): part(d word) = (part(word))' for plus and minus."""
    return [CheckReport(word=str(word), check=check, passed=agree,
                        lhs=str(lhs), rhs=str(rhs))
            for check, agree, lhs, rhs in _differential_cases(session, word)]
