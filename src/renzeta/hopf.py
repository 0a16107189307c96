"""Quasi-shuffle Hopf algebra on tensor words of (s, r) letters.

A letter pairs an integer exponent s with a positive direction weight r;
letters form a semigroup under componentwise addition, (s,r)(s',r') =
(s+s', r+r').  Words are tuples of letters, the empty word is the unit, and
elements are finite linear combinations of words with scalar coefficients.
The product interleaves two words, optionally merging a pair of crossing
letters through the semigroup; it satisfies the recursion

    u * v = u1 (u' * v) + v1 (u * v') + (u1 v1) (u' * v')

with u1, v1 the first letters.  The coproduct is deconcatenation, the counit
kills every nonempty word, and the grading by word length is a filtration for
the product: merging letters shortens words, never lengthens them.

The derivation lowers one exponent per term, weighted by that letter's
direction: each position (s, r) contributes r times the word with (s-1, r)
in its place.  It is a Leibniz map for the product and co-Leibniz for the
coproduct, which is exactly what the decomposition engine relies on.

Directions live either in Q (strictly positive) or in Q(delta) restricted to
delta-polynomials with nonnegative coefficients and not identically zero, so
positivity for all small delta > 0 is decidable coefficientwise.

Equality is identity.  ``Letter(s, r)`` and ``Word(...)`` check their
input and return its one object from the process-wide tables ``_LETTERS``
and ``_WORDS``.  Words the layer builds itself (slices, concatenations,
shuffle and derivation terms) come unchecked from ``_WORDS``, merged and
lowered letters from memos over ``Letter``, and copies and pickles through
the constructors.  So letters and words compare and hash by identity, in C.
A constant delta-polynomial direction and the equal rational make two
letters, since they pick different coefficient rings.  The tables are
unbounded, like the memos: after the seed-0 benchmark ``verify`` pass they
hold 42 letters and 2821 words.  Both insert with ``dict.setdefault``, so
threads building one letter or word at once all get the stored object.

``_shuffle_nonempty`` memoizes the product of two nonempty words (2041
entries, 4890 of 6931 lookups hits after that pass; ``_merged`` holds 56
merges); its dicts are shared and not to be mutated, and threads may compute
one twice.  Elements keep coefficients in ``_terms``, ints where integral;
the algebra runs on those, and ``terms`` builds its Fractions on first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from renzeta.arith import DeltaRationalFunction

__all__ = [
    "Letter",
    "Word",
    "EMPTY_WORD",
    "HopfElement",
    "quasi_shuffle",
    "mixable_shuffle_direct",
    "coproduct",
    "reduced_coproduct",
    "counit",
    "differentiate",
    "element_coproduct",
    "tensor_quasi_shuffle",
]


def _check_direction(r):
    if isinstance(r, int):
        r = Fraction(r)
    if isinstance(r, Fraction):
        if r <= 0:
            raise ValueError(f"direction must be positive, got {r}")
        return r
    if isinstance(r, DeltaRationalFunction):
        if not r.has_nonnegative_coefficients() or r.is_zero():
            raise ValueError(
                f"direction {r} is not a nonzero delta-polynomial with "
                f"nonnegative coefficients")
        return r
    raise TypeError(f"unsupported direction {r!r}")


def _direction_key(r):
    if isinstance(r, Fraction):
        return (0, r, 0)
    return (1,) + r.sort_key()


class Letter:
    """One tensor slot: integer exponent s, positive direction r; the
    constructor checks both and returns the one letter of the pair."""

    __slots__ = ("s", "r")

    def __new__(cls, s: int, r):
        if not isinstance(s, int) or isinstance(s, bool):
            raise TypeError("exponent must be an integer")
        r = _check_direction(r)
        # hash(-1) == hash(-2), so exponents enter as 2s + 1; the flag
        # keeps a constant delta-polynomial apart from its rational
        key = (2 * s + 1, r, type(r) is Fraction)
        letter = _LETTERS.get(key)
        if letter is None:
            letter = object.__new__(cls)
            object.__setattr__(letter, "s", s)
            object.__setattr__(letter, "r", r)
            letter = _LETTERS.setdefault(key, letter)
        return letter

    def __setattr__(self, name, value):
        raise AttributeError("Letter is immutable")

    def __reduce__(self):
        # copies and pickles come back as the canonical letter
        return Letter, (self.s, self.r)

    def __mul__(self, other: "Letter") -> "Letter":
        if not isinstance(other, Letter):
            return NotImplemented
        return _merged(self, other)

    def sort_key(self):
        return (self.s, _direction_key(self.r))

    def __str__(self):
        return f"({self.s},{_format_direction(self.r)})"

    def __repr__(self):
        return f"Letter({self.s}, {self.r!r})"


@cache
def _merged(a: Letter, b: Letter) -> Letter:
    """The merge of two letters, made once per ordered pair."""
    return Letter(a.s + b.s, a.r + b.r)


class Word:
    """A finite tensor word; the empty word is the algebra unit.  The
    constructor checks the letters and returns the one word of them."""

    __slots__ = ("letters",)

    def __new__(cls, letters=()):
        ls = tuple(letters)
        for l in ls:
            if not isinstance(l, Letter):
                raise TypeError(f"not a letter: {l!r}")
        return _word(ls)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # copies and pickles come back as the canonical word
        return Word, (self.letters,)

    @classmethod
    def from_pairs(cls, pairs) -> "Word":
        return cls(Letter(s, r) for s, r in pairs)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _word(self.letters[index])
        return self.letters[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return _word(self.letters + other.letters)

    def sort_key(self):
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def is_nonpositive(self) -> bool:
        """All exponents <= 0: the sector the renormalization acts on."""
        return all(l.s <= 0 for l in self.letters)

    def pole_depth(self) -> int:
        """Worst pole order of the regularized window: sum of (|s_i| + 1)."""
        if not self.is_nonpositive():
            raise ValueError(f"{self} leaves the non-positive sector")
        return sum(1 - l.s for l in self.letters)

    def __str__(self):
        if not self.letters:
            return "()"
        return "".join(str(l) for l in self.letters)

    def __repr__(self):
        return f"Word({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Inverse of str: ``(s1,r1)(s2,r2)...``; ``()`` is the unit."""
        s = text.replace(" ", "")
        if s in ("", "()"):
            return EMPTY_WORD
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"malformed word {text!r}")
        letters = []
        for chunk in s[1:-1].split(")("):
            head, sep, tail = chunk.partition(",")
            if not sep:
                raise ValueError(f"malformed letter ({chunk})")
            letters.append(Letter(int(head), _parse_direction(tail)))
        return cls(letters)


_LETTERS: dict = {}
_WORDS: dict = {}


def _word(letters: tuple) -> Word:
    """The canonical word of a tuple of letters, made on first request;
    the letters are not checked."""
    word = _WORDS.get(letters)
    if word is None:
        word = object.__new__(Word)
        object.__setattr__(word, "letters", letters)
        word = _WORDS.setdefault(letters, word)
    return word


EMPTY_WORD = _word(())


def _parse_direction(text: str):
    """Direction text to a Fraction, or to a delta-polynomial when it
    depends on delta; the value is not checked here."""
    if "d" not in text:
        return Fraction(text)
    value = DeltaRationalFunction.parse(text)
    return value.as_rational() if value.is_rational() else value


def _format_direction(r) -> str:
    # letter directions are rationals or delta-polynomials, so the compact
    # form "1+2d" stays free of parentheses and commas inside word syntax
    return str(r).replace(" ", "").replace("*", "")


def _collect(pairs) -> dict:
    """Sum (key, coefficient) pairs per key in one pass, integral sums as
    ints; a key whose sum is zero is dropped."""
    out = {}
    for key, c in pairs:
        prev = out.get(key)
        c = _integral(c if prev is None else prev + c)
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def _integral(c):
    """An integral Fraction as its int, so that multiplicities add and
    multiply as ints; any other coefficient unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _coefficient(c):
    """Inverse of _integral for the public terms: ints become Fractions."""
    return Fraction(c) if isinstance(c, int) else c


class HopfElement:
    """Finite linear combination of words; the product is quasi-shuffle.
    ``terms`` (Fractions or delta functions) is built on first read from
    ``_terms``, which keeps integral coefficients as ints."""

    __slots__ = ("_terms", "_public")

    def __init__(self, terms=None):
        object.__setattr__(self, "_terms", {
            w: _integral(c) for w, c in (terms or {}).items() if c != 0})

    @classmethod
    def _of(cls, terms: dict) -> "HopfElement":
        """The element of a dict in the form of ``_terms``, not copied."""
        x = object.__new__(cls)
        object.__setattr__(x, "_terms", terms)
        return x

    @property
    def terms(self) -> dict:
        try:
            return self._public
        except AttributeError:
            public = {w: _coefficient(c) for w, c in self._terms.items()}
            object.__setattr__(self, "_public", public)
            return public

    def __setattr__(self, name, value):
        raise AttributeError("HopfElement is immutable")

    def __reduce__(self):
        return HopfElement, (self._terms,)

    @classmethod
    def zero(cls) -> "HopfElement":
        return cls({})

    @classmethod
    def unit(cls) -> "HopfElement":
        return cls({EMPTY_WORD: 1})

    @classmethod
    def from_word(cls, word: Word, coeff=1) -> "HopfElement":
        return cls({word: coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: wc[0].sort_key())

    def coefficient(self, word: Word):
        return _coefficient(self._terms.get(word, 0))

    def __add__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        return HopfElement._of(_collect(
            pair for x in (self, other) for pair in x._terms.items()))

    def __sub__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return HopfElement._of({w: -c for w, c in self._terms.items()})

    def scale(self, coeff) -> "HopfElement":
        return HopfElement({w: coeff * c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, HopfElement):
            return quasi_shuffle(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            parts.append(str(w) if c == 1 else f"{c}·{w}")
        return " + ".join(parts)

    def __repr__(self):
        return f"HopfElement({str(self)!r})"


# ---------------------------------------------------------------------------
# Product: recursive quasi-shuffle with memoized word-level expansion, plus
# the direct interleave-and-merge enumeration used as its oracle.

def _shuffle_words(u: Word, v: Word) -> dict:
    """Expansion of u * v as {word: integer multiplicity}."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    return _shuffle_nonempty(u, v)


@cache
def _shuffle_nonempty(u: Word, v: Word) -> dict:
    u1, v1 = u.letters[0], v.letters[0]
    return _collect(
        (_word((head,) + w.letters), m)
        for head, rest in ((u1, _shuffle_words(u[1:], v)),
                           (v1, _shuffle_words(u, v[1:])),
                           (u1 * v1, _shuffle_words(u[1:], v[1:])))
        for w, m in rest.items())


def quasi_shuffle(x: HopfElement, y: HopfElement) -> HopfElement:
    """Bilinear extension of the recursive interleave-or-merge product."""
    pairs = []
    for (wu, cu), (wv, cv) in product(x._terms.items(), y._terms.items()):
        c = cu * cv
        pairs.extend((w, m * c) for w, m in _shuffle_words(wu, wv).items())
    return HopfElement._of(_collect(pairs))


def mixable_shuffle_direct(u: Word, v: Word) -> HopfElement:
    """Oracle expansion: enumerate order-preserving slot assignments.

    A term of u * v of length n picks positions for u and for v inside n
    slots, each order-preserving, jointly covering every slot; a slot hit
    by both holds the merged letter.
    """
    from itertools import combinations

    p, q = len(u), len(v)
    out: dict[Word, int] = {}
    for n in range(max(p, q), p + q + 1):
        for upos in combinations(range(n), p):
            for vpos in combinations(range(n), q):
                if set(upos) | set(vpos) != set(range(n)):
                    continue
                slots = []
                ui = {pos: i for i, pos in enumerate(upos)}
                vi = {pos: i for i, pos in enumerate(vpos)}
                for slot in range(n):
                    if slot in ui and slot in vi:
                        slots.append(u[ui[slot]] * v[vi[slot]])
                    elif slot in ui:
                        slots.append(u[ui[slot]])
                    else:
                        slots.append(v[vi[slot]])
                w = Word(slots)
                out[w] = out.get(w, 0) + 1
    return HopfElement._of(out)


# ---------------------------------------------------------------------------
# Coalgebra.

def coproduct(word: Word) -> tuple:
    """All deconcatenation splits (prefix, suffix), unit ones included."""
    ls = word.letters
    return tuple((_word(ls[:i]), _word(ls[i:])) for i in range(len(ls) + 1))


def reduced_coproduct(word: Word) -> tuple:
    """Proper splits only; undefined on the empty word."""
    if len(word) == 0:
        raise ValueError("the empty word has no reduced coproduct")
    return coproduct(word)[1:-1]


def counit(x: HopfElement):
    """Coefficient of the empty word."""
    return x.coefficient(EMPTY_WORD)


def element_coproduct(x: HopfElement) -> dict:
    """Linear extension of the coproduct: {(prefix, suffix): coefficient};
    a split determines its word, so no pair repeats."""
    return {pair: _coefficient(c) for w, c in x._terms.items()
            for pair in coproduct(w)}


def tensor_quasi_shuffle(t1: dict, t2: dict) -> dict:
    """Componentwise product on the tensor square, bilinear in both slots."""
    pairs = []
    for ((a1, a2), c), ((b1, b2), d) in product(t1.items(), t2.items()):
        cd = _integral(c) * _integral(d)
        right = _shuffle_words(a2, b2).items()
        pairs.extend(((w1, w2), cd * (m1 * m2))
                     for w1, m1 in _shuffle_words(a1, b1).items()
                     for w2, m2 in right)
    return {pair: _coefficient(c) for pair, c in _collect(pairs).items()}


# ---------------------------------------------------------------------------
# The derivation.

@cache
def _lowered(letter: Letter) -> tuple:
    """(the letter with its exponent lowered by one, its direction as a
    multiplicity), made once per letter."""
    return Letter(letter.s - 1, letter.r), _integral(letter.r)


def differentiate(x) -> HopfElement:
    """Lower one exponent per term: position i of w maps to r_i times the
    word with s_i replaced by s_i - 1."""
    if isinstance(x, Word):
        x = HopfElement.from_word(x)
    pairs = []
    for w, c in x._terms.items():
        ls = w.letters
        for i, l in enumerate(ls):
            low, weight = _lowered(l)
            pairs.append((_word(ls[:i] + (low,) + ls[i + 1:]), c * weight))
    return HopfElement._of(_collect(pairs))
