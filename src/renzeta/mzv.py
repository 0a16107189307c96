"""Directional regularized nested zeta sums with non-positive exponents:
exact Laurent windows, and the renormalized values extracted from them.

The object is the sum over n_1 > ... > n_k > 0 of prod_i n_i^(m_i)
exp(n_i r_i eps), with m_i = -s_i >= 0 and positive directions r_i.  The
substitution n_i = S_i = j_i + ... + j_k (all j >= 1) factorizes the
exponential through cumulative directions rho_l = r_1 + ... + r_l
(Guo-Zhang, arXiv:0710.0432), so the sum is built from one-variable series

    W(b, rho) = sum_{j >= 1} j^b exp(j rho eps)
        = (-1)^(b+1) b! (rho eps)^(-b-1) + sum_{j >= 0} zeta(-b-j)
          (rho eps)^j / j!

Let F(l, e) be the sum over j_l, ..., j_k of S_l^e prod_{i>l} S_i^(m_i)
prod_{i>=l} exp(j_i rho_i eps).  Since S_l = j_l + S_(l+1), the binomial
theorem gives, slot by slot,

    F(l, e) = sum_{a=0}^{e} C(e, a) W(a, rho_l) F(l + 1, e - a + m_(l+1)),
    F(k, e) = W(e, rho_k),

and the sum is F(1, m_1).  The carried exponent e of slot l runs over
[m_l, m_1 + ... + m_l], so the recursion runs from the last slot inward
with one value per carried exponent, and an expansion takes

    sum_{l=1}^{k-1} sum_{e=m_l}^{m_1+...+m_l} (e + 1)

window products: 15 for (-2,-2,-2), 40 for (-2)^4, 75 for (-3)^4.

No precision is lost.  Let M = sum_i (m_i + 1) be the pole depth.  Every
factor window W(a, rho) is requested with length precision + M, so it is
exact on [-(a+1), precision + M - (a+1)).  A product of two windows of one
length keeps that length, and every term of F(l, e) starts at -R(l, e),
with R(l, e) = e + 1 + sum_{i>l} (m_i + 1); so F(l, e) is exact on
[-R(l, e), precision + M - R(l, e)), and the root, with R(1, m_1) = M,
lands on [-M, precision).  The recursion needs only window products, sums
and integer scaling.

The recursion folds bare integer layouts, the layouts of the series
(``laurent``), with the series' own sum, product and integer scale, chosen
once per expansion from the ring.  Over Q a window is (nums, den), integer
numerators over one denominator.  Over Q(delta) it is (rows, den,
factors): ``hopf._check_direction`` admits only delta-polynomial
directions, so every cumulative direction rho_l is a polynomial, summed
from the letters as a rational content and a primitive part; the pole
coefficient of W(a, rho_l) is a constant over rho_l^(a+1) and its Taylor
coefficients are polynomials.  Products and sums only multiply these
denominators together, so every coefficient of every F(l, e) is an integer
delta-polynomial over one shared integer and one shared polynomial
denominator, kept factored as {primitive rho_l: exponent}; rho_l that
agree up to a constant (1 + d and 2 + 2d) share a factor.  A window keeps
no min_order, since F(l, e) starts at -R(l, e), and the root becomes the
one series of the expansion, at eps^-M.  Nothing is reduced on the way:
the series divides out the root's integer content, and a Q(delta)
coefficient is reduced to the canonical c p/q only when it is read.  That
form is what ``limit_at_zero`` reads, so a q that still vanishes at
delta = 0 is a genuine pole and raises PoleAtZero exactly where the field
would, never a removable 0/0 left over from factors kept apart (d and
d + d^2 share d and are two factors).

One place builds every one-variable window, for the expansion and
one_var_series alike, straight into this integer layout.  With rho = c p,
c the rational content and p the primitive integer part (p = 1 over Q; a
delta-direction stores both), W(b, rho) is the rational scalars of (b, c),
(-1)^(b+1) b! c^(-b-1) at the pole and zeta(-b-j) c^j / j! at eps^j, over
one integer denominator; over Q(delta) the numerator at eps^j is
multiplied by p^(j+b+1), over the factor p^(b+1).  The integers come from
one process-wide memo keyed by (b, c): Q and Q(delta) share its entries,
as do directions of one content (1, 1 + d, 1 + 2d).  An entry is the
layout itself, (den, nums): the pole numerator and the Taylor numerators
of the longest window asked for, over their least common denominator.  A
longer request extends the entry: it builds only the scalars the entry
lacks and brings the old numerators over the new lcm.  A shorter one
slices the numerators over the same den.  The slice is exact but need not
be in lowest terms; both series layouts divide out the integer content of
a new window, and a Q(delta) coefficient is reduced when read.  The memo
holds one entry per (b, c) ever asked for and grows with the direction
contents of the process.  Entries are replaced whole, never changed in
place, so concurrent callers at worst build an entry twice.

Renormalized values: the decomposition engine splits the regularized window,
and the constant term of its pole-free part at a given direction vector is
the directional renormalized value.  The direction-free value at s takes
directions |s_i| + delta, lands in Q(delta), and evaluates at delta = 0;
when the canonical form still has a pole there, PoleAtZero propagates.
An argument is validated once, by argument_word; the character expands
the words of a validated argument through the private recursion entry
_expansion, and only the public regularized_expansion and
expansion_plans validate their input.

The character sizes each word to what the decomposition reads (birkhoff
module docstring): with budget B, a word of pole depth M is expanded at
precision B - M, B coefficients from eps^-M on, not at B.  The top M
coefficients a precision-B window would add are the widest
delta-polynomials of the expansion, and the recursion never reads them.
regularized_expansion itself keeps its contract: its precision is the
O(eps^precision) bound the caller asks for.

For a word with no zero exponent that limit is the value at the rational
directions |s|.  Every ring operation on the way divides only by powers of
cumulative direction sums r_i + ... + r_l (the one-variable poles and the
decomposition of infixes), and with r_i = |s_i| + delta each such sum is
at least 1 at delta = 0.  So every Q(delta) coefficient along the
computation is regular at 0, evaluating at delta = 0 commutes with each
step, and the whole computation can run over Q.  Only words containing a
zero exponent, whose all-zero infixes have direction sums that vanish at
delta = 0, need the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from renzeta.arith import (
    DeltaRationalFunction,
    _over_common_denominator,
    _primitive,
    _row_sum,
    zeta_nonpositive,
)
from renzeta.birkhoff import (
    Character,
    CheckReport,
    DecompositionSession,
    PrecisionBudget,
)
from renzeta.hopf import Letter, Word, _check_direction
from renzeta.laurent import (
    DELTA_FIELD,
    RATIONAL_FIELD,
    TruncatedLaurentSeries,
    _power,
)

__all__ = [
    "argument_word",
    "ExpansionPlan",
    "expansion_plans",
    "one_var_series",
    "regularized_expansion",
    "expansion_character",
    "decomposition_session",
    "renormalized_series",
    "renorm_directional",
    "renorm_mzv",
    "symmetrized_zero",
    "generating_check",
    "two_var_an_check",
    "numeric_oracle",
    "oracle_tail_bound",
]


def argument_word(exponents, directions) -> Word:
    """Validated (s, r) word for one nested-sum argument."""
    s = tuple(exponents)
    r = tuple(directions)
    if len(s) == 0:
        raise ValueError("argument needs at least one slot")
    if len(s) != len(r):
        raise ValueError(
            f"{len(s)} exponents against {len(r)} directions")
    for x in s:
        if not isinstance(x, int) or isinstance(x, bool) or x > 0:
            raise ValueError(
                f"exponent {x} is not a non-positive integer")
    return Word(Letter(x, rx) for x, rx in zip(s, r))


def _check_count(what, value, least):
    """Refuse a bool, a non-int or an int below least, as argument_word
    refuses an exponent."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(
            f"{what} must be an integer >= {least}, not {value!r}")


def _ring_for(word):
    """Q(delta) if a letter of the validated word has a delta-direction,
    else Q."""
    if any(isinstance(l.r, DeltaRationalFunction) for l in word):
        return DELTA_FIELD
    return RATIONAL_FIELD


# ---------------------------------------------------------------------------
# The multinomial factorization.

@dataclass(frozen=True)
class ExpansionPlan:
    """One monomial of the factorized sum.

    slot_exponents[l] is the power of j_l in the monomial, and each
    slot-exponent vector has exactly one plan; multiplicity is the
    monomial's coefficient.  The slot exponents always resum to sum_i m_i.
    """

    cumulative_directions: tuple
    slot_exponents: tuple
    multiplicity: int


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _pair_sum(a, b) -> tuple:
    """The (content, primitive part) pair of the sum of two
    delta-polynomials given as such pairs."""
    (ca, pa), (cb, pb) = a, b
    na, da = ca.as_integer_ratio()
    nb, db = cb.as_integer_ratio()
    k, p = _primitive(_row_sum(pa, na * db, pb, nb * da))
    return Fraction(k, da * db), p


def _slots(word, ring):
    """The m_i = -s_i of a validated word and its cumulative directions
    rho_l: Fractions over Q; over Q(delta), where hopf._check_direction
    admits only delta-polynomial directions, pairs (c, p) of the rational
    content and the primitive integer part, summed on integers (a rational
    direction r is (r, (1,)), so a rational prefix still gets Q(delta)
    windows)."""
    ms = tuple(-l.s for l in word)
    if ring is RATIONAL_FIELD:
        return ms, tuple(accumulate(l.r for l in word))
    pairs = ((l.r._c, l.r._p) if isinstance(l.r, DeltaRationalFunction)
             else (l.r, (1,)) for l in word)
    return ms, tuple(accumulate(pairs, _pair_sum))


def _cumulative(exponents, directions):
    """The ring of a validated argument, its m_i = -s_i and its cumulative
    directions (_slots)."""
    word = argument_word(exponents, directions)
    ring = _ring_for(word)
    return (ring,) + _slots(word, ring)


def expansion_plans(exponents, directions):
    """Yield one plan per monomial of prod_i (j_i + ... + j_k)^(m_i), its
    cumulative directions in the argument's ring.

    The public monomial enumeration: the tests sum its plans one by one as
    the oracle of regularized_expansion.
    """
    ring, ms, rho = _cumulative(exponents, directions)
    if ring is DELTA_FIELD:
        rho = tuple(DeltaRationalFunction._new(c, p, (1,)) for c, p in rho)
    k = len(ms)
    poly = {(0,) * k: 1}
    for i, m in enumerate(ms):
        for _ in range(m):
            grown = {}
            for slots, c in poly.items():
                for l in range(i, k):
                    bumped = slots[:l] + (slots[l] + 1,) + slots[l + 1:]
                    grown[bumped] = grown.get(bumped, 0) + c
            poly = grown
    for slots, c in poly.items():
        yield ExpansionPlan(rho, slots, c)


def one_var_series(power: int, direction,
                   precision: int) -> TruncatedLaurentSeries:
    """Window of sum_{j>=1} j^power exp(j direction eps).

    Single pole of order power+1 with coefficient
    (-1)^(power+1) power! direction^(-power-1), no other negative
    exponents, and zeta(-power-j) direction^j / j! at eps^j.  The window
    lies in the direction's ring, Q(delta) or Q, and is the one the
    regularized expansion builds (_one_var_integers).
    """
    _check_count("slot power", power, 0)
    _check_count("precision", precision, 1)
    rho = _check_direction(direction)
    ring = RATIONAL_FIELD
    if isinstance(rho, DeltaRationalFunction):
        ring, rho = DELTA_FIELD, (rho._c, rho._p)
    return TruncatedLaurentSeries._of_layout(
        ring, -(power + 1), _one_var_integers(power, rho, precision))


# (b, c) -> (den, nums) of the longest W(b, c) asked for, the pole numerator
# first, shared by the directions of content c in both rings (module
# docstring)
_one_var_windows: dict = {}


def _one_var_scalar(b, c, j) -> Fraction:
    """The scalar of W(b, c) at eps^j, or at the pole eps^(-b-1) for
    j = -1."""
    if j < 0:
        return (-1) ** (b + 1) * math.factorial(b) / c ** (b + 1)
    z = zeta_nonpositive(b + j)
    # zeta vanishes at the negative even integers
    return z * c ** j / math.factorial(j) if z else z


def _one_var_integers(b, rho, precision):
    """The layout of W(b, rho) on [-(b+1), precision) (module docstring):
    the first precision + 1 numerators of the memo entry of (b, c) over
    its den, the entry extended first if it is shorter.  The Q pair for a
    rational rho = c, else the row layout over the factor {p: b+1} for the
    pair rho = (c, p)."""
    c, p = rho if isinstance(rho, tuple) else (rho, None)
    den, nums = _one_var_windows.get((b, c), (1, []))
    if len(nums) <= precision:
        # build only the scalars the entry lacks and bring the old
        # numerators over the new lcm
        new_den, new_nums = _over_common_denominator(
            [_one_var_scalar(b, c, j)
             for j in range(len(nums) - 1, precision)])
        lcm = math.lcm(den, new_den)
        nums = [x * (lcm // den) for x in nums] \
            + [x * (lcm // new_den) for x in new_nums]
        den = lcm
        # replaced whole, never mutated: a reader keeps a consistent entry
        _one_var_windows[b, c] = den, nums
    top, *nums = nums[:precision + 1]
    if p is None:
        return [top] + [0] * b + nums, den
    rows = [[top]] + [[]] * b + [
        [n * x for x in _power(p, j + b + 1)] if n else []
        for j, n in enumerate(nums)]
    return rows, den, {p: b + 1} if len(p) > 1 else {}


def regularized_expansion(exponents, directions,
                          precision: int) -> TruncatedLaurentSeries:
    """Exact window of the regularized nested sum, O(eps^precision) tail.

    The binomial recursion F(l, e) from the last slot inward (module
    docstring): every factor window has length precision + M, so the root
    F(1, m_1) lands exactly on [-M, precision).  The recursion folds the
    bare integer layouts of the argument's ring.
    """
    _check_count("precision", precision, 1)
    _, ms, rho = _cumulative(exponents, directions)
    return _expansion(ms, rho, precision)


def _expansion(ms, rho, precision: int) -> TruncatedLaurentSeries:
    """regularized_expansion of the slot powers ms and the cumulative
    directions rho of a validated word (_slots), precision >= 1.  Every
    window has the one length precision + M, and so has every product."""
    ring = DELTA_FIELD if isinstance(rho[0], tuple) else RATIONAL_FIELD
    add, mul, scale = ring._sum, ring._product, ring._scale
    k = len(ms)
    length = precision + sum(ms) + k
    tops = tuple(accumulate(ms))
    # level maps each carried exponent e of the current slot to F(slot, e)
    level = {e: _one_var_integers(e, rho[-1], length - (e + 1))
             for e in range(ms[-1], tops[-1] + 1)}
    for slot in range(k - 2, -1, -1):
        windows = [_one_var_integers(a, rho[slot], length - (a + 1))
                   for a in range(tops[slot] + 1)]
        inner, level = level, {}
        for e in range(ms[slot], tops[slot] + 1):
            acc = None
            for a in range(e + 1):
                term = mul(windows[a], inner[e - a + ms[slot + 1]], length)
                c = math.comb(e, a)
                if c != 1:
                    term = scale(term, c)
                acc = term if acc is None else add(acc, term)
            level[e] = acc
    # the root starts at eps^-M, M = length - precision
    return TruncatedLaurentSeries._of_layout(ring, precision - length,
                                             level[ms[0]])


# ---------------------------------------------------------------------------
# Renormalization.

def expansion_character(ring, taylor_order: int,
                        max_pole_depth: int) -> Character:
    """The regularized-sum character, sized so every word within the depth
    budget keeps taylor_order + 1 exact Taylor coefficients after
    decomposition: a word of pole depth M is expanded to
    O(eps^(B - M)), B the budget's precision (module docstring)."""
    budget = PrecisionBudget(
        requested_precision=taylor_order + 1 + max_pole_depth,
        max_pole_depth=max_pole_depth,
    )

    def word_fn(word: Word) -> TruncatedLaurentSeries:
        # the character owns the ring: a rational sub-word of a Q(delta)
        # argument must still land in Q(delta); its letters were validated
        # when the word was built
        return _expansion(*_slots(word, ring),
                          budget.requested_precision - word.pole_depth())

    return Character(ring, word_fn, budget)


def decomposition_session(taylor_order: int, max_pole_depth: int,
                          ring=RATIONAL_FIELD) -> DecompositionSession:
    return DecompositionSession(
        expansion_character(ring, taylor_order, max_pole_depth))


def _word_session(exponents, directions, taylor_order: int):
    """The validated word of one argument and a session in its ring, sized
    for its pole depth."""
    word = argument_word(exponents, directions)
    return word, decomposition_session(
        taylor_order, word.pole_depth(), _ring_for(word))


def renormalized_series(exponents, directions,
                        taylor_order: int) -> TruncatedLaurentSeries:
    """Pole-free part of the decomposition, exact through eps^taylor_order."""
    word, session = _word_session(exponents, directions, taylor_order)
    return session.renormalized(word)


def renorm_directional(exponents, directions):
    """Renormalized value at an explicit direction vector: the constant
    term of the pole-free part.  Exact scalar in Q or Q(delta)."""
    return renormalized_series(exponents, directions, 0).constant_term()


def renorm_mzv(exponents) -> Fraction:
    """Direction-free renormalized value: directions |s_i| + delta, then
    the delta -> 0 limit of the resulting rational function.

    Without a zero exponent no direction sum vanishes at delta = 0, so the
    limit is the value at the rational directions |s| (module docstring).
    """
    s = tuple(exponents)
    if 0 not in s:
        return renorm_directional(s, tuple(Fraction(-x) for x in s))
    # |s_i| + delta in canonical form: content 1, primitive (|s_i|, 1)
    directions = tuple(DeltaRationalFunction._new(Fraction(1), (-x, 1), (1,))
                       for x in s)
    value = renorm_directional(s, directions)
    return value.limit_at_zero()


def symmetrized_zero(depth: int, directions) -> Fraction:
    """Average of the all-zero-exponent value over direction orderings."""
    from itertools import permutations

    zeros = (0,) * depth
    r = tuple(l.r for l in argument_word(zeros, directions))
    acc = None
    for perm in permutations(r):
        v = renorm_directional(zeros, perm)
        acc = v if acc is None else acc + v
    return acc * Fraction(1, math.factorial(depth))


# ---------------------------------------------------------------------------
# Consistency reports.

def generating_check(depth: int, directions, order: int) -> CheckReport:
    """Taylor coefficients of the renormalized all-zero window against the
    weighted sums of non-positive renormalized values they should equal."""
    zeros = (0,) * depth
    word = argument_word(zeros, directions)
    r = tuple(l.r for l in word)
    series = renormalized_series(zeros, r, order)
    lhs = []
    rhs = []
    for n in range(order + 1):
        lhs.append(series.coefficient(n))
        total = Fraction(0)
        for split in _compositions(n, depth):
            value = renorm_directional(tuple(-i for i in split), r)
            weight = Fraction(1)
            for i, rj in zip(split, r):
                weight *= rj ** i * Fraction(1, math.factorial(i))
            total += value * weight
        rhs.append(total)
    return CheckReport(
        word=str(word),
        check="generating-function",
        passed=lhs == rhs,
        lhs=str([str(c) for c in lhs]),
        rhs=str([str(c) for c in rhs]),
    )


def two_var_an_check(n: int, r1, r2) -> CheckReport:
    """Depth-two Taylor coefficient identity: n! times the eps^n coefficient
    of the finite part of the double window against binomially weighted
    renormalized values plus the zeta correction term."""
    word = argument_word((0, 0), (r1, r2))
    r1, r2 = (l.r for l in word)
    reg = regularized_expansion((0, 0), (r1, r2), n + 1)
    an = reg.finite_part().coefficient(n) * math.factorial(n)
    total = Fraction(0)
    for i in range(n + 1):
        total += math.comb(n, i) * r1 ** i * r2 ** (n - i) \
            * renorm_directional((-i, i - n), (r1, r2))
    total -= r2 ** (n + 1) / r1 * zeta_nonpositive(n + 1) \
        * Fraction(1, n + 1)
    return CheckReport(
        word=str(word),
        check="taylor-coefficient-formula",
        passed=an == total,
        lhs=str(an),
        rhs=str(total),
    )


# ---------------------------------------------------------------------------
# Floating-point cross-check.

def _float_directions(word) -> list:
    """A word's rational directions as floats, for the float oracles."""
    if not all(isinstance(l.r, Fraction) for l in word):
        raise TypeError("numeric oracle needs rational directions")
    return [float(l.r) for l in word]


def numeric_oracle(exponents, directions, eps0: float,
                   terms: int) -> float:
    """Partial nested sum at a concrete negative eps, summed by layered
    prefix accumulation so depth costs only a factor, not a power."""
    word = argument_word(exponents, directions)
    if not eps0 < 0:
        raise ValueError("numeric evaluation needs eps < 0")
    if terms < 1:
        raise ValueError("need at least one term")
    ms = [-l.s for l in word]
    rs = _float_directions(word)

    def layer(m, r):
        return [n ** m * math.exp(n * r * eps0)
                for n in range(1, terms + 1)]

    vals = layer(ms[-1], rs[-1])
    for i in range(len(ms) - 2, -1, -1):
        outer = layer(ms[i], rs[i])
        prefix = 0.0
        nxt = [0.0] * terms
        for idx in range(terms):
            nxt[idx] = outer[idx] * prefix
            prefix += vals[idx]
        vals = nxt
    return math.fsum(vals)


def oracle_tail_bound(exponents, directions, eps0: float,
                      terms: int) -> float:
    """Upper bound on what truncating the outer index drops: the dropped
    terms fix n_1 > terms, carry at most n_1^(sum m + depth - 1) inner
    chains and weight, and decay like exp(n_1 r_1 eps).

    With a that exponent and lam = -r_1 eps, the bounding terms
    t_n = n^a exp(-lam n) rise until n = a/lam and fall after it.  From
    n0 = max(terms + 1, 2a/lam) on, the ratio t_(n+1)/t_n =
    (1 + 1/n)^a exp(-lam) falls and starts at rho <= exp(-lam/2), so those
    terms sum to at most t_n0 / (1 - rho); each term before n0 is at most
    the peak value (a/lam)^a exp(-a).  No term is summed one by one; a
    bound beyond the float range is inf.
    """
    word = argument_word(exponents, directions)
    if not eps0 < 0:
        raise ValueError("tail bounds need eps < 0")
    a = sum(-l.s for l in word) + len(word) - 1
    lam = -_float_directions(word)[0] * eps0
    try:
        n0 = max(terms + 1, math.ceil(2 * a / lam))
        one_minus_rho = -math.expm1(a * math.log1p(1 / n0) - lam)
        after = math.exp(a * math.log(n0) - lam * n0) / one_minus_rho
        return after + (n0 - terms - 1) * (a / lam) ** a * math.exp(-a)
    except OverflowError:
        return math.inf
