"""Named verification suites: deterministic streams of check reports.

Each suite replays a fixed battery of identities, exhaustive where the space
is small and seeded-random where it is not, and reports one line per named
property.  A failing property carries the first offending case in its two
sides.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product as iproduct

from renzeta.birkhoff import (
    CheckReport,
    _differential_cases,
    convolve,
    zplus_length2_direct,
)
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
    tensor_quasi_shuffle,
)
from renzeta.laurent import (
    RATIONAL_FIELD,
    T,
    T_POLY_RING,
    TPolynomial,
    TruncatedLaurentSeries,
    series_from_terms,
    windows_agree,
)
from renzeta.mzv import (
    decomposition_session,
    generating_check,
    numeric_oracle,
    regularized_expansion,
    renorm_directional,
    renorm_mzv,
    symmetrized_zero,
    two_var_an_check,
)
from renzeta.arith import DELTA, zeta_nonpositive

F = Fraction

ALPHABET = ((0, F(1)), (-1, F(2)), (-2, F(1)))
_LETTERS = tuple(Letter(s, r) for s, r in ALPHABET)


def _words_of_length(n):
    return [Word(p) for p in iproduct(_LETTERS, repeat=n)]


def _words_up_to(n, include_empty=False):
    out = [EMPTY_WORD] if include_empty else []
    for k in range(1, n + 1):
        out.extend(_words_of_length(k))
    return out


def _pairs_up_to(total):
    out = []
    for lu in range(1, total):
        for lv in range(1, total - lu + 1):
            for u in _words_of_length(lu):
                for v in _words_of_length(lv):
                    out.append((u, v))
    return out


def _products_up_to(total):
    """The quasi-shuffle product of every pair of _pairs_up_to(total),
    keyed by the pair, in that order."""
    return {(u, v): quasi_shuffle(HopfElement.from_word(u),
                                  HopfElement.from_word(v))
            for u, v in _pairs_up_to(total)}


def _aggregate(check: str, label: str, cases) -> CheckReport:
    """cases: iterable of (case_label, ok, lhs, rhs); one report out."""
    count = 0
    for case_label, ok, lhs, rhs in cases:
        count += 1
        if not ok:
            return CheckReport(
                word=case_label, check=check, passed=False,
                lhs=str(lhs), rhs=str(rhs))
    agreed = f"{count} cases agree"
    # a battery that checked nothing proves nothing
    return CheckReport(
        word=label, check=check, passed=count > 0, lhs=agreed,
        rhs=agreed if count else "at least one case")


# ---------------------------------------------------------------------------
# Word algebra.

def suite_hopf(max_weight: int = 4, seed: int = 0) -> list:
    rng = random.Random(seed)
    reports = []
    products = _products_up_to(max_weight)
    # the filtration and derivation batteries stop at |u|+|v| <= 4
    small_products = {(u, v): prod for (u, v), prod in products.items()
                      if len(u) + len(v) <= 4}

    def oracle_cases():
        for (u, v), got in products.items():
            want = mixable_shuffle_direct(u, v)
            yield f"{u} * {v}", got == want, got, want

    reports.append(_aggregate(
        "product-oracle", f"all |u|+|v| <= {max_weight}", oracle_cases()))

    def sampled_pairs(count, bound):
        # two nonempty words weigh at least 2: a lower bound admits no pair
        if bound < 2:
            return []
        out = []
        for _ in range(count):
            lu = rng.randint(1, bound - 1)
            lv = rng.randint(1, bound - lu)
            u = Word(rng.choice(_LETTERS) for _ in range(lu))
            v = Word(rng.choice(_LETTERS) for _ in range(lv))
            out.append((u, v))
        return out

    def commutativity_cases(pairs):
        for u, v in pairs:
            x = HopfElement.from_word(u)
            y = HopfElement.from_word(v)
            got, want = x * y, y * x
            yield f"{u} * {v}", got == want, got, want

    pairs = sampled_pairs(100, max_weight)
    reports.append(_aggregate(
        "product-commutativity", f"{len(pairs)} sampled pairs",
        commutativity_cases(pairs)))

    def associativity_cases():
        for _ in range(50):
            ws = [Word(rng.choice(_LETTERS)
                       for _ in range(rng.randint(1, 2)))
                  for _ in range(3)]
            x, y, z = (HopfElement.from_word(w) for w in ws)
            got, want = (x * y) * z, x * (y * z)
            yield f"{ws[0]} * {ws[1]} * {ws[2]}", got == want, got, want

    reports.append(_aggregate(
        "product-associativity", "50 sampled triples",
        associativity_cases()))

    def coproduct_cases(pairs):
        for u, v in pairs:
            x = HopfElement.from_word(u)
            y = HopfElement.from_word(v)
            got = element_coproduct(x * y)
            want = tensor_quasi_shuffle(
                element_coproduct(x), element_coproduct(y))
            yield f"{u} * {v}", got == want, len(got), len(want)

    pairs = sampled_pairs(200, max_weight)
    reports.append(_aggregate(
        "coproduct-multiplicativity", f"{len(pairs)} sampled pairs",
        coproduct_cases(pairs)))

    def counit_cases():
        for w in _words_up_to(min(max_weight, 4), include_empty=True):
            left = HopfElement.zero()
            right = HopfElement.zero()
            for a, b in coproduct(w):
                if len(a) == 0:
                    left = left + HopfElement.from_word(b)
                if len(b) == 0:
                    right = right + HopfElement.from_word(a)
            want = HopfElement.from_word(w)
            yield str(w), left == want and right == want, left, want

    reports.append(_aggregate(
        "counit-axiom", "all words", counit_cases()))

    def filtration_cases():
        for (u, v), prod in small_products.items():
            lengths = [len(w) for w in prod.terms]
            ok = max(lengths) <= len(u) + len(v) \
                and min(lengths) >= max(len(u), len(v)) \
                and all(w.is_nonpositive() for w in prod.terms)
            yield f"{u} * {v}", ok, sorted(set(lengths)), \
                f"[{max(len(u), len(v))}..{len(u) + len(v)}]"

    reports.append(_aggregate(
        "filtration-and-sector", "all pairs", filtration_cases()))

    def leibniz_cases():
        for (u, v), prod in small_products.items():
            x = HopfElement.from_word(u)
            y = HopfElement.from_word(v)
            got = differentiate(prod)
            want = differentiate(x) * y + x * differentiate(y)
            yield f"{u} * {v}", got == want, got, want

    reports.append(_aggregate(
        "derivation-leibniz", "all pairs", leibniz_cases()))

    def co_leibniz_cases():
        for w in _words_up_to(min(max_weight, 4)):
            got = element_coproduct(differentiate(w))
            want: dict = {}
            for a, b in coproduct(w):
                for wa, c in differentiate(a).terms.items():
                    want[(wa, b)] = want.get((wa, b), 0) + c
                for wb, c in differentiate(b).terms.items():
                    want[(a, wb)] = want.get((a, wb), 0) + c
            want = {k: v for k, v in want.items() if v != 0}
            yield str(w), got == want, len(got), len(want)

    reports.append(_aggregate(
        "derivation-co-leibniz", "all words", co_leibniz_cases()))

    return reports


# ---------------------------------------------------------------------------
# Series algebra.

def _random_series(rng, ring=RATIONAL_FIELD):
    """n coefficients from eps^mo on: a T + b over Q[T], p/q over Q, built
    straight into the series' layout."""
    mo = rng.randint(-2, 0)
    n = rng.randint(5, 8)
    if ring is T_POLY_RING:
        def coeff():
            a = rng.randint(-3, 3)
            return TPolynomial((rng.randint(-3, 3), a))
        return TruncatedLaurentSeries(ring, mo, [coeff() for _ in range(n)])
    ps = rng.choices(range(-9, 10), k=n)
    qs = rng.choices(range(1, 10), k=n)
    den = math.lcm(*qs)
    return TruncatedLaurentSeries._of_layout(
        ring, mo, ([p * (den // q) for p, q in zip(ps, qs)], den))


def suite_rota_baxter(max_weight: int = 4, seed: int = 0) -> list:
    rng = random.Random(seed)
    reports = []
    P = lambda s: s.pole_part()

    def rb_cases(ring, count):
        for i in range(count):
            x = _random_series(rng, ring)
            y = _random_series(rng, ring)
            lhs = P(x) * P(y)
            rhs = P(x * P(y)) + P(P(x) * y) - P(x * y)
            yield f"case {i}", windows_agree(lhs, rhs), lhs, rhs

    reports.append(_aggregate(
        "rota-baxter-weight-minus-one", "500 random rational pairs",
        rb_cases(RATIONAL_FIELD, 500)))
    reports.append(_aggregate(
        "rota-baxter-t-ring", "100 random T pairs",
        rb_cases(T_POLY_RING, 100)))

    def idempotence_cases():
        for i in range(300):
            x = _random_series(rng)
            a = P(x)
            b = a.pole_part()
            ok = a == b and a.finite_part().is_zero_window() \
                and windows_agree(x, x.pole_part() + x.finite_part())
            yield f"case {i}", ok, a, b

    reports.append(_aggregate(
        "projector-idempotence", "300 random series",
        idempotence_cases()))

    def leibniz_cases():
        for i in range(500):
            x = _random_series(rng)
            y = _random_series(rng)
            lhs = (x * y).derivative()
            rhs = x.derivative() * y + x * y.derivative()
            yield f"case {i}", windows_agree(lhs, rhs), lhs, rhs

    reports.append(_aggregate(
        "derivation-leibniz", "500 random pairs", leibniz_cases()))

    def commute_cases():
        for i in range(200):
            x = _random_series(rng)
            lhs = x.pole_part().derivative()
            rhs = x.derivative().pole_part()
            yield f"case {i}", windows_agree(lhs, rhs), lhs, rhs

    reports.append(_aggregate(
        "projector-derivation-commute-plain", "200 random series",
        commute_cases()))

    x = series_from_terms(T_POLY_RING, {0: T}, 2)
    left = x.pole_part().derivative()
    right = x.derivative().pole_part()
    witness_ok = left.is_zero_window() \
        and right.coefficient(-1) == T_POLY_RING.one \
        and not windows_agree(left, right)
    reports.append(CheckReport(
        word="T at eps^0", check="t-ring-noncommutation-witness",
        passed=witness_ok, lhs=str(left), rhs=str(right)))

    return reports


# ---------------------------------------------------------------------------
# Decomposition.

def _session_for_words(words, taylor_order: int = 1):
    depth = max((w.pole_depth() for w in words), default=0)
    return decomposition_session(taylor_order, max_pole_depth=depth)


def suite_birkhoff(max_weight: int = 4, seed: int = 0) -> list:
    del seed  # exhaustive battery, nothing sampled
    bound = min(max_weight, 4)
    words = _words_up_to(bound)
    products = _products_up_to(bound)
    product_words = set(words)
    for prod in products.values():
        product_words.update(prod.terms)
    product_words.discard(EMPTY_WORD)
    # the character expands a word x of pole depth M(x) to O(eps^(B - M(x)))
    # only (birkhoff module docstring).  The batteries compare windows at
    # least as long as expanding every word to a uniform O(eps^B), B the
    # budget at Taylor order 1, would give; that leaves renormalized(x)
    # known below eps^(B - M(x) + M(a)) at most, a the first letter of x,
    # where its term counterterm(a) phi(x'') stops.  One Taylor order more
    # per pole of the deepest letter covers it
    letter = max((Word((l,)).pole_depth()
                  for w in product_words for l in w), default=0)
    session = _session_for_words(product_words, 1 + letter)
    reports = []

    def decomposition_cases():
        for w in words:
            got = convolve(
                session.counterterm, session.character.on_word, w)
            want = session.renormalized(w)
            yield str(w), windows_agree(got, want), got, want

    reports.append(_aggregate(
        "decomposition-identity", f"all words |x| <= {bound}",
        decomposition_cases()))

    def range_cases():
        for w in words:
            minus = session.counterterm(w)
            plus = session.renormalized(w)
            ok = minus.finite_part().is_zero_window() \
                and plus.min_order >= 0
            yield str(w), ok, minus, plus

    reports.append(_aggregate(
        "range-discipline", f"all words |x| <= {bound}", range_cases()))

    def multiplicativity_cases():
        for (u, v), prod in products.items():
            lhs = session.renormalized_of(prod)
            rhs = session.renormalized(u) * session.renormalized(v)
            yield f"{u} * {v}", windows_agree(lhs, rhs), lhs, rhs

    reports.append(_aggregate(
        "renormalized-multiplicativity",
        f"all pairs |u|+|v| <= {bound}", multiplicativity_cases()))

    def closed_form_cases():
        for w in sorted((w for w in product_words if len(w) == 2),
                        key=lambda w: w.sort_key()):
            got = zplus_length2_direct(session.character, w)
            want = session.renormalized(w)
            yield str(w), windows_agree(got, want), got, want

    reports.append(_aggregate(
        "length-two-closed-form", "all length-2 words",
        closed_form_cases()))

    return reports


def suite_differential(max_weight: int = 4, seed: int = 0) -> list:
    del seed
    bound = min(max_weight, 3)
    words = _words_up_to(bound)
    depth = max((w.pole_depth() for w in words), default=0) + 1
    # character-derivative compares the derivative of a word's own value.
    # Expanded to a uniform O(eps^B), B the budget at Taylor order 1, that
    # value is known below eps^(B - 1) whatever the word's pole depth M; the
    # character expands it to O(eps^(B - M)) only (birkhoff module
    # docstring).  Taylor order 1 + the deepest M, which is depth, keeps
    # every compared window that long
    session = decomposition_session(taylor_order=depth, max_pole_depth=depth)
    reports = []

    # _aggregate formats only a failing case's series
    pairs = [(str(w), tuple(_differential_cases(session, w))) for w in words]
    for i, check in enumerate(("differential-plus", "differential-minus")):
        reports.append(_aggregate(
            check, f"all words |x| <= {bound}",
            ((w, *pair[i][1:]) for w, pair in pairs)))

    def zdiff_cases():
        character = session.character
        for w in words:
            lhs = character.on_word(w).derivative()
            rhs = character.on_element(differentiate(w))
            yield str(w), windows_agree(lhs, rhs), lhs, rhs

    reports.append(_aggregate(
        "character-derivative", f"all words |x| <= {bound}",
        zdiff_cases()))

    return reports


# ---------------------------------------------------------------------------
# Values.

def suite_mzv(max_weight: int = 4, seed: int = 0) -> list:
    del seed
    reports = []

    def depth_one_cases():
        for k in range(0, 7):
            for r in (F(1), F(2), F(5, 2)):
                got = renorm_directional((-k,), (r,))
                want = zeta_nonpositive(k)
                yield f"(-{k},{r})", got == want, got, want
            got = renorm_mzv((-k,))
            want = zeta_nonpositive(k)
            yield f"(-{k}) at auto-delta", got == want, got, want

    reports.append(_aggregate(
        "depth-one-values", "k <= 6, three directions",
        depth_one_cases()))

    def double_zero_cases():
        yield "(0,0) direction-free", renorm_mzv((0, 0)) == F(3, 8), \
            renorm_mzv((0, 0)), F(3, 8)
        v12 = renorm_directional((0, 0), (1, 2))
        v21 = renorm_directional((0, 0), (2, 1))
        yield "(0,1)(0,2)", v12 == F(13, 36), v12, F(13, 36)
        yield "(0,2)(0,1)", v21 == F(7, 18), v21, F(7, 18)
        sym = symmetrized_zero(2, (1, 2))
        yield "symmetrized (1,2)", sym == F(3, 8), sym, F(3, 8)
        stable = renorm_directional((0, 0), (DELTA, DELTA))
        yield "(0,d)(0,d) constant in delta", \
            stable == DELTA.from_rational(F(3, 8)), stable, F(3, 8)

    reports.append(_aggregate(
        "double-zero-value", "renormalized (0,0)", double_zero_cases()))

    def value_multiplicativity_cases():
        lhs = renorm_directional((0,), (1,)) ** 2
        rhs = 2 * renorm_directional((0, 0), (1, 1)) \
            + renorm_directional((0,), (2,))
        yield "zeta(0)^2 against (0,0) and merged", lhs == rhs, lhs, rhs
        bound = min(max_weight, 4)
        products = _products_up_to(bound)
        if not products:
            # the fixed case above alone does not make "all pairs" true
            yield f"no pair |u|+|v| <= {bound}", False, "0 pairs", \
                "at least one pair"
        # the concatenation uv is a term of u * v and the deepest word in it
        session = _session_for_words(
            w for prod in products.values() for w in prod.terms)

        def value(word):
            return session.renormalized(word).constant_term()

        for (u, v), prod in products.items():
            left = value(u) * value(v)
            right = session.renormalized_of(prod).constant_term()
            yield f"{u} * {v}", left == right, left, right

    reports.append(_aggregate(
        "value-multiplicativity", "all pairs",
        value_multiplicativity_cases()))

    def generating_cases():
        for depth, directions, order in (
                (1, (F(2),), 4), (2, (F(1), F(2)), 3),
                (3, (F(1), F(1), F(2)), 2)):
            rep = generating_check(depth, directions, order)
            yield rep.word, rep.passed, rep.lhs, rep.rhs

    reports.append(_aggregate(
        "generating-function", "depths 1..3", generating_cases()))

    def two_var_cases():
        for n in range(min(max_weight, 4) + 1):
            for r1, r2 in ((F(1), F(1)), (F(1, 2), F(3))):
                rep = two_var_an_check(n, r1, r2)
                yield f"n={n} r=({r1},{r2})", rep.passed, \
                    rep.lhs, rep.rhs

    reports.append(_aggregate(
        "taylor-coefficient-formula", "n <= 4, two direction pairs",
        two_var_cases()))

    def numeric_cases():
        eps0 = -0.1
        for s_vec, r_vec, terms in (
                ((0,), (F(1),), 3000),
                ((-1,), (F(2),), 3000),
                ((-1, 0), (F(1), F(1)), 4000),
                ((0, 0), (F(1), F(2)), 4000)):
            window = regularized_expansion(s_vec, r_vec, 30)
            approx = window.evaluate_float(eps0)
            exact = numeric_oracle(s_vec, r_vec, eps0, terms)
            ok = abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))
            yield f"s={s_vec} r={r_vec}", ok, approx, exact

    reports.append(_aggregate(
        "numeric-cross-check", "four windows at eps=-0.1",
        numeric_cases()))

    return reports


SUITES = {
    "hopf": suite_hopf,
    "rota-baxter": suite_rota_baxter,
    "birkhoff": suite_birkhoff,
    "differential": suite_differential,
    "mzv": suite_mzv,
}


def run_suite(name: str, max_weight: int = 4, seed: int = 0) -> list:
    """Reports for one named suite, or for every suite with name "all"."""
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(max_weight=max_weight, seed=seed))
        return out
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn(max_weight=max_weight, seed=seed)
