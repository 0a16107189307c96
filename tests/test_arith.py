"""Scalar layer: Bernoulli numbers, zeta at non-positive integers, Q(delta)."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renzeta import arith
from renzeta.arith import (
    DELTA,
    DeltaRationalFunction,
    PoleAtZero,
    bernoulli,
    poly_gcd,
    poly_mul,
    zeta_nonpositive,
)

F = Fraction
DRF = DeltaRationalFunction


def bernoulli_oracle(n: int) -> Fraction:
    """Independent recurrence: B_n = -1/(n+1) sum_{k<n} C(n+1,k) B_k."""
    vals = [F(1)]
    for m in range(1, n + 1):
        acc = F(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * vals[k]
        vals.append(-acc / (m + 1))
    return vals[n]


class TestBernoulli:
    def test_against_recurrence_oracle(self):
        for n in range(0, 25):
            assert bernoulli(n) == bernoulli_oracle(n)

    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(12) == F(-691, 2730)

    def test_odd_indices_vanish(self):
        for n in range(3, 21, 2):
            assert bernoulli(n) == 0

    def test_out_of_order_queries_hit_cache_consistently(self):
        assert bernoulli(8) == bernoulli_oracle(8)
        assert bernoulli(3) == 0
        assert bernoulli(14) == bernoulli_oracle(14)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestZetaNonpositive:
    def test_formula_against_oracle(self):
        for k in range(0, 15):
            expect = (-1) ** k * bernoulli_oracle(k + 1) / (k + 1)
            assert zeta_nonpositive(k) == expect

    def test_known_values(self):
        assert zeta_nonpositive(0) == F(-1, 2)
        assert zeta_nonpositive(1) == F(-1, 12)
        assert zeta_nonpositive(2) == 0
        assert zeta_nonpositive(3) == F(1, 120)

    def test_even_negative_arguments_vanish(self):
        for k in range(2, 13, 2):
            assert zeta_nonpositive(k) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            zeta_nonpositive(-1)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=12)

# pairwise coprime denominators up to 10^6, so a factor's common denominator
# can be the product of all of them
coprime_fractions = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
              st.sampled_from((1, 2 ** 19, 3 ** 12, 5 ** 8, 7 ** 7, 11 ** 5,
                               999961, 999979, 999983))),
)
# empty, constant and longer tuples, trailing zeros included
coefficient_tuples = st.lists(coprime_fractions, max_size=6).map(tuple)


class TestPolyMul:
    @given(coefficient_tuples, coefficient_tuples)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_double_loop(self, a, b):
        expected = [F(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                expected[i + j] += x * y
        while expected and expected[-1] == 0:
            expected.pop()
        product = poly_mul(a, b)
        assert product == tuple(expected)
        assert all(type(c) is F for c in product)
        assert not product or product[-1] != 0


def drf_values(min_terms=0):
    return st.builds(
        lambda num, den_tail: DRF(
            tuple(num), (F(1),) + tuple(den_tail)),
        st.lists(small_fractions, min_size=min_terms, max_size=3),
        st.lists(small_fractions, min_size=0, max_size=2),
    )


class TestDeltaRationalFunction:
    def test_canonical_form_cancels_common_factors(self):
        # (d^2 + d) / d == d + 1
        a = DRF((0, 1, 1), (0, 1))
        assert a == DRF((1, 1))
        assert a.num == (F(1), F(1))
        assert a.den == (F(1),)

    def test_denominator_made_monic(self):
        a = DRF((1,), (0, 2))
        assert a.den == (F(0), F(1))
        assert a.num == (F(1, 2),)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            DRF((1,), ())

    def test_field_examples(self):
        d = DELTA
        assert (1 + d) * (1 - d) == 1 - d * d
        assert (d ** 2 - 1) / (d - 1) == d + 1
        assert d ** -2 == 1 / (d * d)
        assert (d / d) == DRF.from_rational(1)

    def test_int_input_normalised_to_fraction(self):
        a = DRF((1, 2))
        assert all(type(c) is F for c in a.num + a.den)

    def test_limit_at_zero_of_regular_value(self):
        # (3 d^2 + (3/8) d) / d -> 3/8
        a = DRF((0, F(3, 8), 3), (0, 1))
        assert a.limit_at_zero() == F(3, 8)

    def test_limit_at_zero_pole_raises(self):
        with pytest.raises(PoleAtZero):
            (1 / DELTA).limit_at_zero()
        with pytest.raises(PoleAtZero):
            ((1 + DELTA) / (DELTA ** 2)).limit_at_zero()

    def test_evaluate(self):
        a = (1 + DELTA) / (1 - DELTA)
        assert a.evaluate(F(1, 2)) == 3
        with pytest.raises(ZeroDivisionError):
            a.evaluate(1)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            DELTA / DRF((0,))

    def test_nonnegative_polynomial_predicate(self):
        assert (1 + 2 * DELTA).has_nonnegative_coefficients()
        assert not (1 - 2 * DELTA).has_nonnegative_coefficients()
        assert not (1 / DELTA).has_nonnegative_coefficients()
        assert DRF((0,)).has_nonnegative_coefficients()

    def test_text_round_trip(self):
        for text in ["3/8", "1 + 2*d", "d^2", "2 - d", "(1 + d)/(d)"]:
            v = DRF.parse(text)
            assert DRF.parse(str(v)) == v
        assert str(DRF.parse("2+d")) == "2 + d"
        assert str(1 / DELTA) == "(1)/(d)"

    def test_json_round_trip(self):
        v = (1 + DELTA) / (2 - DELTA)
        assert v.to_json() == {"num": ["-1", "-1"], "den": ["-2", "1"]}

    def test_json_fixed_form(self):
        # monic denominator fixes the representative
        v = (1 + DELTA) / (2 * DELTA)
        assert v.to_json() == {"num": ["1/2", "1/2"], "den": ["0", "1"]}

    @given(drf_values(), drf_values(), drf_values())
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(drf_values(), drf_values())
    @settings(max_examples=60)
    def test_subtraction_and_division_invert(self, a, b):
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a

    @given(drf_values())
    @settings(max_examples=60)
    def test_hash_respects_equality(self, a):
        b = DRF(a.num, a.den)
        assert a == b and hash(a) == hash(b)

    @given(small_fractions)
    def test_embedding_of_rationals(self, q):
        v = DRF.from_rational(q)
        assert v.is_rational() and v.as_rational() == q
        assert v.limit_at_zero() == q
        assert hash(v) == hash(q)


# ---------------------------------------------------------------------------
# Q(delta) against an independent route: Euclid over Fraction coefficients
# and the naive cross-multiplied pair, reduced afterwards.

def trimmed(coeffs):
    cs = [F(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def naive_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def naive_add(a, b):
    n = max(len(a), len(b))
    return trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n))


def oracle_divmod(a, b):
    rem = list(a)
    quo = [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        factor = rem[i + len(b) - 1] / b[-1]
        quo[i] = factor
        for j, c in enumerate(b):
            rem[i + j] -= factor * c
    return trimmed(quo), trimmed(rem)


def oracle_gcd(a, b):
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()


def oracle_reduce(num, den):
    """Canonical (num, den): coprime, monic denominator, zero as ((), (1,))."""
    n, d = trimmed(num), trimmed(den)
    if not n:
        return (), (F(1),)
    g = oracle_gcd(n, d)
    n, d = oracle_divmod(n, g)[0], oracle_divmod(d, g)[0]
    return tuple(c / d[-1] for c in n), tuple(c / d[-1] for c in d)


def naive_power(p, k):
    out = (F(1),)
    for _ in range(k):
        out = naive_mul(out, p)
    return out


def _product_of_powers(factors):
    out = (F(1),)
    for a, l, k in factors:
        out = naive_mul(out, naive_power((a, F(l)), k))
    return out


polys = st.lists(small_fractions, max_size=4).map(trimmed)
nonzero_polys = polys.filter(bool)
# products of powers of (a + l*d): the denominators auto-delta directions
# |s_i| + delta give
delta_denominators = st.lists(
    st.tuples(st.sampled_from((F(1, 2), F(1), F(2), F(3))),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=1, max_value=3)),
    max_size=3,
).map(_product_of_powers)
fractions_in_delta = st.tuples(
    polys, st.one_of(nonzero_polys, delta_denominators))


def as_pair(value):
    return value.num, value.den


def integer_parts(a):
    """(k, p) with a = k p: a Fraction k and a primitive integer tuple p
    with a positive leading coefficient; (0, ()) for the zero polynomial."""
    if not a:
        return F(0), ()
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    k = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return F(k, den), tuple(x // k for x in ints)


class TestFieldAgainstOracle:
    @given(polys, polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_poly_gcd_equals_euclid_over_fractions(self, f, g, h):
        # zero, constants, and a factor g shared by f*g and h*g, fed as
        # primitive integer parts; the oracle's monic gcd made primitive
        for a, b in ((f, h), (naive_mul(f, g), naive_mul(h, g)),
                     (g, ()), ((), g), (f, (F(3),))):
            got = poly_gcd(integer_parts(a)[1], integer_parts(b)[1])
            assert got == integer_parts(oracle_gcd(a, b))[1], (a, b)

    @given(fractions_in_delta, st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_stored_triple_is_canonical(self, pair, scale):
        v = DRF(*pair)
        c, p, q = v._c, v._p, v._q
        assert type(c) is F and (c == 0) == (p == ())
        for poly in (p, q):
            assert all(type(x) is int for x in poly)
        assert q[-1] > 0 and math.gcd(*q) == 1
        assert not p or (p[-1] > 0 and math.gcd(*p) == 1)
        assert poly_gcd(p, q) == (1,)
        w = DRF(v.num, v.den)
        assert (w._c, w._p, w._q) == (c, p, q)
        # the root constructor: an integer row over an integer denominator
        # and a primitive q, the row scaled so that it is not primitive
        kn, pn = integer_parts(pair[0])
        kd, qd = integer_parts(pair[1])
        ratio = kn / kd
        row = [scale * ratio.numerator * x for x in pn]
        u = DRF._of_integers(row, scale * ratio.denominator, qd)
        assert (u._c, u._p, u._q) == (c, p, q)

    @given(fractions_in_delta)
    @settings(max_examples=80, deadline=None)
    def test_constructor_reduces_like_the_oracle(self, pair):
        assert as_pair(DRF(*pair)) == oracle_reduce(*pair)

    @given(fractions_in_delta, fractions_in_delta)
    @settings(max_examples=100, deadline=None)
    @example(((0, 1), (1, 1)), ((1,), (1, 1)))
    def test_operators_equal_the_reduced_naive_pair(self, p, q):
        a, b = DRF(*p), DRF(*q)
        (na, da), (nb, db) = as_pair(a), as_pair(b)
        cross = naive_add(naive_mul(na, db), naive_mul(nb, da))
        assert as_pair(a + b) == oracle_reduce(cross, naive_mul(da, db))
        cross = naive_add(naive_mul(na, db),
                          naive_mul(tuple(-c for c in nb), da))
        assert as_pair(a - b) == oracle_reduce(cross, naive_mul(da, db))
        assert as_pair(a * b) == oracle_reduce(
            naive_mul(na, nb), naive_mul(da, db))
        if nb:
            assert as_pair(a / b) == oracle_reduce(
                naive_mul(na, db), naive_mul(da, nb))

    @given(fractions_in_delta, fractions_in_delta)
    @settings(max_examples=80, deadline=None)
    def test_sums_that_cancel_into_the_shared_factor(self, p, q):
        # b = c - a, so a + b = c has a smaller denominator than the
        # cross-multiplied pair: the common factor must be divided out
        a, c = DRF(*p), DRF(*q)
        (na, da), (nc, dc) = as_pair(a), as_pair(c)
        b = DRF(*oracle_reduce(
            naive_add(naive_mul(nc, da), naive_mul(tuple(-x for x in na), dc)),
            naive_mul(dc, da)))
        assert as_pair(a + b) == oracle_reduce(nc, dc)

    @given(fractions_in_delta, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_power_equals_the_reduced_naive_pair(self, p, k):
        a = DRF(*p)
        n, d = as_pair(a)
        if k < 0:
            if not n:
                with pytest.raises(ZeroDivisionError):
                    a ** k
                return
            n, d = d, n
        assert as_pair(a ** k) == oracle_reduce(
            naive_power(n, abs(k)), naive_power(d, abs(k)))

    def test_inexact_quotient_raises(self):
        # 1 + d^2 is not a multiple of 1 + d
        with pytest.raises(ArithmeticError):
            arith._exact_quotient((1, 0, 1), (1, 1))
