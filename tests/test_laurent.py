"""Series layer: windows, the pole projector, and the extended derivation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta.arith import DELTA, zeta_nonpositive
from renzeta.laurent import (
    DELTA_FIELD,
    IncompletePolePart,
    InsufficientPrecision,
    RATIONAL_FIELD,
    T,
    T_POLY_RING,
    TPolynomial,
    TruncatedLaurentSeries,
    one_series,
    scalar_series,
    series_from_terms,
    windows_agree,
    zero_series,
)

F = Fraction
Q = RATIONAL_FIELD


def rational_series(terms, precision):
    return series_from_terms(Q, {k: F(v) for k, v in terms.items()}, precision)


def zeta_window(direction, precision):
    """sum over n >= 1 of exp(n * direction * eps) expanded: the depth-one
    series -1/(r eps) + sum_k zeta(-k) (r eps)^k / k!."""
    terms = {-1: F(-1, direction)}
    for k in range(precision):
        terms[k] = zeta_nonpositive(k) * F(direction) ** k / math.factorial(k)
    return series_from_terms(Q, terms, precision)


class TestWindowRepresentation:
    def test_leading_zeros_are_trimmed(self):
        s = TruncatedLaurentSeries(Q, -2, [0, 0, 3, 4])
        assert s.min_order == 0
        assert s.coeffs == (F(3), F(4))
        assert s.precision == 2

    def test_zero_window_normal_form(self):
        s = TruncatedLaurentSeries(Q, -3, [0, 0, 0, 0])
        assert s.min_order == 0 and s.precision == 1
        assert s == zero_series(Q, 1)

    def test_coefficient_reads(self):
        s = rational_series({-1: 2, 1: 5}, 3)
        assert s.coefficient(-1) == 2
        assert s.coefficient(0) == 0
        assert s.coefficient(-7) == 0
        with pytest.raises(InsufficientPrecision):
            s.coefficient(3)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TruncatedLaurentSeries(Q, 0, [])


class TestArithmetic:
    def test_addition_meets_at_smaller_precision(self):
        a = rational_series({0: 1, 1: 1, 2: 1}, 3)
        b = rational_series({-1: 1, 0: 1}, 2)
        s = a + b
        assert s.precision == 2
        assert s.coefficient(-1) == 1
        assert s.coefficient(0) == 2
        assert s.coefficient(1) == 1

    def test_cancellation_renormalizes_window(self):
        a = rational_series({-1: 1, 0: 5}, 2)
        b = rational_series({-1: -1, 0: 1}, 2)
        s = a + b
        assert s.min_order == 0 and s.coefficient(0) == 6

    def test_product_window_rule(self):
        a = rational_series({-1: 1, 0: 1}, 4)   # precision 4, min order -1
        b = rational_series({-2: 1}, 1)         # precision 1, min order -2
        p = a * b
        assert p.min_order == -3
        # min(4 + (-2), 1 + (-1)) = 0
        assert p.precision == 0
        assert p.coefficient(-3) == 1 and p.coefficient(-2) == 1

    def test_depth_one_product_example(self):
        # product of the direction-1 and direction-2 depth-one windows:
        # 1/2 eps^-2 + 3/4 eps^-1 + 11/24 + O(eps)
        a = zeta_window(1, 2)
        b = zeta_window(2, 2)
        p = a * b
        assert p.precision == 1
        assert p.coefficient(-2) == F(1, 2)
        assert p.coefficient(-1) == F(3, 4)
        assert p.coefficient(0) == F(11, 24)

    def test_scalar_multiplication(self):
        a = rational_series({-1: 3, 0: 6}, 2)
        assert (a.scale(F(1, 3))).coeffs == (F(1), F(2), F(0))
        z = a.scale(0)
        assert z.is_zero_window() and z.precision == 2
        assert F(2) * a == a * F(2)


class TestProjector:
    def test_pole_and_finite_parts(self):
        s = rational_series({-2: 1, -1: 2, 0: 3, 1: 4}, 2)
        p = s.pole_part()
        f = s.finite_part()
        assert p.coefficient(-2) == 1 and p.coefficient(-1) == 2
        assert p.coefficient(0) == 0 and p.coefficient(1) == 0
        assert f.coefficient(-2) == 0 and f.coefficient(0) == 3
        assert p + f == s
        assert p.precision == s.precision == f.precision

    def test_pole_part_requires_window_reaching_zero(self):
        deep = rational_series({-3: 1}, -1)
        with pytest.raises(IncompletePolePart):
            deep.pole_part()

    def test_idempotence_and_complementarity(self):
        s = rational_series({-2: 5, -1: -1, 0: 7, 2: 9}, 4)
        assert s.pole_part().pole_part() == s.pole_part()
        assert s.finite_part().finite_part() == s.finite_part()
        assert s.pole_part().finite_part().is_zero_window()

    def test_constant_term(self):
        s = rational_series({-1: 1, 0: 42}, 1)
        assert s.constant_term() == 42
        with pytest.raises(InsufficientPrecision):
            s.pole_part().truncated(0).constant_term()

    def test_rota_baxter_identity_example(self):
        x = rational_series({-2: 1, 0: 2, 1: 1}, 3)
        y = rational_series({-1: 3, 1: -2}, 3)
        P = lambda s: s.pole_part()
        lhs = P(x) * P(y)
        rhs = P(x * P(y)) + P(P(x) * y) - P(x * y)
        assert windows_agree(lhs, rhs)


class TestDerivation:
    def test_termwise_rule(self):
        s = rational_series({-1: -1, 0: 1, 1: 2, 2: 3}, 3)
        d = s.derivative()
        assert d.coefficient(-2) == 1
        assert d.coefficient(-1) == 0
        assert d.coefficient(0) == 2
        assert d.coefficient(1) == 6
        assert d.precision == 2

    def test_depth_one_window_derivative(self):
        # derivative of -1/eps + sum zeta(-i) eps^i / i! shifts the zeta
        # tail down one slot and turns the pole into eps^-2
        s = zeta_window(1, 5)
        d = s.derivative()
        assert d.coefficient(-2) == 1
        for i in range(1, 4):
            assert d.coefficient(i - 1) == zeta_nonpositive(i) / \
                math.factorial(i - 1)

    def test_leibniz_example(self):
        a = rational_series({-1: 1, 0: 2, 1: 1}, 4)
        b = rational_series({-2: 3, 1: 5}, 4)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert windows_agree(lhs, rhs)

    def test_projector_commutes_on_plain_series(self):
        s = rational_series({-2: 1, -1: 4, 0: 9, 1: 16}, 3)
        assert windows_agree(s.pole_part().derivative(),
                             s.derivative().pole_part())


class TestTRing:
    def test_int_input_normalised_to_fraction(self):
        assert all(type(c) is F for c in TPolynomial((0, 2)).coeffs)

    def test_constants_hash_like_their_value(self):
        # equal objects must hash equal, or sets and dicts keep both
        for value in (F(0), F(3), F(-1, 2)):
            poly = TPolynomial((value,))
            assert poly == value and hash(poly) == hash(value)
        assert len({TPolynomial((3,)), 3}) == 1
        assert len({TPolynomial(()), 0}) == 1
        assert hash(T) == hash(TPolynomial((0, 1)))

    def test_t_coefficient_derivative(self):
        # (T^2) eps^0 differentiates to 2 T eps^-1
        s = series_from_terms(T_POLY_RING, {0: T * T}, 2)
        d = s.derivative()
        assert d.coefficient(-1) == 2 * T
        # (T) eps^1: T eps' contributes 1*T, T' = 1 contributes 1
        s2 = series_from_terms(T_POLY_RING, {1: T}, 3)
        assert s2.derivative().coefficient(0) == T + 1

    def test_projector_derivation_noncommutation_witness(self):
        # with x = T at eps^0: P(x) = 0 so d(P(x)) = 0, while
        # d(x) = eps^-1 so P(d(x)) = eps^-1
        x = series_from_terms(T_POLY_RING, {0: T}, 2)
        left = x.pole_part().derivative()
        right = x.derivative().pole_part()
        assert left.is_zero_window()
        assert right.coefficient(-1) == TPolynomial((F(1),))
        assert not windows_agree(left, right)

    def test_rota_baxter_holds_in_t_ring(self):
        x = series_from_terms(T_POLY_RING, {-1: T, 0: 1 + T}, 2)
        y = series_from_terms(T_POLY_RING, {-1: 1 - T, 1: T * T}, 2)
        P = lambda s: s.pole_part()
        lhs = P(x) * P(y)
        rhs = P(x * P(y)) + P(P(x) * y) - P(x * y)
        assert windows_agree(lhs, rhs)


class TestDeltaCoefficients:
    def test_delta_series_round_trip(self):
        s = series_from_terms(
            DELTA_FIELD, {-1: 1 / DELTA, 0: 1 + DELTA}, 2)
        assert s.to_json() == {
            "var": "eps", "minOrder": -1, "precision": 2,
            "coeffs": [{"num": ["1"], "den": ["0", "1"]},
                       {"num": ["1", "1"], "den": ["1"]},
                       {"num": [], "den": ["1"]}],
        }

    def test_no_float_evaluation(self):
        s = series_from_terms(DELTA_FIELD, {0: DELTA}, 1)
        with pytest.raises(TypeError):
            s.evaluate_float(0.5)


class TestRingCoercion:
    @pytest.mark.parametrize("ring, element", [
        (RATIONAL_FIELD, Fraction),
        (DELTA_FIELD, type(DELTA)),
        (T_POLY_RING, TPolynomial),
    ])
    def test_rationals_land_in_the_ring(self, ring, element):
        for value in (3, F(-2, 5)):
            c = ring.coerce(value)
            assert type(c) is element
            assert c == value

    @pytest.mark.parametrize("ring, foreign, name", [
        (RATIONAL_FIELD, DELTA, "into Q"),
        (DELTA_FIELD, T, "into Q(delta)"),
        (T_POLY_RING, DELTA, "into Q[T]"),
    ])
    def test_another_rings_element_is_refused(self, ring, foreign, name):
        with pytest.raises(TypeError) as info:
            ring.coerce(foreign)
        assert str(info.value).endswith(name)


class TestOutput:
    def test_text_form_examples(self):
        a = zeta_window(1, 2) * zeta_window(2, 2)
        assert str(a) == \
            "1/2·eps^-2 + 3/4·eps^-1 + 11/24 + O(eps^1)"
        b = rational_series({0: F(-1, 2), 1: F(-1, 12)}, 2)
        assert str(b) == "-1/2 + -1/12·eps + O(eps^2)"
        assert str(zero_series(Q, 3)) == "0 + O(eps^3)"

    def test_json_round_trip(self):
        s = rational_series({-2: F(1, 2), 0: F(11, 24)}, 2)
        assert s.to_json() == {
            "var": "eps", "minOrder": -2, "precision": 2,
            "coeffs": ["1/2", "0", "11/24", "0"],
        }

    def test_float_evaluation(self):
        s = rational_series({-1: 1, 0: 2, 1: 3}, 2)
        assert s.evaluate_float(0.5) == pytest.approx(2 + 2 + 1.5)


window_strategy = st.builds(
    lambda lo, vals: TruncatedLaurentSeries(Q, lo, vals or [0]),
    st.integers(min_value=-4, max_value=2),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8),
             min_size=1, max_size=6),
)

# deep enough that every product in the Rota-Baxter identity still has a
# window reaching eps^0
wide_windows = st.builds(
    lambda lo, vals: TruncatedLaurentSeries(Q, lo, vals or [0]),
    st.integers(min_value=-2, max_value=0),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8),
             min_size=5, max_size=8),
)


class TestProperties:
    @given(window_strategy, window_strategy)
    @settings(max_examples=120)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(window_strategy, window_strategy)
    @settings(max_examples=120)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(window_strategy, window_strategy, window_strategy)
    @settings(max_examples=120)
    def test_multiplication_associates_on_common_window(self, a, b, c):
        assert windows_agree((a * b) * c, a * (b * c))

    @given(wide_windows, wide_windows)
    @settings(max_examples=120)
    def test_rota_baxter_weight_minus_one(self, x, y):
        lhs = x.pole_part() * y.pole_part()
        rhs = (x * y.pole_part()).pole_part() \
            + (x.pole_part() * y).pole_part() \
            - (x * y).pole_part()
        assert windows_agree(lhs, rhs)

    @given(wide_windows, wide_windows)
    @settings(max_examples=120)
    def test_derivation_leibniz(self, a, b):
        assert windows_agree((a * b).derivative(),
                             a.derivative() * b + a * b.derivative())

    @given(wide_windows)
    @settings(max_examples=120)
    def test_projector_derivation_commute_without_t(self, s):
        assert windows_agree(s.pole_part().derivative(),
                             s.derivative().pole_part())

    @given(window_strategy)
    def test_projection_splits_identity(self, s):
        if s.precision < 0:
            return
        assert s.pole_part() + s.finite_part() == s


# pairwise coprime denominators up to 10^6, so a factor's common denominator
# can be the product of all of them
COPRIME_DENOMINATORS = (1, 2 ** 19, 3 ** 12, 5 ** 8, 7 ** 7, 11 ** 5,
                        999961, 999979, 999983)

kernel_coefficient = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
              st.sampled_from(COPRIME_DENOMINATORS)),
)

# the constructor trims leading zeros into min_order; interior and all-zero
# windows come from the zero coefficients
kernel_window = st.builds(
    lambda lo, zeros, vals: TruncatedLaurentSeries(
        Q, lo, [F(0)] * zeros + vals),
    st.integers(min_value=-3, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.lists(kernel_coefficient, min_size=1, max_size=8),
)


def schoolbook_product(a, b):
    """(precision, {exponent: nonzero coefficient}) of a * b, from a double
    loop over Fractions."""
    lo = a.min_order + b.min_order
    prec = min(a.precision + b.min_order, b.precision + a.min_order)
    out = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            e = lo + i + j
            if e < prec:
                out[e] = out.get(e, F(0)) + x * y
    return prec, {e: c for e, c in out.items() if c != 0}


def lifted(s):
    return TruncatedLaurentSeries(
        T_POLY_RING, s.min_order, [TPolynomial((c,)) for c in s.coeffs])


class TestRationalKernel:
    @given(kernel_window, kernel_window)
    @settings(max_examples=150, deadline=None)
    def test_product_matches_independent_routes(self, a, b):
        p = a * b
        assert all(type(c) is F for c in p.coeffs)
        prec, nonzero = schoolbook_product(a, b)
        assert p.precision == prec
        assert {e: c for e, c in p.terms() if c != 0} == nonzero
        # the generic ring loop over constant T-polynomials
        t = lifted(a) * lifted(b)
        assert t.min_order == p.min_order
        assert [c.coeffs[0] if c.coeffs else F(0) for c in t.coeffs] \
            == list(p.coeffs)
