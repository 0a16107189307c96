"""Series layer: windows, the pole projector, and the extended derivation."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta.arith import (
    DELTA,
    DeltaRationalFunction,
    PoleAtZero,
    zeta_nonpositive,
)
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
from renzeta.mzv import regularized_expansion

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

    def test_reading_reduces_before_the_limit(self):
        # delta * (1/delta) is stored unreduced, over the factor delta; read,
        # it is 1 with a limit at 0, while 1/delta keeps its genuine pole
        def window(value):
            return TruncatedLaurentSeries(DELTA_FIELD, 0, [value])

        one = window(DELTA) * window(1 / DELTA)
        assert one._layout == (([0, 1],), 1, {(0, 1): 1})
        assert one.constant_term() == 1
        assert one.constant_term().limit_at_zero() == 1
        with pytest.raises(PoleAtZero):
            (one * window(1 / DELTA)).constant_term().limit_at_zero()

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
        # the Q[T] kernel over constant T-polynomials
        t = lifted(a) * lifted(b)
        assert t.min_order == p.min_order
        assert [c.coeffs[0] if c.coeffs else F(0) for c in t.coeffs] \
            == list(p.coeffs)


class TestSumReachingPastAWindow:
    @pytest.mark.parametrize("ring", [RATIONAL_FIELD, DELTA_FIELD,
                                      T_POLY_RING])
    def test_min_order_at_or_above_the_partners_precision(self, ring):
        # the first window starts at 0, at and above the second's
        # precision -1: the sum is known on [-2, -1) only, where both vanish
        a = TruncatedLaurentSeries(ring, 0, [1, 0])
        b = TruncatedLaurentSeries(ring, -2, [0])
        for s in (a + b, b + a, a - b):
            assert s.ring is ring
            assert s.is_zero_window() and s.precision == -1
            assert s == zero_series(ring, -1)
        assert windows_agree(a, b) and windows_agree(b, a)


# The Q and Q(delta) series store integer numerators; these tests compare
# every operation with the coefficient-by-coefficient result over the
# field, Fractions or Q(delta) values, computed from the raw constructor
# input.

def field_window(lo, vals):
    """(min_order, coefficients) of a window in the documented normal
    form: leading zeros dropped, a zero window kept as its last slot; ints
    are read as Fractions."""
    vals = [F(v) if isinstance(v, int) else v for v in vals]
    first = 0
    while first < len(vals) - 1 and vals[first] == 0:
        first += 1
    return lo + first, tuple(vals[first:])


def field_zero(w):
    return w[1][0] * 0


def field_coefficient(w, k):
    lo, vals = w
    return vals[k - lo] if k >= lo else field_zero(w)


def field_precision(w):
    return w[0] + len(w[1])


def field_sum(a, b):
    lo = min(a[0], b[0])
    prec = min(field_precision(a), field_precision(b))
    return field_window(lo, [field_coefficient(a, k)
                             + field_coefficient(b, k)
                             for k in range(lo, prec)])


def field_product(a, b):
    """The schoolbook product: one field multiply-add per coefficient
    pair."""
    n = min(len(a[1]), len(b[1]))
    out = [field_zero(a)] * n
    for i, x in enumerate(a[1][:n]):
        for j, y in enumerate(b[1][:n - i]):
            out[i + j] = out[i + j] + x * y
    return field_window(a[0] + b[0], out)


def field_scale(a, c):
    if c == 0:
        return field_window(field_precision(a) - 1, [field_zero(a)])
    return field_window(a[0], [c * x for x in a[1]])


def field_projection(a, poles):
    return field_window(a[0], [x if (k < 0) == poles else field_zero(a)
                               for k, x in enumerate(a[1], a[0])])


def field_derivative(a):
    return field_window(a[0] - 1, [k * x for k, x in enumerate(a[1], a[0])])


def field_truncated(a, prec):
    if prec <= a[0]:
        return field_window(prec - 1, [field_zero(a)])
    return field_window(a[0], a[1][:prec - a[0]])


q_value = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))

# leading zeros, all-zero windows, negative min_order and precision <= 0
raw_q_window = st.tuples(
    st.integers(min_value=-6, max_value=2),
    st.builds(lambda zeros, vals: [F(0)] * zeros + vals,
              st.integers(min_value=0, max_value=3),
              st.lists(q_value, min_size=1, max_size=6)))


def check_against(series, window):
    """series holds exactly window, reads as elements of its ring, and is
    the value the public constructor builds from it."""
    ring = series.ring
    assert (series.min_order, series.coeffs) == window
    assert all(type(c) is type(ring.zero) for c in series.coeffs)
    built = TruncatedLaurentSeries(ring, *window)
    assert built == series and hash(built) == hash(series)
    assert series.is_zero_window() == all(c == 0 for c in window[1])


class TestIntegerLayoutAgainstFractions:
    @given(raw_q_window, raw_q_window)
    @settings(max_examples=200, deadline=None)
    def test_ring_operations(self, ra, rb):
        a, b = (TruncatedLaurentSeries(Q, *r) for r in (ra, rb))
        wa, wb = field_window(*ra), field_window(*rb)
        check_against(a, wa)
        check_against(a + b, field_sum(wa, wb))
        neg_b = field_scale(wb, F(-1))
        check_against(-b, neg_b)
        check_against(a - b, field_sum(wa, neg_b))
        check_against(a * b, field_product(wa, wb))
        for k in range(-3, 4):
            check_against(a._plus(b, k), field_sum(wa, field_scale(wb, k)))
        lo = min(wa[0], wb[0])
        prec = min(field_precision(wa), field_precision(wb))
        assert windows_agree(a, b) == all(
            field_coefficient(wa, k) == field_coefficient(wb, k)
            for k in range(lo, prec))
        assert (a == b) == (wa == wb)

    @given(raw_q_window, st.integers(min_value=-9, max_value=9),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_unary_operations(self, ra, p, q):
        a = TruncatedLaurentSeries(Q, *ra)
        wa = field_window(*ra)
        check_against(a.scale(0), field_scale(wa, F(0)))
        check_against(a.scale(-F(p, q)), field_scale(wa, -F(p, q)))
        check_against(a.derivative(), field_derivative(wa))
        for prec in range(field_precision(wa) - 3,
                          field_precision(wa) + 1):
            check_against(a.truncated(prec), field_truncated(wa, prec))
        for k in range(wa[0] - 2, field_precision(wa)):
            c = a.coefficient(k)
            assert type(c) is F and c == field_coefficient(wa, k)
        if field_precision(wa) < 0:
            with pytest.raises(IncompletePolePart):
                a.pole_part()
            with pytest.raises(IncompletePolePart):
                a.finite_part()
        else:
            check_against(a.pole_part(), field_projection(wa, True))
            check_against(a.finite_part(), field_projection(wa, False))

    @given(raw_q_window)
    @settings(max_examples=100, deadline=None)
    def test_pickle_and_copy_round_trip(self, ra):
        a = TruncatedLaurentSeries(Q, *ra) * rational_series({0: 1}, 9)
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a)
            assert b.coeffs == a.coeffs and b.ring is Q


# Q(delta) values whose denominators are products of the forms a + l*delta
# (delta and 2*delta share a factor, as do 1 + delta and 2 + 2*delta) times
# a constant, over small delta-polynomial numerators
linear_form = st.builds(lambda a, l: a + l * DELTA,
                        st.integers(min_value=0, max_value=2),
                        st.integers(min_value=1, max_value=2))
delta_value = st.one_of(
    st.just(DELTA_FIELD.zero),
    st.builds(lambda num, forms, c: DeltaRationalFunction(num) * c
              / math.prod(forms, start=DELTA_FIELD.one),
              st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                       max_size=3),
              st.lists(linear_form, max_size=2),
              st.fractions(min_value=-4, max_value=4, max_denominator=6)))

raw_delta_window = st.tuples(
    st.integers(min_value=-4, max_value=2),
    st.builds(lambda zeros, vals: [DELTA_FIELD.zero] * zeros + vals,
              st.integers(min_value=0, max_value=2),
              st.lists(delta_value, min_size=1, max_size=4)))

# (series, field window) pairs, the series built by three routes: the
# public constructor, the regularized expansion's root, which hands over
# its factored window unreduced, and series arithmetic
constructed = raw_delta_window.map(
    lambda r: (TruncatedLaurentSeries(DELTA_FIELD, *r), field_window(*r)))


def expanded_window(s, r, precision):
    # the field window is read from a second expansion, so the series
    # under test has no coefficient read before the operations run
    w = regularized_expansion(s, r, precision)
    return (regularized_expansion(s, r, precision),
            (w.min_order, w.coeffs))


expanded = st.integers(min_value=1, max_value=2).flatmap(
    lambda k: st.builds(
        expanded_window,
        st.lists(st.integers(min_value=-1, max_value=0), min_size=k,
                 max_size=k),
        st.lists(st.sampled_from((DELTA, 1 + DELTA, 2 * DELTA,
                                  F(1, 2) + DELTA)),
                 min_size=k, max_size=k),
        st.integers(min_value=1, max_value=3)))


def combined(a, b, op):
    (sa, wa), (sb, wb) = a, b
    if op == "*":
        return sa * sb, field_product(wa, wb)
    if op == "+":
        return sa + sb, field_sum(wa, wb)
    c = wb[1][-1]
    return sa.scale(c), field_scale(wa, c)


arithmetic = st.builds(combined, st.one_of(constructed, expanded),
                       st.one_of(constructed, expanded),
                       st.sampled_from(("*", "+", "scale")))
delta_window = st.one_of(constructed, expanded, arithmetic)


class TestFactoredLayoutAgainstTheField:
    @given(delta_window, delta_window)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, pa, pb):
        (a, wa), (b, wb) = pa, pb
        lo = min(wa[0], wb[0])
        prec = min(field_precision(wa), field_precision(wb))
        # every result is built before any coefficient of a or b is read
        got = [a + b, -b, a - b, a * b, a - a]
        got += [a._plus(b, k) for k in range(-3, 4)]
        agree = windows_agree(a, b)
        neg_b = field_scale(wb, -1)
        for series, window in zip(got, [
                field_sum(wa, wb), neg_b, field_sum(wa, neg_b),
                field_product(wa, wb), field_sum(wa, field_scale(wa, -1))]
                + [field_sum(wa, field_scale(wb, k)) for k in range(-3, 4)],
                strict=True):
            check_against(series, window)
        check_against(a, wa)
        check_against(b, wb)
        assert agree == all(
            field_coefficient(wa, k) == field_coefficient(wb, k)
            for k in range(lo, prec))
        assert (a == b) == (wa == wb)

    @given(delta_window, delta_value, st.integers(min_value=-3,
                                                  max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_unary_operations(self, pa, c, k):
        a, wa = pa
        prec = field_precision(wa)
        got = [a.scale(0), a.scale(k), a.scale(c), a.derivative()]
        got += [a.truncated(p) for p in range(prec - 3, prec + 1)]
        reads = [a.coefficient(e) for e in range(wa[0] - 2, prec)]
        want = [field_scale(wa, 0), field_scale(wa, k), field_scale(wa, c),
                field_derivative(wa)]
        want += [field_truncated(wa, p) for p in range(prec - 3, prec + 1)]
        if prec < 0:
            with pytest.raises(IncompletePolePart):
                a.pole_part()
            with pytest.raises(IncompletePolePart):
                a.finite_part()
        else:
            got += [a.pole_part(), a.finite_part()]
            want += [field_projection(wa, True), field_projection(wa, False)]
        for series, window in zip(got, want, strict=True):
            check_against(series, window)
        assert reads == [field_coefficient(wa, e)
                         for e in range(wa[0] - 2, prec)]
        assert all(type(x) is DeltaRationalFunction for x in reads)

    @given(delta_window)
    @settings(max_examples=50, deadline=None)
    def test_pickle_and_copy_round_trip(self, pa):
        a, wa = pa
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a)
            assert b.ring is DELTA_FIELD
            check_against(b, wa)


t_coefficient = st.builds(
    lambda cs: TPolynomial(tuple(cs)),
    st.lists(st.one_of(st.just(F(0)),
                       st.fractions(min_value=-9, max_value=9,
                                    max_denominator=7)),
             max_size=4))

t_window = st.builds(
    lambda lo, vals: TruncatedLaurentSeries(T_POLY_RING, lo, vals),
    st.integers(min_value=-3, max_value=2),
    st.lists(t_coefficient, min_size=1, max_size=6))

# leading zeros, all-zero windows, negative min_order and precision <= 0;
# (series, TPolynomial window) pairs built by the public constructor and by
# series arithmetic
raw_t_window = st.tuples(
    st.integers(min_value=-5, max_value=2),
    st.builds(lambda zeros, vals: [T_POLY_RING.zero] * zeros + vals,
              st.integers(min_value=0, max_value=2),
              st.lists(t_coefficient, min_size=1, max_size=5)))
t_constructed = raw_t_window.map(
    lambda r: (TruncatedLaurentSeries(T_POLY_RING, *r), field_window(*r)))
t_pair = st.one_of(
    t_constructed,
    st.builds(combined, t_constructed, t_constructed,
              st.sampled_from(("*", "+", "scale"))))


def t_derivative(a):
    """d/d(eps) of a Q[T] window: k c + dc/dT at eps^(k-1), since
    T' = 1/eps."""
    return field_window(a[0] - 1, [k * x + x.derivative()
                                   for k, x in enumerate(a[1], a[0])])


class TestRowLayoutAgainstTPolynomials:
    @given(t_pair, t_pair)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, pa, pb):
        (a, wa), (b, wb) = pa, pb
        lo = min(wa[0], wb[0])
        prec = min(field_precision(wa), field_precision(wb))
        got = [a + b, -b, a - b, a * b, a - a]
        got += [a._plus(b, k) for k in range(-3, 4)]
        agree = windows_agree(a, b)
        neg_b = field_scale(wb, -1)
        for series, window in zip(got, [
                field_sum(wa, wb), neg_b, field_sum(wa, neg_b),
                field_product(wa, wb), field_sum(wa, field_scale(wa, -1))]
                + [field_sum(wa, field_scale(wb, k)) for k in range(-3, 4)],
                strict=True):
            check_against(series, window)
        check_against(a, wa)
        check_against(b, wb)
        assert agree == all(
            field_coefficient(wa, k) == field_coefficient(wb, k)
            for k in range(lo, prec))
        assert (a == b) == (wa == wb)

    @given(t_pair, t_coefficient, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_unary_operations(self, pa, c, k):
        a, wa = pa
        prec = field_precision(wa)
        got = [a.scale(0), a.scale(k), a.scale(c), a.derivative()]
        got += [a.truncated(p) for p in range(prec - 3, prec + 1)]
        reads = [a.coefficient(e) for e in range(wa[0] - 2, prec)]
        want = [field_scale(wa, 0), field_scale(wa, k), field_scale(wa, c),
                t_derivative(wa)]
        want += [field_truncated(wa, p) for p in range(prec - 3, prec + 1)]
        if prec < 0:
            with pytest.raises(IncompletePolePart):
                a.pole_part()
            with pytest.raises(IncompletePolePart):
                a.finite_part()
        else:
            got += [a.pole_part(), a.finite_part()]
            want += [field_projection(wa, True), field_projection(wa, False)]
        for series, window in zip(got, want, strict=True):
            check_against(series, window)
        assert reads == [field_coefficient(wa, e)
                         for e in range(wa[0] - 2, prec)]
        assert all(type(x) is TPolynomial for x in reads)
        assert all(type(v) is F for x in reads for v in x.coeffs)

    @given(t_pair)
    @settings(max_examples=50, deadline=None)
    def test_pickle_and_copy_round_trip(self, pa):
        a, wa = pa
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a)
            assert b.ring is T_POLY_RING
            check_against(b, wa)


class TestTKernel:
    @given(t_window, t_window)
    @settings(max_examples=150, deadline=None)
    def test_product_matches_a_schoolbook_loop(self, a, b):
        n = min(len(a.coeffs), len(b.coeffs))
        want = [T_POLY_RING.zero] * n
        for i, x in enumerate(a.coeffs[:n]):
            for j, y in enumerate(b.coeffs[:n - i]):
                want[i + j] = want[i + j] + x * y
        p = a * b
        assert p == TruncatedLaurentSeries(
            T_POLY_RING, a.min_order + b.min_order, want)
        assert all(type(c) is TPolynomial for c in p.coeffs)
        assert all(type(v) is F for c in p.coeffs for v in c.coeffs)


class TestNegation:
    @given(st.one_of(raw_q_window.map(
        lambda r: TruncatedLaurentSeries(Q, *r)),
        delta_window.map(lambda p: p[0]), t_pair.map(lambda p: p[0])))
    @settings(max_examples=150, deadline=None)
    def test_negation_is_a_weighted_sum(self, s):
        # -s is s - 2 s on the layout: the value of s.scale(-1), and no
        # product of the ring runs
        want = s.scale(-1)
        products = []
        ring = type(s.ring)
        product = ring._product

        def counted(*args):
            products.append(args)
            return product(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring, "_product", staticmethod(counted))
            got = -s
        assert products == []
        assert got == want and got.ring is s.ring
        assert (got.min_order, got.coeffs) == (want.min_order, want.coeffs)
