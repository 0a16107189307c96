"""End-to-end values: windows, renormalized values, and consistency checks."""

import math
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta import arith, mzv
from renzeta.arith import (
    DELTA,
    DeltaRationalFunction,
    PoleAtZero,
    zeta_nonpositive,
)
from renzeta.hopf import HopfElement, Word, quasi_shuffle
from renzeta.laurent import (
    DELTA_FIELD,
    RATIONAL_FIELD,
    TruncatedLaurentSeries,
    series_from_terms,
    windows_agree,
)
from renzeta.mzv import (
    argument_word,
    decomposition_session,
    expansion_plans,
    generating_check,
    numeric_oracle,
    one_var_series,
    oracle_tail_bound,
    regularized_expansion,
    renorm_directional,
    renorm_mzv,
    renormalized_series,
    symmetrized_zero,
    two_var_an_check,
)

F = Fraction
W = Word.from_pairs


def per_plan_sum(exponents, directions, precision):
    """The regularized expansion plan by plan: each plan's product of
    one-variable windows, the factor of slot power b requested at
    precision + M - (b + 1), scaled by the plan's multiplicity."""
    acc = None
    for plan in expansion_plans(exponents, directions):
        depth = sum(plan.slot_exponents) + len(plan.slot_exponents)
        prod = None
        for b, rho in zip(plan.slot_exponents, plan.cumulative_directions):
            factor = one_var_series(b, rho, precision + depth - (b + 1))
            prod = factor if prod is None else prod * factor
        term = prod.scale(plan.multiplicity)
        acc = term if acc is None else acc + term
    return acc.truncated(precision)


def fold_cases(words, directions):
    """(exponents, directions, precision) per word, the precision cycling
    through 1..8."""
    return [(s, directions[:len(s)], 1 + i % 8)
            for i, s in enumerate(words)]


Q_DIRECTIONS = (F(1, 2), F(3), F(2, 3), F(5, 4), F(7, 3))
FOLD_CASES = {
    # every word of depth 1-3 over -3..0, depth 4 with every exponent in
    # every slot, and depth 5
    "Q": fold_cases(
        [s for k in (1, 2, 3) for s in product(range(-3, 1), repeat=k)]
        + list(product((-3, 0), (-2, -1), (0, -3), (-1, -2)))
        + [(-1,) * 5, (-2, 0, -1, 0, -2), (-2,) * 5],
        Q_DIRECTIONS),
    # the costlier depth-5 word comes last, at precision 1
    "Q(delta)": fold_cases(
        [s for k in (1, 2) for s in product(range(-3, 1), repeat=k)]
        + list(product((-2, 0), (-1, 0), (0, -1)))
        + [(-3, 0, -1), (0, 0, 0, 0), (-1, 0, 0, -1)]
        + [(0,) * 5, (-1, 0, -1, 0, -1)],
        (1 + DELTA, 2 * DELTA, F(1, 3) + DELTA, DELTA, 3 + DELTA)),
    # non-monic, non-primitive and degree-2 directions: primitive factors
    # 1 + d, 1 + 3d, d + d^2 and 3 + d^2, and their cumulative sums
    "Q(delta) factors": fold_cases(
        [s for k in (1, 2, 3) for s in product(range(-2, 1), repeat=k)]
        + [(0, -1, 0, -1)],
        (2 + 2 * DELTA, F(1, 3) + DELTA, 2 * DELTA + 2 * DELTA ** 2,
         1 + DELTA ** 2 / 3)),
    # cumulative sums 1 + d, 2 + 2d, 4 + 4d share one primitive factor,
    # and d, d + d^2, 2d + d^2 share the irreducible d
    "Q(delta) repeats": [
        case for r in ((1 + DELTA, 1 + DELTA, 2 + 2 * DELTA),
                       (DELTA, DELTA ** 2, DELTA))
        for case in fold_cases(list(product(range(-2, 1), repeat=2))
                               + list(product((-1, 0), repeat=3)), r)],
    # a rational direction first: the whole argument is over Q(delta)
    "mixed": fold_cases(
        list(product(range(-3, 1), repeat=2))
        + [(-1, 0, -2), (0, -3, 0), (0, -1, 0, -1), (0, -1, 0, -1, 0)],
        (F(1, 2), DELTA, F(2), F(1, 3), F(3, 2) + DELTA)),
}


class TestArgumentValidation:
    def test_vector_shape(self):
        with pytest.raises(ValueError):
            argument_word((), ())
        with pytest.raises(ValueError):
            argument_word((0, 0), (1,))

    def test_sector(self):
        with pytest.raises(ValueError):
            argument_word((1,), (1,))
        with pytest.raises(ValueError):
            argument_word((0, -1, 2), (1, 1, 1))

    def test_direction_domain(self):
        with pytest.raises(ValueError):
            argument_word((0,), (0,))
        with pytest.raises(ValueError):
            argument_word((0,), (F(-1, 2),))
        with pytest.raises(ValueError):
            argument_word((0,), (1 / DELTA,))

    def test_checks_validate_through_argument_word(self):
        # symmetrized_zero, generating_check and two_var_an_check read
        # their depth and directions through argument_word
        checks = (lambda r: symmetrized_zero(2, r),
                  lambda r: generating_check(2, r, 1),
                  lambda r: two_var_an_check(1, *r))
        for check in checks:
            for r in ((1, 0), (F(-1, 2), 1), (1, 1 / DELTA)):
                with pytest.raises(ValueError):
                    check(r)
            with pytest.raises(TypeError):
                check((1, "2"))
        # two_var_an_check takes two directions by its signature
        for r in ((), (1,), (1, 2, 3)):
            with pytest.raises(ValueError):
                symmetrized_zero(2, r)
            with pytest.raises(ValueError):
                generating_check(2, r, 1)
        with pytest.raises(ValueError):
            symmetrized_zero(0, ())

    def test_pole_depth(self):
        assert argument_word((0, 0), (1, 1)).pole_depth() == 2
        assert argument_word((-2, -1), (1, 1)).pole_depth() == 5


class TestOneVarSeries:
    def test_zero_power_direction_one(self):
        s = one_var_series(0, 1, 3)
        assert s.coefficient(-1) == -1
        assert s.coefficient(0) == F(-1, 2)
        assert s.coefficient(1) == F(-1, 12)
        assert s.coefficient(2) == 0

    def test_power_one(self):
        s = one_var_series(1, 1, 2)
        assert s.coefficient(-2) == 1
        assert s.coefficient(-1) == 0
        assert s.coefficient(0) == F(-1, 12)
        assert s.coefficient(1) == 0

    def test_direction_two(self):
        s = one_var_series(0, 2, 1)
        assert s.coefficient(-1) == F(-1, 2)
        assert s.coefficient(0) == F(-1, 2)

    def test_taylor_tail_matches_zeta_values(self):
        s = one_var_series(0, 1, 12)
        for k in range(11):
            assert s.coefficient(k) == \
                zeta_nonpositive(k) / math.factorial(k)

    def test_general_pole_coefficient(self):
        s = one_var_series(3, F(1, 2), 1)
        assert s.coefficient(-4) == (-1) ** 4 * 6 * F(1, 2) ** -4
        assert s.coefficient(-3) == 0
        assert s.coefficient(-2) == 0
        assert s.coefficient(-1) == 0

    def test_delta_direction(self):
        s = one_var_series(0, DELTA, 2)
        assert s.ring is DELTA_FIELD
        assert s.coefficient(-1) == -1 / DELTA
        assert s.coefficient(0) == DELTA.from_rational(F(-1, 2))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            one_var_series(-1, 1, 2)
        with pytest.raises(ValueError):
            one_var_series(0, 1, 0)
        # a bool or a non-int power or precision, as for an exponent
        for power, precision in ((True, 3), (1.0, 3), (1, True), (1, 3.0),
                                 (F(1), 3), (1, F(3))):
            with pytest.raises(ValueError):
                one_var_series(power, 1, precision)

    def test_float_cross_check(self):
        eps0 = -0.05
        s = one_var_series(0, 2, 25)
        direct = math.exp(2 * eps0) / (1 - math.exp(2 * eps0))
        assert s.evaluate_float(eps0) == pytest.approx(direct, rel=1e-12)


def fresh_one_var(b, rho, precision, ring):
    """The one-variable window straight from its formula."""
    terms = {-(b + 1): (-1) ** (b + 1) * math.factorial(b) * rho ** -(b + 1)}
    for j in range(precision):
        terms[j] = zeta_nonpositive(b + j) * rho ** j / math.factorial(j)
    return series_from_terms(ring, terms, precision)


class TestOneVarMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(mzv, "_one_var_windows", {})

    @pytest.mark.parametrize("rho, ring", [
        (F(2, 3), RATIONAL_FIELD), (1 + DELTA, DELTA_FIELD),
        # non-primitive, non-monic and degree-2 directions, a constant
        # one, and a content of 1 with a non-monic primitive part
        (2 + 2 * DELTA, DELTA_FIELD), (F(1, 3) + DELTA, DELTA_FIELD),
        (2 * DELTA + 2 * DELTA ** 2, DELTA_FIELD),
        (1 + DELTA ** 2 / 3, DELTA_FIELD),
        (DeltaRationalFunction.from_rational(F(2)), DELTA_FIELD),
        (1 + 2 * DELTA, DELTA_FIELD)])
    def test_any_request_order_equals_fresh_windows(self, rho, ring):
        # short then long rebuilds the entry, long then short slices it
        for b in range(4):
            for order in ((2, 9), (9, 2), (1, 5, 3, 8), (4, 5)):
                mzv._one_var_windows.clear()
                for n in order:
                    assert one_var_series(b, rho, n) == \
                        fresh_one_var(b, rho, n, ring), (b, order, n)
                # one entry per (b, content): an integer denominator over
                # the pole numerator and the Taylor numerators of the
                # longest ask
                (entry,) = mzv._one_var_windows.values()
                den, nums = entry
                assert isinstance(den, int) and den > 0
                assert len(nums) == max(order) + 1

    def test_directions_of_one_content_share_an_entry(self):
        # 1 + d, 1 + 2d and 1 all have content 1: one memo entry, yet each
        # keeps its own ring and window
        cases = ((1 + DELTA, DELTA_FIELD), (1 + 2 * DELTA, DELTA_FIELD),
                 (F(1), RATIONAL_FIELD))
        for rho, ring in cases:
            window = one_var_series(2, rho, 4)
            assert window.ring is ring
            assert window == fresh_one_var(2, rho, 4, ring), rho
        assert list(mzv._one_var_windows) == [(2, F(1))]

    def test_constant_delta_direction_gets_a_delta_window(self):
        const = DeltaRationalFunction.from_rational(F(2))
        assert const == F(2) and hash(const) == hash(F(2))
        for first, second in ((F(2), const), (const, F(2))):
            mzv._one_var_windows.clear()
            one_var_series(1, first, 3)
            for r, ring in ((F(2), RATIONAL_FIELD), (const, DELTA_FIELD)):
                assert one_var_series(1, r, 5) == \
                    fresh_one_var(1, r, 5, ring)
            # Q and Q(delta) share the scalars of (b, content)
            assert len(mzv._one_var_windows) == 1
        assert regularized_expansion((0, -1), (F(1), const), 2).ring \
            is DELTA_FIELD

    @pytest.mark.parametrize("s, r", [
        ((0, 0), (F(1), F(1))),
        ((-2, 0, -1), (F(1, 2), F(3), F(2, 3))),
        ((-1, -3), (F(5, 4), F(7, 3))),
        ((0, 0), (1 + DELTA, 1 + DELTA)),
        ((-2, 0, -1), (1 + DELTA, 2 * DELTA, F(1, 3) + DELTA)),
        ((0, -1, 0), (2 + 2 * DELTA, F(1, 3) + DELTA,
                      2 * DELTA + 2 * DELTA ** 2)),
        ((-1, 0), (F(1, 2), DELTA))])
    def test_windows_sliced_from_longer_entries_equal_cold_ones(self, s, r):
        # a slice keeps the longer entry's denominator, which the roots
        # reduce away: the expansion equals the one from a cold memo
        for precision in (1, 3):
            mzv._one_var_windows.clear()
            cold = regularized_expansion(s, r, precision)
            mzv._one_var_windows.clear()
            regularized_expansion(s, r, precision + 6)
            primed = dict(mzv._one_var_windows)
            sliced = regularized_expansion(s, r, precision)
            # every window was a slice of a primed entry, none rebuilt
            assert mzv._one_var_windows.keys() == primed.keys()
            assert all(mzv._one_var_windows[k] is v
                       for k, v in primed.items())
            assert sliced == cold and str(sliced) == str(cold), precision


def test_a_longer_window_builds_only_the_missing_scalars(monkeypatch):
    # the memo entry of (b, c) grows by the scalars it lacks, each built
    # once, the pole scalar (j = -1) first
    monkeypatch.setattr(mzv, "_one_var_windows", {})
    built = []
    scalar = mzv._one_var_scalar

    def counting(b, c, j):
        built.append(j)
        return scalar(b, c, j)

    monkeypatch.setattr(mzv, "_one_var_scalar", counting)
    for n in (2, 5, 3, 9):
        assert one_var_series(1, F(2, 3), n) == \
            fresh_one_var(1, F(2, 3), n, RATIONAL_FIELD)
    assert built == list(range(-1, 9))


class TestExpansionPlans:
    def test_zero_exponents_have_single_plan(self):
        plans = list(expansion_plans((0, 0), (1, 1)))
        assert len(plans) == 1
        assert plans[0].slot_exponents == (0, 0)
        assert plans[0].multiplicity == 1
        assert plans[0].cumulative_directions == (F(1), F(2))

    def test_slot_exponents_resum(self):
        for s in [(-1, -2), (-2, 0, -1), (0, -3)]:
            total = sum(-x for x in s)
            plans = list(expansion_plans(s, (1,) * len(s)))
            assert plans
            for plan in plans:
                assert sum(plan.slot_exponents) == total
                assert plan.multiplicity >= 1

    def test_plan_count_depth_two(self):
        # m1 = 1 spreads over two slots, m2 = 1 sits on the last
        assert len(list(expansion_plans((-1, -1), (1, 1)))) == 2

    def test_one_plan_per_slot_vector(self):
        # counts of the distinct monomials of prod_i (j_i + ... + j_k)^m_i
        for s, count in [((-2, -2, -2), 12), ((-3, -3, -3), 22),
                         ((-2,) * 4, 55), ((-1,) * 5, 42)]:
            plans = list(expansion_plans(s, (1,) * len(s)))
            assert len(plans) == count, s
            assert len({p.slot_exponents for p in plans}) == count, s

    def test_multiplicities_count_all_assignments(self):
        # each power of j_i + ... + j_k picks one of its k - i slots
        for s in [(-2, -2, -2), (-3, -3, -3), (-2,) * 4, (-1,) * 5,
                  (-1, -2), (-2, 0, -1), (0, -3)]:
            k = len(s)
            plans = expansion_plans(s, (1,) * k)
            assert sum(p.multiplicity for p in plans) == math.prod(
                (k - i) ** -x for i, x in enumerate(s)), s

    def test_power_ladder_rational_delta_probe(self):
        # the window over Q(delta), evaluated at delta = x, is the window
        # at the rational direction 1 + x, whose Taylor coefficients are
        # zeta(-b-j) (1 + x)^j / j!
        for b in range(4):
            for x in (F(1, 2), F(2)):
                symbolic = one_var_series(b, 1 + DELTA, 5)
                concrete = one_var_series(b, 1 + x, 5)
                for e in range(-(b + 1), 5):
                    assert symbolic.coefficient(e).evaluate(x) \
                        == concrete.coefficient(e), (b, x, e)
                for j in range(5):
                    assert concrete.coefficient(j) == zeta_nonpositive(
                        b + j) * (1 + x) ** j / math.factorial(j), (b, x, j)


class TestRegularizedExpansion:
    def test_double_zero_window(self):
        s = regularized_expansion((0, 0), (1, 1), 1)
        assert s.coefficient(-2) == F(1, 2)
        assert s.coefficient(-1) == F(3, 4)
        assert s.coefficient(0) == F(11, 24)
        assert s.precision == 1 and s.min_order == -2

    def test_depth_one_equals_one_var(self):
        for m, r in [(0, 1), (1, 2), (2, F(1, 2))]:
            a = regularized_expansion((-m,), (r,), 4)
            b = one_var_series(m, r, 4)
            assert windows_agree(a, b)

    def test_mixed_direction_window(self):
        s = regularized_expansion((0, 0), (1, 2), 2)
        # leading pole: 1/(rho_1 rho_2) = 1/3
        assert s.coefficient(-2) == F(1, 3)

    def test_derivation_compatibility_of_character(self):
        # d/d(eps) of the window equals the direction-weighted sum of
        # windows with one exponent lowered
        s_vec, r_vec = (0, -1), (F(1), F(2))
        lhs = regularized_expansion(s_vec, r_vec, 4).derivative()
        rhs = None
        for i in range(2):
            lowered = list(s_vec)
            lowered[i] -= 1
            term = regularized_expansion(
                tuple(lowered), r_vec, 4).scale(r_vec[i])
            rhs = term if rhs is None else rhs + term
        assert windows_agree(lhs, rhs)

    def test_float_cross_check_depth_two(self):
        eps0 = -0.1
        s = regularized_expansion((-1, 0), (1, 1), 30)
        num = numeric_oracle((-1, 0), (1, 1), eps0, 4000)
        tail = oracle_tail_bound((-1, 0), (1, 1), eps0, 4000)
        assert tail < 1e-9
        assert s.evaluate_float(eps0) == pytest.approx(num, rel=1e-9)

    def test_delta_window_specializes_to_rational_window(self):
        delta_s = regularized_expansion((0, 0), (DELTA + 1, DELTA + 1), 1)
        rational_s = regularized_expansion((0, 0), (F(1), F(1)), 1)
        for k in range(-2, 1):
            c = delta_s.coefficient(k)
            assert c.evaluate(0) == rational_s.coefficient(k)

    @pytest.mark.parametrize("ring", sorted(FOLD_CASES))
    def test_fold_equals_the_per_plan_sum(self, ring):
        for s, r, precision in FOLD_CASES[ring]:
            fold = regularized_expansion(s, r, precision)
            assert fold == per_plan_sum(s, r, precision), (s, r, precision)
            assert fold.precision == precision

    @pytest.mark.parametrize("s, r, products", [
        ((-2,) * 3, Q_DIRECTIONS[:3], 15),
        ((-3,) * 3, Q_DIRECTIONS[:3], 26),
        ((-2,) * 4, Q_DIRECTIONS[:4], 40),
        ((-1,) * 5, Q_DIRECTIONS, 30),
        ((-3,) * 4, Q_DIRECTIONS[:4], 75),
        ((-2, 0, -1, 0), (1 + DELTA, 2 * DELTA, F(1, 3) + DELTA, DELTA), 18),
    ])
    def test_product_count(self, s, r, products, monkeypatch):
        # sum over the slots l < k of e + 1 products per carried exponent
        # m_l <= e <= m_1 + ... + m_l
        ms = [-x for x in s]
        tops = list(accumulate(ms))
        assert products == sum(e + 1 for l in range(len(ms) - 1)
                               for e in range(ms[l], tops[l] + 1))
        rational = all(isinstance(x, Fraction) for x in r)
        ring = RATIONAL_FIELD if rational else DELTA_FIELD
        count = []
        mul = ring._product

        def counted(a, b, n):
            count.append(1)
            return mul(a, b, n)

        def series_operation(*args):
            raise AssertionError("the fold ran a series operation")

        # the ring's layout product; the fold runs on bare layouts and
        # never on series
        monkeypatch.setattr(ring, "_product", counted)
        for attr in ("__add__", "__mul__", "scale"):
            monkeypatch.setattr(TruncatedLaurentSeries, attr,
                                series_operation)
        regularized_expansion(s, r, 3)
        assert len(count) == products

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_delta_polynomial_directions_equal_the_per_plan_sum(self, data):
        # small delta-polynomials with nonnegative coefficients, words of
        # depth <= 3
        coefficient = st.fractions(min_value=0, max_value=3,
                                   max_denominator=3)
        direction = st.lists(coefficient, min_size=1, max_size=3).filter(
            any).map(DeltaRationalFunction)
        k = data.draw(st.integers(1, 3))
        s = tuple(data.draw(st.lists(st.integers(-2, 0), min_size=k,
                                     max_size=k)))
        r = tuple(data.draw(st.lists(direction, min_size=k, max_size=k)))
        precision = data.draw(st.integers(1, 3))
        assert regularized_expansion(s, r, precision) == \
            per_plan_sum(s, r, precision)

    def test_delta_expansion_runs_no_field_operator(self, monkeypatch):
        # from a cold one-variable memo, the Q(delta) windows are built and
        # combined as integer polynomials: no DeltaRationalFunction operator
        # runs, and the root reduces through the constructor
        s, r = (-2, 0, -1, 0), (1 + DELTA, 2 * DELTA, F(1, 3) + DELTA, DELTA)
        want = regularized_expansion(s, r, 3)
        monkeypatch.setattr(mzv, "_one_var_windows", {})
        calls = []
        for name in ("__add__", "__radd__", "__neg__", "__sub__",
                     "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__pow__"):
            op = getattr(DeltaRationalFunction, name)

            def counted(*args, op=op, name=name):
                calls.append(name)
                return op(*args)

            monkeypatch.setattr(DeltaRationalFunction, name, counted)
        assert regularized_expansion(s, r, 3) == want
        assert calls == []

    @pytest.mark.parametrize("precision", [0, -1, True, False, 1.0, F(2)])
    def test_precision_validation(self, precision):
        # a bool or a non-int precision, as for an exponent
        with pytest.raises(ValueError):
            regularized_expansion((0,), (1,), precision)

    @pytest.mark.parametrize("s, r", [
        ((-1, 0), (F(1), F(2))),
        ((0, -1), (F(1, 2), 1 + DELTA)),
    ])
    def test_arguments_are_read_once(self, s, r):
        # one-shot iterables: the argument is validated in one place
        assert regularized_expansion(iter(s), iter(r), 2) == \
            regularized_expansion(s, r, 2)


class TestRenormalizedValues:
    def test_depth_one_direction_free(self):
        assert renorm_mzv((0,)) == F(-1, 2)
        assert renorm_mzv((-1,)) == F(-1, 12)
        assert renorm_mzv((-2,)) == 0
        assert renorm_mzv((-3,)) == F(1, 120)

    def test_depth_one_any_direction(self):
        for r in (F(1), F(2), F(7, 3)):
            assert renorm_directional((-1,), (r,)) == F(-1, 12)
            assert renorm_directional((0,), (r,)) == F(-1, 2)

    def test_double_zero(self):
        assert renorm_mzv((0, 0)) == F(3, 8)
        assert renorm_directional((0, 0), (1, 1)) == F(3, 8)

    def test_double_zero_directional_values(self):
        assert renorm_directional((0, 0), (1, 2)) == F(13, 36)
        assert renorm_directional((0, 0), (2, 1)) == F(7, 18)

    def test_symmetrized_recovers_direction_free(self):
        assert symmetrized_zero(2, (1, 2)) == F(3, 8)
        assert symmetrized_zero(2, (3, 5)) == F(3, 8)
        assert symmetrized_zero(1, (4,)) == F(-1, 2)

    def test_direction_limit_stability_for_zero_words(self):
        # equal delta directions give the constant rational function
        v = renorm_directional((0, 0), (DELTA, DELTA))
        assert v == DELTA.from_rational(F(3, 8))
        v3 = renorm_directional((0, 0, 0), (DELTA, DELTA, DELTA))
        assert v3.limit_at_zero() == renorm_mzv((0, 0, 0))

    def test_all_zero_words_follow_the_inverse_square_root(self):
        """renorm_mzv((0,)*k) is the coefficient of x^k in (1+x)^(-1/2),
        (-1)^k C(2k, k) / 4^k.

        Derivation: the k zeros get the equal directions delta, so the
        word is z_1^k with z_m = (0, m*delta), and merging n copies of z_1
        gives z_n.  In the quasi-shuffle algebra Newton's identity between
        elementary and power sums reads (Hoffman, J. Algebraic Combin. 11,
        2000)

            sum_k z_1^k x^k = exp(sum_n (-1)^(n-1) z_n x^n / n).

        The renormalized part of the Birkhoff decomposition is a character,
        so at eps = 0 it maps both sides alike; depth-one values do not
        depend on the direction, so every z_n maps to zeta(0) = -1/2, and
        the right side becomes exp(-log(1+x)/2) = (1+x)^(-1/2).
        """
        for k in range(1, 7):
            want = F((-1) ** k * math.comb(2 * k, k), 4 ** k)
            assert renorm_mzv((0,) * k) == want, k

    def test_zero_free_words_equal_the_delta_limit(self):
        # zero-free words are computed at the rational directions |s|; the
        # Q(delta) limit is the independent route, over every zero-free
        # word of the auto-delta benchmark space
        words = [(a,) for a in range(-4, 0)]
        words += list(product(range(-4, 0), repeat=2))
        words.append((-1, -1, -1))
        assert len(words) == 21
        for s in words:
            directions = tuple(F(-x) + DELTA for x in s)
            want = renorm_directional(s, directions).limit_at_zero()
            assert renorm_mzv(s) == want, s

    def test_only_words_with_zeros_use_field_gcds(self, monkeypatch):
        calls = []
        gcd = arith.poly_gcd

        def counting_gcd(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(arith, "poly_gcd", counting_gcd)
        renorm_mzv((-2, -3))
        assert len(calls) == 0
        renorm_mzv((0, -1))
        assert len(calls) > 0

    @pytest.mark.parametrize("compute, args", [
        (renorm_mzv, ((-1, 0, 0),)),
        (renormalized_series, ((0, -1, 0), (DELTA, 1 + DELTA, DELTA), 2)),
    ])
    def test_zero_words_reduce_only_when_read(self, compute, args,
                                              monkeypatch):
        # the expansion and the decomposition keep Q(delta) series in the
        # factored integer layout: no DeltaRationalFunction operator runs,
        # and a polynomial gcd runs only while a coefficient is read
        ops, gcds, reading = [], [], []
        gcd = arith.poly_gcd

        def counting_gcd(a, b):
            gcds.append(bool(reading))
            return gcd(a, b)

        def read(fn):
            def reader(*a):
                reading.append(fn)
                try:
                    return fn(*a)
                finally:
                    reading.pop()
            return reader

        monkeypatch.setattr(arith, "poly_gcd", counting_gcd)
        monkeypatch.setattr(TruncatedLaurentSeries, "coefficient",
                            read(TruncatedLaurentSeries.coefficient))
        monkeypatch.setattr(TruncatedLaurentSeries, "coeffs",
                            property(read(TruncatedLaurentSeries.coeffs.fget)))
        for name in ("__add__", "__radd__", "__neg__", "__sub__",
                     "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__pow__"):
            op = getattr(DeltaRationalFunction, name)

            def counted(*a, op=op, name=name):
                ops.append(name)
                return op(*a)

            monkeypatch.setattr(DeltaRationalFunction, name, counted)
        value = compute(*args)
        if compute is renormalized_series:
            assert gcds == []
            value.coeffs
        assert ops == []
        assert gcds and all(gcds)

    @pytest.mark.parametrize("s", [(-1, 0, 0), (0, -2), (-1, -2)])
    def test_renorm_mzv_validates_its_argument_once(self, s, monkeypatch):
        # the character expands the words of a validated argument without
        # validating them again
        calls = []
        check = mzv.argument_word

        def spy(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(mzv, "argument_word", spy)
        renorm_mzv(s)
        assert len(calls) == 1

    def test_mixed_rational_and_delta_directions(self):
        # the rational-delta probes at delta = 0 and delta = 1 are the
        # independent route
        for r, limit, rational in [
                # the rational suffix (0,2) is decomposed over Q(delta) too
                ((1 + DELTA, 2), F(13, 36), (1, 2)),
                # a rational prefix: its cumulative direction 2 lies in
                # Q(delta)
                ((2, 1 + DELTA), F(7, 18), (2, 1))]:
            v = renorm_directional((0, 0), r)
            assert v.limit_at_zero() == limit
            assert v.limit_at_zero() == renorm_directional((0, 0), rational)
            assert v.evaluate(1) == F(3, 8)
            assert v.evaluate(1) == renorm_directional((0, 0), (2, 2))

    def test_value_level_quasi_shuffle(self):
        # zeta(0)^2 = 2 zbar(0,0) + zeta(0) via the merged letter
        lhs = renorm_directional((0,), (1,)) ** 2
        rhs = 2 * renorm_directional((0, 0), (1, 1)) \
            + renorm_directional((0,), (2,))
        assert lhs == rhs == F(1, 4)

    def test_value_level_quasi_shuffle_general(self):
        # the renormalized character respects u * v at equal directions
        u = W([(0, 1)])
        v = W([(-1, 1)])
        prod = quasi_shuffle(
            HopfElement.from_word(u), HopfElement.from_word(v))
        lhs = renorm_directional((0,), (1,)) \
            * renorm_directional((-1,), (1,))
        rhs = F(0)
        for word, coeff in prod.terms.items():
            rhs += coeff * renorm_directional(
                tuple(l.s for l in word), tuple(l.r for l in word))
        assert lhs == rhs

    def test_renormalized_series_taylor_window(self):
        s = renormalized_series((0, 0), (1, 1), 3)
        assert s.min_order >= 0
        assert s.precision >= 4
        assert s.constant_term() == F(3, 8)
        assert s.coefficient(1) == F(1, 8)

    def test_distinct_from_superseded_conventions(self):
        # the quasi-shuffle-compatible value, not 5/12 or 1/3
        v = renorm_mzv((0, 0))
        assert v == F(3, 8)
        assert v != F(5, 12)
        assert v != F(1, 3)


class TestGeneratingIdentity:
    def test_depth_two(self):
        rep = generating_check(2, (1, 2), 3)
        assert rep.passed
        assert rep.check == "generating-function"

    def test_depth_three(self):
        rep = generating_check(3, (1, 1, 2), 2)
        assert rep.passed

    def test_depth_one(self):
        assert generating_check(1, (3,), 4).passed


class TestTwoVarCoefficientFormula:
    @pytest.mark.parametrize("n", range(5))
    def test_unit_directions(self, n):
        assert two_var_an_check(n, 1, 1).passed

    @pytest.mark.parametrize("n", range(4))
    def test_skew_directions(self, n):
        assert two_var_an_check(n, F(1, 2), F(3)).passed
        assert two_var_an_check(n, F(2), F(1, 3)).passed


class TestNumericOracle:
    def test_depth_one_closed_form(self):
        eps0 = -0.1
        got = numeric_oracle((0,), (1,), eps0, 3000)
        closed = math.exp(eps0) / (1 - math.exp(eps0))
        assert got == pytest.approx(closed, rel=1e-12)

    def test_layered_sum_matches_naive_double_loop(self):
        eps0 = -0.2
        terms = 60
        naive = 0.0
        for n1 in range(2, terms + 1):
            for n2 in range(1, n1):
                naive += n1 * math.exp(n1 * eps0) \
                    * math.exp(n2 * 2 * eps0)
        got = numeric_oracle((-1, 0), (1, 2), eps0, terms)
        assert got == pytest.approx(naive, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            numeric_oracle((0,), (1,), 0.1, 100)
        with pytest.raises(ValueError):
            numeric_oracle((0,), (1,), -0.1, 0)
        with pytest.raises(TypeError):
            numeric_oracle((0,), (DELTA,), -0.1, 100)

    @pytest.mark.parametrize("s, r", [
        ((0,), (1 + DELTA,)),
        ((0, -1), (1, 1 + DELTA)),
    ])
    def test_both_oracles_reject_delta_directions(self, s, r):
        # a delta-direction in the first slot or a later one
        for oracle in (numeric_oracle, oracle_tail_bound):
            with pytest.raises(TypeError, match="needs rational directions"):
                oracle(s, r, -0.1, 10)

    def test_tail_bound_shrinks(self):
        b1 = oracle_tail_bound((0, 0), (1, 1), -0.1, 500)
        b2 = oracle_tail_bound((0, 0), (1, 1), -0.1, 2000)
        assert 0 < b2 < b1

    def test_tail_bound_covers_terms_before_the_peak(self):
        # a = 1: the tail sum_(n > 10) n q^n has the closed form
        # q/(1-q)^2 - sum_(n <= 10) n q^n, and its terms peak near n = 1e5
        q = math.exp(-1e-5)
        head = math.fsum(n * q ** n for n in range(1, 11))
        exact = q / (1 - q) ** 2 - head
        bound = oracle_tail_bound((0, 0), (1, 1), -1e-5, 10)
        assert exact <= bound < 2 * exact
        # (80 + 1)-fold terms peaking near n = 8e6 overflow a float
        assert oracle_tail_bound((-40, -40), (1, 1), -1e-5, 10) == math.inf
