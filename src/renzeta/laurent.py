"""Truncated Laurent series in eps over a pluggable coefficient ring.

A series is a window: exact coefficients for every exponent from ``min_order``
up to (excluding) ``precision``, together with the claim that all lower
exponents vanish exactly.  Nothing is known at or above ``precision``.
Operations propagate the tightest sound window: addition meets at the smaller
precision, a product shifts each factor's precision by the partner's lowest
exponent.  The minimal-subtraction projector keeps the strictly negative
exponents; it is exact only once the window reaches eps^0, hence the
``precision >= 0`` demand.  A window that contains no nonzero coefficient is
normalized to ``min_order = precision - 1`` with a single stored zero.

Three coefficient rings are provided: the rationals, the rational-function
field in delta, and polynomials in a formal variable T.  The T ring hosts the
extended derivation d/d(eps) with T treated as log-like, T' = 1/eps: it sends
alpha(T) eps^k to (alpha'(T) + k alpha(T)) eps^(k-1).  On T-free series the
derivation commutes with the projector; with T present it does not, and the
test suite pins the standard witness instead of pretending otherwise.

Over Q a series is stored in FLINT's ``fmpq_poly`` layout: a tuple of
integer numerators over one positive integer denominator, normalized once
per new series (leading zeros stripped as above, gcd(den, *nums) divided
out).  That pair is canonical, so ``==`` and ``hash`` compare it exactly.
Sums bring two windows to their least common denominator, products
convolve the numerators on the integer loop of ``arith``, the projectors
are slices, the derivative multiplies each numerator by its exponent, and
``windows_agree`` cross-multiplies; none of them builds a ``Fraction``.
``coeffs`` gives the Fractions, built on first read and kept; printing,
JSON, ``terms`` and pickling go through it.  The regularized expansion
hands its integer windows to the private ``_of_integers`` constructor.

Over Q(delta) a series keeps the regularized expansion's factored integer
layout (``mzv``): integer delta-polynomial rows over one positive integer
and one polynomial denominator kept as {primitive p: exponent}, whose
factors need not be coprime.  A new series strips leading zero rows and
divides out the integer content; polynomials are never reduced.  Sums
lift both windows to the larger exponent of each factor and combine the
integers through one gcd, products convolve the rows on ``arith``'s
``_convolve_rows`` and add the exponents, and the projectors, negation,
the derivative and truncation work on the rows: no field operator and no
polynomial gcd.  Reading a coefficient (``coeffs``, ``coefficient``,
printing, JSON, ``==``, ``hash``, pickling) reduces it to the canonical
c p/q of ``arith``, one gcd each, and ``coeffs`` keeps what it built; so
``limit_at_zero`` raises PoleAtZero exactly where the field would.  The
expansion hands its root over unreduced through ``_of_factored``.

Every ring derives from ``_Ring``, which holds the shared hooks: coercion
through the element class's ``_coerce``, the zero test and a zero
coefficient derivative.  A ring declares its element class, name, zero,
one and JSON form; Q keeps its own coercion and zero test.  Over Q[T]
``convolve`` brings the T-coefficients of each factor over one common
denominator, convolves the integer T-polynomial rows and builds one
``Fraction`` per output T-coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from renzeta.arith import (
    DeltaRationalFunction,
    _convolve_integers,
    _convolve_rows,
    _over_common_denominator,
    _poly_times,
    _row_sum,
    poly_add,
    poly_derivative,
    poly_format,
    poly_mul,
    poly_neg,
    poly_trim,
)

__all__ = [
    "PrecisionError",
    "IncompletePolePart",
    "InsufficientPrecision",
    "RationalField",
    "DeltaFunctionField",
    "TPolynomialRing",
    "RATIONAL_FIELD",
    "DELTA_FIELD",
    "T_POLY_RING",
    "TPolynomial",
    "T",
    "TruncatedLaurentSeries",
    "zero_series",
    "one_series",
    "scalar_series",
    "series_from_terms",
    "windows_agree",
]


class PrecisionError(ArithmeticError):
    """A requested operation needs more of the series than the window holds."""


class IncompletePolePart(PrecisionError):
    """Pole-part projection of a window that stops below eps^0."""


class InsufficientPrecision(PrecisionError):
    """A coefficient or constant term was requested outside the window."""


# ---------------------------------------------------------------------------
# Coefficient rings.  A ring object bundles the element domain with the few
# hooks the series needs; elements themselves stay plain values.  The product
# hook ``convolve(a, b, n)`` of Q[T] returns the first n coefficients of the
# product of two coefficient tuples.

class _Ring:
    """Hooks shared by the rings; see the module docstring.

    Each ring is one module singleton, named by ``_singleton``: series check
    their partner's ring by identity, so copies and pickles return it.
    """

    def __reduce__(self):
        return self._singleton

    def coerce(self, value):
        v = self.element._coerce(value)
        if v is None:
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        return v

    def is_zero(self, c) -> bool:
        return c.is_zero()

    def coefficient_derivative(self, c):
        return self.zero


class RationalField(_Ring):
    _singleton = "RATIONAL_FIELD"
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        # the public constructor runs it on every coefficient: Fraction first
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def is_zero(self, c) -> bool:
        return c == 0

    def coefficient_to_json(self, c):
        return str(c)


class DeltaFunctionField(_Ring):
    element = DeltaRationalFunction
    _singleton = "DELTA_FIELD"
    name = "Q(delta)"
    zero = DeltaRationalFunction(())
    one = DeltaRationalFunction((Fraction(1),))

    def coefficient_to_json(self, c):
        return c.to_json()


class TPolynomial:
    """Polynomial in the formal variable T with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", poly_trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TPolynomial is immutable")

    def __reduce__(self):
        return TPolynomial, (self.coeffs,)

    @staticmethod
    def _coerce(value):
        if isinstance(value, TPolynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return TPolynomial((Fraction(value),))
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "TPolynomial":
        return TPolynomial(poly_derivative(self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TPolynomial(poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return TPolynomial(poly_neg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TPolynomial(poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its Fraction, so it hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __str__(self):
        return poly_format(self.coeffs, "T")

    def __repr__(self):
        return f"TPolynomial({str(self)!r})"


class TPolynomialRing(_Ring):
    element = TPolynomial
    _singleton = "T_POLY_RING"
    name = "Q[T]"
    zero = TPolynomial(())
    one = TPolynomial((Fraction(1),))

    def convolve(self, a, b, n):
        """First n coefficients of the product: the T-coefficients of each
        factor over one common denominator, the integer T-polynomial rows
        convolved, one Fraction per output T-coefficient."""
        da, ra = _integer_rows(a[:n])
        db, rb = _integer_rows(b[:n])
        d = da * db
        return [TPolynomial(tuple(Fraction(v, d) for v in row))
                for row in _convolve_rows(ra, rb, n)]

    def coefficient_derivative(self, c):
        # d/d(eps) acts on T as 1/eps; the caller shifts the exponent down
        return c.derivative()

    def coefficient_to_json(self, c):
        return [str(x) for x in c.coeffs]


def _integer_rows(polys) -> tuple:
    """(den, rows): the T-polynomials polys as integer rows over one common
    denominator."""
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    return den, [[c.numerator * (den // c.denominator) for c in p.coeffs]
                 for p in polys]


RATIONAL_FIELD = RationalField()
DELTA_FIELD = DeltaFunctionField()
T_POLY_RING = TPolynomialRing()
T = TPolynomial((Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# The factored Q(delta) layout, shared with the expansion's windows
# (``mzv``): (rows, den, factors) is rows[i] / (den * prod_p
# p^factors[p]), each row an integer delta-polynomial with no trailing zero
# ([] for zero) and each p primitive with a positive leading coefficient.

@lru_cache(maxsize=1024)
def _power(p, k) -> tuple:
    """p^k for a primitive integer polynomial p."""
    return (1,) if k == 0 else tuple(_poly_times(_power(p, k - 1), p))


def _lifted(rows, factors, target) -> list:
    """rows over prod_p p^factors[p] brought over prod_p p^target[p],
    target covering factors."""
    lift = [1]
    for p, k in target.items():
        extra = k - factors.get(p, 0)
        if extra:
            lift = _poly_times(lift, _power(p, extra))
    if len(lift) == 1:
        return rows
    return [_poly_times(r, lift) for r in rows]


def _factored_sum(a, b) -> tuple:
    """a + b for two factored windows on one exponent range: both lifted
    to the larger exponent of each factor, the integer denominators
    combined through one gcd."""
    rows_a, den_a, fac_a = a
    rows_b, den_b, fac_b = b
    factors = dict(fac_a)
    for p, k in fac_b.items():
        if k > factors.get(p, 0):
            factors[p] = k
    g = math.gcd(den_a, den_b)
    ka, kb = den_b // g, den_a // g
    return ([_row_sum(x, ka, y, kb) for x, y in zip(
        _lifted(rows_a, fac_a, factors), _lifted(rows_b, fac_b, factors))],
        den_a * ka, factors)


def _factored_product(a, b, n: int) -> tuple:
    """First n coefficients of a * b for two factored windows: the rows
    convolved, the denominators multiplied, the exponents added."""
    rows_a, den_a, fac_a = a
    rows_b, den_b, fac_b = b
    factors = dict(fac_a)
    for p, k in fac_b.items():
        factors[p] = factors.get(p, 0) + k
    return _convolve_rows(rows_a, rows_b, n), den_a * den_b, factors


def _factored_values(values) -> tuple:
    """The factored layout of canonical Q(delta) values c p/q: den the lcm
    of the denominators of the c, one factor per distinct nonconstant q."""
    den = math.lcm(*(v._c.denominator for v in values))
    factors = {v._q: 1 for v in values if len(v._q) > 1}
    rows = []
    for v in values:
        n, d = v._c.as_integer_ratio()
        row = [n * (den // d) * x for x in v._p]
        own = {v._q: 1} if len(v._q) > 1 else {}
        rows.append(_lifted([row], own, factors)[0])
    return rows, den, factors


# ---------------------------------------------------------------------------
# The series itself.

def _aligned(s, lo: int, prec: int, zero) -> list:
    """The stored row of s on the exponents [lo, prec), lo <= s.min_order
    and prec <= s.precision, zero-filled below s.min_order."""
    k = prec - s.min_order
    if k <= 0:
        return [zero] * (prec - lo)
    return [zero] * (s.min_order - lo) + list(s._row[:k])


class TruncatedLaurentSeries:
    """Finitely many exact Laurent coefficients plus an O(eps^precision) tail.

    Invariants: at least one stored coefficient; the leading stored
    coefficient is nonzero unless the window holds nothing but zeros, in
    which case exactly one zero is stored and min_order = precision - 1.

    ``_row`` is the stored window.  Over Q it holds integer numerators over
    the positive integer ``_den``, with gcd(_den, *_row) = 1; over Q(delta)
    the rows of the factored layout over ``_den`` and ``_factors``.  Over
    both ``_coeffs`` caches the coefficients once read.  Over Q[T] ``_row``
    holds the coefficients, ``_den`` and ``_factors`` are None and
    ``_coeffs`` is ``_row``.
    """

    __slots__ = ("ring", "min_order", "_row", "_den", "_factors", "_coeffs")

    def __init__(self, ring, min_order: int, coeffs):
        # coerce: the public constructor also takes ints
        cs = [ring.coerce(c) for c in coeffs]
        if not cs:
            raise ValueError("series window must contain at least one slot")
        # a window of nothing but zeros keeps its last slot, as ring.zero
        first, last = 0, len(cs) - 1
        while first < last and ring.is_zero(cs[first]):
            first += 1
        if first == last and ring.is_zero(cs[last]):
            cs[last] = ring.zero
        cs = tuple(cs[first:])
        row, den, factors = cs, None, None
        if ring is RATIONAL_FIELD:
            den, row = _over_common_denominator(cs)
            row = tuple(row)
        elif ring is DELTA_FIELD:
            row, den, factors = _factored_values(cs)
            row = tuple(row)
        self._fill(ring, min_order + first, row, den, factors, cs)

    def _fill(self, *values):
        """Set the slots, in their order, on a new series."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _of_integers(cls, min_order: int, nums, den: int):
        """The Q series nums[i] / den at eps^(min_order + i), den > 0:
        leading zeros are stripped and gcd(den, *nums) divided out."""
        first, last = 0, len(nums) - 1
        while first < last and not nums[first]:
            first += 1
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums[first:]], den // g
        elif first:
            nums = nums[first:]
        return object.__new__(cls)._fill(
            RATIONAL_FIELD, min_order + first, tuple(nums), den, None, None)

    @classmethod
    def _of_factored(cls, min_order: int, rows, den: int, factors):
        """The Q(delta) series of the factored window (rows, den, factors)
        at eps^min_order on: leading zero rows are stripped and the integer
        content common to den and the rows divided out; the polynomial
        factors stay as they are."""
        first, last = 0, len(rows) - 1
        while first < last and not rows[first]:
            first += 1
        rows = rows[first:]
        if not rows[0]:
            # the zero window
            den, factors = 1, {}
        elif den != 1:
            g = math.gcd(den, *chain.from_iterable(rows))
            if g != 1:
                rows, den = [[x // g for x in r] for r in rows], den // g
        return object.__new__(cls)._fill(
            DELTA_FIELD, min_order + first, tuple(rows), den, factors, None)

    def _with_row(self, min_order: int, row):
        """A series of self's ring from a row in self's layout, over
        self's denominators on Q and Q(delta)."""
        if self._den is None:
            return TruncatedLaurentSeries(self.ring, min_order, row)
        if self._factors is None:
            return TruncatedLaurentSeries._of_integers(
                min_order, row, self._den)
        return TruncatedLaurentSeries._of_factored(
            min_order, row, self._den, self._factors)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedLaurentSeries is immutable")

    def __reduce__(self):
        return TruncatedLaurentSeries, (self.ring, self.min_order, self.coeffs)

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients, over Q and Q(delta) built on first
        read; a Q(delta) coefficient is reduced to its canonical form."""
        cs = self._coeffs
        if cs is None:
            d = self._den
            if self._factors is None:
                cs = tuple(Fraction(x, d) for x in self._row)
            else:
                # prod_p p^k is primitive by Gauss's lemma
                q = (1,)
                for p, k in self._factors.items():
                    q = tuple(_poly_times(q, _power(p, k)))
                cs = tuple(DeltaRationalFunction._of_integers(r, d, q)
                           for r in self._row)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def precision(self) -> int:
        return self.min_order + len(self._row)

    def is_zero_window(self) -> bool:
        # the leading stored coefficient is zero only in the zero window
        if self._den is not None:
            return not self._row[0]
        return self.ring.is_zero(self._row[0])

    def coefficient(self, exponent: int):
        """Exact coefficient of eps^exponent; errors above the window."""
        if exponent >= self.precision:
            raise InsufficientPrecision(
                f"coefficient of eps^{exponent} needs precision "
                f"> {exponent}, have {self.precision}")
        if exponent < self.min_order:
            return self.ring.zero
        i = exponent - self.min_order
        if self._coeffs is None and self._factors is None:
            return Fraction(self._row[i], self._den)
        return self.coeffs[i]

    # -- ring operations ----------------------------------------------------

    def _check_partner(self, other):
        if self.ring is not other.ring:
            raise TypeError("series over different coefficient rings")

    def __add__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        self._check_partner(other)
        # lo < prec: the window with the smaller precision starts below
        # it; the other one may start at or above prec, and then adds
        # nothing
        prec = min(self.precision, other.precision)
        lo = min(self.min_order, other.min_order)
        if self._den is None:
            out = [self.coefficient(k) + other.coefficient(k)
                   for k in range(lo, prec)]
            return TruncatedLaurentSeries(self.ring, lo, out)
        if self._factors is not None:
            return TruncatedLaurentSeries._of_factored(lo, *_factored_sum(
                (_aligned(self, lo, prec, ()), self._den, self._factors),
                (_aligned(other, lo, prec, ()), other._den, other._factors)))
        g = math.gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g
        return TruncatedLaurentSeries._of_integers(
            lo, [x * fa + y * fb for x, y in zip(
                _aligned(self, lo, prec, 0), _aligned(other, lo, prec, 0))],
            self._den * fa)

    def __sub__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        if self._factors is not None:
            return self._with_row(self.min_order,
                                  [[-v for v in r] for r in self._row])
        return self._with_row(self.min_order, [-c for c in self._row])

    def __mul__(self, other):
        if isinstance(other, TruncatedLaurentSeries):
            self._check_partner(other)
            # the product is known below min(self.precision + other.min_order,
            # other.precision + self.min_order), that is for the shorter
            # window's length past its lowest exponent
            n = min(len(self._row), len(other._row))
            lo = self.min_order + other.min_order
            if self._den is None:
                return TruncatedLaurentSeries(
                    self.ring, lo, self.ring.convolve(self._row, other._row, n))
            if self._factors is not None:
                return TruncatedLaurentSeries._of_factored(
                    lo, *_factored_product(
                        (self._row, self._den, self._factors),
                        (other._row, other._den, other._factors), n))
            return TruncatedLaurentSeries._of_integers(
                lo, _convolve_integers(self._row, other._row, n),
                self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self.ring.coerce(value)
        if self.ring.is_zero(c):
            return zero_series(self.ring, self.precision)
        if self._den is None:
            return self._with_row(self.min_order, [c * x for x in self._row])
        if self._factors is None:
            k = c.numerator
            return TruncatedLaurentSeries._of_integers(
                self.min_order, [k * x for x in self._row],
                self._den * c.denominator)
        # the product with the one-slot window of c
        return TruncatedLaurentSeries._of_factored(
            self.min_order, *_factored_product(
                (self._row, self._den, self._factors),
                _factored_values((c,)), len(self._row)))

    # -- the projector pair -------------------------------------------------

    def _projection(self, poles: bool, what: str):
        if self.precision < 0:
            raise IncompletePolePart(
                f"{what} needs precision >= 0, have {self.precision}")
        row = self._row
        # the first k stored coefficients sit at negative exponents
        k = min(len(row), max(0, -self.min_order))
        if self._den is None:
            zero = self.ring.zero
        else:
            zero = 0 if self._factors is None else ()
        if poles:
            row = row[:k] + (zero,) * (len(row) - k)
        else:
            row = (zero,) * k + row[k:]
        return self._with_row(self.min_order, row)

    def pole_part(self) -> "TruncatedLaurentSeries":
        """Strictly negative exponents, exact; needs the window past eps^0.

        The result keeps the argument's precision: at eps^0 and above it is
        exactly zero, so nothing unknown is left inside the window.
        """
        return self._projection(True, "pole part")

    def finite_part(self) -> "TruncatedLaurentSeries":
        """Complementary projection: exponents >= 0 only."""
        return self._projection(False, "finite part")

    def constant_term(self):
        if self.precision < 1:
            raise InsufficientPrecision(
                f"constant term needs precision >= 1, have {self.precision}")
        return self.coefficient(0)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "TruncatedLaurentSeries":
        """d/d(eps), lowering every exponent; the window shrinks by one.

        Over a constant-coefficient ring this is termwise k c eps^(k-1); in
        the T ring each coefficient also contributes its own T-derivative
        at the lowered exponent, since T differentiates to 1/eps.
        """
        ring, mo = self.ring, self.min_order
        if self._factors is not None:
            return self._with_row(
                mo - 1, [[k * v for v in r] if k else []
                         for k, r in enumerate(self._row, mo)])
        if self._den is not None:
            return self._with_row(
                mo - 1, [k * x for k, x in enumerate(self._row, mo)])
        return TruncatedLaurentSeries(
            ring, mo - 1,
            [k * c + ring.coefficient_derivative(c) for k, c in self.terms()])

    # -- window management --------------------------------------------------

    def truncated(self, new_precision: int) -> "TruncatedLaurentSeries":
        """Forget coefficients at and above new_precision."""
        if new_precision > self.precision:
            raise InsufficientPrecision(
                f"cannot extend precision {self.precision} "
                f"to {new_precision}")
        if new_precision <= self.min_order:
            return zero_series(self.ring, new_precision)
        return self._with_row(
            self.min_order, self._row[: new_precision - self.min_order])

    def terms(self):
        """Iterate (exponent, coefficient) over the stored window."""
        for i, c in enumerate(self.coeffs):
            yield self.min_order + i, c

    # -- output -------------------------------------------------------------

    def evaluate_float(self, x: float) -> float:
        """Numeric value of the window at eps = x; rational ring only."""
        return sum(float(c) * x ** k for k, c in self.terms())

    def _key(self) -> tuple:
        # the Q and Q[T] layouts are canonical; a Q(delta) window is not,
        # and compares its canonical coefficients
        if self._factors is None:
            return self.min_order, self._den, self._row
        return self.min_order, self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return self.ring is other.ring and self._key() == other._key()

    def __hash__(self):
        return hash((id(self.ring),) + self._key())

    def __str__(self):
        parts = []
        for k, c in self.terms():
            if self.ring.is_zero(c):
                continue
            text = str(c)
            if k == 0:
                parts.append(text)
            else:
                if " " in text and not (text.startswith("(")
                                        and text.endswith(")")):
                    text = f"({text})"
                power = "eps" if k == 1 else f"eps^{k}"
                parts.append(f"{text}·{power}")
        if not parts:
            parts = ["0"]
        return " + ".join(parts) + f" + O(eps^{self.precision})"

    def __repr__(self):
        return f"<series {self}>"

    def to_json(self) -> dict:
        return {
            "var": "eps",
            "minOrder": self.min_order,
            "precision": self.precision,
            "coeffs": [self.ring.coefficient_to_json(c)
                       for c in self.coeffs],
        }


# ---------------------------------------------------------------------------
# Constructors and comparisons.

def zero_series(ring, precision: int) -> TruncatedLaurentSeries:
    """The zero value known modulo eps^precision."""
    return TruncatedLaurentSeries(ring, precision - 1, [ring.zero])


def one_series(ring, precision: int) -> TruncatedLaurentSeries:
    return scalar_series(ring, ring.one, precision)


def scalar_series(ring, value, precision: int) -> TruncatedLaurentSeries:
    if precision < 1:
        raise ValueError("a scalar needs the window to include eps^0")
    vals = [ring.coerce(value)] + [ring.zero] * (precision - 1)
    return TruncatedLaurentSeries(ring, 0, vals)


def series_from_terms(ring, terms, precision: int) -> TruncatedLaurentSeries:
    """Series from an {exponent: coefficient} mapping, zero elsewhere."""
    if terms:
        lo = min(terms)
        if lo >= precision:
            raise ValueError("terms lie at or above the requested precision")
    else:
        lo = precision - 1
    vals = [terms.get(k, ring.zero) for k in range(lo, precision)]
    return TruncatedLaurentSeries(ring, lo, vals)


def windows_agree(a: TruncatedLaurentSeries,
                  b: TruncatedLaurentSeries) -> bool:
    """Equality of the two exact values on the window both sides know."""
    if a.ring is not b.ring:
        return False
    prec = min(a.precision, b.precision)
    lo = min(a.min_order, b.min_order)
    if a._den is None:
        return all(a.coefficient(k) == b.coefficient(k)
                   for k in range(lo, prec))
    if a._factors is not None:
        # a - b is known on [lo, prec), in the layout
        return (a - b).is_zero_window()
    # x / a._den == y / b._den, cross-multiplied
    return [x * b._den for x in _aligned(a, lo, prec, 0)] == \
        [y * a._den for y in _aligned(b, lo, prec, 0)]
