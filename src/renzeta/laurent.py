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

The three rings store their windows in two integer layouts, and each
layout has two operations, written once below: the weighted sum a + k b
for an integer k and the product.  Sums, differences and ``windows_agree``
(a - b is the zero window, on every ring) are the weighted sum, and so is
negation, as s - 2 s; a scale by a ring element is the product with the
element's one-slot window.  The regularized expansion (``mzv``) folds bare
layouts with the same two.

- Over Q a window is (nums, den): integer numerators over one positive
  integer denominator, FLINT's ``fmpq_poly`` layout.  A sum brings two
  windows to their least common denominator through one gcd; a product
  convolves the numerators on the integer loop of ``arith``.
- Over Q(delta) and Q[T] a window is (rows, den, factors): one integer
  polynomial row per eps-coefficient over one positive integer and one
  polynomial denominator kept as {primitive p: exponent}, whose factors
  need not be coprime.  Q[T] rows are T-polynomials and have no factors.
  A sum lifts both windows to the larger exponent of each factor and
  combines the integers through one gcd; a product convolves the rows on
  ``arith``'s ``_convolve_rows`` and adds the exponents.

A new series is made from a layout: it strips leading zeros and divides
out the integer content; polynomials are never reduced.  The Q pair is
then canonical, so ``==`` and ``hash`` compare it exactly; the row layouts
compare coefficients.  Sums, products, the projectors, the derivative and
truncation work on the layout: none of them builds a coefficient.
``coeffs`` builds the coefficients on first read and keeps them;
``coefficient``, printing, JSON and pickling go through it.  A Q(delta)
coefficient is reduced to the canonical c p/q of ``arith`` when read, one
gcd each, so ``limit_at_zero`` raises PoleAtZero exactly where the field
would.

Every ring derives from ``_Ring``: coercion through the element class's
``_coerce``, the zero test, and the helpers of its layout.  A ring keeps
only what differs: its name, zero, one and JSON form, building its layout
from values (``_layout``), reading it (``_read``) and the row derivative
(``_derivative``), to which Q[T] adds each coefficient's T-derivative.
Q keeps its own coercion, zero test and layout helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from renzeta.arith import (
    DeltaRationalFunction,
    _check_count,
    _coerced,
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
# The Q layout: (nums, den) is nums[i] / den, den > 0.  The sum a + k b
# takes windows on one exponent range; the product keeps the first n
# coefficients.

def _q_sum(a, b, k) -> tuple:
    """a + k b for an integer k, over the least common denominator,
    through one gcd."""
    nums_a, den_a = a
    nums_b, den_b = b
    g = math.gcd(den_a, den_b)
    ka, kb = den_b // g, k * (den_a // g)
    return [x * ka + y * kb for x, y in zip(nums_a, nums_b)], den_a * ka


def _q_product(a, b, n: int) -> tuple:
    return _convolve_integers(a[0], b[0], n), a[1] * b[1]


def _q_normal(nums, den) -> tuple:
    """The canonical pair: gcd(den, *nums) divided out."""
    g = math.gcd(den, *nums)
    if g != 1:
        return tuple([x // g for x in nums]), den // g
    return tuple(nums), den


# ---------------------------------------------------------------------------
# The row layout: (rows, den, factors) is rows[i] / (den * prod_p
# p^factors[p]), each row an integer polynomial with no trailing zero ([] or
# () for zero) and each p primitive with a positive leading coefficient.

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


def _factored_sum(a, b, k) -> tuple:
    """a + k b for an integer k: both lifted to the larger exponent of
    each factor, the integer denominators combined through one gcd."""
    rows_a, den_a, fac_a = a
    rows_b, den_b, fac_b = b
    factors = dict(fac_a)
    for p, e in fac_b.items():
        if e > factors.get(p, 0):
            factors[p] = e
    g = math.gcd(den_a, den_b)
    ka, kb = den_b // g, k * (den_a // g)
    return ([_row_sum(x, ka, y, kb) for x, y in zip(
        _lifted(rows_a, fac_a, factors), _lifted(rows_b, fac_b, factors))],
        den_a * ka, factors)


def _factored_product(a, b, n: int) -> tuple:
    """The rows convolved, the denominators multiplied, the exponents
    added."""
    rows_a, den_a, fac_a = a
    rows_b, den_b, fac_b = b
    factors = dict(fac_a)
    for p, k in fac_b.items():
        factors[p] = factors.get(p, 0) + k
    return _convolve_rows(rows_a, rows_b, n), den_a * den_b, factors


def _factored_normal(rows, den, factors) -> tuple:
    """The integer content common to den and the rows divided out; the
    zero window over 1 with no factor."""
    if not rows[0]:
        return tuple(rows), 1, {}
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows, den = [[x // g for x in r] for r in rows], den // g
    return tuple(rows), den, factors


# ---------------------------------------------------------------------------
# Coefficient rings.  A ring object bundles the element domain with its
# layout's helpers and the few hooks that differ; elements themselves stay
# plain values.

class _Ring:
    """Hooks shared by the rings; see the module docstring.

    Each ring is one module singleton, named by ``_singleton``: series check
    their partner's ring by identity, so copies and pickles return it.
    The layout helpers are the row layout's, which Q replaces with its
    pair's; ``_blank`` is a zero entry of a layout's row.
    """

    _blank = ()
    _sum = staticmethod(_factored_sum)
    _product = staticmethod(_factored_product)
    _normal = staticmethod(_factored_normal)

    def __reduce__(self):
        return self._singleton

    def coerce(self, value):
        v = self.element._coerce(value)
        if v is None:
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        return v

    def is_zero(self, c) -> bool:
        return c.is_zero()


class RationalField(_Ring):
    _singleton = "RATIONAL_FIELD"
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)
    _blank = 0
    _sum = staticmethod(_q_sum)
    _product = staticmethod(_q_product)
    _normal = staticmethod(_q_normal)

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

    def _layout(self, values) -> tuple:
        den, nums = _over_common_denominator(values)
        return nums, den

    def _read(self, layout) -> tuple:
        nums, den = layout
        return tuple(Fraction(x, den) for x in nums)

    def _derivative(self, min_order: int, layout) -> tuple:
        nums, den = layout
        return [k * x for k, x in enumerate(nums, min_order)], den


class DeltaFunctionField(_Ring):
    element = DeltaRationalFunction
    _singleton = "DELTA_FIELD"
    name = "Q(delta)"
    zero = DeltaRationalFunction(())
    one = DeltaRationalFunction((Fraction(1),))

    def coefficient_to_json(self, c):
        return c.to_json()

    def _layout(self, values) -> tuple:
        """Canonical values c p/q: den the lcm of the denominators of the
        c, one factor per distinct nonconstant q."""
        den = math.lcm(*(v._c.denominator for v in values))
        factors = {v._q: 1 for v in values if len(v._q) > 1}
        rows = []
        for v in values:
            n, d = v._c.as_integer_ratio()
            row = [n * (den // d) * x for x in v._p]
            own = {v._q: 1} if len(v._q) > 1 else {}
            rows.append(_lifted([row], own, factors)[0])
        return rows, den, factors

    def _read(self, layout) -> tuple:
        rows, den, factors = layout
        # prod_p p^k is primitive by Gauss's lemma
        q = (1,)
        for p, k in factors.items():
            q = tuple(_poly_times(q, _power(p, k)))
        return tuple(DeltaRationalFunction._of_integers(r, den, q)
                     for r in rows)

    def _derivative(self, min_order: int, layout) -> tuple:
        rows, den, factors = layout
        return ([[k * v for v in r] if k else []
                 for k, r in enumerate(rows, min_order)], den, factors)


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

    @_coerced
    def __add__(self, o):
        return TPolynomial(poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return TPolynomial(poly_neg(self.coeffs))

    @_coerced
    def __sub__(self, o):
        return self + (-o)

    @_coerced
    def __rsub__(self, o):
        return o + (-self)

    @_coerced
    def __mul__(self, o):
        return TPolynomial(poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    @_coerced
    def __eq__(self, o):
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

    def coefficient_to_json(self, c):
        return [str(x) for x in c.coeffs]

    def _layout(self, values) -> tuple:
        """The T-coefficients over their least common denominator."""
        den = math.lcm(*(c.denominator for p in values for c in p.coeffs))
        return [[c.numerator * (den // c.denominator) for c in p.coeffs]
                for p in values], den, {}

    def _read(self, layout) -> tuple:
        rows, den, _ = layout
        return tuple(TPolynomial(tuple(Fraction(v, den) for v in r))
                     for r in rows)

    def _derivative(self, min_order: int, layout) -> tuple:
        # d/d(eps) acts on T as 1/eps: k c + dc/dT at eps^(k-1)
        rows, den, factors = layout
        return ([_row_sum(r, k, [i * v for i, v in enumerate(r)][1:], 1)
                 for k, r in enumerate(rows, min_order)], den, factors)


RATIONAL_FIELD = RationalField()
DELTA_FIELD = DeltaFunctionField()
T_POLY_RING = TPolynomialRing()
T = TPolynomial((Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# The series itself.

def _aligned(s, lo: int, prec: int) -> tuple:
    """The layout of s on the exponents [lo, prec), lo <= s.min_order and
    prec <= s.precision, zero-filled below s.min_order."""
    row, *rest = s._layout
    blank = s.ring._blank
    k = prec - s.min_order
    if k <= 0:
        return ([blank] * (prec - lo), *rest)
    return ([blank] * (s.min_order - lo) + list(row[:k]), *rest)


class TruncatedLaurentSeries:
    """Finitely many exact Laurent coefficients plus an O(eps^precision) tail.

    Invariants: at least one stored coefficient; the leading stored
    coefficient is nonzero unless the window holds nothing but zeros, in
    which case exactly one zero is stored and min_order = precision - 1.

    ``_layout`` is the stored window in its ring's integer layout (module
    docstring), content-free; ``_coeffs`` caches the coefficients once
    read.
    """

    __slots__ = ("ring", "min_order", "_layout", "_coeffs")

    def __init__(self, ring, min_order: int, coeffs):
        # coerce: the public constructor also takes ints
        _check_count("min_order", min_order, None)
        cs = tuple(ring.coerce(c) for c in coeffs)
        if not cs:
            raise ValueError("series window must contain at least one slot")
        self._fill(ring, min_order, ring._layout(cs))

    def _fill(self, ring, min_order: int, layout):
        """Set the slots of a new series from its window in ring's layout,
        starting at eps^min_order: leading zeros stripped, the integer
        content divided out, polynomial factors kept as they are."""
        row = layout[0]
        first, last = 0, len(row) - 1
        while first < last and not row[first]:
            first += 1
        if first:
            row = row[first:]
        put = object.__setattr__
        put(self, "ring", ring)
        put(self, "min_order", min_order + first)
        put(self, "_layout", ring._normal(row, *layout[1:]))
        put(self, "_coeffs", None)
        return self

    @classmethod
    def _of_layout(cls, ring, min_order: int, layout):
        """The series of ring whose window in ring's layout starts at
        eps^min_order (_fill)."""
        return object.__new__(cls)._fill(ring, min_order, layout)

    def _with_row(self, min_order: int, row):
        """A series of self's ring from a row over self's denominators."""
        return self._of_layout(self.ring, min_order,
                               (row, *self._layout[1:]))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedLaurentSeries is immutable")

    def __reduce__(self):
        return TruncatedLaurentSeries, (self.ring, self.min_order, self.coeffs)

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients, built on first read; a Q(delta)
        coefficient is reduced to its canonical form."""
        cs = self._coeffs
        if cs is None:
            cs = self.ring._read(self._layout)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def precision(self) -> int:
        return self.min_order + len(self._layout[0])

    def is_zero_window(self) -> bool:
        # the leading stored coefficient is zero only in the zero window
        return not self._layout[0][0]

    def coefficient(self, exponent: int):
        """Exact coefficient of eps^exponent; errors above the window."""
        if exponent >= self.precision:
            raise InsufficientPrecision(
                f"coefficient of eps^{exponent} needs precision "
                f"> {exponent}, have {self.precision}")
        if exponent < self.min_order:
            return self.ring.zero
        return self.coeffs[exponent - self.min_order]

    # -- ring operations ----------------------------------------------------

    def _check_partner(self, other):
        if self.ring is not other.ring:
            raise TypeError("series over different coefficient rings")

    def _plus(self, other, k: int):
        """self + k other for an integer k, in the layout."""
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        self._check_partner(other)
        # lo < prec: the window with the smaller precision starts below
        # it; the other one may start at or above prec, and then adds
        # nothing
        prec = min(self.precision, other.precision)
        lo = min(self.min_order, other.min_order)
        return self._of_layout(self.ring, lo, self.ring._sum(
            _aligned(self, lo, prec), _aligned(other, lo, prec), k))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        # self - 2 self: the weighted sum, no product
        return self._plus(self, -2)

    def __mul__(self, other):
        if isinstance(other, TruncatedLaurentSeries):
            self._check_partner(other)
            # the product is known below min(self.precision + other.min_order,
            # other.precision + self.min_order), that is for the shorter
            # window's length past its lowest exponent
            n = min(len(self._layout[0]), len(other._layout[0]))
            return self._of_layout(
                self.ring, self.min_order + other.min_order,
                self.ring._product(self._layout, other._layout, n))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        """self times one element of its ring (an int or Fraction is
        coerced), on the same window: the product with the element's
        one-slot window.  A zero element gives the zero window."""
        ring = self.ring
        return self._of_layout(ring, self.min_order, ring._product(
            self._layout, ring._layout((ring.coerce(value),)),
            len(self._layout[0])))

    # -- the projector pair -------------------------------------------------

    def _projection(self, poles: bool, what: str):
        if self.precision < 0:
            raise IncompletePolePart(
                f"{what} needs precision >= 0, have {self.precision}")
        row = self._layout[0]
        # the first k stored coefficients sit at negative exponents
        k = min(len(row), max(0, -self.min_order))
        blank = self.ring._blank
        if poles:
            row = row[:k] + (blank,) * (len(row) - k)
        else:
            row = (blank,) * k + row[k:]
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
        return self._of_layout(self.ring, self.min_order - 1,
                               self.ring._derivative(self.min_order,
                                                     self._layout))

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
            self.min_order, self._layout[0][: new_precision - self.min_order])

    def terms(self):
        """Iterate (exponent, coefficient) over the stored window."""
        for i, c in enumerate(self.coeffs):
            yield self.min_order + i, c

    # -- output -------------------------------------------------------------

    def evaluate_float(self, x: float) -> float:
        """Numeric value of the window at eps = x; rational ring only."""
        return sum(float(c) * x ** k for k, c in self.terms())

    def _key(self) -> tuple:
        # the Q layout is canonical; the row layouts compare their
        # coefficients
        if self.ring is RATIONAL_FIELD:
            return self.min_order, self._layout
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
    _check_count("precision", precision, None)
    return TruncatedLaurentSeries(ring, precision - 1, [ring.zero])


def one_series(ring, precision: int) -> TruncatedLaurentSeries:
    return scalar_series(ring, ring.one, precision)


def scalar_series(ring, value, precision: int) -> TruncatedLaurentSeries:
    _check_count("precision", precision, 1)
    vals = [ring.coerce(value)] + [ring.zero] * (precision - 1)
    return TruncatedLaurentSeries(ring, 0, vals)


def series_from_terms(ring, terms, precision: int) -> TruncatedLaurentSeries:
    """Series from an {exponent: coefficient} mapping, zero elsewhere."""
    _check_count("precision", precision, None)
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
    """Equality of the two exact values on the window both sides know,
    where a - b is known."""
    return a.ring is b.ring and (a - b).is_zero_window()
