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

Every ring derives from ``_Ring``, which holds the shared hooks: the
schoolbook ``convolve`` over the ring's elements, coercion through the
element class's ``_coerce``, the zero test and a zero coefficient
derivative.  A ring declares its element class, name, zero, one and JSON
form; Q keeps its own coercion, zero test and the integer kernel of arith.
"""

from __future__ import annotations

from fractions import Fraction

from renzeta.arith import (
    DeltaRationalFunction,
    _convolve_fractions,
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
# hook ``convolve(a, b, n)`` returns the first n coefficients of the product
# of two coefficient tuples.

class _Ring:
    """Hooks shared by the rings; see the module docstring.

    Each ring is one module singleton, named by ``_singleton``: series check
    their partner's ring by identity, so copies and pickles return it.
    """

    def __reduce__(self):
        return self._singleton

    def convolve(self, a, b, n):
        """Schoolbook product, one ring multiply-add per coefficient pair."""
        acc = [self.zero] * n
        for i, ca in enumerate(a[:n]):
            if self.is_zero(ca):
                continue
            for k, cb in enumerate(b[:n - i], i):
                acc[k] = acc[k] + ca * cb
        return acc

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

    def convolve(self, a, b, n):
        return _convolve_fractions(a, b, n)

    def coerce(self, value):
        # runs on every coefficient of every series: Fraction first
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

    def coefficient_derivative(self, c):
        # d/d(eps) acts on T as 1/eps; the caller shifts the exponent down
        return c.derivative()

    def coefficient_to_json(self, c):
        return [str(x) for x in c.coeffs]


RATIONAL_FIELD = RationalField()
DELTA_FIELD = DeltaFunctionField()
T_POLY_RING = TPolynomialRing()
T = TPolynomial((Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# The series itself.

class TruncatedLaurentSeries:
    """Finitely many exact Laurent coefficients plus an O(eps^precision) tail.

    Invariants: at least one stored coefficient; the leading stored
    coefficient is nonzero unless the window holds nothing but zeros, in
    which case exactly one zero is stored and min_order = precision - 1.
    """

    __slots__ = ("ring", "min_order", "coeffs")

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "min_order", min_order + first)
        object.__setattr__(self, "coeffs", tuple(cs[first:]))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedLaurentSeries is immutable")

    def __reduce__(self):
        return TruncatedLaurentSeries, (self.ring, self.min_order, self.coeffs)

    @property
    def precision(self) -> int:
        return self.min_order + len(self.coeffs)

    def is_zero_window(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

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

    def __add__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        self._check_partner(other)
        # both min_orders sit below both precisions, so lo < prec holds
        prec = min(self.precision, other.precision)
        lo = min(self.min_order, other.min_order)
        out = [self.coefficient(k) + other.coefficient(k)
               for k in range(lo, prec)]
        return TruncatedLaurentSeries(self.ring, lo, out)

    def __sub__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TruncatedLaurentSeries(
            self.ring, self.min_order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncatedLaurentSeries):
            self._check_partner(other)
            # the product is known below min(self.precision + other.min_order,
            # other.precision + self.min_order), that is for the shorter
            # window's length past its lowest exponent
            n = min(len(self.coeffs), len(other.coeffs))
            return TruncatedLaurentSeries(
                self.ring, self.min_order + other.min_order,
                self.ring.convolve(self.coeffs, other.coeffs, n))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self.ring.coerce(value)
        if self.ring.is_zero(c):
            return zero_series(self.ring, self.precision)
        return TruncatedLaurentSeries(
            self.ring, self.min_order, [c * x for x in self.coeffs])

    # -- the projector pair -------------------------------------------------

    def _projection(self, poles: bool, what: str):
        if self.precision < 0:
            raise IncompletePolePart(
                f"{what} needs precision >= 0, have {self.precision}")
        vals = [c if (k < 0) == poles else self.ring.zero
                for k, c in self.terms()]
        return TruncatedLaurentSeries(self.ring, self.min_order, vals)

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
        ring = self.ring
        return TruncatedLaurentSeries(
            ring, self.min_order - 1,
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
        return TruncatedLaurentSeries(
            self.ring, self.min_order,
            self.coeffs[: new_precision - self.min_order])

    def terms(self):
        """Iterate (exponent, coefficient) over the stored window."""
        for i, c in enumerate(self.coeffs):
            yield self.min_order + i, c

    # -- output -------------------------------------------------------------

    def evaluate_float(self, x: float) -> float:
        """Numeric value of the window at eps = x; rational ring only."""
        return sum(float(c) * x ** k for k, c in self.terms())

    def __eq__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return (self.ring is other.ring
                and self.min_order == other.min_order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.min_order, self.coeffs))

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
    return all(a.coefficient(k) == b.coefficient(k)
               for k in range(lo, prec))
