"""Exact scalar arithmetic: Bernoulli numbers, zeta values at non-positive
integers, and the rational-function field in the deformation variable delta.

Rational scalars are ``fractions.Fraction`` throughout: arbitrary precision,
stored reduced with positive denominator.  Polynomials are dense tuples of
Fraction coefficients in ascending degree with no trailing zero; the zero
polynomial is the empty tuple.  A :class:`DeltaRationalFunction` holds a
numerator/denominator pair of such tuples in canonical form (gcd one, monic
denominator), so equality and hashing reduce to tuple comparison.  The only
limit these functions ever need is the value at delta = 0; when the canonical
denominator vanishes there, the limit does not exist and
:class:`PoleAtZero` is raised.

``zeta_nonpositive`` memoizes its values in a process-wide ``functools.cache``
(``cache_info()`` gives size and hits), keyed by k: the series windows ask for
zeta(-(b + j)) at every slot power b and window index j, so the cache holds at
most one entry per k up to the largest b + j asked for.  Threads may call it
at once, at worst computing a value twice; the cached Fractions are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

__all__ = [
    "PoleAtZero",
    "bernoulli",
    "zeta_nonpositive",
    "DeltaRationalFunction",
    "DELTA",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleAtZero(ArithmeticError):
    """Raised when a rational function in delta has no finite value at 0."""


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values at non-positive integers.

_egf_cache: dict[int, Fraction] = {0: _ONE}


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number (B_1 = -1/2 convention).

    Obtained by long division of the exponential generating series
    eps/(exp(eps) - 1): with d_j = 1/(j+1)! the quotient coefficients q_k
    satisfy q_0 = 1 and q_k = -sum_{j=1..k} d_j q_{k-j}, and B_k = k! q_k.
    """
    if n < 0:
        raise ValueError("bernoulli index must be >= 0")
    if n not in _egf_cache:
        known = max(_egf_cache)
        q = [_egf_cache[k] for k in range(known + 1)]
        for k in range(known + 1, n + 1):
            acc = _ZERO
            for j in range(1, k + 1):
                acc += q[k - j] / math.factorial(j + 1)
            q.append(-acc)
        # publish after the whole prefix is computed; entries never change
        for k in range(known + 1, n + 1):
            _egf_cache[k] = q[k]
    return _egf_cache[n] * math.factorial(n)


@cache
def zeta_nonpositive(k: int) -> Fraction:
    """Riemann zeta at -k for k >= 0, as an exact rational.

    zeta(-k) = (-1)^k B_{k+1} / (k+1); in particular zeta(0) = -1/2 and
    zeta(-2m) = 0 for m >= 1.
    """
    if k < 0:
        raise ValueError("zeta_nonpositive takes k >= 0 for the point -k")
    return (-1) ** k * bernoulli(k + 1) / (k + 1)


# ---------------------------------------------------------------------------
# Dense univariate polynomials as coefficient tuples (shared with the series
# module for its T-polynomial coefficients).

def poly_trim(coeffs) -> tuple:
    # the ring operations already hand over Fractions; only constructor
    # input such as ints needs converting
    cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return poly_trim(
        (a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO)
        for i in range(n)
    )


def poly_neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _convolve_fractions(a, b, n: int) -> list:
    """First n coefficients of the product of two Fraction tuples.

    Each factor is scaled to one common denominator, the integer numerators
    are convolved, and one ``Fraction`` is built per output coefficient, as
    FLINT's ``fmpq_poly`` does (https://flintlib.org).  A ``Fraction`` is
    stored reduced, so every coefficient, and so every printed byte, equals
    the one the Fraction-by-Fraction sum gives.
    """
    a, b = a[:n], b[:n]
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    ia = [c.numerator * (da // c.denominator) for c in a]
    ib = [c.numerator * (db // c.denominator) for c in b]
    acc = [0] * n
    for i, x in enumerate(ia):
        if x:
            for k, y in enumerate(ib[:n - i], i):
                acc[k] += x * y
    d = da * db
    return [Fraction(v, d) if v else _ZERO for v in acc]


def poly_mul(a: tuple, b: tuple) -> tuple:
    return poly_trim(_convolve_fractions(a, b, len(a) + len(b) - 1))


def poly_divmod(a: tuple, b: tuple) -> tuple:
    """Quotient and remainder of dense polynomials; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [_ZERO] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(rem) - len(b), -1, -1):
        factor = rem[i + len(b) - 1] / lead
        if factor == 0:
            continue
        quo[i] = factor
        for j, cb in enumerate(b):
            rem[i + j] -= factor * cb
    return poly_trim(quo), poly_trim(rem)


def poly_monic(a: tuple) -> tuple:
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd by the Euclidean algorithm; gcd((), ()) = ()."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_eval(a: tuple, x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_derivative(a: tuple) -> tuple:
    return poly_trim(k * c for k, c in enumerate(a) if k > 0)


def poly_format(a: tuple, var: str) -> str:
    """Render as e.g. ``1 + 2*d - d^2``; the zero polynomial is ``0``."""
    parts = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        power = var if k == 1 else f"{var}^{k}"
        if c == 1:
            parts.append(power)
        elif c == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def poly_parse(text: str, var: str) -> tuple:
    """Inverse of :func:`poly_format`; also accepts forms like ``2d^3``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace("-", "+-").lstrip("+")
    coeffs: dict[int, Fraction] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"malformed polynomial {text!r}")
        if var in term:
            head, _, tail = term.partition(var)
            if tail.startswith("^"):
                exp = int(tail[1:])
            elif tail:
                raise ValueError(f"malformed polynomial term {term!r}")
            else:
                exp = 1
            head = head.rstrip("*")
            if head in ("", "+"):
                coeff = _ONE
            elif head == "-":
                coeff = -_ONE
            else:
                coeff = Fraction(head)
        else:
            exp = 0
            coeff = Fraction(term)
        coeffs[exp] = coeffs.get(exp, _ZERO) + coeff
    try:
        out = [_ZERO] * (max(coeffs) + 1)
    except (OverflowError, MemoryError):
        # the dense form cannot hold the degree the text asks for
        raise ValueError(f"degree too large in {text!r}") from None
    for k, c in coeffs.items():
        out[k] = c
    return poly_trim(out)


# ---------------------------------------------------------------------------
# The field Q(delta).

class DeltaRationalFunction:
    """Element of the field of rational functions in delta over Q.

    ``num`` and ``den`` are coefficient tuples; the constructor reduces to
    canonical form, so two equal values always have identical tuples.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(_ONE,)):
        n = poly_trim(num)
        d = poly_trim(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (_ONE,))
            return
        g = poly_gcd(n, d)
        if len(g) > 1:
            n = poly_divmod(n, g)[0]
            d = poly_divmod(d, g)[0]
        lead = d[-1]
        if lead != 1:
            n = tuple(c / lead for c in n)
            d = tuple(c / lead for c in d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaRationalFunction is immutable")

    @classmethod
    def from_rational(cls, value) -> "DeltaRationalFunction":
        return cls((Fraction(value),))

    @staticmethod
    def _coerce(value):
        if isinstance(value, DeltaRationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return DeltaRationalFunction((Fraction(value),))
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return self.den == (_ONE,) and len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a constant rational")
        return self.num[0] if self.num else _ZERO

    def is_polynomial(self) -> bool:
        return self.den == (_ONE,)

    def has_nonnegative_coefficients(self) -> bool:
        """True for polynomials all of whose coefficients are >= 0."""
        return self.is_polynomial() and all(c >= 0 for c in self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DeltaRationalFunction(
            poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
            poly_mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return DeltaRationalFunction(poly_neg(self.num), self.den)

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
        return DeltaRationalFunction(
            poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return DeltaRationalFunction(
            poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero has no negative power")
            base = DeltaRationalFunction(self.den, self.num)
            exponent = -exponent
        else:
            base = self
        out = DeltaRationalFunction((_ONE,))
        for _ in range(exponent):
            out = out * base
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation ---------------------------------------------------------

    def limit_at_zero(self) -> Fraction:
        """Value at delta = 0; raises PoleAtZero when the denominator dies.

        Canonical form has coprime numerator and denominator, so a vanishing
        denominator at 0 is a genuine pole, never a removable 0/0.
        """
        d0 = self.den[0] if self.den else _ONE
        if d0 == 0:
            raise PoleAtZero(f"{self} has a pole at delta = 0")
        n0 = self.num[0] if self.num else _ZERO
        return n0 / d0

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        d = poly_eval(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at delta = {x}")
        return poly_eval(self.num, x) / d

    # -- text and JSON ------------------------------------------------------

    def __str__(self):
        if self.is_polynomial():
            return poly_format(self.num, "d")
        num = poly_format(self.num, "d")
        den = poly_format(self.den, "d")
        return f"({num})/({den})"

    def __repr__(self):
        return f"DeltaRationalFunction({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "DeltaRationalFunction":
        s = text.strip()
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            num, _, den = s[1:-1].partition(")/(")
            return cls(poly_parse(num, "d"), poly_parse(den, "d"))
        return cls(poly_parse(s, "d"))

    def to_json(self) -> dict:
        return {
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }

    def sort_key(self):
        return (self.num, self.den)


DELTA = DeltaRationalFunction((_ZERO, _ONE))
