"""Exact scalar arithmetic: Bernoulli numbers, zeta values at non-positive
integers, and the rational-function field in the deformation variable delta.

Rational scalars are ``fractions.Fraction`` throughout: arbitrary precision,
stored reduced with positive denominator.  Polynomials are dense tuples of
Fraction coefficients in ascending degree with no trailing zero; the zero
polynomial is the empty tuple.

A :class:`DeltaRationalFunction` is stored as its canonical integer form
c p/q: a Fraction c and coprime primitive integer polynomials p and q
(content one) with positive leading coefficients; zero is c = 0, p = ()
and q = (1,).  The triple is unique, so equality and hashing compare it.
``num`` and ``den`` give the same value as Fraction tuples over the monic
denominator q/lead(q).  The only limit these functions ever need is the
value at delta = 0; when q vanishes there, the limit does not exist and
:class:`PoleAtZero` is raised.

The field runs on integer polynomials only, the layer it shares with the
regularized expansion (``mzv``).  By Gauss's lemma a product of primitive
polynomials is primitive, and a primitive polynomial that divides another
over Q divides it over Z with a primitive quotient, so p and q never leave
the integers and every rational factor lives in c.  ``poly_gcd`` runs
Euclid on pseudo-remainders, each made primitive again; a constant operand
gives 1 at once.  ``_exact_quotient`` raises instead of truncating.  A sum
or a product is built from its canonical operands as an integer row over
an integer times q_a q_b and reduced by ``_of_integers``, the one caller of
``poly_gcd``: plain code suits the field's two roles, the package's public
scalar type and the tests' independent reference for the integer layout.

Products of Fraction polynomials (``poly_mul``) bring each factor over one
common denominator and convolve the integer numerators in
``_convolve_integers``, the package's one integer multiply-add loop.  The
product of the Q layout (``laurent``), which the Q series and the
regularized expansion share, and the integer polynomials of the field run
on it too.  ``_convolve_rows`` convolves sequences of integer polynomials,
for the product of the row layout (``laurent``) that the Q(delta) and
Q[T] series and the expansion share.

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
from itertools import zip_longest

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


def _over_common_denominator(a) -> tuple:
    """(den, nums): the Fractions of a as integer numerators over their
    least common denominator, FLINT's ``fmpq_poly`` layout."""
    dens = [c.denominator for c in a]
    den = math.lcm(*dens)
    return den, [c.numerator * (den // d) for c, d in zip(a, dens)]


def _convolve_integers(a, b, n: int) -> list:
    """First n coefficients of the product of two integer lists.

    The one integer multiply-add loop: ``poly_mul`` and the product of the
    Q layout (``laurent``), which the Q series and the regularized
    expansion (``mzv``) share, run on it.
    """
    acc = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for k, y in enumerate(b[:n - i], i):
                acc[k] += x * y
    return acc


def poly_mul(a: tuple, b: tuple) -> tuple:
    """Product of two Fraction polynomials.

    Each factor is brought over one common denominator, the integer
    numerators are convolved by ``_convolve_integers``, and one
    ``Fraction`` is built per output coefficient, as FLINT's ``fmpq_poly``
    does (https://flintlib.org).  A ``Fraction`` is stored reduced, so
    every coefficient equals the one the Fraction-by-Fraction sum gives.
    """
    n = len(a) + len(b) - 1
    da, ia = _over_common_denominator(a)
    db, ib = _over_common_denominator(b)
    d = da * db
    return poly_trim(Fraction(v, d) if v else _ZERO
                     for v in _convolve_integers(ia, ib, n))


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
# Integer polynomials: ascending tuples or lists of ints without a trailing
# zero, shared by the field below and the expansion's windows (``mzv``).

def _poly_times(a, b) -> list:
    """Product of two integer polynomials; the zero polynomial is []."""
    if not a or not b:
        return []
    return _convolve_integers(a, b, len(a) + len(b) - 1)


def _row_sum(x, a, y, b) -> list:
    """a*x + b*y for integer polynomials x and y."""
    row = [u * a + v * b for u, v in zip_longest(x, y, fillvalue=0)]
    while row and row[-1] == 0:
        row.pop()
    return row


def _convolve_rows(a, b, n: int) -> list:
    """First n coefficients of the product of two lists of integer
    polynomials."""
    rows = [[] for _ in range(n)]
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                if y:
                    rows[j] = _row_sum(rows[j], 1, _poly_times(x, y), 1)
    return rows


def _primitive(a) -> tuple:
    """(k, p) with a = k p for a nonzero integer polynomial a: p primitive
    with a positive leading coefficient."""
    k = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return k, tuple(a) if k == 1 else tuple(x // k for x in a)


def _primitive_remainder(a, b) -> list:
    """Primitive part of the pseudo-remainder of integer polynomials a by b,
    len(a) >= len(b) > 1, with a positive leading coefficient; each step
    scales the running remainder by the cofactor of its leading term only."""
    r = list(a)
    lead, nb = b[-1], len(b)
    while len(r) >= nb:
        top = r[-1]
        g = math.gcd(top, lead)
        scale, t = lead // g, top // g
        if scale != 1:
            r = [scale * x for x in r]
        k = len(r) - nb
        for j, y in enumerate(b):
            r[k + j] -= t * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)[1] if r else r


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """gcd of primitive integer polynomials with positive leading
    coefficients, in the same form: the monic gcd over Q made primitive.
    gcd((), b) = b, and a constant operand gives (1,) at once; Euclid runs
    on pseudo-remainders, each made primitive again."""
    if not a or not b:
        return tuple(a or b)
    if len(a) == 1 or len(b) == 1:
        return (1,)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive_remainder(a, b)
    return (1,) if b else tuple(a)


def _exact_quotient(a, g) -> tuple:
    """a / g for primitive integer polynomials with positive leading
    coefficients, g known to divide a: by Gauss's lemma again such a
    polynomial.  A step of the long division over ints that does not divide
    exactly raises ArithmeticError instead of truncating."""
    if len(g) == 1:
        return tuple(a)
    rem = list(a)
    lead, ng = g[-1], len(g)
    quo = [0] * (len(rem) - ng + 1)
    for i in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[i + ng - 1], lead)
        if r:
            raise ArithmeticError("polynomial quotient is not exact")
        quo[i] = q
        if q:
            for j, y in enumerate(g):
                rem[i + j] -= q * y
    if any(rem[:ng - 1]):
        raise ArithmeticError("polynomial quotient is not exact")
    return tuple(quo)


# ---------------------------------------------------------------------------
# The field Q(delta).

class DeltaRationalFunction:
    """Element of the field of rational functions in delta over Q.

    Stored as the canonical triple c p/q (module docstring), which the
    constructor reaches from any numerator and denominator; ``num`` and
    ``den`` are its Fraction tuples over the monic denominator.
    """

    __slots__ = ("_c", "_p", "_q")

    def __new__(cls, num, den=(_ONE,)):
        dn, n = _over_common_denominator(poly_trim(num))
        dd, d = _over_common_denominator(poly_trim(den))
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        k, q = _primitive(d)
        # num/den = (n/dn) / (k q/dd)
        return cls._of_integers([x * dd for x in n], dn * k, q)

    @classmethod
    def _of_integers(cls, row, den: int, q):
        """row / (den q) for an integer polynomial row, a nonzero integer
        den and a primitive q with a positive leading coefficient: one gcd
        and one Fraction."""
        if not row:
            return cls._new(_ZERO, (), (1,))
        k, p = _primitive(row)
        g = poly_gcd(p, q)
        return cls._new(Fraction(k, den), _exact_quotient(p, g),
                        _exact_quotient(q, g))

    @classmethod
    def _new(cls, c, p, q):
        """The value of a canonical triple."""
        out = object.__new__(cls)
        object.__setattr__(out, "_c", c)
        object.__setattr__(out, "_p", p)
        object.__setattr__(out, "_q", q)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DeltaRationalFunction is immutable")

    def __reduce__(self):
        return DeltaRationalFunction, (self.num, self.den)

    @property
    def num(self) -> tuple:
        s = self._c / self._q[-1]
        return tuple(s * x for x in self._p)

    @property
    def den(self) -> tuple:
        lead = self._q[-1]
        return tuple(Fraction(x, lead) for x in self._q)

    @classmethod
    def from_rational(cls, value) -> "DeltaRationalFunction":
        c = Fraction(value)
        return cls._new(c, (1,) if c else (), (1,))

    @staticmethod
    def _coerce(value):
        if isinstance(value, DeltaRationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return DeltaRationalFunction.from_rational(value)
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._p

    def is_rational(self) -> bool:
        return self._q == (1,) and len(self._p) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a constant rational")
        return self._c

    def is_polynomial(self) -> bool:
        return self._q == (1,)

    def has_nonnegative_coefficients(self) -> bool:
        """True for polynomials all of whose coefficients are >= 0."""
        return self._q == (1,) and all(self._c * x >= 0 for x in self._p)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        na, da = self._c.as_integer_ratio()
        nb, db = o._c.as_integer_ratio()
        return DeltaRationalFunction._of_integers(
            _row_sum(_poly_times(self._p, o._q), na * db,
                     _poly_times(o._p, self._q), nb * da),
            da * db, tuple(_poly_times(self._q, o._q)))

    __radd__ = __add__

    def __neg__(self):
        return DeltaRationalFunction._new(-self._c, self._p, self._q)

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
        na, da = self._c.as_integer_ratio()
        nb, db = o._c.as_integer_ratio()
        return DeltaRationalFunction._of_integers(
            [na * nb * x for x in _poly_times(self._p, o._p)],
            da * db, tuple(_poly_times(self._q, o._q)))

    __rmul__ = __mul__

    def _inverse(self):
        if not self._p:
            raise ZeroDivisionError("division by the zero rational function")
        return DeltaRationalFunction._new(1 / self._c, self._q, self._p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self._inverse() if exponent < 0 else self
        out = DeltaRationalFunction.from_rational(_ONE)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c and self._p == o._p and self._q == o._q

    def __hash__(self):
        if self.is_rational():
            return hash(self._c)
        return hash((self._c, self._p, self._q))

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation ---------------------------------------------------------

    def limit_at_zero(self) -> Fraction:
        """Value at delta = 0; raises PoleAtZero when the denominator dies.

        Canonical form has coprime numerator and denominator, so a vanishing
        denominator at 0 is a genuine pole, never a removable 0/0.
        """
        q0 = self._q[0]
        if q0 == 0:
            raise PoleAtZero(f"{self} has a pole at delta = 0")
        return self._c * self._p[0] / q0 if self._p else _ZERO

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        d = poly_eval(self._q, x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at delta = {x}")
        return self._c * poly_eval(self._p, x) / d

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
