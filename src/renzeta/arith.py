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

The canonical form is reached with as little gcd work as possible.
``poly_gcd`` runs Euclid on integer primitive parts (pseudo-remainders, each
made primitive again) and returns the unique monic gcd; a constant operand
gives 1 at once.  Known factors are divided out over the integers: by Gauss's
lemma the primitive form of a factor divides that of its multiple over Z,
and an inexact step raises instead of truncating.  The operators start from
canonical operands and cancel before multiplying, as ``fractions.Fraction``
does (Henrici's method), so their results need no full reduction:

- a product divides out g1 = gcd(n_a, d_b) and g2 = gcd(n_b, d_a); what is
  left of each numerator is coprime to both denominators;
- a sum with g = gcd(d_a, d_b) forms n = n_a (d_b/g) + n_b (d_a/g) over
  d_a (d_b/g): a prime of d_a/g divides n_b (d_a/g) but neither n_a nor
  d_b/g, so only the primes of g can divide n, and dividing out gcd(n, g)
  leaves a coprime pair (for g = 1 the cross-multiplied pair is coprime);
- negation, the swap of a negative power and powers of a coprime pair stay
  coprime.

A gcd whose operand is a constant is skipped, and quotients of monic
polynomials by monic ones are monic, so the operators only check that the
denominator is monic.  Every polynomial gcd goes through ``poly_gcd``.

Products of Fraction sequences, the Q series windows and the Q(delta) and
Q[T] polynomials alike, bring each factor over one common denominator and
convolve the integer numerators in ``_convolve_integers``, the package's one
integer multiply-add loop.  The integer windows of the regularized
expansion (``mzv``) run on the same loop: over Q it convolves their
numerator sequences, over Q(delta) it multiplies their delta-polynomial
numerators pairwise and lifts them by powers of their factors.

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


def _over_common_denominator(a) -> tuple:
    """(den, nums): the Fractions of a as integer numerators over their
    least common denominator, FLINT's ``fmpq_poly`` layout."""
    dens = [c.denominator for c in a]
    den = math.lcm(*dens)
    return den, [c.numerator * (den // d) for c, d in zip(a, dens)]


def _convolve_integers(a, b, n: int) -> list:
    """First n coefficients of the product of two integer lists.

    The one integer multiply-add loop: the Fraction products below and the
    integer windows of the regularized expansion (``mzv``) both run on it.
    """
    acc = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for k, y in enumerate(b[:n - i], i):
                acc[k] += x * y
    return acc


def _convolve_fractions(a, b, n: int) -> list:
    """First n coefficients of the product of two Fraction tuples.

    Each factor is brought over one common denominator, the integer
    numerators are convolved by ``_convolve_integers``, and one
    ``Fraction`` is built per output coefficient, as FLINT's ``fmpq_poly``
    does (https://flintlib.org).  A ``Fraction`` is stored reduced, so
    every coefficient, and so every printed byte, equals the one the
    Fraction-by-Fraction sum gives.
    """
    da, ia = _over_common_denominator(a[:n])
    db, ib = _over_common_denominator(b[:n])
    d = da * db
    return [Fraction(v, d) if v else _ZERO
            for v in _convolve_integers(ia, ib, n)]


def poly_mul(a: tuple, b: tuple) -> tuple:
    return poly_trim(_convolve_fractions(a, b, len(a) + len(b) - 1))


def poly_monic(a: tuple) -> tuple:
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def _integer_form(a: tuple) -> tuple:
    """(numerator, denominator, primitive) with a = numerator/denominator *
    primitive: one lcm of the denominators, one gcd content, and an integer
    list of content one.  a must be nonzero."""
    den, ints = _over_common_denominator(a)
    content = math.gcd(*ints)
    return content, den, [x // content for x in ints]


def _primitive_remainder(a: list, b: list) -> list:
    """Primitive part of the pseudo-remainder of integer lists a by b,
    len(a) >= len(b) > 1; each step scales the running remainder by the
    cofactor of its leading term only."""
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
    if r:
        content = math.gcd(*r)
        if content != 1:
            r = [x // content for x in r]
    return r


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd; gcd((), ()) = () and a nonzero constant gives (1,).

    Euclid runs on the integer primitive parts with pseudo-remainders, each
    remainder made primitive again; the monic gcd is unique, so it equals
    the one Euclid over Fraction coefficients gives.
    """
    if not a or not b:
        return poly_monic(a or b)
    if len(a) == 1 or len(b) == 1:
        return (_ONE,)
    a, b = _integer_form(a)[2], _integer_form(b)[2]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive_remainder(a, b)
    if b:
        return (_ONE,)
    lead = a[-1]
    return tuple(Fraction(c, lead) for c in a)


def _exact_quotient(a: tuple, g: tuple) -> tuple:
    """a / g for a monic g known to divide a nonzero a.

    By Gauss's lemma the primitive integer form of g divides that of a over
    Z, so the long division runs over ints; a step that does not divide
    exactly raises ArithmeticError instead of truncating.
    """
    if len(g) == 1:
        return a
    num, den, ia = _integer_form(a)
    _, _, ig = _integer_form(g)
    lead, ng = ig[-1], len(ig)
    quo = [0] * (len(ia) - ng + 1)
    for i in range(len(quo) - 1, -1, -1):
        q, r = divmod(ia[i + ng - 1], lead)
        if r:
            raise ArithmeticError("polynomial quotient is not exact")
        quo[i] = q
        if q:
            for j, y in enumerate(ig):
                ia[i + j] -= q * y
    if any(ia[:ng - 1]):
        raise ArithmeticError("polynomial quotient is not exact")
    # g = ig / lead, so a / g = num/den * lead * quo
    num *= lead
    return tuple(Fraction(q * num, den) if q else _ZERO for q in quo)


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

def _gcd_unless_constant(a: tuple, b: tuple) -> tuple:
    """poly_gcd of two nonzero polynomials, skipped when one is constant."""
    if len(a) == 1 or len(b) == 1:
        return (_ONE,)
    return poly_gcd(a, b)


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
            d = (_ONE,)
        elif len(n) > 1 and len(d) > 1:
            g = poly_gcd(n, d)
            n, d = _exact_quotient(n, g), _exact_quotient(d, g)
        self._set(n, d)

    def _set(self, n, d):
        lead = d[-1]
        if lead != 1:
            n = tuple(c / lead for c in n)
            d = tuple(c / lead for c in d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @classmethod
    def _reduced(cls, n, d):
        """The value n/d of a coprime pair: only the denominator is made
        monic."""
        out = object.__new__(cls)
        out._set(n, d)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DeltaRationalFunction is immutable")

    def __reduce__(self):
        return DeltaRationalFunction, (self.num, self.den)

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
        if not o.num:
            return self
        if not self.num:
            return o
        da, db = self.den, o.den
        g = _gcd_unless_constant(da, db)
        if len(g) == 1:
            # coprime denominators: no factor of da*db divides the sum
            return DeltaRationalFunction._reduced(
                poly_add(poly_mul(self.num, db), poly_mul(o.num, da)),
                poly_mul(da, db))
        ca, cb = _exact_quotient(da, g), _exact_quotient(db, g)
        n = poly_add(poly_mul(self.num, cb), poly_mul(o.num, ca))
        if not n:
            return DeltaRationalFunction(())
        # the factors of ca and cb cannot divide n; only those of g can
        h = _gcd_unless_constant(n, g)
        return DeltaRationalFunction._reduced(
            _exact_quotient(n, h), poly_mul(_exact_quotient(da, h), cb))

    __radd__ = __add__

    def __neg__(self):
        return DeltaRationalFunction._reduced(poly_neg(self.num), self.den)

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
        # cancel across before multiplying (module docstring)
        if not self.num or not o.num:
            return DeltaRationalFunction(())
        g1 = _gcd_unless_constant(self.num, o.den)
        g2 = _gcd_unless_constant(o.num, self.den)
        return DeltaRationalFunction._reduced(
            poly_mul(_exact_quotient(self.num, g1),
                     _exact_quotient(o.num, g2)),
            poly_mul(_exact_quotient(self.den, g2),
                     _exact_quotient(o.den, g1)))

    __rmul__ = __mul__

    def _inverse(self):
        if not self.num:
            raise ZeroDivisionError("division by the zero rational function")
        return DeltaRationalFunction._reduced(self.den, self.num)

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
        if exponent < 0 and not self.num:
            raise ZeroDivisionError("zero has no negative power")
        base = self._inverse() if exponent < 0 else self
        # powers of a coprime pair stay coprime
        num, den = (_ONE,), (_ONE,)
        for _ in range(abs(exponent)):
            num, den = poly_mul(num, base.num), poly_mul(den, base.den)
        return DeltaRationalFunction._reduced(num, den)

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
