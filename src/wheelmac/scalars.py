"""Exact coefficient arithmetic.

Four layers, each one a field:

  * plain rationals (``fractions.Fraction``),
  * cyclotomic numbers ``CycloNum`` -- elements of Q(zeta_N) in the power
    basis modulo the N-th cyclotomic polynomial,
  * ``UniRatFunc`` -- rational functions in one variable u over Q(zeta_N),
  * ``BiRatFunc`` -- rational functions in (q, t) over Q.

``UniRatFunc`` and ``BiRatFunc`` share one core, ``_RatFunc``: it keeps
num/den coprime with denominator leading coefficient 1 and implements
+, -, *, inverse, == and hash once, against five methods that ``UniPoly``
and ``QTPoly`` both provide: ``is_one``, ``leading``, ``scale``, ``gcd``
(normalized, so a trivial gcd is_one) and ``divexact``.  Products after
the cross-cancel and inverses are coprime by construction and skip the
gcd.  ``CycloNum`` and ``_RatFunc`` take right subtraction, division and
powers from ``_Field``, and every power is one square-and-multiply,
``_power``.

Exact scalars take ints and Fractions only: ``_exact`` turns an integral
Fraction into an int and raises TypeError on a float (or any other type),
so no binary expansion enters a value.  ``QTPoly`` stores what ``_exact``
returns, so its coefficients are Python ints unless they are not
integral, and every division of a coefficient stays exact.  Over Q
(phi(N) = 1) ``UniPoly`` is stored in Z[u], as ints over one denominator,
and all its arithmetic runs on plain ints.  A division that leaves a
remainder raises ExactDivisionError.

Every gcd is one design.  Where the coefficients are integers the
heuristic gcd of Char, Geddes and Gonnet runs first (``_heu_gcd`` on the
whole (Z[t])[q] rows of ``qt_gcd``, ``_heu_gcd_univariate`` for
``UniPoly`` over Q), certified by exact division; the one fallback is the
primitive PRS ``_prs``, with a primitive step per lane: the integer
content in Z[u], the leading entry over Q(zeta_N) (Euclid with monic
remainders), the monic gcd of the entries in (Q[t])[q].

On top of these sits ``ParameterSpec``, the resonant specialization
t = u^((r-1)/m), q = omega1 * u^(-(k+1)/m) with m = gcd(k+1, r-1), which
maps BiRatFunc values into UniRatFunc values and decides which exponent
pairs (a, b) satisfy q^a t^b = 1.

All values are immutable and all operations are pure functions, so
everything here is safe to share between threads.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = [
    "CycloNum", "UniPoly", "UniRatFunc", "LaurentPoly", "QTPoly", "BiRatFunc",
    "ParameterSpec", "MixedFieldError", "PoleError", "ExactDivisionError",
    "cyclotomic_polynomial", "euler_phi",
    "qt_gcd", "qt_divexact", "render_scalar",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MixedFieldError(TypeError):
    """Raised when two operands live in different concrete fields."""


class PoleError(ZeroDivisionError):
    """Raised when a denominator vanishes identically under specialization."""


class ExactDivisionError(ArithmeticError):
    """An exact division left a remainder: an implementation bug."""


def _exact(v):
    """An exact rational in its stored form: an int, or a Fraction only
    when it is not integral.  Floats and every other type raise TypeError,
    so no binary expansion ever enters an exact scalar."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError("exact scalars take an int or a Fraction, not %s"
                    % type(v).__name__)


def euler_phi(n):
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _power(x, e, one):
    """x^e for an integer e >= 0 by square-and-multiply; one is x^0."""
    if e < 0:
        raise ValueError("negative exponent %d for a polynomial" % e)
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return one if result is None else result


class _Field:
    """Subtraction from the right, division and integer powers, written
    against the field's own +, -, *, inverse and _coerce (which maps an
    int or Fraction into the field, and other values to None)."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        return _power(base, abs(e), self._coerce(1))


_CYCLO_CACHE = {}


def cyclotomic_polynomial(n):
    """Coefficients (ascending, ints) of the n-th cyclotomic polynomial.

    Computed by exact integer division of x^n - 1 by the lower-order
    cyclotomic factors.
    """
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n == 1:
        poly = (-1, 1)
    else:
        poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
        for d in range(1, n):
            if n % d == 0:
                poly = _iz_divexact(poly, cyclotomic_polynomial(d))
        poly = tuple(poly)
    _CYCLO_CACHE[n] = poly
    return poly


class _CycloField:
    """Per-order tables: phi(N) and ``powers``, the power-basis rows of
    zeta^e for 0 <= e < max(N, 2 phi - 1): every power up to N-1, and the
    rows up to 2 phi - 2 that reduce any product."""

    def __init__(self, N):
        self.N = N
        poly = cyclotomic_polynomial(N)
        self.phi = phi = len(poly) - 1
        # each row is zeta times the one before, reduced by
        # zeta^phi = -(a_0 + a_1 zeta + ... + a_{phi-1} zeta^{phi-1})
        base = tuple(Fraction(-c) for c in poly[:phi])
        row = (_ONE,) + (_ZERO,) * (phi - 1)
        rows = [row]
        for _ in range(1, max(N, 2 * phi - 1)):
            top = row[-1]
            row = (_ZERO,) + row[:-1]
            if top:
                row = tuple(s + top * b for s, b in zip(row, base))
            rows.append(row)
        self.powers = rows

    _cache = {}

    @classmethod
    def get(cls, N):
        fld = cls._cache.get(N)
        if fld is None:
            fld = cls._cache[N] = cls(N)
        return fld


class CycloNum(_Field):
    """An element of Q(zeta_N), stored in the power basis mod Phi_N."""

    __slots__ = ("N", "c")

    def __init__(self, N, coeffs):
        fld = _CycloField.get(N)
        coeffs = tuple(coeffs)
        if len(coeffs) != fld.phi:
            raise ValueError("need exactly phi(N)=%d coefficients" % fld.phi)
        self.N = N
        self.c = coeffs

    @classmethod
    def from_rational(cls, N, value):
        fld = _CycloField.get(N)
        if type(value) is not Fraction:
            value = Fraction(_exact(value))
        return cls(N, [value] + [_ZERO] * (fld.phi - 1))

    @classmethod
    def zero(cls, N):
        return cls.from_rational(N, 0)

    @classmethod
    def one(cls, N):
        return cls.from_rational(N, 1)

    @classmethod
    def zeta(cls, N, power=1):
        """zeta_N^power as a field element."""
        return cls(N, _CycloField.get(N).powers[power % N])

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.N != self.N:
                raise MixedFieldError(
                    "cyclotomic orders differ: %d vs %d" % (self.N, other.N))
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.N, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.N, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.N, tuple(a - b for a, b in zip(self.c, o.c)))

    def __neg__(self):
        return CycloNum(self.N, tuple(-a for a in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        phi = len(a)
        if phi == 1:
            return CycloNum(self.N, (a[0] * b[0],))
        prod = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        rows = _CycloField.get(self.N).powers
        out = prod[:phi]
        for j in range(phi, 2 * phi - 1):
            cj = prod[j]
            if cj:
                row = rows[j]
                for i in range(phi):
                    if row[i]:
                        out[i] += cj * row[i]
        return CycloNum(self.N, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = len(self.c)
        if phi == 1:
            return CycloNum(self.N, (1 / self.c[0],))
        # x^-1 = y / (x y): y is the product of the other Galois conjugates
        # zeta -> zeta^j of x, so x y is the norm of x, a rational
        N, rows = self.N, _CycloField.get(self.N).powers
        y = None
        for j in range(2, N):
            if gcd(j, N) == 1:
                conj = [_ZERO] * phi
                for i, c in enumerate(self.c):
                    if c:
                        for m, v in enumerate(rows[i * j % N]):
                            if v:
                                conj[m] += c * v
                conj = CycloNum(N, conj)
                y = conj if y is None else y * conj
        norm = self * y
        if not norm.is_rational():
            raise ExactDivisionError("norm of %r is not rational" % (self,))
        return CycloNum(N, [v / norm.c[0] for v in y.c])

    def is_zero(self):
        return not any(self.c)

    def __bool__(self):
        return any(self.c)

    def is_rational(self):
        return not any(self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("%r is not rational" % (self,))
        return self.c[0]

    def multiplicative_order(self, bound=None):
        """Smallest e >= 1 with self^e = 1, or None up to the bound."""
        if bound is None:
            bound = 4 * self.N
        acc = self
        one = CycloNum.one(self.N)
        for e in range(1, bound + 1):
            if acc == one:
                return e
            acc = acc * self
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash((self.N, self.c))

    def __repr__(self):
        return "CycloNum(%d, %s)" % (self.N, render_scalar(self))


class UniPoly:
    """Polynomial in u over Q(zeta_N), stored as c / den: c ascending with
    trailing zeros trimmed.  Over Q (phi(N) = 1, N <= 2) c holds Python ints
    and den is a positive int coprime to their content, a canonical Z[u]
    form that all arithmetic works on; otherwise c holds CycloNums and den
    is 1.  ``coeffs`` gives Fractions over Q, CycloNums otherwise.
    """

    __slots__ = ("N", "c", "den")

    def __init__(self, N, coeffs):
        """coeffs: CycloNums or rationals, ascending; converted once."""
        den = 1
        if N <= 2:
            fr = [c.c[0] if isinstance(c, CycloNum) else _exact(c)
                  for c in coeffs]
            den = lcm(*[v.denominator for v in fr])
            c = [v.numerator * (den // v.denominator) for v in fr]
        else:
            c = [x if isinstance(x, CycloNum) else CycloNum.from_rational(N, x)
                 for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.N, self.c, self.den = N, tuple(c), den

    @classmethod
    def const(cls, N, value):
        return cls(N, [value])

    @classmethod
    def zero(cls, N):
        return _unipoly(N, (), 1)

    @classmethod
    def one(cls, N):
        return cls.const(N, 1)

    @classmethod
    def u_power(cls, N, e):
        return cls.one(N).shift(e)

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def degree(self):
        return len(self.c) - 1  # -1 for the zero polynomial

    def coeffs(self):
        """The coefficients, ascending: Fractions over Q, else CycloNums."""
        if self.N <= 2:
            return tuple(Fraction(x, self.den) for x in self.c)
        return self.c

    def is_one(self):
        if len(self.c) != 1 or self.den != 1:
            return False
        c = self.c[0]
        return c == 1 if type(c) is int else c.c[0] == 1 and not any(c.c[1:])

    def leading(self):
        """The leading coefficient: a Fraction over Q, else a CycloNum."""
        return Fraction(self.c[-1], self.den) if self.N <= 2 else self.c[-1]

    def trailing_order(self):
        """Multiplicity of the root u = 0."""
        for i, ci in enumerate(self.c):
            if ci:
                return i
        return None

    def __add__(self, other):
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        a, b, den = self.c, other.c, self.den
        if not b:
            return self
        if not a:
            return other
        if den != other.den:
            den = lcm(den, other.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // other.den) for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = out[i] + x
        return _zpoly(self.N, out, den) if self.N <= 2 else UniPoly(self.N, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _unipoly(self.N, tuple(-x for x in self.c), self.den)

    def __mul__(self, other):
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not self.c or not other.c:
            return UniPoly.zero(self.N)
        out = _iz_mul(self.c, other.c)  # ring-generic: CycloNums too
        if self.N <= 2:
            return _zpoly(self.N, out, self.den * other.den)
        return UniPoly(self.N, out)

    def scale(self, s):
        """Multiply by a rational, or by a CycloNum of the same field."""
        if self.N > 2:
            return UniPoly(self.N, [a * s for a in self.c])
        s = s.c[0] if isinstance(s, CycloNum) else _exact(s)
        n, d = s.as_integer_ratio()
        return _zpoly(self.N, [x * n for x in self.c], self.den * d)

    def shift(self, e):
        """Multiply by u^e."""
        if not self.c or e == 0:
            return self
        zero = 0 if self.N <= 2 else CycloNum.zero(self.N)
        return _unipoly(self.N, (zero,) * e + self.c, self.den)

    def divexact(self, other):
        """self / other; ExactDivisionError if the division leaves a remainder.

        Over Q the divisor is made primitive: by Gauss's lemma an exact
        quotient of an integer polynomial by a primitive one lies in Z[u],
        so the Z[u] long division raises on any remainder."""
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        if self.N <= 2:
            cb = _iz_content(other.c)
            quot = _iz_divexact(self.c, [x // cb for x in other.c])
            return _zpoly(self.N, [x * other.den for x in quot], self.den * cb)
        num, b, db = list(self.c), other.c, other.degree()
        inv = b[-1].inverse()
        quot = [0] * max(len(num) - db, 0)
        for i in range(len(num) - 1, db - 1, -1):
            if num[i]:
                q = quot[i - db] = num[i] * inv
                for j in range(db + 1):
                    num[i - db + j] -= q * b[j]
        if any(num):
            raise ExactDivisionError("inexact univariate division")
        return UniPoly(self.N, quot)

    def monic(self):
        if not self.c or self.leading() == 1:
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other):
        """Monic gcd, a shared power of u split off first.  Over Q the
        heuristic ``_heu_gcd_univariate`` runs on the Z[u] forms and its
        answer is kept if it divides both; otherwise, and over Q(zeta_N),
        the primitive PRS ``_prs`` decides."""
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not self.c or not other.c:
            return (self or other).monic()
        shared = min(self.trailing_order(), other.trailing_order())
        a, b = self.c[shared:], other.c[shared:]
        if len(a) == 1 or len(b) == 1:
            return UniPoly.one(self.N).shift(shared)
        if self.N <= 2:
            g = _heu_gcd_univariate(a, b)
            if g is None or not (_iz_divides(a, g) and _iz_divides(b, g)):
                g = _prs(a, b, _iz_primitive)
        else:
            g = _prs(a, b, _monic_row)
        return _unipoly(self.N, tuple(g), 1).monic().shift(shared)

    def evaluate(self, x):
        """Horner evaluation at a CycloNum or rational point, as a CycloNum;
        over Q one integer Horner over the stored Z[u] form."""
        if not self.c:
            return CycloNum.zero(self.N)
        if self.N > 2:
            if not isinstance(x, CycloNum):
                x = CycloNum.from_rational(self.N, x)
            return _iz_eval(self.c, x)  # ring-generic: CycloNums too
        x = x.c[0] if isinstance(x, CycloNum) else _exact(x)
        xn, xd = x.as_integer_ratio()
        acc, pw = 0, 1
        for c in reversed(self.c):
            acc = acc * xn + c * pw
            pw *= xd
        return CycloNum(self.N, (Fraction(acc, self.den * pw // xd),))

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.N == other.N
                and self.c == other.c and self.den == other.den)

    def __hash__(self):
        return hash((self.N, self.c, self.den))

    def __repr__(self):
        return "UniPoly(%d, %s)" % (self.N, render_scalar(self))


def _unipoly(N, c, den):
    """A UniPoly from a stored form that is canonical already."""
    p = object.__new__(UniPoly)
    p.N, p.c, p.den = N, c, den
    return p


def _zpoly(N, ints, den=1):
    """The UniPoly ints/den over Q for an int den > 0, made canonical: the
    list ints trimmed, both divided by the gcd of den and their content."""
    while ints and not ints[-1]:
        ints.pop()
    if den != 1:
        g = den
        for x in ints:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            ints, den = [x // g for x in ints], den // g
    return _unipoly(N, tuple(ints), den)


class LaurentPoly:
    """Sparse Laurent polynomial in u over Q(zeta_N): {exponent: coeff}.

    The operator kernels run over this ring when everything has been
    cleared of denominators: multiplication by q brings in negative
    u-exponents, and staying Laurent avoids all gcd work.  When the
    cyclotomic field is just Q (phi(N) = 1, i.e. N <= 2) coefficients are
    stored as plain Fractions, which is what makes this the fast lane.
    """

    __slots__ = ("N", "d")

    def __init__(self, N, d=None, _clean=False):
        if not _clean:
            d = {e: _cyclo_slim(N, c) for e, c in (d or {}).items() if c}
        self.N = N
        self.d = d or {}

    @classmethod
    def monomial(cls, N, e, coeff=None):
        if coeff is None:
            coeff = _ONE if _CycloField.get(N).phi == 1 else CycloNum.one(N)
        else:
            coeff = _cyclo_slim(N, coeff)
        if not coeff:
            return cls(N, {}, _clean=True)
        return cls(N, {e: coeff}, _clean=True)

    @classmethod
    def const(cls, N, value):
        return cls.monomial(N, 0, value)

    @classmethod
    def zero(cls, N):
        return cls(N, {}, _clean=True)

    @classmethod
    def one(cls, N):
        return cls.monomial(N, 0)

    @classmethod
    def from_unipoly(cls, poly, shift=0):
        return cls(poly.N, {e + shift: c for e, c in enumerate(poly.coeffs())
                            if c}, _clean=True)

    def to_unirat(self):
        return UniRatFunc.from_laurent(self.N, self.d)

    def is_zero(self):
        return not self.d

    def __bool__(self):
        return bool(self.d)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.N != self.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not self.d:
            return other
        if not other.d:
            return self
        out = dict(self.d)
        for e, c in other.d.items():
            w = out.get(e)
            w = c if w is None else w + c
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return LaurentPoly(self.N, out, _clean=True)

    def __neg__(self):
        return LaurentPoly(self.N, {e: -c for e, c in self.d.items()},
                           _clean=True)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.N)
            other = LaurentPoly.const(self.N, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.N != self.N:
            raise MixedFieldError("mixed cyclotomic orders")
        a, b = self.d, other.d
        if not a or not b:
            return LaurentPoly.zero(self.N)
        if len(a) == 1 and len(b) > 1:
            a, b = b, a
        if len(b) == 1:
            (eb, cb), = b.items()
            if cb == 1:  # a unit monomial only shifts the exponents
                return LaurentPoly(self.N, {ea + eb: ca for ea, ca in a.items()},
                                   _clean=True)
            return LaurentPoly(self.N, {ea + eb: ca * cb
                                        for ea, ca in a.items()}, _clean=True)
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                w = out.get(e)
                w = ca * cb if w is None else w + ca * cb
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return LaurentPoly(self.N, out, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, e):
        if len(self.d) == 1:
            (ea, ca), = self.d.items()
            return LaurentPoly(self.N, {ea * e: ca ** e}, _clean=True)
        return _power(self, e, LaurentPoly.one(self.N))

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.N == other.N
                and self.d == other.d)

    def __repr__(self):
        return "LaurentPoly(%d, %s)" % (self.N, render_scalar(self.to_unirat()))


def _cyclo_slim(N, c):
    """A Laurent coefficient: over Q (phi(N) = 1) a Fraction, the CycloNum
    wrapper dropped; a CycloNum otherwise.  Rationals pass ``_exact``."""
    if _CycloField.get(N).phi == 1:
        return c.c[0] if isinstance(c, CycloNum) else Fraction(_exact(c))
    return c if isinstance(c, CycloNum) else CycloNum.from_rational(N, c)


def _cancel(a, b):
    """a and b divided by their gcd."""
    g = a.gcd(b)
    if g.is_one():
        return a, b
    return a.divexact(g), b.divexact(g)


class _RatFunc(_Field):
    """num/den over a polynomial ring; canonical: num and den coprime and
    the leading coefficient of den equal to 1.

    The arithmetic is written once against the polynomial interface that
    UniPoly and QTPoly share: is_zero, is_one, leading, scale(c), gcd
    (normalized, so a trivial gcd is_one) and divexact.  A subclass adds
    its constructors, _coerce and _poly_one(num), the ring's 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False, _coprime=False):
        """_canonical: num/den is already canonical.  _coprime: num and den
        are coprime by construction, so only the denominator's leading
        coefficient is normalized."""
        if den is None:
            den = self._poly_one(num)
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if num.is_zero():
                den = self._poly_one(num)
            elif not den.is_one():
                if not _coprime:
                    num, den = _cancel(num, den)
                lc = den.leading()
                if lc != 1:
                    inv = Fraction(1) / lc
                    num = num.scale(inv)
                    den = den.scale(inv)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return o
        if o.num.is_zero():
            return self
        a, b = self.den, o.den
        if a.is_one() and b.is_one():
            return type(self)(self.num + o.num, a, _canonical=True)
        if a == b:
            return type(self)(self.num + o.num, a)
        g = a.gcd(b)
        if g.is_one():
            # a prime of a dividing n1 b + n2 a would divide n1 b: coprime
            return type(self)(self.num * b + o.num * a, a * b, _coprime=True)
        da = a.divexact(g)
        db = b.divexact(g)
        return type(self)(self.num * db + o.num * da, da * b)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return self
        if o.num.is_zero():
            return o
        if self.den.is_one() and o.den.is_one():
            return type(self)(self.num * o.num, self.den, _canonical=True)
        # cross-cancel before multiplying; n1 n2 and d1 d2 are then coprime
        n1, d2 = _cancel(self.num, o.den)
        n2, d1 = _cancel(o.num, self.den)
        return type(self)(n1 * n2, d1 * d2, _coprime=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return type(self)(self.den, self.num, _coprime=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))


class UniRatFunc(_RatFunc):
    """num/den in Q(zeta_N)(u); canonical: coprime, monic denominator."""

    __slots__ = ()

    @staticmethod
    def _poly_one(num):
        return UniPoly.one(num.N)

    @property
    def N(self):
        return self.num.N

    @classmethod
    def const(cls, N, value):
        return cls(UniPoly.const(N, value), _canonical=True)

    @classmethod
    def zero(cls, N):
        return cls.const(N, 0)

    @classmethod
    def one(cls, N):
        return cls.const(N, 1)

    @classmethod
    def u(cls, N):
        return cls(UniPoly.u_power(N, 1), _canonical=True)

    @classmethod
    def from_laurent(cls, N, terms):
        """Build from a {u-exponent: nonzero coefficient} map, exponents
        possibly < 0; canonical as built (u does not divide the numerator)."""
        if not terms:
            return cls.zero(N)
        shift = max(0, -min(terms))
        coeffs = [0] * (max(terms) + shift + 1)
        for e, c in terms.items():
            coeffs[e + shift] = c
        return cls(UniPoly(N, coeffs), UniPoly.u_power(N, shift),
                   _canonical=True)

    def is_one(self):
        return self.den.is_one() and self.num.is_one()

    def _coerce(self, other):
        if isinstance(other, (UniRatFunc, CycloNum)):
            if other.N != self.N:
                raise MixedFieldError("mixed cyclotomic orders")
            if isinstance(other, UniRatFunc):
                return other
            return UniRatFunc(UniPoly.const(self.N, other), _canonical=True)
        if isinstance(other, (int, Fraction)):
            return UniRatFunc.const(self.N, other)
        return None

    def evaluate(self, x):
        den = self.den.evaluate(x)
        if den.is_zero():
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.evaluate(x) / den

    def __repr__(self):
        return "UniRatFunc(%d, %s)" % (self.N, render_scalar(self))


# ---------------------------------------------------------------------------
# bivariate layer: sparse polynomials and rational functions in (q, t)
# ---------------------------------------------------------------------------

class QTPoly:
    """Sparse polynomial in (q, t) over Q: {(q_exp, t_exp): coefficient}.

    Every coefficient is stored as ``_exact`` returns it: an int, or a
    Fraction only when it is not integral.
    """

    __slots__ = ("d",)

    def __init__(self, d=None, _clean=False):
        if d is None:
            d = {}
        if not _clean:
            if any(qe < 0 or te < 0 for qe, te in d):
                raise ValueError("QTPoly exponents must be >= 0")
            exact = ((k, _exact(v)) for k, v in d.items())
            d = {k: v for k, v in exact if v}
        self.d = d

    @classmethod
    def term(cls, coeff, qe=0, te=0):
        if qe < 0 or te < 0:
            raise ValueError("QTPoly exponents must be >= 0")
        coeff = _exact(coeff)
        return cls({(qe, te): coeff} if coeff else {}, _clean=True)

    @classmethod
    def zero(cls):
        return cls({}, _clean=True)

    @classmethod
    def one(cls):
        return cls.term(1)

    @classmethod
    def q(cls):
        return cls.term(1, 1, 0)

    @classmethod
    def t(cls):
        return cls.term(1, 0, 1)

    def is_zero(self):
        return not self.d

    def __bool__(self):
        return bool(self.d)

    def is_one(self):
        return self.d == {(0, 0): 1}

    def is_constant(self):
        return not self.d or self.d.keys() == {(0, 0)}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QTPoly.term(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        if not self.d:
            return other
        if not other.d:
            return self
        out = dict(self.d)
        for k, v in other.d.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w = w + v
                if not w:
                    del out[k]
                elif type(w) is int:
                    out[k] = w
                else:
                    out[k] = _exact(w)
        return QTPoly(out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return QTPoly({k: -v for k, v in self.d.items()}, _clean=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QTPoly.term(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return QTPoly.zero()
            return self.scale(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        if not self.d or not other.d:
            return QTPoly.zero()
        a, b = self.d, other.d
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for (qa, ta), va in a.items():
            for (qb, tb), vb in b.items():
                k = (qa + qb, ta + tb)
                w = out.get(k)
                if w is None:
                    out[k] = va * vb
                else:
                    w = w + va * vb
                    if w:
                        out[k] = w
                    else:
                        del out[k]
        if not (_all_int(a) and _all_int(b)):
            for k, w in out.items():
                if type(w) is not int:
                    out[k] = _exact(w)
        return QTPoly(out, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, e):
        return _power(self, e, QTPoly.one())

    def leading_key(self):
        """Largest monomial in graded lexicographic order with q > t."""
        return max(self.d, key=_grlex)

    def leading(self):
        return self.d[self.leading_key()]

    def scale(self, c):
        """Multiply by a nonzero rational."""
        c = _exact(c)
        if type(c) is int and _all_int(self.d):
            return QTPoly({k: v * c for k, v in self.d.items()}, _clean=True)
        return QTPoly({k: _exact(v * c) for k, v in self.d.items()},
                      _clean=True)

    def gcd(self, other):
        return qt_gcd(self, other)

    def divexact(self, other):
        return qt_divexact(self, other)

    def substitute(self, q_val, t_val, one):
        """Evaluate at (q_val, t_val), one being the ring's 1.  A rational
        point (ints or Fractions, one == Fraction(1)) takes one integer sum
        over qd^A td^B L, A and B the top exponents and L the lcm of the
        coefficient denominators; other ring elements sum in the ring."""
        d = self.d
        if (d and type(one) is Fraction and one == 1
                and isinstance(q_val, (int, Fraction))
                and isinstance(t_val, (int, Fraction))):
            (qn, qd), (tn, td) = (q_val.as_integer_ratio(),
                                  t_val.as_integer_ratio())
            A, B = max([a for a, _ in d]), max([b for _, b in d])
            qw = {a: qn ** a * qd ** (A - a) for a, _ in d}
            tw = {b: tn ** b * td ** (B - b) for _, b in d}
            L = lcm(*[v.denominator for v in d.values()])
            return Fraction(sum([(v * L).numerator * qw[a] * tw[b]
                                 for (a, b), v in d.items()]),
                            qd ** A * td ** B * L)
        qpow = {a: q_val ** a for a in {a for a, _ in d}}
        tpow = {b: t_val ** b for b in {b for _, b in d}}
        acc = None
        for (a, b), v in d.items():
            term = one * v * qpow[a] * tpow[b]
            acc = term if acc is None else acc + term
        return acc if acc is not None else one * 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QTPoly.term(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        return self.d == other.d

    def __hash__(self):
        return hash(frozenset(self.d.items()))

    def __repr__(self):
        return "QTPoly(%s)" % render_scalar(self)


def _grlex(k):
    """Sort key of the graded lexicographic order with q > t."""
    return k[0] + k[1], k[0]


def _all_int(d):
    for v in d.values():
        if type(v) is not int:
            return False
    return True


def _qt_split_content(f):
    """Monomial content (min q-exp, min t-exp) and the primitive int dict.

    Returns (qmin, tmin, terms): terms has integer coefficients with gcd
    1, and f is a rational multiple of q^qmin * t^tmin * terms.
    """
    qmin = min([k[0] for k in f.d])
    tmin = min([k[1] for k in f.d])
    denlcm = 1
    for v in f.d.values():
        if type(v) is not int:
            denlcm = denlcm * v.denominator // gcd(denlcm, v.denominator)
    numgcd = 0
    terms = {}
    for (a, b), v in f.d.items():
        if type(v) is int:
            c = v * denlcm
        else:
            c = v.numerator * (denlcm // v.denominator)
        terms[(a - qmin, b - tmin)] = c
        numgcd = gcd(numgcd, c)
    if numgcd > 1:
        terms = {k: c // numgcd for k, c in terms.items()}
    return qmin, tmin, terms


def _iz_content(c):
    g = 0
    for x in c:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _iz_primitive(a):
    c = _iz_content(a)
    if c > 1:
        a = [x // c for x in a]
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a


def _iz_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _iz_divexact(a, b):
    """Long division in Z[x] of coefficient lists; raises if inexact."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            q, r = divmod(a[i], lb)
            if r:
                raise ExactDivisionError("inexact Z[x] division")
            out[i - db] = q
            for j in range(db + 1):
                a[i - db + j] -= q * b[j]
    if any(a):
        raise ExactDivisionError("nonzero remainder in Z[x] division")
    return out


def _to_tq_rows(terms):
    """{(qexp, texp): nonzero int} -> the polynomial in (Z[t])[q] as a dense
    list of Z[t] coefficient lists indexed by q-exponent ([] for zero)."""
    rows = [[] for _ in range(max([a for a, _ in terms]) + 1)]
    for (a, b), c in terms.items():
        row = rows[a]
        if len(row) <= b:
            row.extend([0] * (b + 1 - len(row)))
        row[b] = c
    return rows


def qt_gcd(f, g):
    """gcd of two QTPolys, normalized with positive graded-lex leading coeff.

    Monomial and integer content are split off first.  On the integer
    parts the heuristic gcd ``_heu_gcd`` runs on the whole (Z[t])[q] rows,
    certified by exact division, and the primitive PRS ``_qt_prs_gcd`` is
    the fallback.  Both run in whichever variable has the smaller degree.
    """
    if f.is_zero():
        return _qt_positive(g)
    if g.is_zero():
        return _qt_positive(f)
    if len(g.d) == 1:
        f, g = g, f
    if len(f.d) == 1:
        (qf, tf), = f.d
        return QTPoly.term(1, min(qf, min([k[0] for k in g.d])),
                           min(tf, min([k[1] for k in g.d])))
    qf, tf, fterms = _qt_split_content(f)
    qg, tg, gterms = _qt_split_content(g)
    qm, tm = min(qf, qg), min(tf, tg)
    qdeg = max(max(k[0] for k in fterms), max(k[0] for k in gterms))
    tdeg = max(max(k[1] for k in fterms), max(k[1] for k in gterms))
    swap = tdeg < qdeg
    if swap:
        fterms, gterms = _qt_swap(fterms), _qt_swap(gterms)
    fr, gr = _to_tq_rows(fterms), _to_tq_rows(gterms)
    rows = _heu_gcd(fr, gr) or _qt_prs_gcd(fr, gr)
    out = {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row) if c}
    if swap:
        out = _qt_swap(out)
    return _qt_positive(QTPoly({(a + qm, b + tm): c for (a, b), c in out.items()},
                               _clean=True))


def _qt_swap(terms):
    return {(b, a): c for (a, b), c in terms.items()}


def _qt_prs_gcd(fr, gr):
    """gcd of two (Z[t])[q] row lists of integer content 1, as primitive
    int rows, by the primitive PRS over (Q[t])[q]: the rows are UniPolys
    over Q, and the gcd of the two Q[t] contents is multiplied back."""
    f = [UniPoly(1, row) for row in fr]
    g = [UniPoly(1, row) for row in gr]
    cont = _row_content(f).gcd(_row_content(g))
    h = [x * cont for x in _prs(f, g, _qt_primitive)]
    den = lcm(*[x.den for x in h])
    return _rows_primitive([[c * (den // x.den) for c in x.c] for x in h])


def _row_content(p):
    """Monic gcd of the UniPoly entries of p."""
    g = UniPoly.zero(1)
    for x in p:
        g = g.gcd(x)
        if g.is_one():
            break
    return g


def _qt_primitive(p):
    """p, with UniPoly entries, divided by their monic gcd."""
    c = _row_content(p)
    return p if c.is_one() else [x.divexact(c) for x in p]


def _monic_row(p):
    """p, with field entries, divided by its top entry."""
    inv = p[-1].inverse()
    return [x * inv for x in p]


def _prs(a, b, primitive):
    """gcd of two nonzero polynomials, ascending coefficient lists over an
    integral domain, by the primitive pseudo-remainder sequence.

    primitive(p) divides a nonzero p by the content its lane takes out;
    the gcd is primitive(last nonzero remainder), up to a unit of the lane.
    """
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # a <- lb^e a - Q b, of degree below that of b
        db, lb = len(b) - 1, b[-1]
        a = list(a)
        while len(a) > db:
            la = a.pop()
            if la:
                a = [x * lb for x in a]
                off = len(a) - db
                for j in range(db):
                    a[off + j] -= la * b[j]
        while a and not a[-1]:
            a.pop()
        a, b = b, primitive(a) if a else a
    return a


_HEU_TRIES = 6


def _heu_points(f_norm, g_norm):
    """GCDHEU's _HEU_TRIES evaluation points for inputs of these max norms.

    The first is 2 min(|f|, |g|) + 2, the bound under which the division
    check certifies the candidate; each next one is about 2.73 times the
    last, as Char, Geddes and Gonnet chose.
    """
    xi = 2 * min(f_norm, g_norm) + 2
    for _ in range(_HEU_TRIES):
        yield xi
        xi = xi * 73794 // 27011


def _heu_gcd(fr, gr):
    """gcd of two polynomials in (Z[t])[q] of integer content 1 by GCDHEU,
    or None.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989): t is evaluated at an integer xi, the gcd of the two images in
    Z[q] is found by the same method one level down, and each of its
    coefficients is read back as a polynomial in t from its symmetric
    xi-adic digits.  Every xi is at least 2 min(|f|, |g|) + 2 (max
    norms); under that bound a primitive candidate that divides both
    inputs exactly in Z[q, t] is their gcd, so the result is certified.
    None when every point of _heu_points was rejected.
    """
    for xi in _heu_points(_rows_norm(fr), _rows_norm(gr)):
        image = _heu_gcd_univariate([_iz_eval(row, xi) for row in fr],
                                    [_iz_eval(row, xi) for row in gr])
        if image is not None:
            cand = _rows_primitive([_xi_adic(c, xi) for c in image])
            if _tq_divides(fr, cand) and _tq_divides(gr, cand):
                return cand
    return None


def _heu_gcd_univariate(a, b):
    """gcd in Z[q] of two int coefficient lists by GCDHEU, or None.

    The integer contents are split off; on the primitive parts the gcd of
    their values at xi is read back as a polynomial from its symmetric
    xi-adic digits and accepted only if it divides both exactly.
    """
    a, b = _iz_trim(a), _iz_trim(b)
    if not a or not b:
        return a or b
    ca, cb = _iz_content(a), _iz_content(b)
    c = gcd(ca, cb)
    if ca > 1:
        a = [x // ca for x in a]
    if cb > 1:
        b = [x // cb for x in b]
    for xi in _heu_points(max(map(abs, a)), max(map(abs, b))):
        cand = _iz_primitive(_xi_adic(gcd(_iz_eval(a, xi), _iz_eval(b, xi)),
                                      xi))
        if _iz_divides(a, cand) and _iz_divides(b, cand):
            return [x * c for x in cand] if c > 1 else cand
    return None


def _xi_adic(g, xi):
    """Coefficient list of the polynomial whose value at xi is g, with
    every coefficient in the symmetric range (-xi/2, xi/2]."""
    out = []
    half = xi // 2
    while g:
        r = g % xi
        if r > half:
            r -= xi
        out.append(r)
        g = (g - r) // xi
    return out


def _rows_primitive(rows):
    """Int rows divided by the integer content of all their entries."""
    cont = _iz_content([c for row in rows for c in row])
    return rows if cont == 1 else [[c // cont for c in row] for row in rows]


def _rows_norm(rows):
    return max(abs(c) for row in rows for c in row)


def _iz_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _iz_divides(a, b):
    """True iff b divides a in Z[x] (a long division in ints)."""
    try:
        _iz_divexact(a, b)
    except ExactDivisionError:
        return False
    return True


def _tq_divides(a, b):
    """True iff b divides a in (Z[t])[q]; a, b dense lists of Z[t] lists.

    Long division with integer arithmetic only: each step divides the
    leading row exactly in Z[t] and subtracts.
    """
    db, lb = len(b) - 1, b[-1]
    a = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        row = _iz_trim(a[i])
        if not row:
            continue
        try:
            c = _iz_divexact(row, lb)
        except ExactDivisionError:
            return False
        for j in range(db):
            if b[j]:
                a[i - db + j] = _iz_sub(a[i - db + j], _iz_mul(c, b[j]))
    return not any(any(row) for row in a[:db])


def _iz_sub(a, b):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    else:
        a = list(a)
    for i, x in enumerate(b):
        a[i] -= x
    return a


def _iz_eval(row, x):
    acc = 0
    for c in reversed(row):
        acc = acc * x + c
    return acc


def _qt_positive(f):
    if f.is_zero():
        return f
    if f.d[f.leading_key()] < 0:
        return -f
    return f


def qt_divexact(f, g):
    """Exact division in Q[q, t] (graded-lex long division, remainder 0).

    A quotient coefficient is an int whenever the leading coefficient of g
    divides exactly, a Fraction otherwise; ExactDivisionError when g does
    not divide f.
    """
    if g.is_one():
        return f
    if f.is_zero():
        return f
    out = {}
    rem = dict(f.d)
    glk = g.leading_key()
    glc = g.d[glk]
    gq, gt = glk
    gitems = list(g.d.items())
    # every new remainder term is below the current leading one, so a heap
    # of the keys ever entered yields the leading terms in order
    heap = [(-qe - te, -qe, te) for qe, te in rem]
    heapify(heap)
    while heap:
        _, neg_qe, te = heappop(heap)
        k = (-neg_qe, te)
        v = rem.get(k)
        if v is None:
            continue
        a, b = k[0] - gq, k[1] - gt
        if a < 0 or b < 0:
            raise ExactDivisionError("inexact bivariate division")
        if type(v) is int and type(glc) is int and not v % glc:
            c = v // glc
        else:
            c = _exact(Fraction(v) / glc)
        out[(a, b)] = c
        for (q2, t2), v2 in gitems:
            kk = (a + q2, b + t2)
            w = rem.get(kk)
            if w is None:
                heappush(heap, (-kk[0] - kk[1], -kk[0], kk[1]))
                w = 0
            w = w - c * v2
            if not w:
                rem.pop(kk, None)
            elif type(w) is int:
                rem[kk] = w
            else:
                rem[kk] = _exact(w)
    return QTPoly(out, _clean=True)


class BiRatFunc(_RatFunc):
    """num/den in Q(q, t); canonical: coprime, graded-lex leading
    coefficient of the denominator 1."""

    __slots__ = ()

    @staticmethod
    def _poly_one(num):
        return QTPoly.one()

    @classmethod
    def from_poly(cls, p):
        return cls(p, _canonical=True)

    @classmethod
    def const(cls, value):
        return cls(QTPoly.term(value), _canonical=True)

    @classmethod
    def zero(cls):
        return cls.const(0)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def q(cls):
        return cls(QTPoly.q(), _canonical=True)

    @classmethod
    def t(cls):
        return cls(QTPoly.t(), _canonical=True)

    @classmethod
    def qt_monomial(cls, a, b):
        """q^a t^b for arbitrary integer exponents."""
        num = QTPoly.term(1, max(a, 0), max(b, 0))
        den = QTPoly.term(1, max(-a, 0), max(-b, 0))
        return cls(num, den, _canonical=True)

    def is_polynomial(self):
        return self.den.is_one()

    def _coerce(self, other):
        if isinstance(other, BiRatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return BiRatFunc.const(other)
        if isinstance(other, QTPoly):
            return BiRatFunc.from_poly(other)
        return None

    def __repr__(self):
        return "BiRatFunc(%s)" % render_scalar(self)


class ParameterSpec:
    """The resonant specialization t^(k+1) q^(r-1) = 1.

    Fixes omega1 = zeta_{r-1}, so a single cyclotomic field Q(zeta_{r-1})
    carries every scalar; then t = u^((r-1)/m), q = omega1 u^(-(k+1)/m)
    with m = gcd(k+1, r-1), and q^a t^b = 1 exactly when (a, b) is an
    integer multiple of ((r-1), (k+1)).
    """

    __slots__ = ("k", "r", "m", "N", "omega1", "t_exp", "q_exp",
                 "_omega_powers")

    def __init__(self, k, r):
        if k < 1:
            raise ValueError("k must be >= 1")
        if r < 2:
            raise ValueError("r must be >= 2")
        self.k = k
        self.r = r
        self.m = gcd(k + 1, r - 1)
        self.N = r - 1
        self.omega1 = CycloNum.zeta(self.N)
        self._omega_powers = [CycloNum.zeta(self.N, a) for a in range(self.N)]
        self.t_exp = (r - 1) // self.m
        self.q_exp = (k + 1) // self.m

    @classmethod
    def matching(cls, p, k, r):
        """p, or ParameterSpec(k, r) when p is None; ValueError when p was
        made for another (k, r)."""
        if p is None:
            return cls(k, r)
        if (p.k, p.r) != (k, r):
            raise ValueError("%r does not match (k=%d, r=%d)" % (p, k, r))
        return p

    @property
    def omega(self):
        return CycloNum.zeta(self.N, self.t_exp)

    def t_value(self):
        return UniRatFunc(UniPoly.u_power(self.N, self.t_exp), _canonical=True)

    def q_value(self):
        return UniRatFunc(UniPoly.const(self.N, 1).scale(self.omega1),
                          UniPoly.u_power(self.N, self.q_exp))

    def qt_laurent(self, a, b):
        """q^a t^b as (u-exponent, cyclotomic coefficient omega1^(a mod N))."""
        return b * self.t_exp - a * self.q_exp, self._omega_powers[a % self.N]

    def specialize_poly(self, f):
        """Image of a QTPoly as a {u-exponent: nonzero coefficient} Laurent
        map.  Over Q (N <= 2, omega1 = +-1) the coefficients are rationals,
        summed as ints and Fractions; otherwise they are CycloNums."""
        terms = {}
        if self.N <= 2:
            t_exp, q_exp, N = self.t_exp, self.q_exp, self.N
            for (a, b), v in f.d.items():
                e = b * t_exp - a * q_exp
                terms[e] = terms.get(e, 0) + (-v if a % N else v)
            return {e: v for e, v in terms.items() if v}
        for (a, b), v in f.d.items():
            e, c = self.qt_laurent(a, b)
            c = c * v
            w = terms.get(e)
            w = c if w is None else w + c
            if w.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = w
        return terms

    def specialize(self, x):
        """Map a BiRatFunc into Q(zeta_{r-1})(u); PoleError if den -> 0."""
        if isinstance(x, (int, Fraction)):
            return UniRatFunc.const(self.N, x)
        if isinstance(x, QTPoly):
            x = BiRatFunc.from_poly(x)
        den = self.specialize_poly(x.den)
        if not den:
            raise PoleError("pole at specialization (k=%d, r=%d)" % (self.k, self.r))
        num = self.specialize_poly(x.num)
        return (UniRatFunc.from_laurent(self.N, num)
                / UniRatFunc.from_laurent(self.N, den))

    def is_resonant(self, a, b):
        """True iff q^a t^b = 1 under the specialization."""
        if a % (self.r - 1):
            return False
        s = a // (self.r - 1)
        return b == (self.k + 1) * s

    def __repr__(self):
        return "ParameterSpec(k=%d, r=%d)" % (self.k, self.r)


# ---------------------------------------------------------------------------
# canonical string rendering
# ---------------------------------------------------------------------------

def _render_terms(terms, varnames):
    """terms: list of (key-tuple, Fraction-or-CycloNum) sorted already."""
    parts = []
    for mono, coeff in terms:
        factors = []
        for name, e in zip(varnames, mono):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append("%s^%d" % (name, e))
        if isinstance(coeff, CycloNum):
            if coeff.is_rational():
                cs = str(coeff.rational_value())
            else:
                cs = "(" + render_scalar(coeff) + ")"
        else:
            cs = str(coeff)
        if factors:
            body = "*".join(factors)
            if cs == "1":
                s = body
            elif cs == "-1":
                s = "-" + body
            else:
                s = cs + "*" + body
        else:
            s = cs
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        if s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


def _render_qtpoly(f):
    if f.is_zero():
        return "0"
    keys = sorted(f.d, key=_grlex, reverse=True)
    return _render_terms([(k, f.d[k]) for k in keys], ("q", "t"))


def _render_ascending(coeffs, var):
    """An ascending coefficient tuple (Fractions or CycloNums) as a
    polynomial in var, highest power first."""
    terms = [((e,), coeffs[e]) for e in range(len(coeffs) - 1, -1, -1)
             if coeffs[e]]
    return _render_terms(terms, (var,)) if terms else "0"


def render_scalar(x):
    """Canonical text form shared by every module's JSON output."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, CycloNum):
        return _render_ascending(x.c, "z")
    if isinstance(x, QTPoly):
        return _render_qtpoly(x)
    if isinstance(x, UniPoly):
        return _render_ascending(x.coeffs(), "u")
    if isinstance(x, UniRatFunc):
        num = _render_ascending(x.num.coeffs(), "u")
        if x.den.degree() == 0:
            return num
        return "(%s)/(%s)" % (num, _render_ascending(x.den.coeffs(), "u"))
    if isinstance(x, BiRatFunc):
        if x.den.is_one():
            return _render_qtpoly(x.num)
        return "(%s)/(%s)" % (_render_qtpoly(x.num), _render_qtpoly(x.den))
    raise TypeError("cannot render %r" % (type(x).__name__,))

